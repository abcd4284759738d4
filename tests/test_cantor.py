"""Exact combinatorics of alphabets, Cantor sets, and rational dilations."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fup.cantor import (CAPACITY, Alphabet, CapacityError,
                        build_alphabet_initial, build_alphabet_interval,
                        cantor_elements, dilate)
from fup.spectral import masked_gram_apply
from fup.sweep import parse_alpha


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(1, (0,))
    with pytest.raises(ValueError):
        Alphabet(4, ())
    with pytest.raises(ValueError):
        Alphabet(4, (0, 4))
    with pytest.raises(ValueError):
        Alphabet(4, (-1, 2))
    with pytest.raises(ValueError):
        Alphabet(4, (2, 2))
    with pytest.raises(ValueError):
        Alphabet(4, (3, 1))


def test_alphabet_size_and_delta():
    a = Alphabet(9, (0, 1, 2))
    assert a.size == 3
    assert a.delta == pytest.approx(0.5, abs=1e-15)
    b = Alphabet(3, (0, 2))
    assert b.delta == pytest.approx(math.log(2) / math.log(3), abs=1e-15)
    full = Alphabet(5, tuple(range(5)))
    assert full.delta == pytest.approx(1.0, abs=1e-15)


def test_parse_alpha():
    assert parse_alpha("3/2") == Fraction(3, 2)
    assert parse_alpha(" 7 ") == Fraction(7)
    with pytest.raises(ValueError):
        parse_alpha("a/b")


def test_interval_alphabet_membership():
    a = build_alphabet_interval(16, 0.75)
    half = 16**0.75 / 2
    assert a.letters == tuple(l for l in range(16) if abs(l - 8) <= half)
    # size tracks M^delta within 1
    assert abs(a.size - 16**0.75) <= 1
    with pytest.raises(ValueError):
        build_alphabet_interval(2, 0.9)
    with pytest.raises(ValueError):
        build_alphabet_interval(4, 0.5)  # width M^delta = 2 degenerates


def test_initial_alphabet():
    a = build_alphabet_initial(16, 4)
    assert a.letters == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        build_alphabet_initial(16, 1)
    with pytest.raises(ValueError):
        build_alphabet_initial(16, 17)
    with pytest.warns(UserWarning):
        build_alphabet_initial(16, 5)  # 25 > 16: outside delta <= 1/2


def test_cantor_elements_small():
    c = cantor_elements(Alphabet(3, (0, 2)), 2)
    assert c.elements.tolist() == [0, 2, 6, 8]
    assert c.elements.dtype == np.int64 and not c.elements.flags.writeable
    assert c.N == 9
    assert c.size == len(c.elements) == 4
    c1 = cantor_elements(Alphabet(3, (0, 2)), 1)
    assert c1.elements.tolist() == [0, 2]


def test_cantor_splits():
    # C_k = C_{k-1} + M^{k-1} A = A + M C_{k-1} as sets
    a = Alphabet(5, (0, 2, 3))
    for k in (2, 3):
        ck = set(cantor_elements(a, k).elements.tolist())
        prev = cantor_elements(a, k - 1).elements.tolist()
        high = {c + 5 ** (k - 1) * d for c in prev for d in a.letters}
        low = {d + 5 * c for c in prev for d in a.letters}
        assert ck == high == low


def test_cantor_sorted_and_bounded():
    a = Alphabet(7, (1, 4, 6))
    c = cantor_elements(a, 3)
    assert len(c.elements) == 27
    assert all(x < y for x, y in zip(c.elements, c.elements[1:]))
    assert 0 <= c.elements[0] and c.elements[-1] < 7**3


@given(
    st.integers(2, 10).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.sets(st.integers(0, m - 1), min_size=1, max_size=m),
            st.integers(1, 4),
        )
    )
)
def test_digit_round_trip(params):
    M, letters, k = params
    a = Alphabet(M, tuple(sorted(letters)))
    c = cantor_elements(a, k)
    assert len(c.elements) == a.size**k
    allowed = set(a.letters)
    for x in c.elements.tolist():
        digits = []
        v = x
        for _ in range(k):
            v, d = divmod(v, M)
            digits.append(d)
        assert v == 0
        assert set(digits) <= allowed
        assert sum(d * M**j for j, d in enumerate(digits)) == x


def test_capacity_limits():
    with pytest.raises(CapacityError):
        cantor_elements(Alphabet(2, (0, 1)), 60)  # 2^60 > 2^53 indices
    big = cantor_elements(Alphabet(4, tuple(range(4))), 14)
    with pytest.raises(CapacityError):
        big.elements  # 4^14 elements
    with pytest.raises(ValueError):
        cantor_elements(Alphabet(3, (0, 2)), 0)
    assert CAPACITY == 2**53


def test_dilate_identity():
    c = cantor_elements(Alphabet(4, (0, 3)), 2)
    d = dilate(c, Fraction(1))
    assert d == c
    assert d.elements.tolist() == c.elements.tolist()
    assert d.N == 16


def test_dilate_exact_ceiling():
    c = cantor_elements(Alphabet(4, (0, 1)), 2)
    d = dilate(c, Fraction(5, 4))
    assert d.N == 20
    expected = [math.ceil(Fraction(5, 4) * j) for j in c.elements.tolist()]
    assert d.elements.tolist() == expected
    # strictly increasing, hence no collisions
    assert all(x < y for x, y in zip(d.elements, d.elements[1:]))
    assert d.elements[-1] < d.N


def test_dilate_rejections():
    c1 = cantor_elements(Alphabet(4, (0, 1)), 1)
    with pytest.raises(ValueError):
        dilate(c1, Fraction(5, 2))  # N = 10 is not a multiple of 4
    with pytest.raises(ValueError):
        dilate(c1, Fraction(1, 2))  # alpha < 1
    with pytest.raises(ValueError):
        dilate(c1, Fraction(4))  # alpha >= M
    with pytest.raises(ValueError):
        dilate(c1, Fraction(7, 5))  # N = 28/5 is not an integer
    with pytest.raises(ValueError):
        dilate(dilate(c1, Fraction(2)), Fraction(2))  # already dilated


def test_dilate_refuses_N_past_the_index_budget():
    # N = (3/2) 2^53 has no exact float index; nothing is built before the refusal
    c = cantor_elements(Alphabet(2, (0, 1)), 53)
    with pytest.raises(CapacityError, match=r"N = 13510798882111488 exceeds the 2\^53"):
        dilate(c, Fraction(3, 2))
    assert "elements" not in vars(c)


def test_dilate_multiple_of_m_ok_at_higher_k():
    # the same alpha that fails at k=1 passes once M^k absorbs the denominator
    c2 = cantor_elements(Alphabet(4, (0, 1)), 2)
    d = dilate(c2, Fraction(5, 2))
    assert d.N == 40 and d.N % 4 == 0


@given(st.data())
def test_dilated_elements_are_exact_ceilings(data):
    M = data.draw(st.integers(2, 10))
    letters = data.draw(st.sets(st.integers(0, M - 1), min_size=1, max_size=M))
    k = data.draw(st.integers(1, 4))
    # alpha = top / M^(k-1) in [1, M), so N = top * M is a multiple of M
    top = data.draw(st.integers(M ** (k - 1), M**k - 1))
    alpha = Fraction(top, M ** (k - 1))
    c = cantor_elements(Alphabet(M, tuple(sorted(letters))), k)
    d = dilate(c, alpha)
    assert d.N == top * M
    assert d.elements.tolist() == [math.ceil(alpha * j) for j in c.elements.tolist()]


def test_dilated_elements_past_int64_products():
    # N = 2049 * 4^26 / 2048 < 2^53, but p * j reaches about 2^63
    alpha = Fraction(2049, 2048)
    d = dilate(cantor_elements(Alphabet(4, (3,)), 26), alpha)
    j = 4**26 - 1  # the one element, 33...3 in base 4
    assert d.N < 2**53 and 2049 * j > 2**63
    assert d.elements.tolist() == [math.ceil(alpha * j)]


def test_pruned_route_builds_no_elements():
    c = cantor_elements(Alphabet(3, (0, 2)), 20)
    assert c.size == 2**20
    masked_gram_apply(c, c, 3**20)
    assert "elements" not in vars(c)
