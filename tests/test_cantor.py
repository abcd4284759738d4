"""Exact combinatorics of alphabets, Cantor sets, and rational dilations."""
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fup.cantor import (CAPACITY, Alphabet, CantorSet, CapacityError,
                        DilatedCantorSet, build_alphabet_initial,
                        build_alphabet_interval, cantor_elements, dilate,
                        parse_rational, rational_from_json, rational_to_json)
from fup.serialize import sanitize


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


def test_json_round_trips():
    a = Alphabet(6, (1, 3, 4))
    assert Alphabet.from_json(sanitize(a)) == a
    c = cantor_elements(a, 2)
    assert CantorSet.from_json(sanitize(c)) == c
    d = dilate(cantor_elements(Alphabet(4, (0, 1)), 2), Fraction(3, 2))
    assert DilatedCantorSet.from_json(sanitize(d)) == d
    x = Fraction(7, 3)
    assert rational_from_json(rational_to_json(x)) == x


def test_parse_rational():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational(" 7 ") == Fraction(7)
    with pytest.raises(ValueError):
        parse_rational("a/b")


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
    assert c.elements == (0, 2, 6, 8)
    assert c.modulus == 9
    c1 = cantor_elements(Alphabet(3, (0, 2)), 1)
    assert c1.elements == (0, 2)


def test_cantor_splits():
    # C_k = C_{k-1} + M^{k-1} A = A + M C_{k-1} as sets
    a = Alphabet(5, (0, 2, 3))
    for k in (2, 3):
        ck = set(cantor_elements(a, k).elements)
        prev = cantor_elements(a, k - 1).elements
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
    for x in c.elements:
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
    with pytest.raises(CapacityError):
        cantor_elements(Alphabet(4, tuple(range(4))), 14)  # 4^14 elements
    with pytest.raises(ValueError):
        cantor_elements(Alphabet(3, (0, 2)), 0)
    assert CAPACITY == 2**53


def test_dilate_identity():
    c = cantor_elements(Alphabet(4, (0, 3)), 2)
    d = dilate(c, Fraction(1))
    assert d.elements == c.elements
    assert d.N == 16


def test_dilate_exact_ceiling():
    c = cantor_elements(Alphabet(4, (0, 1)), 2)
    d = dilate(c, Fraction(5, 4))
    assert d.N == 20
    expected = tuple(math.ceil(Fraction(5, 4) * j) for j in c.elements)
    assert d.elements == expected
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


def test_dilate_multiple_of_m_ok_at_higher_k():
    # the same alpha that fails at k=1 passes once M^k absorbs the denominator
    c2 = cantor_elements(Alphabet(4, (0, 1)), 2)
    d = dilate(c2, Fraction(5, 2))
    assert d.N == 40 and d.N % 4 == 0
