"""Rational approximation, exponential-sum brackets, and the dilated pipeline."""
import math
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from fup.cantor import Alphabet, CapacityError, build_alphabet_initial, cantor_elements
from fup.diophantine import (best_rational, canonical_dilation, f1_abs,
                             f1_eval, f1_sup, fk_eval, g_bound, sk_estimate,
                             theorem2_report)
from fup.serialize import sanitize

RNG = np.random.default_rng(31)


def test_canonical_dilation():
    assert canonical_dilation(1280, 16) == (Fraction(5), 2)
    assert canonical_dilation(48, 4) == (Fraction(3), 2)
    assert canonical_dilation(4, 4) == (Fraction(1), 1)
    assert canonical_dilation(40, 4) == (Fraction(5, 2), 2)
    alpha, k = canonical_dilation(20480, 16)
    assert alpha == 5 and k == 3 and alpha * 16**k == 20480
    with pytest.raises(ValueError):
        canonical_dilation(10, 4)
    with pytest.raises(ValueError):
        canonical_dilation(2, 4)


def test_best_rational_worked_examples():
    ra = best_rational(Fraction(1), 16, 4)
    assert (ra.b, ra.q) == (0, 1) and ra.gamma == 0.0 and ra.strict_ok

    ra = best_rational(Fraction(3, 2), 4, 2)
    assert (ra.b, ra.q) == (1, 2)
    assert ra.error == Fraction(1, 8)

    ra = best_rational(Fraction(5), 16, 4)
    assert (ra.b, ra.q) == (1, 3)
    assert ra.error == Fraction(1, 48)
    assert ra.gamma == pytest.approx(math.log(3) / math.log(16))


def test_best_rational_boundary_regimes():
    # alpha/M = 7/64 sits exactly 1/(8q) away from 1/8: strict rejects q=8
    strict = best_rational(Fraction(7), 64, 8, regime="strict")
    assert (strict.b, strict.q) == (0, 1)
    loose = best_rational(Fraction(7), 64, 8, regime="nonstrict")
    assert (loose.b, loose.q) == (1, 8)
    assert loose.error == Fraction(1, 64)
    assert loose.nonstrict_ok and not loose.strict_ok


def test_best_rational_validation():
    with pytest.raises(ValueError):
        best_rational(Fraction(1, 2), 4, 2)
    with pytest.raises(ValueError):
        best_rational(Fraction(4), 4, 2)
    with pytest.raises(ValueError):
        best_rational(Fraction(2), 4, 0)
    with pytest.raises(ValueError):
        best_rational(Fraction(2), 4, 2, regime="loose")


def _oracle_best(alpha: Fraction, M: int, Mdelta: int, strict: bool):
    """Exhaustive search over irreducible b/q, q <= Mdelta."""
    x = alpha / M
    best = None
    for q in range(1, Mdelta + 1):
        for b in range(0, q + 1):  # x < 1, so b <= q suffices
            if not (b == 0 and q == 1) and gcd(b, q) != 1:
                continue
            err = abs(x - Fraction(b, q))
            cap = Fraction(1, q * Mdelta)
            if (err > cap) or (strict and err == cap):
                continue
            if best is None or q > best[0] or (q == best[0]
                                               and (err, b) < (best[1], best[2])):
                best = (q, err, b)
    return best


def test_best_rational_matches_exhaustive():
    for M, Mdelta in [(9, 3), (16, 4), (27, 5), (64, 8)]:
        for r in (1, 2, 3):
            for p in range(r, M * r, max(1, r)):
                if gcd(p, r) != 1:
                    continue
                alpha = Fraction(p, r)
                if not 1 <= alpha < M:
                    continue
                for regime, strict in (("strict", True), ("nonstrict", False)):
                    ra = best_rational(alpha, M, Mdelta, regime=regime)
                    q_ref, err_ref, b_ref = _oracle_best(alpha, M, Mdelta, strict)
                    assert ra.q == q_ref, (alpha, M, Mdelta, regime)
                    assert ra.error == err_ref
                    assert ra.b == b_ref


def test_f1_closed_form_values():
    for L in (2, 4, 7):
        assert f1_eval(L, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert f1_eval(L, 3.0) == pytest.approx(1.0, abs=1e-12)
        for b in range(1, L):
            assert abs(f1_eval(L, b / L)) < 1e-13
    with pytest.raises(ValueError):
        f1_eval(1, 0.5)


def test_f1_against_direct_mean():
    for L in (2, 5, 9):
        xs = RNG.uniform(-3, 3, 200)
        direct = np.exp(-2j * np.pi * np.outer(xs, np.arange(L))).mean(axis=1)
        assert np.max(np.abs(f1_eval(L, xs) - direct)) < 1e-12
        assert np.max(np.abs(f1_abs(L, xs) - np.abs(direct))) < 1e-12
        assert np.max(f1_abs(L, xs)) <= 1 + 1e-15


def test_f1_derivative_bound():
    L = 6
    xs = np.linspace(0, 1, 200_001)
    vals = f1_abs(L, xs)
    slope = float(np.max(np.abs(np.diff(vals)))) / (xs[1] - xs[0])
    assert slope <= math.pi * (L - 1) * (1 + 1e-4)


def test_f1_sup_brackets_refined_maximum():
    L = 5
    lo, hi = 0.13, 0.18
    grid_sup, cert = f1_sup(L, lo, hi, grid=32)
    assert grid_sup <= cert <= 1.0
    fine = float(np.max(f1_abs(L, np.linspace(lo, hi, 100_000))))
    assert grid_sup <= fine + 1e-12
    assert fine <= cert + 1e-12
    v, c = f1_sup(L, 0.25, 0.25)
    assert v == c == pytest.approx(float(f1_abs(L, 0.25)))
    with pytest.raises(ValueError):
        f1_sup(L, 0.3, 0.2)


def test_fk_recursion_and_product_form():
    a = build_alphabet_initial(9, 3)
    xs = RNG.uniform(0, 1, 100)
    for k in (2, 3, 4):
        ck = cantor_elements(a, k)
        prev = cantor_elements(a, k - 1)
        lhs = fk_eval(ck, xs)
        rhs = f1_eval(3, xs) * fk_eval(prev, 9.0 * xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        prod = np.ones(xs.size, dtype=complex)
        for r in range(k):
            prod = prod * f1_eval(3, (9.0**r) * xs)
        assert np.max(np.abs(lhs - prod)) < 1e-12


def test_fk_general_alphabet():
    a = Alphabet(5, (0, 2))
    ck = cantor_elements(a, 3)
    xs = RNG.uniform(0, 1, 50)
    direct = fk_eval(ck, xs)
    prod = np.ones(xs.size, dtype=complex)
    for r in range(3):
        prod = prod * (np.exp(-2j * np.pi * 0 * xs * 5.0**r)
                       + np.exp(-2j * np.pi * 2 * xs * 5.0**r)) / 2
    assert np.max(np.abs(direct - prod)) < 1e-12


def test_fk_capacity():
    a = build_alphabet_initial(4, 2)
    with pytest.raises(CapacityError):
        fk_eval(cantor_elements(a, 17), 0.1)  # 2^17 elements


def test_g_bound_bracket_and_validation():
    b = g_bound(16, 4, Fraction(3, 2), outer_grid=5_000, inner_grid=16)
    assert 0 < b.G_grid <= b.G_upper
    assert b.G_upper <= 4 * (4 / 16) + 1e-12  # trivial cap L * (L/M)
    assert b.delta == pytest.approx(0.5)
    fine = g_bound(16, 4, Fraction(3, 2), outer_grid=40_000, inner_grid=32)
    # certified upper bounds shrink under refinement, grid values grow
    assert fine.G_upper <= b.G_upper + 1e-12
    assert fine.G_grid >= b.G_grid - 1e-12
    with pytest.raises(ValueError):
        g_bound(16, 1, 1)
    with pytest.raises(ValueError):
        g_bound(16, 4, Fraction(1, 2))
    with pytest.raises(ValueError):
        g_bound(16, 4, 1, outer_grid=4)


def test_g_bound_independent_window_oracle():
    M, L, alpha = 9, 3, Fraction(2)
    b = g_bound(M, L, alpha, outer_grid=20_000, inner_grid=24)
    width = float(alpha) * L / M**2
    xs = RNG.uniform(0, 1, 400)
    worst = 0.0
    for x in xs:
        total = 0.0
        for a in range(L):
            lo = x + float(alpha) * a / M
            total += float(np.max(f1_abs(L, np.linspace(lo, lo + width, 200))))
        worst = max(worst, total)
    assert (L / M) * worst <= b.G_upper + 1e-9


def test_sk_estimate_below_g_power():
    a = build_alphabet_initial(16, 4)
    b = g_bound(16, 4, Fraction(1), outer_grid=20_000)
    for k in (1, 2):
        sk = sk_estimate(cantor_elements(a, k), Fraction(1), grid=512)
        assert sk <= b.G_upper**k + 1e-9


def test_sk_estimate_caps():
    a = build_alphabet_initial(4, 2)
    with pytest.raises(CapacityError):
        sk_estimate(cantor_elements(a, 5), 1)
    with pytest.warns(UserWarning):
        big = cantor_elements(build_alphabet_initial(9, 9), 4)
    with pytest.raises(CapacityError):
        sk_estimate(big, 1)


def test_theorem2_report_structure():
    rep = theorem2_report(16, 4, 2, Fraction(5), outer_grid=5_000, sk_grid=256)
    assert rep.N == 1280
    assert rep.approx.q == 3
    assert rep.gamma == pytest.approx(math.log(3) / math.log(16))
    assert rep.target_exponent == pytest.approx(0.5 - 0.5 + rep.gamma / 2)
    assert rep.eps_emp == pytest.approx(rep.target_exponent - rep.exponents.beta_k)
    assert rep.bounds.k == 2
    assert rep.bounds.S_k_grid is not None
    assert rep.bounds.S_k_grid <= rep.bounds.G_upper**2 + 1e-9
    assert rep.C_fit > 0
    assert rep.prop_rhs == pytest.approx(12 * 4 / 16 * (4 / 3 + math.log(3)))
    d = sanitize(rep)
    assert d["alpha"] == {"numerator": 5, "denominator": 1}
    assert set(d) >= {"norm", "exponents", "approx", "bounds", "prop_rhs", "C_fit"}


def test_theorem2_refusals():
    with pytest.raises(ValueError):
        theorem2_report(9, 4, 1, 1)  # Mdelta^2 > M
    with pytest.raises(ValueError):
        theorem2_report(16, 4, 1, Fraction(3, 2))  # N = 24 not a multiple of 16
    with pytest.raises(ValueError):
        theorem2_report(16, 4, 1, Fraction(16))
    with pytest.raises(CapacityError):
        theorem2_report(16, 4, 7, Fraction(1))  # N = 16^7 > 2^24
