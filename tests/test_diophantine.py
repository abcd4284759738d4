"""Rational approximation, exponential-sum brackets, and the dilated pipeline."""
import math
import time
import tracemalloc
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import fup.diophantine
from fup.cantor import (Alphabet, CapacityError, build_alphabet_initial,
                        cantor_elements, dilate)
from fup.diophantine import (G_TABLE_MAX, best_rational, canonical_dilation,
                             f1_abs, f1_eval, fk_eval, g_bound, sk_estimate,
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


def test_f1_accurate_next_to_integers():
    # x - 1 or x - 3 within a few ulp of 0: |F_1| is 1 to rounding
    xs = np.array([1 - 2.0**-53, 1 - 2.0**-40, 1 + 2.0**-52, 3 - 2.0**-51, 2.0**-60])
    for L in range(2, 9):
        direct = np.exp(-2j * np.pi * np.outer(xs, np.arange(L))).mean(axis=1)
        assert np.max(np.abs(f1_eval(L, xs) - direct)) < 1e-12
        assert np.all(f1_abs(L, xs) <= 1.0)


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
    c = cantor_elements(a, 17)
    with pytest.raises(CapacityError):
        fk_eval(c, 0.1)  # 2^17 elements
    assert "elements" not in vars(c)


def test_g_bound_bracket_and_validation():
    b = g_bound(16, 4, Fraction(3, 2), outer_grid=5_000)
    assert 0 < b.G_grid <= b.G_upper
    assert b.G_upper <= 4 * (4 / 16) + 1e-12  # trivial cap L * (L/M)
    assert b.delta == pytest.approx(0.5)
    fine = g_bound(16, 4, Fraction(3, 2), outer_grid=40_000)
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
    b = g_bound(M, L, alpha, outer_grid=20_000)
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


def reference_g_bracket(M, L, alpha, outer_grid, inner_grid=16):
    """(G_grid, G_upper) by the inner-grid route: every outer grid point x,
    each window sampled at inner_grid points, half-step derivative slack on
    both grids. Costs outer_grid * L * inner_grid evaluations of |F_1|."""
    af = float(alpha)
    width = af * L / (M * M)
    eta = af * np.arange(L) / M
    s = np.linspace(0.0, width, inner_grid)
    h_in = width / (inner_grid - 1)
    h_out = 1.0 / outer_grid
    lip = math.pi * (L - 1)
    best_grid = best_cert = 0.0
    chunk = max(1, 2**21 // (L * inner_grid))
    for start in range(0, outer_grid, chunk):
        x = np.arange(start, min(start + chunk, outer_grid)) * h_out
        sup = f1_abs(L, x[:, None, None] + eta[None, :, None] + s[None, None, :]).max(axis=2)
        best_grid = max(best_grid, float(sup.sum(axis=1).max()))
        capped = np.minimum(sup + lip * h_in / 2, 1.0)
        best_cert = max(best_cert, float(capped.sum(axis=1).max()))
    return ((L / M) * best_grid,
            (L / M) * min(best_cert + L * lip * h_out / 2, float(L)))


@st.composite
def g_cases(draw):
    M = draw(st.integers(4, 40))
    L = draw(st.integers(2, min(M, 8)))
    r = draw(st.integers(1, 4))
    alpha = Fraction(draw(st.integers(r, M * r - 1)), r)
    least = math.ceil(M * M / (alpha * L))
    return M, L, alpha, draw(st.integers(max(500, least), 8000))


@given(g_cases())
@example((9, 3, Fraction(2), 1000))       # shifts alpha a P / M round
@example((25, 5, Fraction(7, 2), 3001))
@example((16, 4, Fraction(11, 3), 2000))
@example((6, 6, Fraction(1), 500))        # reference samples land 1e-16 below 1
def test_g_bound_brackets_against_inner_grid_reference(case):
    M, L, alpha, P = case
    ref_grid, ref_upper = reference_g_bracket(M, L, alpha, P)
    b = g_bound(M, L, alpha, outer_grid=P)
    assert ref_grid <= b.G_upper + 1e-12
    assert b.G_grid <= ref_upper + 1e-12
    assert b.G_grid <= b.G_upper


# (G_grid, G_upper) of the inner-grid route at the default outer grid
INNER_GRID_ROUTE = {
    16: [(0.9065772991817498, 0.9077696083936121), (0.8017617068044547, 0.8035383896497973),
         (0.6360819574864902, 0.6390281465384668), (0.6159534418863876, 0.6221138850631517)],
    64: [(0.8815238843926554, 0.8819197468836235), (0.7544892136238012, 0.7550555184245342),
         (0.35005697953000625, 0.3516033698925807), (0.2904402495288863, 0.29288141973703513)],
}


def test_g_bound_tightens_inner_grid_route_in_time():
    t0 = time.perf_counter()
    for M, rows in INNER_GRID_ROUTE.items():
        alphas = (Fraction(1), Fraction(3, 2), Fraction(5), Fraction(7))
        for (old_grid, old_upper), alpha in zip(rows, alphas):
            b = g_bound(M, math.isqrt(M), alpha)
            assert old_grid <= b.G_upper <= old_upper, (M, alpha)
    assert time.perf_counter() - t0 < 3.0


def test_max_shifted_sum_adds_in_place_in_the_rolled_order():
    # the same additions in the same order as summing np.roll copies
    tables = [RNG.random(97) for _ in range(4)]
    terms = list(zip(tables + tables[:1], [0, 5, 96, 97 + 40, 3 * 97]))
    acc = 0.0
    for t, s in terms:
        acc = acc + np.roll(t, -s)
    assert fup.diophantine._max_shifted_sum(iter(terms)) == float(acc.max())


@pytest.mark.parametrize("P", [1, 2, 7, 13, 64, 1001])
def test_widened_window_max_against_sliding_windows(P):
    f = RNG.random(P)
    fe = np.resize(f, 3 * P)  # the cyclic extension g_bound builds
    ext = np.concatenate([f, f])
    win = fup.diophantine._cyclic_window_max(fe, P, 1)
    for n in range(1, P + 4):
        ref = sliding_window_view(ext, n)[:P].max(axis=1) if n < P else np.full(P, f.max())
        win = fup.diophantine._widen(win, fe, max(n - 1, 1), n)
        assert np.array_equal(win, ref), n
        assert np.array_equal(fup.diophantine._cyclic_window_max(fe, P, n), ref), n
        if n in (P // 2, P, P + 3):  # many samples in one call
            one = fup.diophantine._widen(fup.diophantine._cyclic_window_max(fe, P, 1), fe, 1, n)
            assert np.array_equal(one, ref), n


@pytest.mark.parametrize("L", [2, 3, 8])
@pytest.mark.parametrize("P", [1, 2, 7, 13, 64, 1001, 200_000])
def test_half_period_table_mirrors_f1_abs(L, P):
    size = 3 * P + 1
    fe = fup.diophantine._half_period_table(L, P, size)
    ref = f1_abs(L, np.arange(P) / P)
    half = P // 2 + 1
    assert np.array_equal(fe[:half], ref[:half])
    # past P/2 the direct argument 1 - j/P is off by up to 2^-53 and
    # |F_1'| <= pi (L - 1); near the zeros of F_1 no relative bound holds
    assert np.all(np.abs(fe[:P] - ref) <= (math.pi * (L - 1) + 4) * 2.0**-53)
    assert np.array_equal(fe[1:P], fe[P - 1:0:-1])
    assert np.array_equal(fe, np.resize(fe[:P], size))


def full_period_g_bracket(M, L, alpha, P):
    """(G_grid, G_upper) the straightforward way: f1_abs on the whole
    period, one van Herk maximum per window length over np.resize copies,
    and sums of np.roll copies in g_bound's term order."""
    def window_max(f, n):
        n = min(n, P)
        blocks = -(-(P + n - 1) // n)
        g = np.resize(f, blocks * n).reshape(blocks, n)
        prefix = np.maximum.accumulate(g, axis=1).ravel()
        suffix = np.maximum.accumulate(g[:, ::-1], axis=1)[:, ::-1].ravel()
        return np.maximum(suffix[:P], prefix[n - 1:n - 1 + P])

    def shifted_sum(terms):
        return float(sum(np.roll(t, -s) for t, s in terms).max())

    w = alpha * L / (M * M)
    offsets = [alpha * a / M for a in range(L)]
    f = f1_abs(L, np.arange(P) / P)
    lo = [math.ceil(c * P) for c in offsets]
    counts = [math.floor((c + w) * P) - l + 1 for c, l in zip(offsets, lo)]
    inside = {n: window_max(f, n) for n in set(counts)}
    upper = np.minimum(window_max(f, math.ceil(w * P) + 3) + math.pi * (L - 1) / (2 * P), 1.0)
    return ((L / M) * shifted_sum((inside[n], l) for n, l in zip(counts, lo)),
            (L / M) * shifted_sum((upper, math.floor(c * P)) for c in offsets))


@st.composite
def g_cases_any_width(draw):
    M = draw(st.integers(4, 40))
    L = draw(st.integers(2, min(M, 8)))
    r = draw(st.integers(1, 4))
    alpha = Fraction(draw(st.integers(r, M * M * r)), r)  # up to windows of a period
    least = math.ceil(M * M / (alpha * L))
    return M, L, alpha, draw(st.integers(least, max(least, 3000)))


@given(g_cases_any_width())
@example((9, 3, Fraction(2), 1001))  # odd P, inside counts 74 and 75
@example((16, 4, Fraction(5), 13))   # inside counts 1 and 2
@example((4, 2, Fraction(8), 7))     # w = 1: windows of 8 and 10 samples, past P = 7
def test_g_bound_matches_full_period_route(case):
    M, L, alpha, P = case
    b = g_bound(M, L, alpha, outer_grid=P)
    for got, want in zip((b.G_grid, b.G_upper), full_period_g_bracket(M, L, alpha, P)):
        assert abs(got - want) <= 4 * math.ulp(want)


def test_g_bound_memory_stays_within_five_tables():
    P = 200_000
    g_bound(16, 4, 5, outer_grid=P)  # imports and first-call set-up out of the way
    tracemalloc.start()
    try:
        g_bound(16, 4, 5, outer_grid=P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * P


def test_g_bound_refuses_unusable_tables_before_work():
    # M^2 / (alpha Mdelta) = 256 / 20 = 12.8: 13 samples put one in every window
    b = g_bound(16, 4, 5, outer_grid=13)
    assert 0 < b.G_grid <= b.G_upper
    with pytest.raises(ValueError, match="at least 13"):
        g_bound(16, 4, 5, outer_grid=12)
    t0 = time.monotonic()
    with pytest.raises(CapacityError):
        g_bound(16, 4, 5, outer_grid=G_TABLE_MAX + 1)
    with pytest.raises(CapacityError):
        theorem2_report(16, 4, 1, 5, outer_grid=10**9)
    with pytest.raises(ValueError, match="at least 64"):
        theorem2_report(16, 4, 1, 1, outer_grid=63)
    assert time.monotonic() - t0 < 1.0


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
    assert "elements" not in vars(big)
    with pytest.raises(ValueError):  # takes C_k and alpha, not C_k(N)
        sk_estimate(dilate(cantor_elements(a, 2), 2), 2)
    with pytest.raises(ValueError):  # initial alphabets only
        sk_estimate(cantor_elements(Alphabet(4, (0, 3)), 2), 1)


@pytest.mark.parametrize("M, Mdelta, k, alpha, grid, table", [
    (16, 4, 1, Fraction(11, 3), 512, True),     # D = 1536
    (9, 3, 2, Fraction(7, 3), 1944, True),      # D = 1944 = grid
    (16, 4, 3, Fraction(3, 2), 512, True),      # D = 8192
    (9, 3, 2, Fraction(7, 3), 256, False),      # D = 62208 > grid |C_k| = 2304
    (25, 5, 2, Fraction(13, 4), 256, False),    # D = 160000 > 2^16
    (4, 2, 3, Fraction(3, 2), 65664, False),    # D = 65664 = 2^16 + 128
])
def test_sk_estimate_matches_direct_sum_at_exact_arguments(monkeypatch, M, Mdelta, k,
                                                             alpha, grid, table):
    c = cantor_elements(build_alphabet_initial(M, Mdelta), k)
    # x_s + alpha j / M^k = (s q M^k + p j grid) / (grid q M^k), reduced mod 1 in
    # integers and rounded once, as float(Fraction(...)) would
    p, q = alpha.numerator, alpha.denominator
    den = grid * q * M**k
    num = np.arange(grid)[:, None] * (q * M**k) + p * grid * c.elements
    t = (num % den) / den
    direct = (Mdelta / M) ** k * np.abs(fk_eval(c, t)).sum(axis=1).max()
    assert float(Fraction(int(num[-1, -1]), den) % 1) == t[-1, -1]
    sizes = []
    real_f1_abs = fup.diophantine.f1_abs
    monkeypatch.setattr(fup.diophantine, "f1_abs",
                        lambda L, x: sizes.append(np.size(x)) or real_f1_abs(L, x))
    sk = sk_estimate(c, alpha, grid=grid)
    assert sk == pytest.approx(direct, rel=1e-12, abs=0)
    D = math.lcm(grid, q * M**k)
    if table:  # one |F_1| sample per lattice point
        assert sizes == [D]
    else:  # k samples per (grid point, element), in chunks of at most 2^16
        assert max(sizes) <= 2**16 and sum(sizes) == k * grid * c.size


def test_sk_estimate_refuses_lattices_past_int64(monkeypatch):
    monkeypatch.setattr(fup.diophantine, "f1_abs", None)  # nothing may be evaluated
    a = Alphabet(2**16, (0, 1))
    t0 = time.monotonic()
    for k, alpha, grid in [(3, 1, 4096), (3, Fraction(3, 2), 3), (3, 1, 2**40),
                           (2, 1, 2**40 + 1)]:
        c = cantor_elements(a, k)  # D = lcm(grid, q 2^(16 k)), D M >= 2^63
        with pytest.raises(CapacityError, match="overflows int64"):
            sk_estimate(c, alpha, grid=grid)
        assert "elements" not in vars(c)
    # M^4 = 2^64 is past the index budget before sk_estimate is reached
    with pytest.raises(CapacityError):
        cantor_elements(a, 4)
    assert time.monotonic() - t0 < 1.0


def test_sk_estimate_refuses_empty_grid():
    c = cantor_elements(build_alphabet_initial(16, 4), 2)
    for grid in (0, -5):
        with pytest.raises(ValueError, match="grid >= 1"):
            sk_estimate(c, 5, grid=grid)
    with pytest.raises(ValueError, match="grid >= 1"):
        theorem2_report(16, 4, 2, 5, outer_grid=5_000, sk_grid=0)


@pytest.mark.parametrize("k", [2, 4, 5])
def test_theorem2_refuses_empty_sk_grid_before_any_norm(monkeypatch, k):
    # at k = 5 sk_estimate refuses C_k by its caps before it reads the grid,
    # so only theorem2_report's own check can see sk_grid = 0
    calls = []
    for name in ("masked_norm", "g_bound", "sk_estimate"):
        monkeypatch.setattr(fup.diophantine, name,
                            lambda *a, _name=name, **kw: calls.append(_name))
    for grid in (0, -5):
        with pytest.raises(ValueError, match="sk_grid >= 1"):
            theorem2_report(16, 4, k, 5, sk_grid=grid)
    assert calls == []


def test_sk_estimate_memory_stays_small():
    # the 4096-point grid runs in chunks of 2^16 evaluation points
    c = cantor_elements(build_alphabet_initial(16, 4), 4)
    c.elements  # built before tracing: the peak is sk_estimate's own
    tracemalloc.start()
    try:
        sk = sk_estimate(c, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sk == 0.1311363748280649
    assert peak < 20 * 2**20


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
        theorem2_report(16, 4, 7, Fraction(3, 2))  # FFT route, N = 4.0e8 > 2^24


def test_theorem2_refuses_large_N_before_any_work():
    # alpha = 5 runs pruned, whose budget refuses the 4^12 points of C_12;
    # dilate refuses alpha = 1/2, and builds nothing either way
    for alpha, error in ((Fraction(5), CapacityError), (Fraction(1, 2), ValueError)):
        t0 = time.monotonic()
        with pytest.raises(error):
            theorem2_report(16, 4, 12, alpha)
        assert time.monotonic() - t0 < 1.0
