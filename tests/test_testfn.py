"""Seed functions, convolution chains, and the certified band-mass bounds."""
import dataclasses
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fup.testfn
from fup.cantor import Alphabet, build_alphabet_interval, cantor_elements
from fup.serialize import sanitize
from fup.testfn import (EXP_STEP_MAX, SeedFunction, band_lipschitz,
                        band_masses, band_rounding, convolution_chain,
                        gaussian_seed, gaussian_symbol, gaussian_symbol_theta,
                        indicator_seed, symbol_eval, theorem1_certificate,
                        verify_product_formula, verify_tail_bound,
                        z_certificate)

RNG = np.random.default_rng(99)


def test_seed_validation():
    a = Alphabet(4, (0, 2))
    with pytest.raises(ValueError):
        SeedFunction(a, np.ones(3))
    bad = np.zeros(4, dtype=complex)
    bad[1] = 1.0  # support off the letters
    with pytest.raises(ValueError):
        SeedFunction(a, bad)
    with pytest.raises(ValueError):
        SeedFunction(a, np.zeros(4))
    nan = np.zeros(4, dtype=complex)
    nan[0] = np.nan
    with pytest.raises(ValueError):
        SeedFunction(a, nan)


def test_indicator_seed():
    a = Alphabet(5, (1, 4))
    f = indicator_seed(a)
    assert f.norm_sq == pytest.approx(2.0)
    assert f.norm1 == pytest.approx(2.0)
    assert list(f.support) == [1, 4]
    g = f.normalized()
    assert g.norm_sq == pytest.approx(1.0)


def test_gaussian_seed_values():
    a = build_alphabet_interval(16, 0.75)
    f = gaussian_seed(a)
    assert list(f.support) == list(a.letters)
    # center value M^{-1/2}, sign (-1)^l exact
    assert f.values[8] == pytest.approx(1 / 4.0)
    for l in a.letters:
        expected = math.exp(-math.pi * (l - 8.0) ** 2 / 16) / 4.0
        assert f.values[l].real == pytest.approx(expected * (-1) ** l, rel=1e-15)
        assert f.values[l].imag == 0.0


def test_symbol_eval_against_direct_sum():
    a = Alphabet(7, (1, 2, 5))
    vals = np.zeros(7, dtype=complex)
    vals[[1, 2, 5]] = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
    f = SeedFunction(a, vals)
    xs = RNG.uniform(-2, 2, 50)
    direct = np.array([sum(f.values[l] * np.exp(-2j * np.pi * l * x)
                           for l in a.letters) / math.sqrt(7) for x in xs])
    got = symbol_eval(f, xs)
    assert np.max(np.abs(got - direct)) < 1e-12
    # periodicity and scalar call
    assert symbol_eval(f, 0.3) == pytest.approx(symbol_eval(f, 1.3), abs=1e-12)


def test_comb_identity():
    for a in (Alphabet(6, (0, 2, 3)), build_alphabet_interval(9, 0.7)):
        for f in (indicator_seed(a), gaussian_seed(a)):
            ys = RNG.uniform(0, 1, 100)
            masses = band_masses(f, range(a.M), ys)
            assert np.max(np.abs(masses - f.norm_sq)) < 1e-10 * f.norm_sq


def test_band_masses_against_loop():
    a = Alphabet(8, (2, 3, 5))
    f = gaussian_seed(a)
    letters = [0, 3, 6]
    ys = RNG.uniform(0, 0.2, 17)
    direct = np.array([sum(abs(symbol_eval(f, l / 8 + y)) ** 2 for l in letters)
                       for y in ys])
    got = band_masses(f, letters, ys)
    assert np.max(np.abs(got - direct)) < 1e-12
    with pytest.raises(ValueError):
        band_masses(f, [8], 0.0)
    assert band_masses(f, letters, 0.1).shape == (1,)


def _seed(M, support, rng):
    vals = np.zeros(M, dtype=complex)
    vals[support] = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
    return SeedFunction(Alphabet(M, tuple(support)), vals)


@st.composite
def band_cases(draw):
    """A random complex seed on a random support (gaps included, sometimes
    touching both 0 and M - 1), a random letter set, possibly empty, and
    offsets either random in [-2, 2] or on a linspace grid."""
    M = draw(st.integers(2, 64))
    support = draw(st.sets(st.integers(0, M - 1), min_size=1))
    if draw(st.booleans()):
        support |= {0, M - 1}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    letters = sorted(draw(st.sets(st.integers(0, M - 1))))
    if draw(st.booleans()):
        y = rng.uniform(-2.0, 2.0, draw(st.integers(1, 40)))
    else:
        a, b = sorted(draw(st.tuples(st.floats(-2, 2), st.floats(-2, 2))))
        y = np.linspace(a, b, draw(st.integers(2, 200)))
    return _seed(M, sorted(support), rng), letters, y


# the pi of the extended-precision reference, to 36 digits
PI_LD = np.longdouble("3.14159265358979323846264338327950288")


@given(band_cases())
@example((_seed(7, [6], RNG), list(range(7)), np.linspace(-2, 2, 9)))
@example((_seed(64, [0, 63], RNG), [0, 31, 63], np.linspace(0, 1 / 64, 101)))
@example((_seed(2, [0, 1], RNG), [], np.array([0.5])))
def test_band_masses_within_rounding_bound(case):
    f, letters, y = case
    M = f.M
    got = band_masses(f, letters, y)
    bound = band_rounding(f, len(letters))
    G = symbol_eval(f, np.add.outer(y, np.asarray(letters, dtype=float) / M))
    direct = (np.abs(G) ** 2).sum(axis=-1)
    # the direct sum's own rounding: phases 2 pi m x with m < M, |x| <= 3
    # are off by about 60 M u each, so each |G_f|^2 by 120 M u ||f||_1^2 / M
    direct_rounding = 128 * np.finfo(float).eps * len(letters) * f.norm1**2
    assert np.max(np.abs(got - direct), initial=0.0) <= bound + direct_rounding
    if np.finfo(np.longdouble).nmant >= 63:
        # the same sum in extended precision is exact to far below the bound
        x = np.add.outer(y.astype(np.longdouble), np.asarray(letters, dtype=np.longdouble) / M)
        phase = np.multiply.outer(x, np.arange(M, dtype=np.longdouble))
        G = (np.exp(-2j * PI_LD * phase) @ f.values.astype(np.clongdouble)
             / np.sqrt(np.longdouble(M)))
        exact = (np.abs(G) ** 2).sum(axis=-1)
        assert np.max(np.abs(got - exact), initial=0.0) <= bound


def _fft_band_masses(seed, letters, y):
    """The FFT formulation: for fixed y the values G_f(l/M + y) over all
    residues l are one ortho DFT of m -> f(m) e^{-2 pi i m y}, so a y-grid
    becomes a batched FFT, 4096 rows at a time."""
    idx = sorted(letters)
    m = np.arange(seed.M, dtype=np.float64)
    out = np.zeros(y.size)
    for s in range(0, y.size, 4096):
        rows = seed.values[None, :] * np.exp(-2j * np.pi * np.outer(y[s:s + 4096], m))
        spec = np.fft.fft(rows, axis=1, norm="ortho")
        out[s:s + 4096] = (np.abs(spec[:, idx]) ** 2).sum(axis=1)
    return out


# the benchmark sweep's theorem1 points, M in {16, 32, 64} x delta in
# {0.6, 0.75, 0.9} at k = 1 and four of them again at k = 2; band masses do
# not depend on k
@pytest.mark.parametrize("M", [16, 32, 64])
@pytest.mark.parametrize("delta", [0.6, 0.75, 0.9])
def test_band_masses_match_fft_formulation(M, delta):
    f = gaussian_seed(build_alphabet_interval(M, delta)).normalized()
    rest = sorted(set(range(M)) - set(f.alphabet.letters))
    for letters, points in ((f.alphabet.letters, 100_000), (rest, 20_001)):
        y = np.linspace(0.0, 1.0 / M, points)
        assert np.max(np.abs(band_masses(f, letters, y) - _fft_band_masses(f, letters, y))) < 1e-14


def test_z_certificate_is_fast_at_large_m():
    f = gaussian_seed(build_alphabet_interval(256, 0.9)).normalized()
    t0 = time.perf_counter()
    zc = z_certificate(f)
    assert time.perf_counter() - t0 < 0.5
    assert zc.z_certified_lower <= zc.z_grid_min


def test_chain_small_indicator():
    a = Alphabet(3, (0, 2))
    chain = convolution_chain(indicator_seed(a), 2)
    assert chain.u[8] == pytest.approx(1.0)  # digits (2,2)
    assert chain.u[1] == 0.0  # digit 1 is not a letter
    assert sorted(np.flatnonzero(chain.u)) == [0, 2, 6, 8]


def test_chain_is_seed_at_depth_one():
    a = build_alphabet_interval(8, 0.8)
    f = gaussian_seed(a)
    chain = convolution_chain(f, 1)
    assert np.array_equal(chain.u, f.values)


def test_chain_digit_products():
    a = build_alphabet_interval(8, 0.8)
    f = gaussian_seed(a)
    k = 3
    chain = convolution_chain(f, k)
    for x in np.array(chain.cantor.elements)[RNG.choice(len(chain.cantor.elements),
                                                        20, replace=False)]:
        digits, v = [], int(x)
        for _ in range(k):
            v, d = divmod(v, 8)
            digits.append(d)
        prod = np.prod([f.values[d] for d in digits])
        assert chain.u[x] == pytest.approx(prod, rel=1e-12)


def test_chain_norm_and_support():
    a = build_alphabet_interval(9, 0.7)
    for f in (indicator_seed(a), gaussian_seed(a).normalized()):
        for k in (1, 2, 3):
            chain = convolution_chain(f, k)
            nsq = float(np.vdot(chain.u, chain.u).real)
            assert nsq == pytest.approx(f.norm_sq**k, rel=1e-10)
            assert set(np.flatnonzero(chain.u)) == set(chain.cantor.elements)


def test_product_formula():
    for a in (Alphabet(6, (0, 2, 3)), build_alphabet_interval(8, 0.8)):
        for f in (indicator_seed(a), gaussian_seed(a)):
            for k in (1, 2, 3):
                dev = verify_product_formula(convolution_chain(f, k))
                assert dev <= 1e-10 * f.norm1**k


def test_z_certificate_flat_case():
    # single-letter seed: |G_f| is constant, so Z = 1/M with zero slack
    a = Alphabet(5, (3,))
    f = indicator_seed(a)
    assert band_lipschitz(f) == 0.0
    zc = z_certificate(f, grid_points=101)
    assert zc.z_grid_min == pytest.approx(1 / 5, abs=1e-14)
    assert zc.z_certified_lower == pytest.approx(1 / 5, abs=1e-14)
    assert zc.lipschitz_bound == 0.0


def test_band_lipschitz_dominates_observed_slope():
    for a in (Alphabet(7, (2, 6)), build_alphabet_interval(12, 0.7)):
        f = gaussian_seed(a) if a.size > 2 else indicator_seed(a)
        lip = band_lipschitz(f)
        ys = np.linspace(0.0, 1.0 / a.M, 20_001)
        m = band_masses(f, a.letters, ys)
        slope = float(np.max(np.abs(np.diff(m)))) / (ys[1] - ys[0])
        assert slope <= lip * (1 + 1e-6) + 1e-12


def test_band_lipschitz_uses_support_half_width():
    a = Alphabet(9, (2, 6))
    f = indicator_seed(a)  # support {2, 6}: center 4, half-width 2
    assert band_lipschitz(f) == pytest.approx(4 * math.pi * 2 * f.norm_sq)


def test_z_enclosure_tightens_under_refinement():
    f = gaussian_seed(build_alphabet_interval(11, 0.8)).normalized()
    coarse = z_certificate(f, grid_points=500)
    fine = z_certificate(f, grid_points=50_000)
    assert coarse.z_certified_lower <= coarse.z_grid_min
    assert fine.z_certified_lower <= fine.z_grid_min
    # the refined grid minimum still sits above the coarse certified floor
    assert fine.z_grid_min >= coarse.z_certified_lower - 1e-15
    assert fine.z_certified_lower >= coarse.z_certified_lower - 1e-15
    with pytest.raises(ValueError):
        z_certificate(f, grid_points=1)


def test_tail_bound_small_cases():
    lhs, rhs = verify_tail_bound(64, 0.6)
    assert 0 <= lhs <= rhs
    # full-alphabet edge: empty complement gives a zero left side
    lhs0, rhs0 = verify_tail_bound(4, 1.0)
    assert lhs0 == 0.0 and rhs0 > 0


def test_gaussian_symbol_theta_oracle():
    xs = RNG.uniform(-1, 2, 64)
    for M in (4, 16, 64, 256):
        a = gaussian_symbol(M, xs)
        b = gaussian_symbol_theta(M, xs)
        assert np.max(np.abs(a - b)) < 1e-10
    assert gaussian_symbol(16, 0.25) == pytest.approx(gaussian_symbol_theta(16, 0.25),
                                                      abs=1e-12)


def test_exp_step_constant():
    # 1 - x/2 >= e^{-x} must hold on [0, EXP_STEP_MAX]
    xs = np.linspace(0, EXP_STEP_MAX, 10_000)
    assert np.all(1 - xs / 2 >= np.exp(-xs) - 1e-12)
    assert 1 - 1.63 / 2 < math.exp(-1.63)  # and fails just past it


def test_theorem1_certificate_structure():
    with pytest.warns(UserWarning):
        rep = theorem1_certificate(16, 0.75, 2, grid_points=20_000,
                                   y_samples=5_001)
    assert not rep.binding  # the e^{-x} step is out of range at M=16
    assert rep.norm_ok and rep.tail_ok and not rep.exp_ok
    assert rep.seed_norm_sq >= rep.seed_norm_floor
    assert rep.tail_lhs <= rep.tail_rhs
    assert rep.chain_lhs is not None
    assert rep.chain_lhs >= rep.chain_rhs - 1e-12
    assert rep.norm.sigma_max >= rep.sigma_lower - 1e-10
    assert rep.exponents.beta_k <= rep.beta_upper_certified + 1e-10
    assert set(sanitize(rep)) >= {"exponents", "z", "norm", "chain_lhs",
                                  "sigma_lower", "binding"}


def test_theorem1_binding_at_large_m():
    rep = theorem1_certificate(16, 0.9, 1, grid_points=20_000, y_samples=5_001)
    assert rep.binding
    assert rep.beta_bound_ok


def test_theorem1_delta_validation():
    with pytest.raises(ValueError):
        theorem1_certificate(16, 0.5, 1)
    with pytest.raises(ValueError):
        theorem1_certificate(16, 1.0, 1)


def test_theorem1_refuses_bad_tol_before_any_grid_work(monkeypatch):
    calls = []
    monkeypatch.setattr(fup.testfn, "z_certificate", lambda *a, **kw: calls.append(a))
    for tol in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"tol must be positive and finite, got {tol}"):
            theorem1_certificate(4096, 0.9, 1, tol=tol)
    assert calls == []


def test_theorem1_chain_mass_below_its_floor_fails(monkeypatch):
    monkeypatch.setattr(fup.testfn, "convolution_chain",
                        lambda fn, k: SimpleNamespace(u=np.zeros(16**k)))
    with pytest.raises(ArithmeticError, match="chain mass 0.0 fell below its certified floor"):
        theorem1_certificate(16, 0.9, 1, grid_points=20_000, y_samples=5_001)


def test_theorem1_norm_below_sigma_lower_fails(monkeypatch):
    real = fup.testfn.masked_norm
    monkeypatch.setattr(fup.testfn, "masked_norm", lambda *a, **kw: dataclasses.replace(
        real(*a, **kw), sigma_max=0.0))
    with pytest.raises(ArithmeticError, match="masked norm 0.0 fell below certified floor"):
        theorem1_certificate(16, 0.9, 1, grid_points=20_000, y_samples=5_001)
