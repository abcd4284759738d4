"""Seed functions, convolution chains, and the certified band-mass bounds."""
import math

import numpy as np
import pytest

from fup.cantor import Alphabet, build_alphabet_interval, cantor_elements
from fup.serialize import sanitize
from fup.testfn import (EXP_STEP_MAX, SeedFunction, band_lipschitz,
                        band_masses, convolution_chain,
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
