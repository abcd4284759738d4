"""Open baker propagator: block structure, contraction, spectral-radius bounds."""
import math
from fractions import Fraction

import numpy as np
import pytest

import fup.baker
from conftest import dft_matrix
from fup.baker import (BakerMap, CutoffProfile, bump_profile,
                       gelfand_bound, make_cutoff, sharp_profile)
from fup.cantor import Alphabet, CapacityError
from fup.serialize import sanitize
from fup.spectral import ConvergenceError

RNG = np.random.default_rng(7)


def test_cutoff_validation():
    with pytest.raises(ValueError):
        CutoffProfile("sharp", np.array([]))
    with pytest.raises(ValueError):
        CutoffProfile("custom", np.array([0.5, 1.2]))
    with pytest.raises(ValueError):
        CutoffProfile("custom", np.array([-0.1, 0.5]))
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        CutoffProfile("custom", np.array([0.5, np.nan, 0.5]))
    assert CutoffProfile("custom", [0.2, 0.8]).samples.tolist() == [0.2, 0.8]


def test_bump_profile_shape():
    chi = bump_profile(81).samples
    assert chi[0] == 0.0
    assert np.all(chi[1:] > 0)
    assert np.max(chi) <= 1.0
    # symmetric about t = 1/2 on the sample lattice shifted by one
    assert np.allclose(chi[1:], chi[1:][::-1], atol=1e-12)


def test_sharp_profile():
    assert np.array_equal(sharp_profile(5).samples, np.ones(5))
    with pytest.raises(ValueError):
        make_cutoff("gauss", 5)


def test_baker_validation():
    a = Alphabet(3, (0, 2))
    with pytest.raises(ValueError):
        BakerMap(10, 3, a, sharp_profile(3))  # N not a multiple of M
    with pytest.raises(ValueError):
        BakerMap(9, 3, Alphabet(4, (0, 2)), sharp_profile(3))
    with pytest.raises(ValueError):
        BakerMap(9, 3, a, sharp_profile(4))  # wrong cutoff length
    with pytest.raises(CapacityError):
        BakerMap(2**25, 2, Alphabet(2, (0, 1)), sharp_profile(2**24))


def _dense_baker(N, M, letters, chi):
    W = N // M
    D = np.zeros((N, N), dtype=complex)
    FW = dft_matrix(W)
    for m in letters:
        block = (chi[:, None] * FW) * chi[None, :]
        D[m * W:(m + 1) * W, m * W:(m + 1) * W] = block
    return dft_matrix(N).conj().T @ D


def test_baker_matches_dense_oracle():
    N, M = 9, 3
    a = Alphabet(3, (0, 2))
    chi = bump_profile(3).samples
    bmap = BakerMap(N, M, a, bump_profile(3))
    Bd = _dense_baker(N, M, a.letters, chi)
    for j in range(N):
        e = np.zeros(N, dtype=complex)
        e[j] = 1.0
        assert np.max(np.abs(bmap.apply(e) - Bd[:, j])) < 1e-12
        assert np.max(np.abs(bmap.adjoint(e) - Bd.conj().T[:, j])) < 1e-12
    v = RNG.standard_normal(N) + 1j * RNG.standard_normal(N)
    assert np.max(np.abs(bmap.gram_apply(v, 2)
                         - Bd.conj().T @ Bd.conj().T @ Bd @ Bd @ v)) < 1e-12


def test_baker_blocks_outside_alphabet_vanish():
    # input concentrated on the middle block (letter 1 is not in {0, 2})
    a = Alphabet(3, (0, 2))
    bmap = BakerMap(9, 3, a, sharp_profile(3))
    v = np.zeros(9, dtype=complex)
    v[3:6] = RNG.standard_normal(3)
    assert np.max(np.abs(bmap.apply(v))) < 1e-14


def test_baker_unitary_control():
    a = Alphabet(3, (0, 1, 2))
    bmap = BakerMap(27, 3, a, sharp_profile(9))
    for _ in range(5):
        v = RNG.standard_normal(27) + 1j * RNG.standard_normal(27)
        assert abs(np.linalg.norm(bmap.apply(v)) - np.linalg.norm(v)) < 1e-12
        assert np.max(np.abs(bmap.adjoint(bmap.apply(v)) - v)) < 1e-12


def test_baker_contraction():
    a = Alphabet(3, (0, 2))
    bmap = BakerMap(81, 3, a, bump_profile(27))
    for _ in range(5):
        v = RNG.standard_normal(81) + 1j * RNG.standard_normal(81)
        assert np.linalg.norm(bmap.apply(v)) <= np.linalg.norm(v) * (1 + 1e-12)


def test_gelfand_unitary():
    a = Alphabet(3, (0, 1, 2))
    rep = gelfand_bound(BakerMap(27, 3, a, sharp_profile(9)), n_max=8)
    assert abs(rep.rho_upper - 1.0) < 1e-10
    for n, u in rep.powers:
        assert abs(u - 1.0) < 1e-9


def test_gelfand_contraction_and_schedule():
    a = Alphabet(3, (0, 2))
    bmap = BakerMap(243, 3, a, bump_profile(81))
    rep = gelfand_bound(bmap, n_max=64)
    assert rep.rho_upper < 1.0
    ns = [n for n, _ in rep.powers]
    assert ns == [1, 2, 4, 8, 16, 32, 64]
    assert rep.rho_upper == pytest.approx(min(u ** (1.0 / n) for n, u in rep.powers))
    ups = dict(rep.powers)
    for n, u in rep.powers:
        if 2 * n in ups:
            assert ups[2 * n] <= u * u + 1e-9
    for d in rep.diagnostics:
        assert set(d) == {"n", "theta", "residual", "iterations", "converged",
                          "source"}
        # ||B^64||^2 is about 7e-66, well inside what doubles resolve
        assert d["source"] == "iteration" and d["converged"]


def test_gelfand_comparison_branch():
    # initial alphabet with size^2 <= M activates the Diophantine comparison
    a = Alphabet(4, (0, 1))
    rep = gelfand_bound(BakerMap(64, 4, a, bump_profile(16)), n_max=4)
    comp = rep.comparison
    assert comp is not None
    assert comp["alpha"] == Fraction(1, 1)
    assert comp["k"] == 3
    assert comp["q"] == 1 and comp["gamma"] == 0.0
    assert comp["residual_slot"] == pytest.approx(rep.rho_upper - comp["main_term"])
    # non-initial alphabet: no comparison defined
    rep2 = gelfand_bound(BakerMap(27, 3, Alphabet(3, (0, 2)),
                                     bump_profile(9)), n_max=2)
    assert rep2.comparison is None


@pytest.mark.parametrize("N, M, letters, cutoff",
                         [(81, 3, (0, 2), "bump"), (64, 4, (0, 3), "sharp"),
                          (81, 9, (0, 1, 2), "bump"), (256, 4, (0, 3), "bump")])
def test_gelfand_powers_match_dense_oracle(monkeypatch, N, M, letters, cutoff):
    # the levels run on the |A| N/M alphabet rows and must still give ||B^n||_2,
    # also where ||B^n||^2 is far below 1 (n = 8 at the last two inputs)
    bmap = BakerMap(N, M, Alphabet(M, letters), make_cutoff(cutoff, N // M))
    B = np.column_stack([bmap.apply(e) for e in np.eye(N)])
    dims = []
    real_engine = fup.baker.lanczos_top

    def engine(apply, dim, tol, seed):
        dims.append(dim)
        return real_engine(apply, dim, tol, seed)

    monkeypatch.setattr(fup.baker, "lanczos_top", engine)
    rep = gelfand_bound(bmap, n_max=64)
    monkeypatch.undo()
    iterated = [d["n"] for d in rep.diagnostics if d["source"] == "iteration"]
    assert iterated and dims == [len(letters) * N // M] * len(iterated)
    assert all(d["converged"] for d in rep.diagnostics)
    ups = dict(rep.powers)
    for n in iterated:
        exact = np.linalg.norm(np.linalg.matrix_power(B, n), 2)
        assert abs(ups[n] - exact) <= 1e-9 * exact


@pytest.mark.parametrize("n_max", [256, 1024])
def test_deep_levels_stay_above_the_dense_spectral_radius(n_max):
    # ||B^256||^2 is about 1e-267, below what doubles resolve: that level and
    # every later one must fall back to the square of the level before rather
    # than report an underflowed Ritz value, and a square that underflows is
    # clamped to the least subnormal instead of 0.0
    bmap = BakerMap(243, 3, Alphabet(3, (0, 2)), bump_profile(81))
    B = np.column_stack([bmap.apply(e) for e in np.eye(243)])
    rho = max(abs(np.linalg.eigvals(B)))
    rep = gelfand_bound(bmap, n_max=n_max)
    assert rep.rho_upper >= rho
    assert all(u > 0.0 for _, u in rep.powers)
    iterated = [d["n"] for d in rep.diagnostics if d["source"] == "iteration"]
    assert iterated == [1, 2, 4, 8, 16, 32, 64, 128]
    ups = dict(rep.powers)
    for n in ups:
        if n not in iterated:
            assert ups[n] == max(ups[n // 2] ** 2, math.ulp(0.0))


def test_gelfand_power_iteration_method():
    a = Alphabet(3, (0, 1, 2))
    rep = gelfand_bound(BakerMap(27, 3, a, sharp_profile(9)), n_max=2,
                        method="power-iteration")
    assert abs(rep.rho_upper - 1.0) < 1e-10


def test_gelfand_validation():
    a = Alphabet(3, (0, 2))
    bmap = BakerMap(27, 3, a, bump_profile(9))
    with pytest.raises(ValueError):
        gelfand_bound(bmap, n_max=0)
    with pytest.raises(ValueError):
        gelfand_bound(bmap, method="secant")
    with pytest.raises(ValueError, match="Gelfand bounds take lanczos, power-iteration"):
        gelfand_bound(bmap, method="dense-svd")
    for tol in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            gelfand_bound(bmap, n_max=2, tol=tol)


def test_gelfand_report_json():
    a = Alphabet(3, (0, 2))
    rep = gelfand_bound(BakerMap(27, 3, a, bump_profile(9)), n_max=2)
    d = sanitize(rep)
    assert set(d) == {"N", "M", "powers", "rho_upper", "diagnostics", "comparison"}
    assert d["powers"] == [[n, u] for n, u in rep.powers]


@pytest.mark.parametrize("failing_n", [1, 4])
def test_unconverged_level_cannot_lower_rho_upper(monkeypatch, failing_n):
    # an unconverged level whose Ritz value sits far below ||B^n|| must fall
    # back to the submultiplicative bound instead of entering rho_upper
    bmap = BakerMap(81, 3, Alphabet(3, (0, 2)), bump_profile(27))
    levels = [1, 2, 4]
    real_engine = fup.baker.lanczos_top

    def engine(apply, dim, tol, seed):
        if levels.pop(0) == failing_n:
            raise ConvergenceError("budget exhausted", sigma_best=1e-9,
                                   residual=0.5, iterations=7)
        return real_engine(apply, dim, tol, seed)

    monkeypatch.setattr(fup.baker, "lanczos_top", engine)
    rep = gelfand_bound(bmap, n_max=4)
    monkeypatch.undo()
    ups = dict(rep.powers)
    diag = rep.diagnostics[[1, 2, 4].index(failing_n)]
    assert diag["source"] == "submultiplicative-fallback"
    assert not diag["converged"]
    assert diag["theta"] == pytest.approx(1e-18)
    assert diag["iterations"] == 7
    if failing_n == 1:
        assert ups[1] == 1.0
    else:
        assert ups[failing_n] == ups[failing_n // 2] ** 2
        without = gelfand_bound(bmap, n_max=failing_n // 2)
        # (u^2)^(1/n) and u^(2/n) may differ in the last bit
        assert rep.rho_upper >= without.rho_upper * (1 - 1e-12)
