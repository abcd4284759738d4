"""DFT layer, masked norms, and exponent reports against dense oracles."""
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fup.spectral
from conftest import dft_matrix
from fup.cantor import Alphabet, CapacityError, cantor_elements, dilate
from fup.jacobi import jacobi_svd
from fup.serialize import sanitize
from fup.spectral import (ConvergenceError, _pruned_gram_apply, beta_dilated,
                          beta_k, dft_apply, dft_submatrix, lanczos_top,
                          masked_gram_apply, masked_norm, power_top,
                          submatrix_norm_bounds)

RNG = np.random.default_rng(1234)


@pytest.mark.parametrize("N", [1, 2, 6, 7, 12, 16, 27])
def test_dft_matches_dense_oracle(N):
    W = dft_matrix(N)
    for _ in range(3):
        u = RNG.standard_normal(N) + 1j * RNG.standard_normal(N)
        assert np.max(np.abs(dft_apply(u) - W @ u)) < 1e-12
        assert np.max(np.abs(dft_apply(u, "adjoint") - W.conj().T @ u)) < 1e-12


def test_dft_unitary_and_inverse():
    for N in (5, 32, 243):
        u = RNG.standard_normal(N) + 1j * RNG.standard_normal(N)
        fu = dft_apply(u)
        assert abs(np.linalg.norm(fu) - np.linalg.norm(u)) < 1e-12 * np.linalg.norm(u)
        assert np.max(np.abs(dft_apply(fu, "adjoint") - u)) < 1e-12


def test_dft_squared_is_parity():
    N = 16
    u = RNG.standard_normal(N) + 1j * RNG.standard_normal(N)
    v = dft_apply(dft_apply(u))
    assert np.max(np.abs(v - u[(-np.arange(N)) % N])) < 1e-12


def test_dft_direction_validation():
    with pytest.raises(ValueError):
        dft_apply(np.ones(4), "sideways")


def test_dft_submatrix_entries():
    N = 12
    X, Y = [0, 3, 7], [1, 2, 11]
    A = dft_submatrix(X, Y, N)
    W = dft_matrix(N)
    assert np.max(np.abs(A - W[np.ix_(X, Y)])) < 1e-14
    with pytest.raises(ValueError):
        dft_submatrix([0, 12], Y, N)
    with pytest.raises(ValueError):
        dft_submatrix([], Y, N)
    with pytest.raises(CapacityError):
        dft_submatrix(range(2**13), range(2**13), 2**14)


def test_masked_gram_matches_dense():
    N = 24
    X = [0, 5, 6, 11, 17]
    Y = [1, 2, 8, 21]
    A = dft_submatrix(X, Y, N)
    apply, dim = masked_gram_apply(X, Y, N)
    assert dim == 4
    for _ in range(3):
        v = RNG.standard_normal(dim) + 1j * RNG.standard_normal(dim)
        assert np.max(np.abs(apply(v) - A.conj().T @ (A @ v))) < 1e-12


@st.composite
def _digit_sets(draw):
    M = draw(st.integers(2, 9))
    letters = tuple(sorted(draw(st.sets(st.integers(0, M - 1), min_size=1))))
    # keep the dense oracle at most 729 x 729
    k_max = max(k for k in range(1, 6) if len(letters) ** k <= 729)
    return Alphabet(M, letters), draw(st.integers(1, k_max))


@given(_digit_sets())
@example((Alphabet(9, tuple(range(9))), 3))
@example((Alphabet(7, (3,)), 5))
@example((Alphabet(5, (1, 2, 3)), 4))
def test_pruned_gram_matches_dense(case):
    alphabet, k = case
    c = cantor_elements(alphabet, k)
    A = dft_submatrix(c, c, alphabet.M**k)
    apply, dim = _pruned_gram_apply(alphabet, k)
    assert dim == len(c.elements)
    rng = np.random.default_rng(k)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    assert np.max(np.abs(apply(v) - A.conj().T @ (A @ v))) < 1e-12


def test_gram_route_choice(monkeypatch):
    # k |A|^{k+1} = 4096 < 3^8: the pruned route pays for C_8 on Z_{3^8}
    c = cantor_elements(Alphabet(3, (0, 2)), 8)
    calls = []

    def spy(alphabet, k):
        calls.append((alphabet, k))
        return _pruned_gram_apply(alphabet, k)

    monkeypatch.setattr(fup.spectral, "_pruned_gram_apply", spy)
    pruned, _ = masked_gram_apply(c, c, 3**8)
    assert calls == [(c.alphabet, 8)]
    fft, _ = masked_gram_apply(list(c.elements), list(c.elements), 3**8)
    v = RNG.standard_normal(256) + 1j * RNG.standard_normal(256)
    assert np.max(np.abs(pruned(v) - fft(v))) < 1e-12
    other = cantor_elements(Alphabet(3, (0, 1)), 8)
    d = dilate(c, Fraction(2))
    for X, Y, N in [(d, d, d.N), (c, other, 3**8), (other, c, 3**8),
                    (c, c, 3**9), (c, list(c.elements), 3**8)]:
        masked_gram_apply(X, Y, N)
    assert len(calls) == 1
    # small sets stay on the FFT route by the cost rule
    small = cantor_elements(Alphabet(3, (0, 2)), 4)
    masked_gram_apply(small, small, 81)
    assert len(calls) == 1


def test_pruned_route_reaches_deep_k():
    # N = 3^16 = 4.3e7, beyond what the FFT route handles in seconds
    c16 = cantor_elements(Alphabet(3, (0, 2)), 16)
    start = time.perf_counter()
    cert = masked_norm(c16, c16, 3**16)
    assert time.perf_counter() - start < 10.0
    c8 = cantor_elements(Alphabet(3, (0, 2)), 8)
    sigma8 = float(np.linalg.svd(dft_submatrix(c8, c8, 3**8), compute_uv=False)[0])
    # submultiplicativity sigma_{k1 + k2} <= sigma_{k1} sigma_{k2}
    assert cert.sigma_max <= sigma8**2 * (1 + 1e-8)
    assert cert.residual <= 1e-10


def test_lanczos_memory_follows_matvecs():
    # a full ncv = 512 basis at dim 2^16 would take 512 MiB
    c = cantor_elements(Alphabet(3, (0, 2)), 16)
    apply, dim = masked_gram_apply(c, c, 3**16)
    assert dim == 2**16
    tracemalloc.start()
    try:
        _, _, matvecs, _ = lanczos_top(apply, dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matvecs < 64
    assert peak < 64 * 2**20


@pytest.mark.parametrize("shape", [(8, 8), (12, 7), (7, 12), (1, 5), (5, 1), (3, 3)])
def test_jacobi_vs_lapack(shape):
    A = RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)
    got = jacobi_svd(A).singular_values
    ref = np.linalg.svd(A, compute_uv=False)
    assert got.shape[0] == shape[1]
    assert np.all(np.diff(got) <= 1e-12)
    # one-sided Jacobi reports one value per column; pad LAPACK's min(m, n)
    ref_full = np.zeros(shape[1])
    ref_full[: ref.shape[0]] = ref
    assert np.max(np.abs(got - ref_full)) < 1e-10 * max(1.0, ref[0])


def test_jacobi_rank_deficient():
    A = np.outer(RNG.standard_normal(6) + 1j * RNG.standard_normal(6),
                 RNG.standard_normal(4))
    got = jacobi_svd(A).singular_values
    ref = np.linalg.svd(A, compute_uv=False)
    assert np.max(np.abs(got - ref)) < 1e-10 * ref[0]


def test_exact_two_by_two_gram():
    # M=3, A={0,2}, k=1: the 2x2 submatrix has Gram eigenvalues {1, 1/3}
    A = dft_submatrix([0, 2], [0, 2], 3)
    evals = np.linalg.eigvalsh(A.conj().T @ A)
    assert np.max(np.abs(np.sort(evals) - np.array([1 / 3, 1.0]))) < 1e-12
    sv = jacobi_svd(A).singular_values
    assert np.max(np.abs(sv - np.array([1.0, 1 / math.sqrt(3)]))) < 1e-12
    for method in ("lanczos", "power-iteration", "dense-svd"):
        cert = masked_norm([0, 2], [0, 2], 3, method=method)
        assert abs(cert.sigma_max - 1.0) < 1e-10
        assert cert.residual <= 1e-10


@pytest.mark.parametrize("M,letters,k", [(3, (0, 2), 2), (4, (0, 3), 2),
                                         (5, (0, 1, 3), 2), (6, (0, 2, 5), 1)])
def test_masked_norm_methods_agree(M, letters, k):
    c = cantor_elements(Alphabet(M, letters), k)
    N = M**k
    ref = float(np.linalg.svd(dft_submatrix(c, c, N), compute_uv=False)[0])
    for method in ("lanczos", "power-iteration", "dense-svd"):
        cert = masked_norm(c, c, N, method=method)
        assert abs(cert.sigma_max - ref) < 1e-8
        assert cert.method == method
        assert cert.iterations >= 1


def test_masked_norm_dilated_agrees():
    c = cantor_elements(Alphabet(4, (0, 1)), 2)
    d = dilate(c, Fraction(3, 2))
    ref = float(np.linalg.svd(dft_submatrix(d, d, d.N), compute_uv=False)[0])
    a = masked_norm(d, d, d.N, method="lanczos").sigma_max
    b = masked_norm(d, d, d.N, method="dense-svd").sigma_max
    assert abs(a - ref) < 1e-9 and abs(b - ref) < 1e-9


def test_masked_norm_validation():
    with pytest.raises(ValueError):
        masked_norm([], [0], 4)
    with pytest.raises(ValueError):
        masked_norm([0], [0], 4, tol=0.0)
    with pytest.raises(ValueError):
        masked_norm([0], [0], 4, method="magic")
    with pytest.raises(ValueError):
        masked_norm([4], [0], 4)


def test_norm_certificate_json():
    cert = masked_norm([0, 2], [0, 2], 3, seed=7)
    d = sanitize(cert)
    assert set(d) == {"sigma_max", "method", "iterations", "residual", "seed"}
    assert d["seed"] == 7


def test_schur_and_hs_bounds():
    for M, letters, k in [(3, (0, 2), 2), (5, (0, 1, 3), 2), (4, (0, 3), 3)]:
        c = cantor_elements(Alphabet(M, letters), k)
        N = M**k
        n = len(c.elements)
        sigma = float(np.linalg.svd(dft_submatrix(c, c, N), compute_uv=False)[0])
        schur, hs_sq = submatrix_norm_bounds(n, n, N)
        assert sigma <= schur + 1e-12
        assert sigma**2 >= hs_sq - 1e-12
    assert submatrix_norm_bounds(2, 8, 16) == (1.0, 0.5)


def test_power_iteration_budget_error():
    c = cantor_elements(Alphabet(3, (0, 2)), 3)
    apply, dim = masked_gram_apply(c, c, 27)
    with pytest.raises(ConvergenceError) as exc:
        power_top(apply, dim, tol=1e-12, max_iterations=2)
    err = exc.value
    assert err.iterations == 2
    assert err.sigma_best >= 0.0
    assert err.vector is not None


def test_beta_k_report():
    a = Alphabet(3, (0, 2))
    c = cantor_elements(a, 2)
    cert = masked_norm(c, c, 9)
    rep = beta_k(cert, a, 2)
    assert rep.N == 9 and rep.M == 3 and rep.k == 2
    assert rep.beta_k == pytest.approx(-math.log(cert.sigma_max) / (2 * math.log(3)))
    assert rep.lower_theory == pytest.approx(max(0.0, 0.5 - a.delta))
    assert rep.upper_theory == pytest.approx(0.5 - a.delta / 2)
    assert rep.lower_theory - 1e-12 <= rep.beta_k <= rep.upper_theory + 1e-12
    assert set(sanitize(rep)) == {"M", "k", "N", "delta", "sigma_max", "beta_k",
                                  "lower_theory", "upper_theory"}


def test_beta_dilated_reduces_to_beta_k_at_alpha_one():
    a = Alphabet(4, (0, 1))
    c = cantor_elements(a, 2)
    d = dilate(c, Fraction(1))
    cert = masked_norm(d, d, d.N)
    rep = beta_dilated(cert, d)
    ref = beta_k(cert, a, 2)
    assert rep.beta_k == pytest.approx(ref.beta_k, abs=1e-15)
    assert rep.lower_theory == pytest.approx(ref.lower_theory, abs=1e-12)
    assert rep.upper_theory == pytest.approx(ref.upper_theory, abs=1e-12)


def test_beta_dilated_effective_dimension_sandwich():
    a = Alphabet(4, (0, 1))
    c = cantor_elements(a, 3)
    d = dilate(c, Fraction(5, 2))  # N = 160, |C| = 8
    cert = masked_norm(d, d, d.N)
    rep = beta_dilated(cert, d)
    d_eff = math.log(len(d.elements)) / math.log(d.N)
    assert rep.lower_theory == pytest.approx(max(0.0, 0.5 - d_eff))
    assert rep.upper_theory == pytest.approx(0.5 - d_eff / 2)
    assert rep.delta == pytest.approx(a.delta)  # alphabet dimension retained
    assert rep.lower_theory - 1e-9 <= rep.beta_k <= rep.upper_theory + 1e-9
