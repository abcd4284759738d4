"""DFT layer, masked norms, and exponent reports against dense oracles."""
import itertools
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
from fup.spectral import (NORM_METHODS, ConvergenceError, _pruned_gram_apply,
                          beta_dilated, beta_k, dft_apply, dft_submatrix,
                          lanczos_top, masked_gram_apply, masked_norm, power_top)

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


def test_dft_submatrix_exact_phases_at_large_N():
    # N = 5 * 16^9 = 3.4e11: products x y of the dilated elements pass 2^63
    d = dilate(cantor_elements(Alphabet(16, (0, 1)), 9), 5)
    X, N = d.elements.tolist(), d.N
    ref = np.array([[np.exp(-2j * math.pi * ((x * y) % N) / N) for y in X] for x in X])
    A = dft_submatrix(d, d, N)
    assert np.max(np.abs(A - ref / math.sqrt(N))) < 1e-12 / math.sqrt(N)


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
    return Alphabet(M, letters), draw(st.integers(1, k_max)), draw(st.integers(1, M - 1))


@given(_digit_sets())
@example((Alphabet(9, tuple(range(9))), 3, 1))
@example((Alphabet(7, (3,)), 5, 1))
@example((Alphabet(5, (1, 2, 3)), 4, 1))
@example((Alphabet(7, (3,)), 5, 6))
@example((Alphabet(5, (1, 2, 3)), 4, 3))
@example((Alphabet(16, (0, 1, 2, 3)), 3, 5))
def test_pruned_gram_matches_dense(case):
    alphabet, k, alpha = case
    d = dilate(cantor_elements(alphabet, k), alpha)
    A = dft_submatrix(d, d, d.N)
    apply, dim = _pruned_gram_apply(d)
    assert dim == len(d.elements)
    rng = np.random.default_rng(k)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    assert np.max(np.abs(apply(v) - A.conj().T @ (A @ v))) < 1e-12


def test_gram_route_choice(monkeypatch):
    # k |A|^{k+1} = 4096 < 3^8: the pruned route pays for C_8 on Z_{3^8}
    c = cantor_elements(Alphabet(3, (0, 2)), 8)
    calls = []

    def spy(X):
        calls.append(X)
        return _pruned_gram_apply(X)

    monkeypatch.setattr(fup.spectral, "_pruned_gram_apply", spy)
    pruned, _ = masked_gram_apply(c, c, 3**8)
    assert calls == [c]
    fft, _ = masked_gram_apply(list(c.elements), list(c.elements), 3**8)
    v = RNG.standard_normal(256) + 1j * RNG.standard_normal(256)
    assert np.max(np.abs(pruned(v) - fft(v))) < 1e-12
    # integer dilations factor digit by digit too
    d = dilate(c, Fraction(2))
    masked_gram_apply(d, d, d.N)
    assert calls == [c, d]
    other = cantor_elements(Alphabet(3, (0, 1)), 8)
    rational = dilate(c, Fraction(4, 3))  # N = 8748
    for X, Y, N in [(rational, rational, rational.N), (c, other, 3**8),
                    (other, c, 3**8), (c, c, 3**9), (c, list(c.elements), 3**8)]:
        masked_gram_apply(X, Y, N)
    assert len(calls) == 2
    # small sets stay on the FFT route by the cost rule
    small = cantor_elements(Alphabet(3, (0, 2)), 4)
    masked_gram_apply(small, small, 81)
    assert len(calls) == 2


@pytest.mark.parametrize("alphabet, k, alpha", [
    (Alphabet(4, (0, 3)), 10, 1),  # N = 2^20
    (Alphabet(3, (0, 2)), 12, 1),
    (Alphabet(5, (1, 2, 3)), 7, 1),
    (Alphabet(16, (0, 1, 2, 3)), 4, 5),
])
def test_pruned_gram_matches_fft_beyond_dense_reach(alphabet, k, alpha):
    # up to |A|^k = 4096, past the dense oracle's 729: the same set as an
    # index list takes the FFT route; the Grams are small, so compare to scale
    d = dilate(cantor_elements(alphabet, k), alpha)
    pruned, dim = _pruned_gram_apply(d)
    fft, _ = masked_gram_apply(list(d.elements), list(d.elements), d.N)
    rng = np.random.default_rng(k)
    for _ in range(2):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        w = fft(v)
        assert np.max(np.abs(pruned(v) - w)) < 1e-12 * np.max(np.abs(w))


def test_pruned_apply_memory():
    # one warm application holds at most 4 vectors of |A|^k complex128
    c = cantor_elements(Alphabet(3, (0, 2)), 16)
    apply, dim = _pruned_gram_apply(c)
    v = RNG.standard_normal(dim) + 1j * RNG.standard_normal(dim)
    apply(v)
    tracemalloc.start()
    try:
        apply(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 16 * dim


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


def test_lanczos_memory_follows_matvecs(monkeypatch):
    # a full ncv = 512 basis at dim 2^16 would take 512 MiB. tracemalloc
    # does not see the basis mappings, so their bytes are counted at _basis:
    # a basis and the one it grows into are live together
    c = cantor_elements(Alphabet(3, (0, 2)), 16)
    apply, dim = masked_gram_apply(c, c, 3**16)
    assert dim == 2**16
    sizes = [0]
    real_basis = fup.spectral._basis

    def basis(rows, dim):
        sizes.append(rows * dim * 16)
        return real_basis(rows, dim)

    monkeypatch.setattr(fup.spectral, "_basis", basis)
    tracemalloc.start()
    try:
        _, _, matvecs, _ = lanczos_top(apply, dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matvecs < 64
    assert peak + max(a + b for a, b in zip(sizes, sizes[1:])) < 64 * 2**20


def test_lanczos_basis_is_zeroed_and_refuses_impossible_sizes():
    V = fup.spectral._basis(3, 5)
    assert V.shape == (3, 5) and V.dtype == np.complex128 and not V.any()
    V[2, 4] = 1j
    with pytest.raises(MemoryError):
        fup.spectral._basis(2**20, 2**30)  # 16 PiB: refused before any page is touched


def test_lanczos_through_thick_restart():
    # top pair split by 1e-8 above a bulk in [0.5, 1] that crowds toward it:
    # Lanczos needs more than LANCZOS_NCV steps, so it restarts at least once.
    # The isolated eigenvalue 0 converges within a few steps, after which a
    # Lanczos basis without reorthogonalization loses orthogonality
    dim = 1500
    bulk = 1.0 - 0.5 * np.linspace(0.0, 1.0, dim - 2) ** 1.4
    d = np.sort(np.concatenate([[0.0], bulk, [1.0 + 1e-8]]))
    F = dft_matrix(dim)
    exact = np.linalg.eigvalsh(F.conj().T @ (d[:, None] * F))[-1]
    seen = []

    def apply(v):
        seen.append(v.copy())
        return dft_apply(d * dft_apply(v), "adjoint")

    tol = 1e-10
    theta, x, matvecs, res = lanczos_top(apply, dim, tol)
    V = np.array(seen[:64])
    assert np.max(np.abs(V @ V.conj().T - np.eye(64))) <= 1e-12
    assert matvecs > fup.spectral.LANCZOS_NCV
    assert abs(theta - exact) <= 1e-12 * exact
    assert res <= tol
    assert np.linalg.norm(apply(x) - theta * x) <= tol * theta


def test_lanczos_breakdown_is_relative_to_the_operator_scale():
    # a Gram with top eigenvalue ~4e-21: an absolute breakdown threshold
    # takes every step for an invariant subspace and never converges
    c = cantor_elements(Alphabet(3, (0, 2)), 6)
    apply, dim = masked_gram_apply(c, c, c.N)
    theta, _, matvecs, res = lanczos_top(apply, dim)
    tiny, _, tiny_matvecs, tiny_res = lanczos_top(lambda v: 1e-20 * apply(v), dim)
    assert matvecs == tiny_matvecs == 25
    assert abs(tiny - 1e-20 * theta) <= 1e-12 * 1e-20 * theta
    assert max(res, tiny_res) <= 1e-10


@pytest.mark.parametrize("engine", [lanczos_top, power_top])
def test_solvers_refuse_what_doubles_cannot_resolve(engine):
    # at 1e-200 the squares of the entries of A v underflow, so a residual can
    # read 0 for a wrong eigenvalue (0.1031 and 0.1447 against 0.3714 once
    # returned). At 1e-120 |A v| is far above sqrt(dim tiny)/eps = 5.4e-138
    c = cantor_elements(Alphabet(3, (0, 2)), 6)
    apply, dim = masked_gram_apply(c, c, c.N)
    exact = np.linalg.norm(dft_submatrix(c, c, c.N), 2) ** 2
    with pytest.raises(ConvergenceError, match="below what doubles resolve"):
        engine(lambda v: 1e-200 * apply(v), dim)
    theta = engine(lambda v: 1e-120 * apply(v), dim)[0]
    assert abs(theta / 1e-120 - exact) <= 1e-12 * exact
    # the limit itself, on a multiple of the identity, where |A v| = s exactly
    limit = math.sqrt(dim * np.finfo(float).tiny) / np.finfo(float).eps
    with pytest.raises(ConvergenceError):
        engine(lambda v: 0.99 * limit * v, dim)
    assert engine(lambda v: 1.01 * limit * v, dim)[0] == pytest.approx(1.01 * limit)


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
    for tol in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            masked_norm([0], [0], 4, tol=tol)
    with pytest.raises(ValueError):
        masked_norm([0], [0], 4, method="magic")
    with pytest.raises(ValueError):
        masked_norm([4], [0], 4)


def _norm_one_cases():
    """Every alphabet with M <= 5 and k <= 3, undilated and dilated by 2 and
    3/2 where dilate allows it, and X != Y index lists (with repeats)."""
    for M in range(2, 6):
        for size in range(1, M + 1):
            for letters in itertools.combinations(range(M), size):
                for k in (1, 2, 3):
                    c = cantor_elements(Alphabet(M, letters), k)
                    for alpha in (1, 2, Fraction(3, 2)):
                        try:
                            d = dilate(c, Fraction(alpha))
                        except ValueError:
                            continue
                        yield d, d, d.N
    rng = np.random.default_rng(16)
    for N, nx, ny in [(12, 7, 6), (12, 6, 6), (16, 9, 8), (16, 3, 14), (25, 13, 13)]:
        X = rng.choice(N, nx, replace=False)
        Y = rng.choice(N, ny, replace=False)
        yield list(X) + list(X[:2]), list(Y), N


def _size(S):
    return len(S.elements) if hasattr(S, "elements") else len(set(S))


def test_norm_one_by_dimension_count_agrees_with_dense():
    # an integer alpha >= 2 never fires: |A|^k + |A|^k <= 2 M^k <= alpha M^k
    fired = []
    for X, Y, N in _norm_one_cases():
        ref = float(np.linalg.svd(dft_submatrix(X, Y, N), compute_uv=False)[0])
        if _size(X) + _size(Y) <= N:
            cert = masked_norm(X, Y, N)
            assert cert.iterations >= 1
            assert abs(cert.sigma_max - ref) < 1e-9
            continue
        fired.append(getattr(X, "alpha", None))
        assert abs(ref - 1.0) <= 1e-12
        for method in NORM_METHODS:
            cert = masked_norm(X, Y, N, method=method)
            assert (cert.sigma_max, cert.method, cert.iterations, cert.residual) == \
                (1.0, method, 0, 0.0)
    assert (fired.count(1), fired.count(Fraction(3, 2)), fired.count(None)) == (48, 4, 4)


def test_norm_one_builds_no_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an operator was built")

    for name in ("masked_gram_apply", "dft_submatrix", "jacobi_svd"):
        monkeypatch.setattr(fup.spectral, name, refuse)
    c = cantor_elements(Alphabet(8, (0, 1, 2, 3, 4, 5, 7)), 5)  # 2 * 7^5 > 8^5
    d = dilate(cantor_elements(Alphabet(8, (1, 2, 3, 4, 5, 6, 7)), 4),
               Fraction(9, 8))  # 2 * 7^4 > 4608
    for method in NORM_METHODS:
        assert masked_norm(c, c, c.N, method=method).sigma_max == 1.0
        assert masked_norm(d, d, d.N, method=method).sigma_max == 1.0
        assert masked_norm(list(range(5)), [0, 2, 4, 6], 8, method=method).iterations == 0
    assert "elements" not in vars(c) and "elements" not in vars(d)


def test_dimension_count_boundary_runs_the_solver():
    # M = 4, X = Y = {0, 1}: |X| + |Y| = N, sigma = cos(pi/8) < 1
    c = cantor_elements(Alphabet(4, (0, 1)), 1)
    ref = math.cos(math.pi / 8)
    for X in (c, [0, 1]):
        for method in NORM_METHODS:
            cert = masked_norm(X, X, 4, method=method)
            assert cert.iterations >= 1
            assert abs(cert.sigma_max - ref) < 1e-9


def test_norm_capped_at_one_when_the_count_does_not_decide(monkeypatch):
    # X = Y = 2 Z_N: |X| + |Y| = N and sigma = 1. Uncapped, power iteration
    # reads 1.0000000000000002 at N = 8 and Lanczos at N = 24
    for N in (8, 24):
        X = list(range(0, N, 2))
        for method in NORM_METHODS:
            cert = masked_norm(X, X, N, method=method)
            assert cert.iterations >= 1
            assert 1.0 - 1e-12 <= cert.sigma_max <= 1.0
    # Jacobi reads 1 here; push its value past 1 to see the cap
    def high(A, **kwargs):
        result = jacobi_svd(A, **kwargs)
        result.singular_values *= 1 + 4e-16
        return result

    monkeypatch.setattr(fup.spectral, "jacobi_svd", high)
    assert masked_norm([0, 2, 4, 6], [0, 2, 4, 6], 8, method="dense-svd").sigma_max == 1.0


def test_dimension_count_keeps_validation():
    c = cantor_elements(Alphabet(3, (0, 2)), 1)  # C_1 = {0, 2}, 2 + 2 > 2
    full = cantor_elements(Alphabet(4, (0, 1, 2, 3)), 1)
    d = dilate(cantor_elements(Alphabet(4, (0, 1, 3)), 2), Fraction(3, 2))  # max 23
    for method in NORM_METHODS:
        for X, N in [(c, 2), (full, 3), (d, 23)]:
            with pytest.raises(ValueError, match="indices must lie"):
                masked_norm(X, X, N, method=method)
        with pytest.raises(ValueError, match="indices must lie"):
            masked_norm([0, 1, 2, 5], [0, 1, 2], 4, method=method)
        with pytest.raises(ValueError, match="empty"):
            masked_norm([], [0, 1, 2, 3], 4, method=method)
    assert masked_norm(d, d, 24).sigma_max < 1.0


def test_norm_certificate_json():
    cert = masked_norm([0, 2], [0, 2], 3, seed=7)
    d = sanitize(cert)
    assert set(d) == {"sigma_max", "method", "iterations", "residual", "seed"}
    assert d["seed"] == 7


def test_power_iteration_budget_error():
    c = cantor_elements(Alphabet(3, (0, 2)), 3)
    apply, dim = masked_gram_apply(c, c, 27)
    with pytest.raises(ConvergenceError) as exc:
        power_top(apply, dim, tol=1e-12, max_iterations=2)
    err = exc.value
    assert err.iterations == 2
    assert err.sigma_best >= 0.0
    assert err.vector is not None
    # a Lanczos basis that spans its 64-dimensional space stops early, and
    # the message counts the matvecs it used
    G = np.random.default_rng(0).standard_normal((64, 64))
    with pytest.raises(ConvergenceError) as exc:
        lanczos_top(lambda v: G @ G.T @ v, 64, tol=1e-300)
    assert f"in {exc.value.iterations} matvecs" in str(exc.value)
    assert exc.value.iterations < 100


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


def test_beta_is_positive_zero_at_norm_one():
    a = Alphabet(3, (0, 2))
    c = cantor_elements(a, 1)
    cert = masked_norm(c, c, 3)
    assert cert.sigma_max == 1.0
    for rep in (beta_k(cert, a, 1), beta_dilated(cert, dilate(c, Fraction(1)))):
        assert rep.beta_k == 0.0 and math.copysign(1.0, rep.beta_k) == 1.0
    # below one the formula is -log(sigma)/(k log M), bit for bit
    c2 = cantor_elements(a, 2)
    cert = masked_norm(c2, c2, 9)
    assert beta_k(cert, a, 2).beta_k == -math.log(cert.sigma_max) / (2 * math.log(3))
    assert beta_dilated(cert, c2).beta_k == -math.log(cert.sigma_max) / math.log(9)


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
