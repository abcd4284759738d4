"""Unitary DFT, masked submatrix operators, and finite-k FUP exponents.

The masked operator 1_X F_N 1_Y is never materialized for large N: its Gram
v -> 1_Y F* 1_X F 1_Y v is applied matrix-free, and the largest singular
value is extracted by a seeded iterative eigensolver. A dense one-sided
Jacobi SVD provides the independent oracle route for modest sizes. Every
result ships as a certificate carrying method, iteration count, residual,
and seed.

The Gram runs on one of two routes, which give the same operator:

- FFT: scatter into Z_N, N-point FFT, gather X, scatter, inverse FFT,
  gather Y. Cost O(N log N) per application, for any masks.
- Digit-pruned transform (FFT pruning, Markel 1971), for X = Y = C_k
  undilated with N = M^k. Write W_{n_0} for the depth-(j-1) transform of
  the subsequence of words with lowest digit n_0 in A, m = m_low +
  M^{j-1} m_top with m_low in C_{j-1} and m_top in A, F_A[a, b] =
  e^{-2 pi i ab/M} and tw_j[a, m_low] = e^{-2 pi i a m_low/M^j}. Then
      output(m_low + M^{j-1} m_top)
          = sum_{n_0 in A} F_A[m_top, n_0] tw_j[n_0, m_low] W_{n_0}(m_low),
  so after one digit-reversal permutation, k stages of |A| x |A| blocks
  give the transform at cost O(k |A|^{k+1}), and every intermediate has
  |A|^k entries. The submatrix is symmetric, so its adjoint is
  conj o F o conj.

masked_gram_apply takes the pruned route when it applies and its cost
k |A|^{k+1} is below N; otherwise the FFT route.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cantor import Alphabet, CantorSet, CapacityError, DilatedCantorSet
from .jacobi import jacobi_svd

MAX_POWER_ITERATIONS = 100_000
DENSE_ENTRY_BUDGET = 2**24


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the best iterate found."""

    def __init__(self, message, sigma_best, residual, iterations, vector=None):
        super().__init__(message)
        self.sigma_best = sigma_best
        self.residual = residual
        self.iterations = iterations
        self.vector = vector


def dft_apply(u, direction: str = "forward") -> np.ndarray:
    """Unitary DFT (1/sqrt(N) normalization) or its adjoint."""
    arr = np.asarray(u, dtype=np.complex128)
    if direction == "forward":
        return np.fft.fft(arr, norm="ortho")
    if direction == "adjoint":
        return np.fft.ifft(arr, norm="ortho")
    raise ValueError(f"direction must be 'forward' or 'adjoint', got {direction!r}")


def _as_indices(S, N: int, name: str) -> np.ndarray:
    if isinstance(S, (CantorSet, DilatedCantorSet)):
        S = S.elements
    idx = np.unique(np.asarray(list(S), dtype=np.int64))
    if idx.size == 0:
        raise ValueError(f"{name} mask is empty")
    if idx[0] < 0 or idx[-1] >= N:
        raise ValueError(f"{name} indices must lie in [0, {N})")
    return idx


def dft_submatrix(X, Y, N: int) -> np.ndarray:
    """Dense submatrix of F_N with rows X and columns Y."""
    Xi = _as_indices(X, N, "X")
    Yi = _as_indices(Y, N, "Y")
    if Xi.size * Yi.size > DENSE_ENTRY_BUDGET:
        raise CapacityError(f"dense submatrix {Xi.size} x {Yi.size} too large")
    return np.exp((-2j * np.pi / N) * np.outer(Xi, Yi)) / np.sqrt(N)


def masked_gram_apply(X, Y, N: int):
    """Matrix-free v -> 1_Y F* 1_X F 1_Y v on C^{|Y|}, coordinates in
    increasing order of Y; the route is picked as in the module docstring."""
    if (isinstance(X, CantorSet) and X == Y and N == X.modulus
            and X.k * X.alphabet.size ** (X.k + 1) < N):
        return _pruned_gram_apply(X.alphabet, X.k)
    Xi = _as_indices(X, N, "X")
    Yi = _as_indices(Y, N, "Y")

    def apply(v):
        full = np.zeros(N, dtype=np.complex128)
        full[Yi] = v
        w = np.fft.fft(full, norm="ortho")[Xi]
        full2 = np.zeros(N, dtype=np.complex128)
        full2[Xi] = w
        return np.fft.ifft(full2, norm="ortho")[Yi]

    return apply, Yi.size


def _pruned_gram_apply(alphabet: Alphabet, k: int):
    """Gram of the masked DFT on C_k x C_k, N = M^k, by the digit-pruned
    transform of the module docstring."""
    M = alphabet.M
    A = np.asarray(alphabet.letters, dtype=np.int64)
    L = A.size
    FA = np.exp((-2j * np.pi / M) * np.outer(A, A))
    # reading the words' digits lowest first gives the stage-0 order
    reverse = np.arange(L**k).reshape((L,) * k).T.reshape(-1)
    twiddles = []
    low = np.zeros(1, dtype=np.int64)  # C_0, sorted
    for j in range(1, k + 1):
        # a * m_low < M^j is exact in int64, so each phase is in [0, 2 pi)
        twiddles.append(np.exp((-2j * np.pi / M**j) * np.outer(A, low)))
        low = (low + M ** (j - 1) * A[:, None]).reshape(-1)

    def transform(x):
        x = x[reverse]
        for j, tw in enumerate(twiddles):
            x = (FA @ (x.reshape(-1, L, L**j) * tw)).reshape(-1)
        return x

    def apply(v):
        w = transform(np.asarray(v, dtype=np.complex128))
        return np.conj(transform(np.conj(w))) / M**k

    return apply, L**k


def power_top(apply, dim: int, tol: float = 1e-10, seed: int = 0,
              max_iterations: int = MAX_POWER_ITERATIONS, block: int = 8):
    """Orthogonal (block power) iteration on a Hermitian PSD operator.

    Symmetric alphabets give masked Grams whose top eigenvalues come in
    clusters split only at the 1e-7 level, which a single power vector
    cannot separate inside any realistic budget; a small block resolves
    the whole cluster at once. Each step applies the operator to every
    block column, re-orthonormalizes, and extracts the top Rayleigh-Ritz
    pair; convergence is the explicit residual ||A y - theta y|| <= tol
    * theta. max_iterations caps operator applications, not steps.
    """
    rng = np.random.default_rng(seed)
    b = max(1, min(block, dim))

    def fresh(cols):
        Z = rng.standard_normal((dim, cols)) + 1j * rng.standard_normal((dim, cols))
        return np.linalg.qr(Z)[0]

    V = fresh(b)
    theta = 0.0
    y = V[:, 0]
    res = math.inf
    used = 0
    while used < max_iterations:
        bt = min(b, max_iterations - used)
        Vt = V[:, :bt]
        W = np.column_stack([apply(Vt[:, j]) for j in range(bt)])
        used += bt
        H = Vt.conj().T @ W
        evals, evecs = np.linalg.eigh(0.5 * (H + H.conj().T))
        theta = float(evals[-1])
        if theta <= 0.0:
            V = fresh(b)  # block had no mass on the top eigenspace
            continue
        y = Vt @ evecs[:, -1]
        res = float(np.linalg.norm(W @ evecs[:, -1] - theta * y)) / theta
        if res <= tol:
            return theta, y, used, res
        V = np.linalg.qr(W)[0]
    raise ConvergenceError(
        f"power iteration did not reach tol={tol} in {used} operator "
        f"applications (residual {res:.3e})",
        sigma_best=math.sqrt(max(theta, 0.0)), residual=res, iterations=used,
        vector=y,
    )


def lanczos_top(apply, dim: int, tol: float = 1e-10, seed: int = 0,
                max_matvecs: int = MAX_POWER_ITERATIONS, ncv: int = 512,
                keep: int = 64, check_every: int = 8):
    """Largest eigenvalue of a Hermitian PSD operator by thick-restart
    Lanczos with full reorthogonalization.

    Deterministic for fixed seed. Handles the near-degenerate top clusters of
    masked-DFT Gram operators where plain power iteration stalls. Returns
    (theta, vector, matvecs, residual) with residual = |A v - theta v| / theta
    measured by an explicit extra application. The basis starts with a few
    rows and doubles up to ncv as the iteration needs them, so its memory
    follows the matvecs used rather than ncv.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    ncv = int(min(ncv, dim))
    keep = int(min(keep, max(1, ncv - 4)))
    V = np.zeros((min(ncv, 2 * check_every), dim), dtype=np.complex128)
    V[0] = v
    T = np.zeros((ncv, ncv))
    j = 0
    matvecs = 0
    theta = 0.0
    while matvecs < max_matvecs:
        w = apply(V[j])
        matvecs += 1
        T[j, j] = float(np.vdot(V[j], w).real)
        # full reorthogonalization, twice for stability; conj(V conj(w))
        # is V* w without a conjugated copy of the basis
        for _ in range(2):
            w = w - np.conj(V[: j + 1] @ np.conj(w)) @ V[: j + 1]
        beta = float(np.linalg.norm(w))
        at_cap = j + 1 == ncv
        if (j + 1) % check_every == 0 or at_cap or beta < 1e-14:
            evals, evecs = np.linalg.eigh(T[: j + 1, : j + 1])
            theta = float(evals[-1])
            s = evecs[:, -1]
            if theta > 0 and beta * abs(s[-1]) <= 0.5 * tol * theta:
                x = s @ V[: j + 1]
                x /= np.linalg.norm(x)
                res = float(np.linalg.norm(apply(x) - theta * x)) / theta
                matvecs += 1
                if res <= tol:
                    return theta, x, matvecs, res
        coupling = beta
        if beta < 1e-14:
            # invariant subspace found: start a fresh block with zero
            # coupling (a fabricated coupling would corrupt the Ritz values)
            coupling = 0.0
            w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            for _ in range(2):
                w = w - np.conj(V[: j + 1] @ np.conj(w)) @ V[: j + 1]
            beta = float(np.linalg.norm(w))
            if beta < 1e-14:
                break  # basis spans the whole space
        if not at_cap:
            T[j, j + 1] = T[j + 1, j] = coupling
            if j + 1 == V.shape[0]:
                grown = np.zeros((min(ncv, 2 * V.shape[0]), dim), dtype=np.complex128)
                grown[: j + 1] = V
                V = grown
            V[j + 1] = w / beta
            j += 1
            continue
        # thick restart: keep the top Ritz vectors, arrowhead-couple them
        # to the next Lanczos vector
        evals, evecs = np.linalg.eigh(T[:ncv, :ncv])
        S = evecs[:, -keep:]
        V[:keep] = S.T @ V[:ncv]
        V[keep] = w / beta
        T[:, :] = 0.0
        T[:keep, :keep] = np.diag(evals[-keep:])
        T[keep, :keep] = T[:keep, keep] = coupling * S[-1, :]
        j = keep
    evals, evecs = np.linalg.eigh(T[: j + 1, : j + 1])
    theta = float(evals[-1])
    x = evecs[:, -1] @ V[: j + 1]
    nx = np.linalg.norm(x)
    if nx > 0 and theta > 0:
        x /= nx
        res = float(np.linalg.norm(apply(x) - theta * x)) / theta
        if res <= tol:
            return theta, x, matvecs, res
    else:
        res = np.inf
    raise ConvergenceError(
        f"lanczos did not reach tol={tol} in {max_matvecs} matvecs (residual {res:.3e})",
        sigma_best=math.sqrt(max(theta, 0.0)), residual=res, iterations=matvecs,
        vector=x if nx > 0 else None,
    )


@dataclass
class NormCertificate:
    """Largest singular value of a masked DFT submatrix, with provenance.

    residual is |A* A v - sigma^2 v| / sigma^2 for the reported pair.
    """

    sigma_max: float
    method: str  # lanczos | power-iteration | dense-svd
    iterations: int
    residual: float
    seed: int


def masked_norm(X, Y, N: int, tol: float = 1e-10, seed: int = 0,
                method: str = "lanczos",
                max_iterations: int = MAX_POWER_ITERATIONS) -> NormCertificate:
    """Certificate for |1_X F_N 1_Y| = top singular value of the submatrix.

    method "lanczos" (default) and "power-iteration" run matrix-free on the
    Gram operator with a seeded start; "dense-svd" builds the submatrix and
    runs one-sided Jacobi.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if method == "dense-svd":
        A = dft_submatrix(X, Y, N)
        result = jacobi_svd(A, tol=min(tol, 1e-12))
        sigma = float(result.singular_values[0])
        # honest residual of the extracted top pair against the original A
        top = int(np.argmax(np.linalg.norm(result.rotated, axis=0)))
        u = result.rotated[:, top]
        u /= np.linalg.norm(u)
        v = A.conj().T @ u
        v /= np.linalg.norm(v)
        res = float(np.linalg.norm(A.conj().T @ (A @ v) - sigma**2 * v)) / sigma**2
        return NormCertificate(sigma, "dense-svd", result.rotations, res, seed)
    apply, dim = masked_gram_apply(X, Y, N)
    if method == "power-iteration":
        lam, _, its, res = power_top(apply, dim, tol, seed, max_iterations)
    elif method == "lanczos":
        lam, _, its, res = lanczos_top(apply, dim, tol, seed, max_iterations)
    else:
        raise ValueError(f"unknown method {method!r}")
    return NormCertificate(math.sqrt(lam), method, its, res, seed)


def submatrix_norm_bounds(nX: int, nY: int, N: int) -> tuple[float, float]:
    """(Schur upper bound on sigma, Hilbert-Schmidt/rank lower bound on
    sigma^2) for any |X| x |Y| submatrix of F_N: all entries have modulus
    1/sqrt(N), and |A|_HS^2 = nX nY / N spreads over rank <= min(nX, nY).
    """
    schur = math.sqrt(nX * nY / N)
    hs_sq = max(nX, nY) / N
    return schur, hs_sq


@dataclass
class FupExponentReport:
    """Finite-k uncertainty exponent with the dimension sandwich."""

    M: int
    k: int
    N: int
    delta: float
    sigma_max: float
    beta_k: float
    lower_theory: float  # max(0, 1/2 - delta)
    upper_theory: float  # 1/2 - delta/2


def beta_k(cert: NormCertificate, alphabet: Alphabet, k: int) -> FupExponentReport:
    """beta_k = -log sigma / (k log M) for X = Y = C_k, N = M^k."""
    if cert.sigma_max <= 0:
        raise ValueError("sigma_max must be positive (internal error: masked "
                         "norms of sets containing 0 cannot vanish)")
    M = alphabet.M
    delta = alphabet.delta
    beta = -math.log(cert.sigma_max) / (k * math.log(M))
    return FupExponentReport(M, k, M**k, delta, cert.sigma_max, beta,
                             max(0.0, 0.5 - delta), 0.5 - delta / 2)


def beta_dilated(cert: NormCertificate, dilated: DilatedCantorSet) -> FupExponentReport:
    """beta_k(N) = -log sigma / log N for the dilated sets, N = alpha M^k.

    The Schur/Hilbert-Schmidt sandwich holds with the set's dimension
    measured against N: d_eff = log|C_k(N)| / log N, which equals delta
    when alpha = 1. The delta field still records the alphabet dimension.
    """
    if cert.sigma_max <= 0:
        raise ValueError("sigma_max must be positive")
    alphabet = dilated.base.alphabet
    d_eff = math.log(len(dilated.elements)) / math.log(dilated.N)
    beta = -math.log(cert.sigma_max) / math.log(dilated.N)
    return FupExponentReport(alphabet.M, dilated.base.k, dilated.N, alphabet.delta,
                             cert.sigma_max, beta,
                             max(0.0, 0.5 - d_eff), 0.5 - d_eff / 2)
