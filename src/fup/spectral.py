"""Unitary DFT, masked submatrix operators, and finite-k FUP exponents.

The masked operator 1_X F_N 1_Y is never materialized for large N: its Gram
v -> 1_Y F* 1_X F 1_Y v is applied matrix-free, and the largest singular
value is extracted by a seeded iterative eigensolver. A dense one-sided
Jacobi SVD provides the independent oracle route for modest sizes. Every
result ships as a certificate carrying method, iteration count, residual,
and seed.

The Gram runs on one of two routes, which give the same operator; each
refuses an input above its own budget before it builds anything:

- FFT: scatter into Z_N, N-point FFT, gather X, scatter, inverse FFT,
  gather Y. Cost O(N log N) per application, for any masks, and N is
  capped at FFT_BUDGET.
- Digit-pruned transform (FFT pruning, Markel 1971), for X = Y = alpha C_k
  with an integer alpha and N = alpha M^k: the submatrix is T/sqrt(N),
  T[m, n] = e^{-2 pi i alpha mn/M^k} on C_k. With n = sum_j e_j M^{k-1-j},
  m = sum_j c_j M^j and m_j = sum_{i<j} c_i M^i, e_j's phase is
  alpha e_j (c_j/M + m_j/M^{j+1}) mod 1: stage j multiplies by
  tw_j[e_j, m_j] = e^{-2 pi i alpha e_j m_j/M^{j+1}}, then contracts e_j
  into c_j by F_A[c, e] = e^{-2 pi i alpha ce/M}. Its input is laid out
  (e_j, ..., e_{k-1}, c_0, ..., c_{j-1}) in C order (v at j = 0; tw_j has
  c_0 leading), so x.reshape(|A|, -1).T @ F_A.T is one GEMM whose output
  is the next layout (self-sorting; Cochran et al. 1967). The k stages
  give P T, P the digit reversal, and (P T)* (P T) = T* T, so no reversal
  runs and the adjoint is the stages reversed: F_A^H @ x.reshape(-1, |A|).T,
  then times conj(tw_j). A transform is k GEMMs of |A| x |A| by
  |A| x |A|^{k-1}, O(k |A|^{k+1}), on |A|^k entries, capped at PRUNED_BUDGET.

masked_gram_apply takes the pruned route when it applies and its cost
k |A|^{k+1} is below N; otherwise the FFT route. Rational alpha, X != Y
and plain index lists always take the FFT route.

No route runs when |X| + |Y| > N: then the norm is 1 exactly (Donoho and
Stark, SIAM J. Appl. Math. 49, 1989). The vectors supported on Y and the
inverse transforms of the vectors supported on X span subspaces of C^N of
dimensions |Y| and |X|, so they share a unit vector u, and |1_X F 1_Y u| = 1.
Every reported norm is capped at 1, the norm of the unitary F.
"""
from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .cantor import Alphabet, CantorSet, CapacityError
from .jacobi import jacobi_svd

MAX_POWER_ITERATIONS = 100_000
NORM_METHODS = ("lanczos", "power-iteration", "dense-svd")
# Lanczos basis cap, Ritz vectors kept at a thick restart, steps between
# convergence checks; block width of the power iteration
LANCZOS_NCV = 512
LANCZOS_KEEP = 64
LANCZOS_CHECK_EVERY = 8
POWER_BLOCK = 8
# the solver settings a caller leaves unset
DEFAULT_TOL = 1e-10
DEFAULT_SEED = 0
DENSE_ENTRY_BUDGET = 2**24
# largest N the FFT route, the baker propagator and the dense chain allocate
FFT_BUDGET = 2**24
PRUNED_BUDGET = 2**22  # most points |A|^k the pruned route transforms


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
    if isinstance(S, CantorSet):
        idx = S.elements  # sorted and distinct
    else:
        idx = np.unique(np.asarray(S, dtype=np.int64))
    if idx.size == 0:
        raise ValueError(f"{name} mask is empty")
    if idx[0] < 0 or idx[-1] >= N:
        raise ValueError(f"{name} indices must lie in [0, {N})")
    return idx


def _mask_size(S, N: int, name: str) -> int:
    """|S| for a mask in Z_N, with the checks of _as_indices. A Cantor set is
    counted by its size, and its largest element
    ceil(alpha a_max (M^k - 1)/(M - 1)) is checked against N; its elements
    are never built."""
    if not isinstance(S, CantorSet):
        return _as_indices(S, N, name).size
    M, p, r = S.alphabet.M, S.alpha.numerator, S.alpha.denominator
    if -(-p * S.alphabet.letters[-1] * ((M**S.k - 1) // (M - 1)) // r) >= N:
        raise ValueError(f"{name} indices must lie in [0, {N})")
    return S.size


def dft_submatrix(X, Y, N: int) -> np.ndarray:
    """Dense submatrix of F_N with rows X and columns Y; the size is
    checked before a Cantor set's elements are built."""
    nx, ny = _mask_size(X, N, "X"), _mask_size(Y, N, "Y")
    if nx * ny > DENSE_ENTRY_BUDGET:
        raise CapacityError(f"dense submatrix {nx} x {ny} too large")
    Xi = _as_indices(X, N, "X")
    Yi = _as_indices(Y, N, "Y")
    # x y mod N exactly: x y rounds as a double past 2^53, wraps in int64 past 2^63
    phase = (np.outer(Xi.astype(object), Yi.astype(object)) % N).astype(np.float64)
    return np.exp((-2j * np.pi / N) * phase) / np.sqrt(N)


def masked_gram_apply(X, Y, N: int):
    """Matrix-free v -> 1_Y F* 1_X F 1_Y v on C^{|Y|}, coordinates in
    increasing order of Y, by the route of the module docstring; before any
    work the FFT route refuses N > FFT_BUDGET, the pruned |A|^k > PRUNED_BUDGET."""
    if (isinstance(X, CantorSet) and X == Y and X.alpha.denominator == 1
            and N == X.N and X.k * X.size * X.alphabet.size < N):
        return _pruned_gram_apply(X)
    if N > FFT_BUDGET:
        raise CapacityError(f"N = {N} exceeds the FFT budget 2^24")
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


def _pruned_gram_apply(X: CantorSet):
    """Gram of the masked DFT on X x X by the pruned transform of the module docstring."""
    if X.size > PRUNED_BUDGET:
        raise CapacityError(f"|A|^k = {X.alphabet.size}^{X.k} exceeds the pruned budget 2^22")
    M, k, alpha = X.alphabet.M, X.k, X.alpha.numerator
    A = np.asarray(X.alphabet.letters, dtype=np.int64)
    L = A.size
    FA = np.exp((-2j * np.pi / M) * np.outer((alpha * A) % M, A))
    FAh = FA.conj().T
    twiddles = []  # tw_1, ..., tw_{k-1}
    low = np.zeros(1, dtype=np.int64)  # m_j over (c_0, ..., c_{j-1}), c_0 leading
    for j in range(1, k):
        low = (low[:, None] + M ** (j - 1) * A).reshape(-1)
        # alpha * e * m_j < alpha M^{j+1} <= N <= 2^53 is exact in int64, and
        # the mod (a no-op at alpha = 1) puts each phase in [0, 2 pi)
        phase = (alpha * np.outer(A, low)) % M ** (j + 1)
        twiddles.append(np.exp((-2j * np.pi / M ** (j + 1)) * phase)[:, None, :])

    def apply(v):
        x = np.asarray(v, dtype=np.complex128).reshape(L, -1).T @ FA.T
        for tw in twiddles:
            y = x.reshape(L, -1, tw.shape[2])
            y *= tw
            x = y.reshape(L, -1).T @ FA.T
        for tw in reversed(twiddles):
            x = FAh @ x.reshape(-1, L).T
            y = x.reshape(L, -1, tw.shape[2])
            y *= np.conj(tw)
        return (FAh @ x.reshape(-1, L).T).reshape(-1) / X.N

    return apply, L**k


def _check_resolvable(scale: float, dim: int, matvecs: int) -> None:
    """Refuse A while its largest |A v| over unit v, a lower bound on |A|, is
    below sqrt(dim tiny)/eps = 6.7e-139 sqrt(dim): the eps-relative parts of
    A v, residuals among them, then underflow when squared inside a norm."""
    if scale < math.sqrt(dim * np.finfo(float).tiny) / np.finfo(float).eps:
        raise ConvergenceError(f"largest |A v| = {scale:.3e} is below what doubles resolve "
                               f"in dimension {dim}", math.sqrt(scale), math.inf, matvecs)


def power_top(apply, dim: int, tol: float = DEFAULT_TOL,
              seed: int = DEFAULT_SEED, max_iterations: int = MAX_POWER_ITERATIONS):
    """Orthogonal (block power) iteration on a Hermitian PSD operator.

    Symmetric alphabets give masked Grams whose top eigenvalues come in
    clusters split only at the 1e-7 level, which a single power vector
    cannot separate inside any realistic budget; a small block resolves
    the whole cluster at once. Each step applies the operator to every
    block column, re-orthonormalizes, and extracts the top Rayleigh-Ritz
    pair; convergence is the explicit residual ||A y - theta y|| <= tol
    * theta. max_iterations caps operator applications, not steps, and
    ConvergenceError also refuses A as _check_resolvable does.
    """
    rng = np.random.default_rng(seed)
    b = max(1, min(POWER_BLOCK, dim))

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
        _check_resolvable(float(np.linalg.norm(W, axis=0).max()), dim, used)
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


def _basis(rows: int, dim: int) -> np.ndarray:
    """Zero complex (rows, dim) array in a private anonymous mapping of its
    own, for the Lanczos basis. Its pages take memory once written and go
    back to the system when the array is freed. Through malloc a freed basis
    raises glibc's mmap threshold and stays resident in the heap, and numpy
    advises huge pages for it, so the resident size of later solves would
    depend on the solves before them and on the kernel's huge page state."""
    try:
        buf = mmap.mmap(-1, rows * dim * 16, flags=mmap.MAP_PRIVATE)
    except OSError as err:  # ENOMEM, raised as numpy would raise it
        raise MemoryError(f"Lanczos basis of {rows} x {dim}: {err}") from err
    return np.frombuffer(buf, dtype=np.complex128).reshape(rows, dim)


def lanczos_top(apply, dim: int, tol: float = DEFAULT_TOL,
                seed: int = DEFAULT_SEED, max_matvecs: int = MAX_POWER_ITERATIONS):
    """Largest eigenvalue of a Hermitian PSD operator by thick-restart
    Lanczos with full reorthogonalization.

    Each step subtracts the couplings the projected matrix already holds
    (alpha_j v_j and beta_{j-1} v_{j-1}, or the arrowhead column right after
    a thick restart), then makes one classical Gram-Schmidt pass against the
    whole basis, and a second only when the first shrank the vector below
    1/sqrt(2) of its norm (Daniel, Gragg, Kaufman and Stewart, Math. Comp.
    30, 1976): a pass that removes that little leaves it orthogonal to
    working precision.

    A step is invariant when its new coupling beta is at most 1e-14 times
    the largest |A v_j| so far, a lower bound on |A| (Parlett, The Symmetric
    Eigenvalue Problem, 1998, ch. 13): the Krylov space of the random start
    then holds the top eigenvalue it reaches, so the Ritz pair is checked
    and the iteration stops, converged or not.

    Deterministic for fixed seed. Handles the near-degenerate top clusters
    of masked-DFT Gram operators where plain power iteration stalls. Returns
    (theta, vector, matvecs, residual) with residual = |A v - theta v| / theta
    measured by an explicit extra application; ConvergenceError carries the
    last such check, or refuses A as _check_resolvable does. The basis starts
    with a few rows and doubles up to LANCZOS_NCV as the iteration needs
    them, so its memory follows the matvecs used rather than LANCZOS_NCV.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    ncv = int(min(LANCZOS_NCV, dim))
    keep = int(min(LANCZOS_KEEP, max(1, ncv - 4)))
    V = _basis(min(ncv, 2 * LANCZOS_CHECK_EVERY), dim)
    V[0] = v / np.linalg.norm(v)
    T = np.zeros((ncv, ncv))

    def orthogonalize(w, j):
        # DGKS: one classical Gram-Schmidt pass, repeated once if it removed
        # more than half of the squared norm; conj(V conj(w)) is V* w without
        # a conjugated copy of the basis
        norm = np.linalg.norm(w)
        w = w - np.conj(V[: j + 1] @ np.conj(w)) @ V[: j + 1]
        beta = float(np.linalg.norm(w))
        if beta < norm / math.sqrt(2):
            w = w - np.conj(V[: j + 1] @ np.conj(w)) @ V[: j + 1]
            beta = float(np.linalg.norm(w))
        return w, beta

    j = 0
    first = 0  # first row of column j that T couples to
    matvecs = 0
    scale = 0.0  # largest |A v_j| so far
    theta, x, res = 0.0, None, math.inf
    while matvecs < max_matvecs:
        w = apply(V[j])
        matvecs += 1
        scale = max(scale, float(np.linalg.norm(w)))
        _check_resolvable(scale, dim, matvecs)
        T[j, j] = float(np.vdot(V[j], w).real)
        w, beta = orthogonalize(w - T[first : j + 1, j] @ V[first : j + 1], j)
        at_cap = j + 1 == ncv
        invariant = beta <= 1e-14 * scale
        if (j + 1) % LANCZOS_CHECK_EVERY == 0 or at_cap or invariant:
            evals, evecs = np.linalg.eigh(T[: j + 1, : j + 1])
            theta = float(evals[-1])
            s = evecs[:, -1]
            if theta > 0 and (invariant or beta * abs(s[-1]) <= 0.5 * tol * theta):
                x = s @ V[: j + 1]
                x /= np.linalg.norm(x)
                res = float(np.linalg.norm(apply(x) - theta * x)) / theta
                matvecs += 1
                if res <= tol:
                    return theta, x, matvecs, res
            if invariant:
                break
        if not at_cap:
            T[j, j + 1] = T[j + 1, j] = beta
            if j + 1 == V.shape[0]:
                grown = _basis(min(ncv, 2 * V.shape[0]), dim)
                grown[: j + 1] = V
                V = grown
            V[j + 1] = w / beta
            first = j
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
        T[keep, :keep] = T[:keep, keep] = beta * S[-1, :]
        first = 0
        j = keep
    raise ConvergenceError(
        f"lanczos did not reach tol={tol} in {matvecs} matvecs (residual {res:.3e})",
        sigma_best=math.sqrt(max(theta, 0.0)), residual=res, iterations=matvecs,
        vector=x,
    )


def check_tol(tol: float) -> None:
    """Refuse a solver tolerance outside 0 < tol < inf; NaN fails both sides."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")


def shaped_like(out: np.ndarray, x):
    """out, computed on the flattened x, in the shape of x (a numpy scalar
    when x is a scalar)."""
    return out.reshape(np.shape(x))[()]


@dataclass
class NormCertificate:
    """Largest singular value of a masked DFT submatrix, with provenance.

    residual is |A* A v - sigma^2 v| / sigma^2 for the reported pair.
    iterations == 0 with residual == 0.0 means the dimension count
    |X| + |Y| > N decided sigma = 1 and no operator was built.
    """

    sigma_max: float
    method: str  # lanczos | power-iteration | dense-svd
    iterations: int
    residual: float
    seed: int


def masked_norm(X, Y, N: int, tol: float = DEFAULT_TOL,
                seed: int = DEFAULT_SEED, method: str = "lanczos") -> NormCertificate:
    """Certificate for |1_X F_N 1_Y| = top singular value of the submatrix.

    method "lanczos" (default) and "power-iteration" run matrix-free on the
    Gram operator with a seeded start; "dense-svd" builds the submatrix and
    runs one-sided Jacobi.

    When |X| + |Y| > N, sigma = 1 exactly and no method runs: the vectors
    supported on Y and F* of the vectors supported on X span subspaces of
    dimensions |Y| + |X| > N in C^N, so they meet in a unit vector u with
    |1_X F 1_Y u| = |F u| = 1. The masks are checked first, as every
    route checks them.
    """
    if method not in NORM_METHODS:
        raise ValueError(f"unknown method {method!r}")
    check_tol(tol)
    if _mask_size(X, N, "X") + _mask_size(Y, N, "Y") > N:
        return NormCertificate(1.0, method, 0, 0.0, seed)
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
        return NormCertificate(min(sigma, 1.0), "dense-svd", result.rotations, res, seed)
    apply, dim = masked_gram_apply(X, Y, N)
    engine = power_top if method == "power-iteration" else lanczos_top
    lam, _, its, res = engine(apply, dim, tol, seed)
    return NormCertificate(min(math.sqrt(lam), 1.0), method, its, res, seed)


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
    # 0.0 - x, not -x: sigma = 1 gives beta = 0.0 rather than -0.0
    beta = 0.0 - math.log(cert.sigma_max) / (k * math.log(M))
    return FupExponentReport(M, k, M**k, delta, cert.sigma_max, beta,
                             max(0.0, 0.5 - delta), 0.5 - delta / 2)


def beta_dilated(cert: NormCertificate, dilated: CantorSet) -> FupExponentReport:
    """beta_k(N) = -log sigma / log N for the dilated sets, N = alpha M^k.

    The Schur/Hilbert-Schmidt sandwich holds with the set's dimension
    measured against N: d_eff = log|C_k(N)| / log N, which equals delta
    when alpha = 1. The delta field still records the alphabet dimension.
    """
    if cert.sigma_max <= 0:
        raise ValueError("sigma_max must be positive")
    alphabet = dilated.alphabet
    d_eff = math.log(dilated.size) / math.log(dilated.N)
    beta = 0.0 - math.log(cert.sigma_max) / math.log(dilated.N)
    return FupExponentReport(alphabet.M, dilated.k, dilated.N, alphabet.delta,
                             cert.sigma_max, beta,
                             max(0.0, 0.5 - d_eff), 0.5 - d_eff / 2)
