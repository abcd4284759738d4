"""Rational approximation and exponential-sum bounds for dilated Cantor sets.

The upper-bound route: how close alpha/M sits to a fraction b/q with small q
controls the norm of the dilated Cantor-set submatrix through the
exponential sums

    F_k(x) = M^{-delta k} sum_{l in C_k} e^{-2 pi i l x},

their window suprema G, and the sums S_k <= G^k. Everything rational is kept
exact (fractions.Fraction); grid suprema carry explicit derivative slack so
the reported G_upper is a true upper bound while S_k grids are honest lower
estimates.

Alphabets here are the initial segments {0, ..., Mdelta - 1} with
Mdelta^2 <= M (delta <= 1/2); the normalizations M^{delta k} = Mdelta^k and
M^{-(1-delta)} = Mdelta/M are exact integers/ratios, never float powers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .cantor import (CantorSet, CapacityError, build_alphabet_initial,
                     cantor_elements, dilate)
from .spectral import (FupExponentReport, NormCertificate, beta_dilated,
                       masked_norm, shaped_like)

SK_MAX_K = 4
SK_MAX_ELEMENTS = 4096


def canonical_dilation(N: int, M: int) -> tuple[Fraction, int]:
    """Write N = alpha M^k with k maximal, so alpha = N / M^k lies in [1, M)."""
    if M < 2 or N < M or N % M:
        raise ValueError("N must be a multiple of M with N >= M")
    k = 1
    while M ** (k + 1) <= N:
        k += 1
    return Fraction(N, M**k), k


# ---------------------------------------------------------------------------
# rational approximation


@dataclass(frozen=True)
class RationalApprox:
    """Irreducible b/q approximating alpha/M with q as large as admissible.

    error is exact; gamma = log q / log M. strict_ok records
    |alpha/M - b/q| < 1/(q Mdelta), nonstrict_ok the same with <=.
    """

    b: int
    q: int
    gamma: float
    error: Fraction
    strict_ok: bool
    nonstrict_ok: bool


def _cf_candidates(x: Fraction, qmax: int) -> list[tuple[int, int]]:
    """Convergents and intermediate fractions of x with denominator <= qmax.

    Every fraction closest to x among all fractions with denominator up to a
    given cap appears in this list, so max-denominator searches restricted
    to it agree with exhaustive search (cross-checked in tests).
    """
    cands = [(0, 1)]
    p, q = x.numerator, x.denominator
    hm2, km2 = 0, 1
    hm1, km1 = 1, 0
    while q:
        a, r = divmod(p, q)
        for t in range(1, a + 1):
            ht, kt = t * hm1 + hm2, t * km1 + km2
            if kt > qmax:
                return cands
            cands.append((ht, kt))
        hm2, km2, hm1, km1 = hm1, km1, a * hm1 + hm2, a * km1 + km2
        p, q = q, r
    return cands


def best_rational(alpha, M: int, Mdelta: int, regime: str = "strict") -> RationalApprox:
    """Largest-denominator irreducible b/q with q <= Mdelta approximating
    alpha/M within 1/(q Mdelta).

    regime "strict" demands |alpha/M - b/q| < 1/(q Mdelta), "nonstrict"
    allows equality. q = 1 is always admissible, so the search cannot come
    back empty. Ties on q prefer smaller error, then smaller b.
    """
    if regime not in ("strict", "nonstrict"):
        raise ValueError(f"unknown regime {regime!r}")
    alpha = Fraction(alpha)
    if not 1 <= alpha < M:
        raise ValueError("alpha must satisfy 1 <= alpha < M")
    if Mdelta < 1:
        raise ValueError("Mdelta must be >= 1")
    x = alpha / M
    best = None  # (q, error, b)
    for b, q in _cf_candidates(x, Mdelta):
        if q > Mdelta:
            continue
        err = abs(x - Fraction(b, q))
        cap = Fraction(1, q * Mdelta)
        if err > cap or (regime == "strict" and err == cap):
            continue
        if best is None or q > best[0] or (q == best[0] and (err, b) < (best[1], best[2])):
            best = (q, err, b)
    if best is None:
        raise RuntimeError("no admissible fraction found; q=1 should always pass")
    q, err, b = best
    cap = Fraction(1, q * Mdelta)
    return RationalApprox(b, q, math.log(q) / math.log(M), err,
                          strict_ok=err < cap, nonstrict_ok=err <= cap)


# ---------------------------------------------------------------------------
# exponential sums


def _dirichlet_ratio(Mdelta: int, x,
                     magnitude: bool) -> tuple[np.ndarray, np.ndarray]:
    """(y, r) at y = x mod 1: r = sin(pi Mdelta y) / (Mdelta sin(pi y)), or
    |r| with magnitude, taken as 1 at integers.

    |r| is taken before np.where: taken after it, the peak memory of
    g_bound's chunked loop grows by about one chunk.
    """
    if Mdelta < 2:
        raise ValueError("Mdelta must be >= 2")
    y = np.mod(np.asarray(x, dtype=np.float64), 1.0)
    num = np.sin(np.pi * Mdelta * y)
    den = np.sin(np.pi * y)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / (Mdelta * den)
    if magnitude:
        ratio = np.abs(ratio)
    return y, np.where(den == 0.0, 1.0, ratio)


def f1_eval(Mdelta: int, x):
    """F_1(x) = Mdelta^{-1} sum_{j < Mdelta} e^{-2 pi i j x}.

    Dirichlet-kernel closed form; equals 1 exactly at integers.
    """
    y, ratio = _dirichlet_ratio(Mdelta, x, magnitude=False)
    return shaped_like(np.exp(-1j * np.pi * (Mdelta - 1) * y) * ratio, x)


def f1_abs(Mdelta: int, x):
    """|F_1(x)|, the same closed form without the phase."""
    return _dirichlet_ratio(Mdelta, x, magnitude=True)[1]


def f1_sup(Mdelta: int, lo: float, hi: float, grid: int = 64) -> tuple[float, float]:
    """(grid sup, certified sup) of |F_1| over [lo, hi].

    |F_1'| <= pi (Mdelta - 1), so the grid maximum plus half-step slack
    encloses the true supremum; the trivial bound 1 caps the result.
    """
    if hi < lo:
        raise ValueError("empty interval")
    if hi == lo or grid < 2:
        v = float(f1_abs(Mdelta, lo))
        return v, v
    vals = f1_abs(Mdelta, np.linspace(lo, hi, grid))
    g = float(vals.max())
    slack = math.pi * (Mdelta - 1) * (hi - lo) / (grid - 1) / 2
    return g, min(g + slack, 1.0)


def _alphabet_abs(letters: np.ndarray, x: np.ndarray) -> np.ndarray:
    """| |A|^{-1} sum_{a in A} e^{-2 pi i a x} | for a general letter set."""
    L = letters.size
    if np.array_equal(letters, np.arange(L)):
        return f1_abs(L, x)
    acc = np.zeros(x.shape, dtype=np.complex128)
    for a in letters:
        acc += np.exp((-2j * np.pi * a) * x)
    return np.abs(acc) / L


def fk_eval(cantor: CantorSet, x):
    """F_k(x) = M^{-delta k} sum_{l in C_k} e^{-2 pi i l x}, by direct sum.

    The normalization M^{delta k} = |A|^k is exact. Direct summation over
    the elements; the factored recursion F_k(x) = F_1(x) F_{k-1}(M x) is
    what tests verify against this.
    """
    elems = cantor.elements.astype(np.float64)
    if elems.size > 2**16:
        raise CapacityError("direct F_k evaluation limited to |C_k| <= 65536")
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64)).ravel()
    out = np.empty(xs.size, dtype=np.complex128)
    chunk = max(1, 2**20 // elems.size)
    for s in range(0, xs.size, chunk):
        out[s:s + chunk] = np.exp(-2j * np.pi * np.outer(xs[s:s + chunk], elems)).mean(axis=1)
    return shaped_like(out, x)


@dataclass
class ExpSumBounds:
    """Two-sided bracket of the window supremum G, plus optional S_k grid value.

    G_grid <= true G <= G_upper; S_k_grid is a grid lower estimate of S_k.
    lipschitz_f1 = pi (Mdelta - 1) is the derivative bound behind both
    slack terms.
    """

    M: int
    Mdelta: int
    alpha: Fraction
    delta: float
    G_grid: float
    G_upper: float
    outer_points: int
    inner_points: int
    outer_step: float
    inner_step: float
    lipschitz_f1: float
    k: int | None = None
    S_k_grid: float | None = None


def g_bound(M: int, Mdelta: int, alpha, outer_grid: int = 200_000,
            inner_grid: int = 64) -> ExpSumBounds:
    """Certified bracket of
    G = M^{-(1-delta)} sup_x sum_{a < Mdelta} sup over the window
    [x + (alpha/M) a, x + (alpha/M) a + alpha Mdelta / M^2] of |F_1|.

    Outer sup over one period on a uniform grid, inner sups on small grids;
    both get half-step derivative slack, and each inner sup is capped at the
    trivial bound 1 before summing.
    """
    if Mdelta < 2 or Mdelta > M:
        raise ValueError("need 2 <= Mdelta <= M")
    if outer_grid < 8 or inner_grid < 2:
        raise ValueError("grids too coarse")
    alpha = Fraction(alpha)
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    L = Mdelta
    af = float(alpha)
    width = af * L / (M * M)
    eta = af * np.arange(L) / M
    s = np.linspace(0.0, width, inner_grid)
    h_in = width / (inner_grid - 1)
    h_out = 1.0 / outer_grid
    lip = math.pi * (L - 1)
    best_grid = 0.0
    best_cert = 0.0
    chunk = max(1, 2**21 // (L * inner_grid))
    for start in range(0, outer_grid, chunk):
        x = np.arange(start, min(start + chunk, outer_grid)) * h_out
        t = x[:, None, None] + eta[None, :, None] + s[None, None, :]
        sup = f1_abs(L, t).max(axis=2)  # (chunk, L) inner grid sups
        best_grid = max(best_grid, float(sup.sum(axis=1).max()))
        capped = np.minimum(sup + lip * h_in / 2, 1.0)
        best_cert = max(best_cert, float(capped.sum(axis=1).max()))
    g_grid = (L / M) * best_grid
    g_upper = (L / M) * min(best_cert + L * lip * h_out / 2, float(L))
    return ExpSumBounds(M, Mdelta, alpha, math.log(L) / math.log(M),
                        g_grid, g_upper, outer_grid, inner_grid,
                        h_out, h_in, lip)


def sk_estimate(cantor: CantorSet, alpha, grid: int = 4096) -> float:
    """Grid lower estimate of
    S_k = M^{-(1-delta)k} sup_x sum_{j in C_k} |F_k(x + alpha j / M^k)|.

    F_k factors through the digit split as prod_{r<k} F_1(M^r x), which
    keeps the cost at k alphabet sums per point instead of |C_k| terms.
    """
    if cantor.alpha != 1:
        raise ValueError("sk_estimate takes the undilated C_k; alpha is its own argument")
    if cantor.k > SK_MAX_K:
        raise CapacityError(f"sk_estimate limited to k <= {SK_MAX_K}")
    elems = cantor.elements.astype(np.float64)
    if elems.size > SK_MAX_ELEMENTS:
        raise CapacityError(f"sk_estimate limited to |C_k| <= {SK_MAX_ELEMENTS}")
    alpha = Fraction(alpha)
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    M, k = cantor.alphabet.M, cantor.k
    letters = np.array(cantor.alphabet.letters)
    offs = float(alpha) * elems / float(M**k)
    best = 0.0
    chunk = max(1, 2**20 // elems.size)
    for s0 in range(0, grid, chunk):
        x = np.arange(s0, min(s0 + chunk, grid), dtype=np.float64) / grid
        t = x[:, None] + offs[None, :]
        acc = _alphabet_abs(letters, t)
        for r in range(1, k):
            acc = acc * _alphabet_abs(letters, t * float(M**r))
        best = max(best, float(acc.sum(axis=1).max()))
    return (letters.size / M) ** k * best


# ---------------------------------------------------------------------------
# the full comparison record


@dataclass
class Theorem2Report:
    """Measured dilated-exponent data against the Diophantine target.

    target_exponent = (1/2 - delta + gamma/2) - eps; eps_emp is the observed
    slack target_raw - beta_kN. C_fit = sigma^2 / (alpha G_upper^k) is the
    implied constant of the norm bound shape, reported for trend-watching
    and never asserted against a threshold.
    """

    M: int
    Mdelta: int
    k: int
    N: int
    delta: float
    alpha: Fraction
    eps: float
    norm: NormCertificate
    exponents: FupExponentReport
    approx: RationalApprox
    gamma: float
    target_exponent: float
    eps_emp: float
    bounds: ExpSumBounds
    prop_rhs: float
    C_fit: float


def theorem2_report(M: int, Mdelta: int, k: int, alpha, eps: float = 0.0,
                    tol: float = 1e-10, seed: int = 0, method: str = "lanczos",
                    outer_grid: int = 200_000, sk_grid: int = 2048) -> Theorem2Report:
    """Full upper-bound pipeline at N = alpha M^k for the initial alphabet.

    Computes the masked norm of the dilated Cantor-set submatrix, the
    exponent beta_k(N), the best rational approximation to alpha/M and its
    gamma, the G bracket with the 12 Mdelta/M (Mdelta/q + log q) comparison,
    and the implied constant of sigma^2 <= C alpha G^k. S_k is attached when
    C_k is small enough to sweep.
    """
    if Mdelta * Mdelta > M:
        raise ValueError("initial alphabets require Mdelta^2 <= M (delta <= 1/2)")
    alpha = Fraction(alpha)
    # the FFT budget is checked before C_k is built; dilate checks the rest
    # (1 <= alpha < M, M | N), so an alpha below 1 counts as 1 here
    if max(alpha, 1) * M**k > 2**24:
        raise CapacityError(f"N = {alpha * M**k} exceeds the FFT budget 2^24")
    alphabet = build_alphabet_initial(M, Mdelta)
    cantor = cantor_elements(alphabet, k)
    dil = dilate(cantor, alpha)
    N = dil.N
    cert = masked_norm(dil, dil, N, tol=tol, seed=seed, method=method)
    rep = beta_dilated(cert, dil)
    ra = best_rational(alpha, M, Mdelta)
    delta = alphabet.delta
    target_raw = 0.5 - delta + ra.gamma / 2
    bounds = g_bound(M, Mdelta, alpha, outer_grid=outer_grid)
    if k <= SK_MAX_K and alphabet.size**k <= 512:
        bounds = replace(bounds, k=k,
                         S_k_grid=sk_estimate(cantor, alpha, grid=sk_grid))
    else:
        bounds = replace(bounds, k=k)
    prop_rhs = 12.0 * Mdelta / M * (Mdelta / ra.q + math.log(ra.q))
    c_fit = cert.sigma_max**2 / (float(alpha) * bounds.G_upper**k)
    return Theorem2Report(
        M=M, Mdelta=Mdelta, k=k, N=N, delta=delta, alpha=alpha, eps=eps,
        norm=cert, exponents=rep, approx=ra, gamma=ra.gamma,
        target_exponent=target_raw - eps, eps_emp=target_raw - rep.beta_k,
        bounds=bounds, prop_rhs=prop_rhs, C_fit=c_fit)
