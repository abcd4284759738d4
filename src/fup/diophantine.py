"""Rational approximation and exponential-sum bounds for dilated Cantor sets.

The upper-bound route: how close alpha/M sits to a fraction b/q with small q
controls the norm of the dilated Cantor-set submatrix through the
exponential sums

    F_k(x) = M^{-delta k} sum_{l in C_k} e^{-2 pi i l x},

their window suprema G, and the sums S_k <= G^k. Everything rational is kept
exact (fractions.Fraction). G is bracketed from one periodic table of |F_1|
by sliding-window maxima; the upper end carries explicit derivative slack,
so the reported G_upper is a true upper bound, while G_grid and the S_k
grids are honest lower estimates.

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
from .spectral import (DEFAULT_SEED, DEFAULT_TOL, FupExponentReport, NormCertificate,
                       beta_dilated, masked_norm, shaped_like)

SK_MAX_K = 4
SK_MAX_ELEMENTS = 512
G_TABLE_MAX = 2**22  # |F_1| samples per period in g_bound's table


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

    Both sines are taken at the distance d = min(y, 1 - y) to the nearest
    integer, which is exact, and r(y) = (-1)^{Mdelta+1} r(d) for y > 1/2:
    taken at y itself, the rounding of pi y just below 1 leaves no correct
    digit (|r| = 1.26 at y = 1 - 2^-53, Mdelta = 6). |r| is taken before
    np.where: taken after it, the peak memory of a table of |F_1| grows by
    one table.
    """
    if Mdelta < 2:
        raise ValueError("Mdelta must be >= 2")
    y = np.mod(np.asarray(x, dtype=np.float64), 1.0)
    d = np.minimum(y, 1.0 - y)
    num = np.sin(np.pi * Mdelta * d)
    den = np.sin(np.pi * d)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / (Mdelta * den)
    if magnitude:
        ratio = np.abs(ratio)
    elif Mdelta % 2 == 0:
        ratio = np.where(y > 0.5, -ratio, ratio)
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


def fk_eval(cantor: CantorSet, x):
    """F_k(x) = M^{-delta k} sum_{l in C_k} e^{-2 pi i l x}, by direct sum.

    The normalization M^{delta k} = |A|^k is exact. Direct summation over
    the elements; the factored recursion F_k(x) = F_1(x) F_{k-1}(M x) is
    what tests verify against this.
    """
    if cantor.size > 2**16:
        raise CapacityError("direct F_k evaluation limited to |C_k| <= 65536")
    elems = cantor.elements.astype(np.float64)
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64)).ravel()
    out = np.empty(xs.size, dtype=np.complex128)
    chunk = max(1, 2**20 // elems.size)
    for s in range(0, xs.size, chunk):
        out[s:s + chunk] = np.exp(-2j * np.pi * np.outer(xs[s:s + chunk], elems)).mean(axis=1)
    return shaped_like(out, x)


@dataclass
class ExpSumBounds:
    """Two-sided bracket of the window supremum G, plus optional S_k grid value.

    G_grid <= true G <= G_upper, both read off one table of |F_1| at the
    outer_points = P samples j * outer_step of a period (see g_bound);
    S_k_grid is a grid lower estimate of S_k. lipschitz_f1 = pi (Mdelta - 1)
    is the derivative bound behind G_upper's half-step slack.
    """

    M: int
    Mdelta: int
    alpha: Fraction
    delta: float
    G_grid: float
    G_upper: float
    outer_points: int
    outer_step: float
    lipschitz_f1: float
    k: int | None = None
    S_k_grid: float | None = None


def _check_outer_grid(M: int, Mdelta: int, alpha: Fraction, outer_grid: int) -> None:
    """Refuse a table size g_bound cannot use, before any work.

    The table has P = outer_grid entries, so P is capped at G_TABLE_MAX
    (CapacityError). It must also put a sample in every window of width
    w = alpha Mdelta / M^2, which needs P >= 1/w; a coarser P raises
    ValueError naming the smallest admissible one.
    """
    if outer_grid > G_TABLE_MAX:
        raise CapacityError(f"outer_grid = {outer_grid} exceeds the |F_1| table "
                            f"budget {G_TABLE_MAX}")
    least = math.ceil(M * M / (alpha * Mdelta))
    if outer_grid < least:
        raise ValueError(f"grids too coarse: outer_grid must be at least {least} "
                         "to put a sample in every window")


def _half_period_table(L: int, P: int, size: int) -> np.ndarray:
    """f_{j mod P} = |F_1(j / P)| for j < size. f_{P-j} = f_j, so f1_abs
    samples j <= P/2 (in cache-sized chunks) and the rest is their mirror."""
    fe, half = np.empty(size), P // 2 + 1
    for s in range(0, half, 2**14):
        fe[s:min(s + 2**14, half)] = f1_abs(L, np.arange(s, min(s + 2**14, half)) / P)
    fe[half:P] = fe[P - half:0:-1]
    fe[P:] = fe[np.arange(size - P) % P]
    return fe


def _cyclic_window_max(fe: np.ndarray, P: int, n: int) -> np.ndarray:
    """W_n[i] = max(fe[i:i + n]) for i < P, fe cyclic of P + 2 min(n, P) samples. van Herk /
    Gil-Werman: in blocks of n, max(i's block from i on, the next block up to i + n - 1)."""
    n = min(n, P)
    g = fe[:-(-(P + n - 1) // n) * n].reshape(-1, n)
    suffix = np.empty_like(g)
    np.maximum.accumulate(g[:, ::-1], axis=1, out=suffix[:, ::-1])
    win = suffix.ravel()[:P]
    return np.maximum(win, np.maximum.accumulate(g, axis=1).ravel()[n - 1:n - 1 + P], out=win)


def _widen(win: np.ndarray, fe: np.ndarray, n: int, n_new: int) -> np.ndarray:
    """W_n -> W_{n_new} in place, by W_{m+1}[i] = max(W_m[i], fe[i + m])."""
    for m in range(min(n, win.size), min(n_new, win.size)):
        np.maximum(win, fe[m:m + win.size], out=win)
    return win


def _max_shifted_sum(terms) -> float:
    """max_i sum over (t, s) in terms of t_{(i + s) mod P}, added in place in order."""
    acc = None
    for t, s in terms:
        acc = np.zeros(t.size) if acc is None else acc
        s %= t.size
        acc[:t.size - s] += t[s:]
        acc[t.size - s:] += t[:s]
    return float(acc.max())


def g_bound(M: int, Mdelta: int, alpha, outer_grid: int = 200_000) -> ExpSumBounds:
    """Certified bracket of G = M^{-(1-delta)} sup_x sum_{a < Mdelta} sup of
    |F_1| over [x + (alpha/M) a, x + (alpha/M) a + w], w = alpha Mdelta / M^2,
    from sliding maxima of f_j = |F_1(j h)|, j in Z_P, P = outer_grid,
    h = 1/P, sampled on half a period: one van Herk maximum at the shortest
    window, widened a sample at a time, summed over Mdelta shifts. Window
    lengths and shifts are exact (Fraction): a non-dyadic M rounds safely.

    Upper: each t in [y, y + w], floor(y P) = j0, is within h/2 of some f_j,
    j0 <= j <= j0 + ceil(w P) + 1 (t P < j0 + 1 + w P), and |F_1'| <= lip =
    pi (Mdelta - 1), so the window sup is at most U_{j0} = min(1, max f_j +
    lip h / 2). For x in [i h, (i + 1) h), floor((x + alpha a / M) P) is
    i + s_a or i + s_a + 1, s_a = floor(alpha a P / M), so G <= (Mdelta/M)
    max_i sum_a max(U_{i+s_a}, U_{i+s_a+1}) = G_upper. Lower: at x = i h the
    window of a holds exactly f_{i+t}, ceil(alpha a P / M) <= t <=
    floor((alpha a / M + w) P), so G_grid = (Mdelta/M) max_i sum_a max f_{i+t} <= G.
    """
    if Mdelta < 2 or Mdelta > M:
        raise ValueError("need 2 <= Mdelta <= M")
    alpha = Fraction(alpha)
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    _check_outer_grid(M, Mdelta, alpha, outer_grid)
    L, P = Mdelta, outer_grid
    w, offsets = alpha * L / (M * M), [alpha * a / M for a in range(L)]
    h, lip = 1.0 / P, math.pi * (L - 1)
    lo = [math.ceil(c * P) for c in offsets]
    counts = [math.floor((c + w) * P) - l + 1 for c, l in zip(offsets, lo)]  # n0 or n0 + 1
    n0, n1, n_up = min(counts), max(counts), math.ceil(w * P) + 3
    fe = _half_period_table(L, P, P + 2 * min(n_up, P))
    inside = {n0: _cyclic_window_max(fe, P, n0)}
    inside[n1] = _widen(inside[n0].copy(), fe, n0, n1) if n1 > n0 else inside[n0]
    g_grid = _max_shifted_sum((inside[n], l) for n, l in zip(counts, lo))
    upper = _widen(inside[n1], fe, n1, n_up)
    np.minimum(np.add(upper, lip * h / 2, out=upper), 1.0, out=upper)
    g_upper = _max_shifted_sum((upper, math.floor(c * P)) for c in offsets)
    return ExpSumBounds(M, Mdelta, alpha, math.log(L) / math.log(M),
                        (L / M) * g_grid, (L / M) * g_upper, P, h, lip)


def sk_estimate(cantor: CantorSet, alpha, grid: int = 4096) -> float:
    """Grid lower estimate of
    S_k = M^{-(1-delta)k} sup_x sum_{j in C_k} |F_k(x + alpha j / M^k)|.

    With alpha = p/q and x = s/grid, |F_k(t)| = prod_{r<k} |F_1(M^r t)| lives
    on the lattice Z_D, D = lcm(grid, q M^k): t = n/D, n = s D/grid +
    p j D/(q M^k), and M^r t = (M^r n mod D)/D. For D <= min(2^16, grid |C_k|)
    |F_1| is sampled once on Z_D and |F_k| is k - 1 gathers of it: about
    D + grid |C_k| sine pairs and gathers, not k grid |C_k| sine pairs.
    D M must fit int64 (CapacityError).
    """
    if cantor.alpha != 1:
        raise ValueError("sk_estimate takes the undilated C_k; alpha is its own argument")
    L = cantor.alphabet.size
    if cantor.alphabet.letters != tuple(range(L)):
        raise ValueError("sk_estimate takes an initial alphabet {0, ..., Mdelta - 1}")
    if cantor.k > SK_MAX_K:
        raise CapacityError(f"sk_estimate limited to k <= {SK_MAX_K}")
    if cantor.size > SK_MAX_ELEMENTS:
        raise CapacityError(f"sk_estimate limited to |C_k| <= {SK_MAX_ELEMENTS}")
    alpha = Fraction(alpha)
    if alpha < 1 or grid < 1:
        raise ValueError(f"need alpha >= 1 and grid >= 1, got {alpha} and {grid}")
    M, k, p, q = cantor.alphabet.M, cantor.k, alpha.numerator, alpha.denominator
    D = math.lcm(grid, q * M**k)
    if D * M >= 2**63:
        raise CapacityError(f"S_k lattice size D = {D} times M overflows int64")
    # Python ints: p j D/(q M^k) may pass 2^63 before the mod
    offs = np.array([p * j * (D // (q * M**k)) % D for j in cantor.elements.tolist()])

    def f1(m):  # |F_1(m / D)|
        return f1_abs(L, m / D)

    def fk_abs(n, f):  # |F_k(n / D)| = prod_r f(M^r n mod D), f(m) = |F_1(m / D)|
        acc = f(n)
        for _ in range(1, k):
            n = n * M % D
            acc = acc * f(n)
        return acc

    budget = 2**16  # lattice points per table or chunk, about 1 MB per array
    table = None
    if D <= min(budget, grid * offs.size):  # |F_k| on all of Z_D
        z = np.arange(D)
        table = fk_abs(z, f1(z).take)
    best = 0.0
    rows = max(1, budget // offs.size)
    for s0 in range(0, grid, rows):
        n = np.arange(s0, min(s0 + rows, grid))[:, None] * (D // grid) + offs
        acc = fk_abs(n % D, f1) if table is None else table.take(n, mode="wrap")
        best = max(best, float(acc.sum(axis=1).max()))
    return (L / M) ** k * best


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
                    tol: float = DEFAULT_TOL, seed: int = DEFAULT_SEED, method: str = "lanczos",
                    outer_grid: int = 200_000, sk_grid: int = 2048) -> Theorem2Report:
    """Full upper-bound pipeline at N = alpha M^k for the initial alphabet.

    Computes the masked norm of the dilated Cantor-set submatrix, the
    exponent beta_k(N), the best rational approximation to alpha/M and its
    gamma, the G bracket with the 12 Mdelta/M (Mdelta/q + log q) comparison,
    and the implied constant of sigma^2 <= C alpha G^k. S_k is attached when
    sk_estimate accepts C_k.
    """
    if Mdelta * Mdelta > M:
        raise ValueError("initial alphabets require Mdelta^2 <= M (delta <= 1/2)")
    if sk_grid < 1:  # sk_estimate's own check comes after its caps and the norm
        raise ValueError(f"need sk_grid >= 1, got {sk_grid}")
    alpha = Fraction(alpha)
    alphabet = build_alphabet_initial(M, Mdelta)
    cantor = cantor_elements(alphabet, k)
    dil = dilate(cantor, alpha)
    _check_outer_grid(M, Mdelta, alpha, outer_grid)
    N = dil.N
    cert = masked_norm(dil, dil, N, tol=tol, seed=seed, method=method)
    rep = beta_dilated(cert, dil)
    ra = best_rational(alpha, M, Mdelta)
    delta = alphabet.delta
    target_raw = 0.5 - delta + ra.gamma / 2
    bounds = g_bound(M, Mdelta, alpha, outer_grid=outer_grid)
    try:
        bounds = replace(bounds, k=k, S_k_grid=sk_estimate(cantor, alpha, grid=sk_grid))
    except CapacityError:
        bounds = replace(bounds, k=k)
    prop_rhs = 12.0 * Mdelta / M * (Mdelta / ra.q + math.log(ra.q))
    c_fit = cert.sigma_max**2 / (float(alpha) * bounds.G_upper**k)
    return Theorem2Report(
        M=M, Mdelta=Mdelta, k=k, N=N, delta=delta, alpha=alpha, eps=eps,
        norm=cert, exponents=rep, approx=ra, gamma=ra.gamma,
        target_exponent=target_raw - eps, eps_emp=target_raw - rep.beta_k,
        bounds=bounds, prop_rhs=prop_rhs, C_fit=c_fit)
