"""Gaussian seed functions, convolution chains, and certified band-mass bounds.

This is the lower-bound side of the uncertainty-exponent computation. A seed
f on Z_M supported on the alphabet letters generates u_k on Z_{M^k} by digit
placement; the unitary DFT of u_k factors through the 1-periodic symbol

    G_f(x) = M^{-1/2} sum_l f(l) e^{-2 pi i l x},

and the masked norm of the Cantor-set submatrix is bounded below by powers of

    Z(f) = min_{0 <= y <= 1/M} sum_{a in alphabet} |G_f(a/M + y)|^2.

Z is a trigonometric polynomial in y, so a uniform grid plus a derivative
bound gives a rigorous (up to floating point) lower enclosure rather than a
heuristic minimum. All grid sweeps are vectorized through batched FFTs.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cantor import (Alphabet, CantorSet, CapacityError,
                     build_alphabet_interval, cantor_elements)
from .spectral import FupExponentReport, NormCertificate, beta_k, masked_norm

DENSE_CHAIN_BUDGET = 2**24
PRODUCT_CHECK_BUDGET = 2**20
# 1 - x/2 >= e^{-x} fails past x ~ 1.5936; stay strictly inside
EXP_STEP_MAX = 1.59


@dataclass(frozen=True, eq=False)
class SeedFunction:
    """Function on Z_M whose support lies inside the alphabet letters."""

    alphabet: Alphabet
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.complex128)
        if vals.shape != (self.alphabet.M,):
            raise ValueError(f"values must have length M={self.alphabet.M}")
        if not np.all(np.isfinite(vals.real) & np.isfinite(vals.imag)):
            raise ValueError("seed values must be finite")
        off = np.ones(self.alphabet.M, dtype=bool)
        off[list(self.alphabet.letters)] = False
        if np.any(vals[off] != 0):
            raise ValueError("seed values must vanish off the alphabet letters")
        if not np.any(vals):
            raise ValueError("seed function must be nonzero")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def M(self) -> int:
        return self.alphabet.M

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.values, self.values).real)

    @property
    def norm1(self) -> float:
        return float(np.abs(self.values).sum())

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.values)

    def normalized(self) -> "SeedFunction":
        return SeedFunction(self.alphabet, self.values / math.sqrt(self.norm_sq))


def indicator_seed(alphabet: Alphabet) -> SeedFunction:
    vals = np.zeros(alphabet.M, dtype=np.complex128)
    vals[list(alphabet.letters)] = 1.0
    return SeedFunction(alphabet, vals)


def gaussian_seed(alphabet: Alphabet) -> SeedFunction:
    """Discrete Gaussian centered at M/2, modulated by (-1)^l, cut to the
    letters: f(l) = M^{-1/2} e^{-pi (l - M/2)^2 / M} (-1)^l on the alphabet.

    The modulation is e^{i pi l}, evaluated exactly as a sign. Intended for
    the centered interval alphabet, where sorted(letters) hugs M/2; any
    alphabet is accepted (the restriction just loses more mass).
    """
    M = alphabet.M
    ls = np.array(alphabet.letters)
    vals = np.zeros(M, dtype=np.complex128)
    signs = 1.0 - 2.0 * (ls % 2)
    vals[ls] = np.exp(-np.pi * (ls - M / 2) ** 2 / M) * signs / math.sqrt(M)
    return SeedFunction(alphabet, vals)


def _match_shape(out: np.ndarray, x):
    if np.ndim(x) == 0:
        return complex(out[0])
    return out.reshape(np.shape(x))


def symbol_eval(seed: SeedFunction, x, chunk: int = 8192):
    """G_f(x) = M^{-1/2} sum_l f(l) e^{-2 pi i l x}; 1-periodic, finite sum.

    Accepts scalars or arrays; evaluation is chunked so large grids do not
    materialize a grid-by-support phase matrix all at once.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64)).ravel()
    supp = seed.support.astype(np.float64)
    coef = seed.values[seed.support] / math.sqrt(seed.M)
    out = np.empty(xs.size, dtype=np.complex128)
    for s in range(0, xs.size, chunk):
        xx = xs[s:s + chunk]
        out[s:s + chunk] = np.exp(-2j * np.pi * np.outer(xx, supp)) @ coef
    return _match_shape(out, x)


def band_masses(seed: SeedFunction, letters, y, chunk: int = 4096) -> np.ndarray:
    """sum_{l in letters} |G_f(l/M + y)|^2 evaluated at each offset y.

    For fixed y the values G_f(l/M + y) over all residues l are one ortho
    DFT of m -> f(m) e^{-2 pi i m y}, so a y-grid becomes a batched FFT.
    """
    M = seed.M
    idx = np.asarray(sorted({int(l) for l in letters}), dtype=np.int64)
    if idx.size and (idx[0] < 0 or idx[-1] >= M):
        raise ValueError("letters must lie in [0, M)")
    ys = np.atleast_1d(np.asarray(y, dtype=np.float64)).ravel()
    m = np.arange(M, dtype=np.float64)
    out = np.zeros(ys.size)
    if idx.size:
        for s in range(0, ys.size, chunk):
            rows = seed.values[None, :] * np.exp(-2j * np.pi * np.outer(ys[s:s + chunk], m))
            spec = np.fft.fft(rows, axis=1, norm="ortho")
            out[s:s + chunk] = (np.abs(spec[:, idx]) ** 2).sum(axis=1)
    if np.ndim(y) == 0:
        return out  # length-1 array; callers index or reduce
    return out.reshape(np.shape(y))


@dataclass
class ConvolutionChain:
    """u_k on Z_{M^k} with u_k(sum a_j M^j) = prod_j f(a_j), supported on C_k."""

    seed: SeedFunction
    k: int
    cantor: CantorSet
    u: np.ndarray


def convolution_chain(seed: SeedFunction, k: int) -> ConvolutionChain:
    """Build u_k by digit placement.

    The k-fold convolution of the dilates f(n), f(n/M), ..., f(n/M^{k-1})
    collapses to a digit product because each factor occupies its own digit
    position: no two summands of sum a_j M^j collide. This keeps
    supp u_k inside C_k exactly and gives ||u_k||^2 = ||f||^{2k} up to
    rounding in the products themselves.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    M = seed.M
    N = M**k
    if N > DENSE_CHAIN_BUDGET:
        raise CapacityError(f"dense chain of length {N} exceeds budget 2^24")
    cantor = cantor_elements(seed.alphabet, k)
    fvals = seed.values[np.array(seed.alphabet.letters)]
    vals = fvals.copy()
    for _ in range(k - 1):
        # same nesting order as the element construction: earlier digits high
        vals = (vals[:, None] * fvals[None, :]).ravel()
    u = np.zeros(N, dtype=np.complex128)
    u[np.array(cantor.elements)] = vals
    nsq = float(np.vdot(u, u).real)
    ref = seed.norm_sq**k
    if abs(nsq - ref) > 1e-10 * max(nsq, ref):
        raise ArithmeticError("chain norm drifted from ||f||^{2k}")
    return ConvolutionChain(seed, k, cantor, u)


def verify_product_formula(chain: ConvolutionChain) -> float:
    """max_j |(F_{M^k} u_k)(j) - prod_{r=1}^k G_f(j / M^r)| over all j.

    Left side by FFT, right side from the symbol directly; the factor for
    scale r is periodic in j with period M^r, so it is computed once per
    residue and tiled.
    """
    M, k = chain.seed.M, chain.k
    N = M**k
    if N > PRODUCT_CHECK_BUDGET:
        raise CapacityError(f"dense product check of length {N} exceeds budget 2^20")
    lhs = np.fft.fft(chain.u, norm="ortho")
    rhs = np.ones(N, dtype=np.complex128)
    for r in range(1, k + 1):
        base = symbol_eval(chain.seed, np.arange(M**r) / float(M**r))
        rhs *= np.tile(base, N // M**r)
    return float(np.max(np.abs(lhs - rhs)))


@dataclass
class ZCertificate:
    """Two-sided enclosure of Z(f): z_certified_lower <= Z(f) <= z_grid_min."""

    z_grid_min: float
    z_certified_lower: float
    grid_step: float
    lipschitz_bound: float


def band_lipschitz(seed: SeedFunction) -> float:
    """Derivative bound for y -> sum_{l in S} |G_f(l/M + y)|^2, any S ⊂ Z_M.

    Recentering the support at c multiplies G_f by a unimodular factor, so
    every band value is unchanged while the effective frequencies drop to
    the support half-width R. Cauchy-Schwarz across the residue comb then
    bounds the derivative by 4 pi R ||f||^2, uniformly in S and y.
    """
    supp = seed.support
    c = (int(supp.min()) + int(supp.max())) // 2
    R = int(np.max(np.abs(supp - c)))
    return 4.0 * math.pi * R * seed.norm_sq


def z_certificate(seed: SeedFunction, grid_points: int = 100_000) -> ZCertificate:
    """Certified enclosure of Z(f) by grid minimization over [0, 1/M].

    The grid minimum overestimates the true minimum by at most half a step
    times the derivative bound; subtracting that slack gives a true lower
    bound on Z(f).
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    M = seed.M
    y = np.linspace(0.0, 1.0 / M, grid_points)
    masses = band_masses(seed, seed.alphabet.letters, y)
    h = (1.0 / M) / (grid_points - 1)
    lip = band_lipschitz(seed)
    zmin = float(masses.min())
    return ZCertificate(zmin, zmin - lip * h / 2, h, lip)


def _tail_envelope(M: int, delta: float) -> float:
    return math.exp(-(math.pi / 4) * M ** (2 * delta - 1))


def verify_tail_bound(M: int, delta: float, y_samples: int = 20_001) -> tuple[float, float]:
    """Worst-case off-band mass of the truncated Gaussian seed vs its envelope.

    Returns (lhs, rhs) with lhs a certified upper bound (grid maximum plus
    Lipschitz slack) on max_{0<=y<=1/M} sum_{l not in alphabet}
    |G_f(l/M + y)|^2, and rhs = (60/sqrt(M)) e^{-(pi/4) M^{2 delta - 1}}.
    """
    alphabet = build_alphabet_interval(M, delta)
    seed = gaussian_seed(alphabet)
    rhs = 60.0 / math.sqrt(M) * _tail_envelope(M, delta)
    rest = sorted(set(range(M)) - set(alphabet.letters))
    if not rest:
        return 0.0, rhs
    y = np.linspace(0.0, 1.0 / M, y_samples)
    masses = band_masses(seed, rest, y)
    h = (1.0 / M) / (y_samples - 1)
    lhs = float(masses.max()) + band_lipschitz(seed) * h / 2
    return lhs, rhs


def gaussian_symbol(M: int, x, radius: int | None = None):
    """Symbol of the full (untruncated) Gaussian on Z, by direct lattice sum:

        G_g(x) = (1/M) sum_{l in Z} e^{-pi (l - M/2)^2 / M} e^{-2 pi i l (x - 1/2)}

    truncated to |l - M/2| <= radius. The default radius makes the dropped
    tail smaller than e^{-100 pi}, far below double precision.
    """
    if radius is None:
        radius = math.ceil(10 * math.sqrt(M)) + M
    xs = np.mod(np.atleast_1d(np.asarray(x, dtype=np.float64)).ravel(), 1.0)
    ls = np.arange(math.floor(M / 2 - radius), math.ceil(M / 2 + radius) + 1)
    w = np.exp(-np.pi * (ls - M / 2) ** 2 / M) / M
    out = np.empty(xs.size, dtype=np.complex128)
    for s in range(0, xs.size, 4096):
        out[s:s + 4096] = np.exp(-2j * np.pi * np.outer(xs[s:s + 4096] - 0.5, ls)) @ w
    return _match_shape(out, x)


def gaussian_symbol_theta(M: int, x, terms: int | None = None):
    """Poisson-resummed form of gaussian_symbol:

        G_g(x) = M^{-1/2} sum_k e^{-pi M t^2} e^{-pi i M t},  t = x - 1/2 + k.

    Dual Gaussians decay like e^{-pi M k^2}, so a handful of terms reaches
    machine precision; serves as an independent oracle for the lattice sum.
    """
    if terms is None:
        terms = max(2, math.ceil(math.sqrt(60.0 / (math.pi * M)))) + 1
    xs = np.mod(np.atleast_1d(np.asarray(x, dtype=np.float64)).ravel(), 1.0)
    ks = np.arange(-terms, terms + 1)
    t = (xs[:, None] - 0.5) + ks[None, :]
    out = np.exp(-np.pi * M * t**2 - 1j * np.pi * M * t).sum(axis=1) / math.sqrt(M)
    return _match_shape(out, x)


@dataclass
class Theorem1Report:
    """Certified lower-bound pipeline for the interval-alphabet Gaussian seed.

    binding means every analytic step behind the theoretical exponent bound
    was verified numerically at this M (seed mass floor, off-band tail
    envelope, and the 1 - x/2 >= e^{-x} substitution staying in range);
    when binding is False the computed certificates still hold but the
    closed-form envelope is not claimed.
    """

    exponents: FupExponentReport
    z: ZCertificate
    norm: NormCertificate
    seed_norm_sq: float
    seed_norm_floor: float
    tail_lhs: float
    tail_rhs: float
    chain_lhs: float | None
    chain_rhs: float
    sigma_lower: float
    beta_upper_certified: float
    beta_bound_theory: float
    beta_bound_ok: bool
    norm_ok: bool
    tail_ok: bool
    exp_ok: bool
    binding: bool


def theorem1_certificate(M: int, delta: float, k: int,
                         grid_points: int = 100_000, tol: float = 1e-10,
                         seed: int = 0, method: str = "lanczos",
                         y_samples: int = 20_001) -> Theorem1Report:
    """End-to-end certificate that beta_k is exponentially small in M.

    Builds the normalized Gaussian seed on the interval alphabet, encloses
    Z(f), checks the chain inequality sigma^2 >= ||1_{C_k} F u_k||^2 >= Z^k
    against the iteratively computed masked norm, and reports whether the
    measured exponent clears 170 e^{-(pi/4) M^{2 delta - 1}} plus slack.
    """
    if not 0.5 < delta < 1.0:
        raise ValueError("delta must lie in (1/2, 1)")
    alphabet = build_alphabet_interval(M, delta)
    raw = gaussian_seed(alphabet)
    floor = 1.0 / (2.0 * math.sqrt(2.0 * M))
    norm_ok = raw.norm_sq >= floor
    fn = raw.normalized()
    zc = z_certificate(fn, grid_points)
    tail_lhs, tail_rhs = verify_tail_bound(M, delta, y_samples)
    tail_ok = tail_lhs <= tail_rhs
    exp_ok = 340.0 * _tail_envelope(M, delta) <= EXP_STEP_MAX
    binding = norm_ok and tail_ok and exp_ok
    if not binding:
        warnings.warn(
            f"M={M}, delta={delta}: analytic regime not certified at this size "
            f"(norm_ok={norm_ok}, tail_ok={tail_ok}, exp_ok={exp_ok}); "
            "the exponent report is non-binding", stacklevel=2)

    cantor = cantor_elements(alphabet, k)
    z_lo = max(zc.z_certified_lower, 0.0)
    chain_rhs = z_lo**k
    sigma_lower = z_lo ** (k / 2)
    chain_lhs = None
    if M**k <= DENSE_CHAIN_BUDGET:
        chain = convolution_chain(fn, k)
        spectrum = np.fft.fft(chain.u, norm="ortho")
        chain_lhs = float(np.sum(np.abs(spectrum[np.array(cantor.elements)]) ** 2))
        if chain_lhs < chain_rhs - 1e-12:
            raise ArithmeticError(
                f"chain mass {chain_lhs} fell below its certified floor {chain_rhs}")

    cert = masked_norm(cantor, cantor, M**k, tol=tol, seed=seed, method=method)
    if cert.sigma_max < sigma_lower - tol:
        raise ArithmeticError(
            f"masked norm {cert.sigma_max} fell below certified floor {sigma_lower}")
    rep = beta_k(cert, alphabet, k)
    bound = 170.0 * _tail_envelope(M, delta)
    beta_cert = math.inf
    if z_lo > 0:
        beta_cert = -math.log(z_lo) / (2.0 * math.log(M))
    return Theorem1Report(
        exponents=rep, z=zc, norm=cert,
        seed_norm_sq=raw.norm_sq, seed_norm_floor=floor,
        tail_lhs=tail_lhs, tail_rhs=tail_rhs,
        chain_lhs=chain_lhs, chain_rhs=chain_rhs, sigma_lower=sigma_lower,
        beta_upper_certified=beta_cert, beta_bound_theory=bound,
        beta_bound_ok=rep.beta_k <= bound + 1e-6,
        norm_ok=norm_ok, tail_ok=tail_ok, exp_ok=exp_ok, binding=binding)
