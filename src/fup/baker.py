"""Open quantum baker's maps and certified spectral-radius upper bounds.

B = F_N^* . blockdiag_m(chi F_W chi or 0) with W = N/M: block m survives
exactly when m is an alphabet letter, each surviving block is the W-point
unitary DFT sandwiched between the diagonal cutoff chi, and the result is
rotated back by the inverse N-point DFT. Everything is applied matrix-free
(one batched W-FFT over the alphabet rows plus one N-FFT per application).

Spectral radius bounds come from norms of powers: ||B^n||^{1/n} >= rho for
every n, so the minimum over a doubling schedule of n is a certified upper
bound up to the quality of the norm estimates themselves.

Each norm is found on the alphabet rows alone. Write R for the restriction
of v.reshape(M, W) to its |A| alphabet rows. B reads only those rows and
its adjoint writes zeros outside them, so B = B R^* R and B^* = R^* R B^*,
hence (B^n)^* B^n = R^* R (B^n)^* B^n R^* R: the Gram of B^n vanishes off
C^{|A| W}, and its top eigenpair is that of R (B^n)^* B^n R^* there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cantor import Alphabet, CapacityError
from .diophantine import best_rational, canonical_dilation
from .spectral import (DEFAULT_SEED, DEFAULT_TOL, FFT_BUDGET, ConvergenceError,
                       check_tol, lanczos_top, power_top)


@dataclass(frozen=True, eq=False)
class CutoffProfile:
    """Sampled cutoff chi(l/W), l = 0..W-1, values in [0, 1].

    kind "smooth-bump" is the compactly supported bump on (0, 1); "sharp"
    is identically 1 and sits outside the smooth class the contraction
    theory assumes.
    """

    kind: str
    samples: np.ndarray

    def __post_init__(self):
        arr = np.array(self.samples, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("samples must be a nonempty 1-d array")
        if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN fails both
            raise ValueError("cutoff samples must lie in [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)


def bump_profile(W: int) -> CutoffProfile:
    """chi(t) = exp(1 - 1/(1 - (2t-1)^2)) on (0,1), 0 at the endpoints."""
    if W < 1:
        raise ValueError("W must be >= 1")
    t = np.arange(W) / W
    chi = np.zeros(W)
    inside = (t > 0.0) & (t < 1.0)
    u = 2.0 * t[inside] - 1.0
    chi[inside] = np.exp(1.0 - 1.0 / (1.0 - u * u))
    return CutoffProfile("smooth-bump", chi)


def sharp_profile(W: int) -> CutoffProfile:
    if W < 1:
        raise ValueError("W must be >= 1")
    return CutoffProfile("sharp", np.ones(W))


def make_cutoff(kind: str, W: int) -> CutoffProfile:
    """Cutoff by name ("bump", "smooth-bump", "sharp"), or kind "custom" from
    the comma-separated samples in the file named by kind."""
    if kind in ("bump", "smooth-bump"):
        return bump_profile(W)
    if kind == "sharp":
        return sharp_profile(W)
    if not Path(kind).is_file():
        raise ValueError(f"unknown cutoff kind {kind!r}")
    try:
        samples = np.loadtxt(kind, delimiter=",", ndmin=1)
    except OSError as err:
        raise ValueError(f"cannot read cutoff file {kind!r}: {err}") from err
    return CutoffProfile("custom", samples)


class BakerMap:
    """Matrix-free application of the open baker propagator and its adjoint."""

    def __init__(self, N: int, M: int, alphabet: Alphabet, cutoff: CutoffProfile):
        if M < 2 or N % M or N < M:
            raise ValueError("N must be a positive multiple of M")
        if N > FFT_BUDGET:
            raise CapacityError(f"N = {N} exceeds the FFT budget 2^24")
        if alphabet.M != M:
            raise ValueError("alphabet base must equal M")
        W = N // M
        if cutoff.samples.size != W:
            raise ValueError(f"cutoff must have N/M = {W} samples")
        self.N = N
        self.M = M
        self.alphabet = alphabet
        self.cutoff = cutoff
        self._rows = np.array(alphabet.letters)
        self._chi = cutoff.samples

    def apply(self, v: np.ndarray) -> np.ndarray:
        """B v: keep alphabet blocks, chi F_W chi each, rotate by F_N^*."""
        M, W = self.M, self.N // self.M
        blocks = np.zeros((M, W), dtype=np.complex128)
        sub = np.asarray(v, dtype=np.complex128).reshape(M, W)[self._rows] * self._chi
        blocks[self._rows] = np.fft.fft(sub, axis=1, norm="ortho") * self._chi
        return np.fft.ifft(blocks.reshape(-1), norm="ortho")

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        M, W = self.M, self.N // self.M
        spec = np.fft.fft(np.asarray(v, dtype=np.complex128), norm="ortho").reshape(M, W)
        blocks = np.zeros((M, W), dtype=np.complex128)
        sub = spec[self._rows] * self._chi
        blocks[self._rows] = np.fft.ifft(sub, axis=1, norm="ortho") * self._chi
        return blocks.reshape(-1)

    def gram_apply(self, v: np.ndarray, n: int = 1) -> np.ndarray:
        """(B^n)^* (B^n) v; the top eigenvalue is ||B^n||^2."""
        w = np.asarray(v, dtype=np.complex128)
        for _ in range(n):
            w = self.apply(w)
        for _ in range(n):
            w = self.adjoint(w)
        return w


@dataclass
class GelfandReport:
    """Norm-of-powers data: rho_upper = min_n ||B^n||^{1/n} >= spectral radius.

    powers holds (n, certified ||B^n|| upper estimate). comparison is only
    populated for initial-segment alphabets with size^2 <= M, where the
    Diophantine main term M^{-(1/2 - delta + gamma/2) + eps} is defined; its
    residual_slot = rho_upper - main term is reported, never asserted, since
    no rate is available for it at finite N.
    """

    N: int
    M: int
    powers: list
    rho_upper: float
    diagnostics: list
    comparison: dict | None


def gelfand_bound(bmap: BakerMap, n_max: int = 64, tol: float = DEFAULT_TOL,
                  seed: int = DEFAULT_SEED, eps: float = 0.0,
                  method: str = "lanczos") -> GelfandReport:
    """Certified upper bound on the spectral radius of B.

    Each level n = 1, 2, 4, ..., n_max drives the Gram of B^n on the |A| W
    alphabet rows (module docstring) to a top Ritz pair and records
    ||B^n|| <= sqrt(theta (1 + residual)); the residual covers the remaining
    gap once the iteration has locked onto the top cluster. Every level
    iterates, at 2n applications of B or B^* per matvec. A level whose solver
    raises ConvergenceError (out of budget, with a Ritz value that may sit
    below ||B^n||, or ||B^n||^2 below what doubles resolve) records the
    square of the previous level's bound, starting from ||B|| <= 1, with
    source "submultiplicative-fallback"; a square that underflows to 0.0 is
    recorded as math.ulp(0.0), which is still above the exact square.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    check_tol(tol)
    # looked up per call, so a rebinding of the module's solvers takes effect
    engines = {"lanczos": lanczos_top, "power-iteration": power_top}
    if method not in engines:
        raise ValueError(f"unknown method {method!r}; Gelfand bounds take {', '.join(engines)}")
    engine = engines[method]
    M, W, rows = bmap.M, bmap.N // bmap.M, bmap._rows
    powers = []
    diagnostics = []
    norm_upper = 1.0  # ||B|| <= 1; each level's fallback squares the level before
    for n in (2**j for j in range(n_max.bit_length())):
        def gram(v, _n=n):
            full = np.zeros((M, W), dtype=np.complex128)
            full[rows] = v.reshape(-1, W)
            return bmap.gram_apply(full.reshape(-1), _n).reshape(M, W)[rows].reshape(-1)
        try:
            theta, _, its, res = engine(gram, rows.size * W, tol, seed)
            norm_upper = math.sqrt(max(theta, 0.0) * (1.0 + res))
            converged, source = True, "iteration"
        except ConvergenceError as err:
            theta, res, its = err.sigma_best**2, err.residual, err.iterations
            norm_upper = max(norm_upper * norm_upper, math.ulp(0.0))
            converged, source = False, "submultiplicative-fallback"
        powers.append((n, norm_upper))
        diagnostics.append({"n": n, "theta": theta, "residual": res,
                            "iterations": its, "converged": converged,
                            "source": source})
    rho_upper = min(u ** (1.0 / m) for m, u in powers)
    comparison = None
    letters = bmap.alphabet.letters
    L = len(letters)
    if letters == tuple(range(L)) and L * L <= bmap.M and L >= 2:
        alpha, k = canonical_dilation(bmap.N, bmap.M)
        ra = best_rational(alpha, bmap.M, L)
        delta = bmap.alphabet.delta
        main = bmap.M ** (-(0.5 - delta + ra.gamma / 2) + eps)
        comparison = {
            "alpha": alpha,
            "k": k,
            "b": ra.b,
            "q": ra.q,
            "gamma": ra.gamma,
            "eps": eps,
            "main_term": main,
            "residual_slot": rho_upper - main,
        }
    return GelfandReport(bmap.N, bmap.M, powers, rho_upper, diagnostics, comparison)
