"""Reference computations made apart from `fup`.

Each function here rebuilds a quantity from its definition with plain numpy
(explicit matrices, direct sums, exhaustive searches) so that the benchmark
can check the program's outputs without trusting the code under test and
without stored copies of earlier outputs.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def letters_from_spec(M: int, spec: str) -> tuple[int, ...]:
    """Digit set named by the compact alphabet strings the workloads use."""
    if spec.startswith("interval:"):
        half = M ** float(spec.split(":", 1)[1]) / 2.0
        return tuple(l for l in range(M) if abs(l - M / 2) <= half)
    if spec.startswith("initial:"):
        return tuple(range(int(spec.split(":", 1)[1])))
    return tuple(sorted(int(t) for t in spec.split(",")))


def cantor_set(M: int, letters, k: int) -> np.ndarray:
    """All sums a_0 + a_1 M + ... + a_{k-1} M^{k-1} with digits in letters."""
    weights = [M**j for j in range(k)]
    return np.array(sorted(sum(d * w for d, w in zip(word, weights))
                           for word in itertools.product(letters, repeat=k)),
                    dtype=np.int64)


def dft_block(rows, cols, N: int) -> np.ndarray:
    """Rows x cols submatrix of the unitary N-point DFT; phases reduced mod N
    in integers so large indices keep full accuracy."""
    phase = np.outer(np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)) % N
    return np.exp((-2j * np.pi / N) * phase) / math.sqrt(N)


def top_singular_value(rows, cols, N: int) -> float:
    return float(np.linalg.svd(dft_block(rows, cols, N), compute_uv=False)[0])


def best_fraction(alpha: Fraction, M: int, Mdelta: int) -> tuple[int, int]:
    """(b, q) by exhaustive search: irreducible b/q with q <= Mdelta and
    |alpha/M - b/q| < 1/(q Mdelta); largest q, then smallest error, then
    smallest b."""
    x = Fraction(alpha) / M
    best = None
    for q in range(1, Mdelta + 1):
        for b in range(0, q + 1):
            if math.gcd(b, q) != 1:
                continue
            err = abs(x - Fraction(b, q))
            if err < Fraction(1, q * Mdelta):
                key = (-q, err, b)
                if best is None or key < best:
                    best = key
    return best[2], -best[0]


def g_lower_estimate(M: int, Mdelta: int, alpha: Fraction, rng,
                     outer: int = 2048, inner: int = 16) -> float:
    """A lower estimate of the window supremum G from random samples.

    G = (Mdelta/M) sup_x sum_{a < Mdelta} sup_{0 <= s <= w} |F_1(x + alpha a/M + s)|
    with w = alpha Mdelta / M^2. Any sampled x and s give a value <= G, and
    |F_1| is evaluated by the direct Dirichlet sum, not the closed form.
    """
    L = Mdelta
    af = float(alpha)
    w = af * L / (M * M)
    x = rng.random(outer)
    s = np.concatenate([[0.0, w], rng.random(inner) * w])
    t = x[:, None, None] + (af * np.arange(L) / M)[None, :, None] + s[None, None, :]
    j = np.arange(L)
    f1 = np.abs(np.exp(-2j * np.pi * t[..., None] * j).sum(axis=-1)) / L
    return (L / M) * float(f1.max(axis=2).sum(axis=1).max())


def cutoff_samples(kind: str, W: int) -> np.ndarray:
    """chi(l/W): the bump exp(1 - 1/(1 - (2t-1)^2)) on (0, 1), or all ones."""
    if kind == "sharp":
        return np.ones(W)
    chi = np.zeros(W)
    for l in range(1, W):
        u = 2.0 * l / W - 1.0
        chi[l] = math.exp(1.0 - 1.0 / (1.0 - u * u))
    return chi


def dense_baker(N: int, M: int, letters, chi: np.ndarray) -> np.ndarray:
    """B = F_N^* blockdiag_m(chi F_W chi if m in letters else 0) as a matrix."""
    W = N // M
    FW = dft_block(range(W), range(W), W)
    D = np.zeros((N, N), dtype=np.complex128)
    for m in letters:
        D[m * W:(m + 1) * W, m * W:(m + 1) * W] = chi[:, None] * FW * chi[None, :]
    return dft_block(range(N), range(N), N).conj().T @ D


def baker_reference(B: np.ndarray, n_max: int) -> tuple[float, dict]:
    """(spectral radius, {n: ||B^n||_2}) for n = 1, 2, 4, ..., n_max."""
    rho = float(np.abs(np.linalg.eigvals(B)).max())
    norms = {}
    P, n = B, 1
    while n <= n_max:
        norms[n] = float(np.linalg.norm(P, 2))
        P, n = P @ P, 2 * n
    return rho, norms


def gaussian_seed_values(M: int, letters) -> np.ndarray:
    """Unit-norm f on Z_M: e^{-pi (l - M/2)^2 / M} (-1)^l on the letters."""
    f = np.zeros(M)
    for l in letters:
        f[l] = math.exp(-math.pi * (l - M / 2) ** 2 / M) * (-1.0) ** l
    return f / np.linalg.norm(f)


def band_mass(f: np.ndarray, letters, y: np.ndarray) -> np.ndarray:
    """sum_{a in letters} |G_f(a/M + y)|^2 with the symbol
    G_f(x) = M^{-1/2} sum_l f(l) e^{-2 pi i l x} summed directly."""
    M = f.size
    x = np.asarray(letters, dtype=np.float64)[None, :] / M + np.asarray(y)[:, None]
    G = np.exp(-2j * np.pi * x[..., None] * np.arange(M)) @ f / math.sqrt(M)
    return (np.abs(G) ** 2).sum(axis=1)
