"""Discrete Cantor sets in Z_{M^k} and their rational dilations.

An alphabet is a set of base-M digits A subset of {0, ..., M-1}. Depth-k
words over A, read as integers a_0 + a_1 M + ... + a_{k-1} M^{k-1}, form the
discrete Cantor set C_k subset of Z_{M^k} with dimension
delta = log|A| / log M. Dilating by a rational alpha with N = alpha * M^k an
integer multiple of M gives the set C_k(N) = {ceil(alpha * j) : j in C_k}
inside Z_N.

One type covers the whole family: a CantorSet is (alphabet, k, alpha), with
alpha = 1 for C_k itself. Its constructors check only that indices are exact
(N <= 2^53); its elements are built only when first read, and that read
refuses more than 2^26 of them. Everything here is exact: elements are a
sorted int64 array, dilation factors are `fractions.Fraction` and the
ceilings are taken in integer arithmetic, and delta is recomputed from
(|A|, M) on demand rather than stored as a rounded float.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

# Indices must stay exactly representable as doubles for the FFT layer.
CAPACITY = 2**53


class CapacityError(ValueError):
    """A size exceeds the budget of the code that would allocate or index it."""


@dataclass(frozen=True)
class Alphabet:
    """Base M together with a strictly increasing tuple of digits in [0, M)."""

    M: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.M < 2:
            raise ValueError(f"base must be >= 2, got {self.M}")
        if not self.letters:
            raise ValueError("alphabet must be nonempty")
        if any(not (0 <= a < self.M) for a in self.letters):
            raise ValueError(f"letters must lie in [0, {self.M})")
        if any(b <= a for a, b in zip(self.letters, self.letters[1:])):
            raise ValueError("letters must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.letters)

    @property
    def delta(self) -> float:
        # log|A|/log M; exact pair (|A|, M) is the stored truth
        return math.log(len(self.letters)) / math.log(self.M)


@dataclass(frozen=True)
class CantorSet:
    """C_k(N) = {ceil(alpha * j) : j in C_k} inside Z_N, N = alpha * M^k;
    alpha = 1 is C_k itself. Build it with cantor_elements and dilate,
    which check the parameters."""

    alphabet: Alphabet
    k: int
    alpha: Fraction = Fraction(1)

    @property
    def N(self) -> int:
        return int(self.alpha * self.alphabet.M**self.k)

    @property
    def size(self) -> int:
        """|A|^k = M^{delta k}, counted without building the elements:
        ceil(alpha j) is injective on integers for alpha >= 1."""
        return self.alphabet.size**self.k

    @cached_property
    def elements(self) -> np.ndarray:
        """The |A|^k elements, sorted, as a read-only int64 array."""
        if self.size > 2**26:
            raise CapacityError(f"|A|^k = {self.alphabet.size}^{self.k} elements is too large")
        A = np.asarray(self.alphabet.letters, dtype=np.int64)
        # prefix * M + letter keeps the words sorted at every stage
        e = np.zeros(1, dtype=np.int64)
        for _ in range(self.k):
            e = (e[:, None] * self.alphabet.M + A).ravel()
        if self.alpha != 1:
            # ceil(p*j/r) exactly: p*j can pass 2^63 while N stays below 2^53
            p, r = self.alpha.numerator, self.alpha.denominator
            e = ((e.astype(object) * p + (r - 1)) // r).astype(np.int64)
        e.setflags(write=False)
        return e


def build_alphabet_interval(M: int, delta: float) -> Alphabet:
    """Digits within M^delta/2 of the center M/2 (endpoint ties included).

    The resulting size differs from M^delta by at most 1.
    """
    if M < 3:
        raise ValueError(f"need M >= 3, got {M}")
    width = M**delta
    if width <= 2:
        raise ValueError(f"M^delta = {width:.3f} <= 2: alphabet degenerates")
    half = width / 2.0
    letters = tuple(l for l in range(M) if abs(l - M / 2) <= half)
    return Alphabet(M, letters)


def build_alphabet_initial(M: int, Mdelta: int) -> Alphabet:
    """The initial segment {0, ..., Mdelta - 1}, so delta = log(Mdelta)/log M.

    Warns when Mdelta^2 > M: the dilated-FUP regime needs delta <= 1/2, but
    the constructor itself is general.
    """
    if Mdelta < 2 or Mdelta > M:
        raise ValueError(f"need 2 <= Mdelta <= M, got Mdelta={Mdelta}, M={M}")
    if Mdelta * Mdelta > M:
        import warnings

        warnings.warn(
            f"Mdelta^2 = {Mdelta**2} > M = {M}: delta > 1/2 is outside the "
            "dilated-FUP regime",
            stacklevel=2,
        )
    return Alphabet(M, tuple(range(Mdelta)))


def cantor_elements(alphabet: Alphabet, k: int) -> CantorSet:
    """C_k in Z_{M^k}. Its elements satisfy both splits
    C_k = C_{k-1} + M^{k-1} A and C_k = C_1 + M * C_{k-1}.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    M = alphabet.M
    if M**k > CAPACITY:
        raise CapacityError(f"M^k = {M}^{k} exceeds the 2^53 index budget")
    return CantorSet(alphabet, k)


def dilate(cantor: CantorSet, alpha: Fraction) -> CantorSet:
    """Dilate C_k by alpha in [1, M). Requires N = alpha * M^k to be an
    integer multiple of M. Ceiling is strictly increasing on integers when
    alpha >= 1, so no collisions occur; dilate(C_k, 1) is C_k.
    """
    alpha = Fraction(alpha)
    if cantor.alpha != 1:
        raise ValueError(f"the set is already dilated by {cantor.alpha}")
    M = cantor.alphabet.M
    if not (1 <= alpha < M):
        raise ValueError(f"need 1 <= alpha < M = {M}, got {alpha}")
    N_exact = alpha * M**cantor.k
    if N_exact.denominator != 1:
        raise ValueError(f"N = alpha * M^k = {N_exact} is not an integer")
    N = N_exact.numerator
    if N % M != 0:
        raise ValueError(f"N = {N} is not a multiple of M = {M}")
    if N > CAPACITY:
        raise CapacityError(f"N = {N} exceeds the 2^53 index budget")
    return CantorSet(cantor.alphabet, cantor.k, alpha)
