"""Discrete Cantor sets in Z_{M^k} and their rational dilations.

An alphabet is a set of base-M digits A subset of {0, ..., M-1}. Depth-k
words over A, read as integers a_0 + a_1 M + ... + a_{k-1} M^{k-1}, form the
discrete Cantor set C_k subset of Z_{M^k} with dimension
delta = log|A| / log M. Dilating by a rational alpha with N = alpha * M^k an
integer multiple of M gives the set {ceil(alpha * j) : j in C_k} inside Z_N.

Everything here is exact: elements are Python ints, dilation factors are
`fractions.Fraction`, and delta is recomputed from (|A|, M) on demand rather
than stored as a rounded float.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# Indices must stay exactly representable as doubles for the FFT layer.
CAPACITY = 2**53


class CapacityError(ValueError):
    """M^k (or an element count) exceeds the exact-integer budget."""


def parse_rational(text: str) -> Fraction:
    """Parse 'p/r' or 'p' into an exact rational."""
    return Fraction(text.strip())


def rational_to_json(x: Fraction) -> dict:
    return {"numerator": x.numerator, "denominator": x.denominator}


def rational_from_json(d: dict) -> Fraction:
    return Fraction(d["numerator"], d["denominator"])


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

    @staticmethod
    def from_json(d: dict) -> "Alphabet":
        return Alphabet(d["M"], tuple(d["letters"]))


@dataclass(frozen=True)
class CantorSet:
    """All depth-k digit words over the alphabet, as sorted integers."""

    alphabet: Alphabet
    k: int
    elements: tuple[int, ...]

    @property
    def modulus(self) -> int:
        return self.alphabet.M**self.k

    @staticmethod
    def from_json(d: dict) -> "CantorSet":
        return CantorSet(Alphabet.from_json(d["alphabet"]), d["k"], tuple(d["elements"]))


@dataclass(frozen=True)
class DilatedCantorSet:
    """{ceil(alpha * j) : j in base.elements} inside Z_N, N = alpha * M^k."""

    base: CantorSet
    alpha: Fraction
    N: int
    elements: tuple[int, ...]

    @staticmethod
    def from_json(d: dict) -> "DilatedCantorSet":
        return DilatedCantorSet(
            CantorSet.from_json(d["base"]),
            rational_from_json(d["alpha"]),
            d["N"],
            tuple(d["elements"]),
        )


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
    """Enumerate C_k, sorted. Satisfies both splits
    C_k = C_{k-1} + M^{k-1} A and C_k = C_1 + M * C_{k-1}.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    M = alphabet.M
    if M**k > CAPACITY:
        raise CapacityError(f"M^k = {M}^{k} exceeds the 2^53 index budget")
    if len(alphabet.letters) ** k > 2**26:
        raise CapacityError(f"|A|^k = {len(alphabet.letters)}^{k} elements is too large")
    # prefix * M + letter keeps the list sorted at every stage
    elements = [0]
    for _ in range(k):
        elements = [c * M + a for c in elements for a in alphabet.letters]
    return CantorSet(alphabet, k, tuple(elements))


def dilate(cantor: CantorSet, alpha: Fraction) -> DilatedCantorSet:
    """Dilate C_k by alpha in [1, M). Requires N = alpha * M^k to be an
    integer multiple of M. Ceiling is strictly increasing on integers when
    alpha >= 1, so no collisions occur.
    """
    alpha = Fraction(alpha)
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
    p, r = alpha.numerator, alpha.denominator
    # ceil(p*j/r) in exact integer arithmetic
    elements = tuple((p * j + r - 1) // r for j in cantor.elements)
    return DilatedCantorSet(cantor, alpha, N, elements)
