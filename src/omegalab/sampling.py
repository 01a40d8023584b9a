"""Seeded counter-based rational sampling.

Every drawn value is a pure function of (seed, counter), so sweeps can be
replayed or parallelized without shared generator state, and reports are
reproducible byte for byte.  Denominators are capped so downstream exact
arithmetic stays cheap.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

MAX_DENOMINATOR = 1 << 16


def mix64(z: int) -> int:
    """The splitmix64 finalizer; bijective on 64-bit words."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def raw_draw(seed: int, counter: int) -> int:
    """64-bit value at position counter of the stream for seed."""
    if counter < 0:
        raise DomainError(f"need counter >= 0; got {counter}")
    return mix64((seed & _MASK) + ((counter + 1) * _GOLDEN & _MASK))


class RationalSampler:
    """Uniform-ish rationals in [low, high] with bounded denominator.

    Each value uses two raw draws: one picks the denominator d in
    [1, MAX_DENOMINATOR], the other a numerator in [0, d], giving a
    fraction in [0,1] that is then scaled onto [low, high].
    """

    def __init__(self, seed: int, low, high):
        self.seed = int(seed)
        self.low = Fraction(low)
        self.high = Fraction(high)
        if self.high < self.low:
            raise DomainError(f"empty range [{self.low}, {self.high}]")

    def value(self, counter: int) -> Fraction:
        den = 1 + raw_draw(self.seed, 2 * counter) % MAX_DENOMINATOR
        num = raw_draw(self.seed, 2 * counter + 1) % (den + 1)
        return self.low + (self.high - self.low) * Fraction(num, den)

    def point(self, index: int, n: int) -> tuple:
        """The index-th sample point in n coordinates."""
        if n < 1:
            raise DomainError(f"need at least one coordinate; got n={n}")
        return tuple(self.value(index * n + j) for j in range(n))
