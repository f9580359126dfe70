"""Segments, the prime list and pointwise factoring.

:class:`Segment` is the half-open range every sweep works on, and
:func:`primes_up_to` supplies the seed primes of the segment kernel in
``arith``; a binary search in that list also gives pi(x).
:func:`factorize` is the pointwise trial division behind the exact
multinomial ``arith.c_omega``.
"""

from dataclasses import dataclass
from math import isqrt

import numpy as np

#: Default number of entries per sieve segment.  A sweep's memory is this
#: width times the workers times the bytes it keeps per entry (about 6 for
#: the series sweep, 17 with a row at every n, 16 for a profile of five
#: columns), so the default keeps a worker near 6-17 MB.
DEFAULT_SEGMENT_CAPACITY = 1 << 20


class RangeCoverageError(ValueError):
    """A lookup fell outside the range covered by the available tables."""


@dataclass(frozen=True)
class Segment:
    """Half-open integer range [lo, hi), 1 <= lo < hi <= 10^17 + 1 (the kernel's bound)."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 1:
            raise ValueError(f"segment lo must be >= 1, got {self.lo}")
        if self.hi <= self.lo:
            raise ValueError(f"segment hi must exceed lo, got [{self.lo}, {self.hi})")
        if self.hi - 1 > 10**17:
            raise OverflowError(f"segment end {self.hi - 1} is past 10^17, where c_omega "
                                "is not proven to fit int64")

    @property
    def width(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class Factorization:
    """n as an ordered list of (prime, exponent) pairs; empty for n = 1."""

    n: int
    factors: tuple

    def __iter__(self):
        return iter(self.factors)


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as an int64 array (classical sieve)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64, copy=False)


def factorize(n: int) -> Factorization:
    """Factor n by trial division, primes ascending."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    factors = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            factors.append((p, a))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return Factorization(n=n, factors=tuple(factors))
