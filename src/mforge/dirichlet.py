"""Truncated Dirichlet convolution, inversion, and the exact identity suite.

A sequence truncated at N is laid out as a profile column: an integer array
of length N whose entry i is f(i + 1).  All arithmetic in this module is
integer-exact; there is no floating point anywhere, and overflow aborts
instead of wrapping.
"""

from dataclasses import dataclass, replace
from math import isqrt

import numpy as np

from . import IDENTITY_NAMES
from .sieve import Segment, primes_up_to
from .arith import PROFILE_COLUMNS, profile_range

_INT64_MAX = np.iinfo(np.int64).max

# Record values of the divisor-count function, used for the conservative
# overflow pre-check: (bound, max d(n) for n <= bound).
_TAU_RECORDS = [
    (10, 4), (100, 12), (1000, 32), (10**4, 64), (10**5, 128),
    (10**6, 240), (10**7, 448), (10**8, 768), (10**9, 1344),
    (10**10, 2304), (10**12, 6720), (10**15, 26880), (10**18, 103680),
]


class NonInvertibleError(ValueError):
    """f(1) = 0: no Dirichlet inverse exists."""


class NonIntegerInverseError(ValueError):
    """f(1) not in {-1, +1}: the inverse is not integer-valued."""


@dataclass
class IdentityReport:
    """Outcome of one exact identity check on 1..N."""

    identity_name: str
    N: int
    passed: bool
    first_failure: tuple | None = None   # (n, lhs, rhs)

    def __str__(self):
        if self.passed:
            return f"[pass] {self.identity_name}  (N={self.N})"
        n, lhs, rhs = self.first_failure
        return f"[FAIL] {self.identity_name}  (N={self.N}) first failure at n={n}: {lhs} != {rhs}"


def _max_tau(N: int) -> int:
    for bound, tau in _TAU_RECORDS:
        if N <= bound:
            return tau
    raise ValueError(f"N={N} beyond the divisor-count record table")


def _as_seq(f) -> np.ndarray:
    f = np.asarray(f)
    if f.ndim != 1 or f.shape[0] < 1:
        raise ValueError("sequence must be a 1-d array of length >= 1")
    return f if np.can_cast(f.dtype, np.int64) else f.astype(np.int64)


def _checked_int64(out, what: str) -> np.ndarray:
    """An exact object-dtype result as int64, raising OverflowError at the
    first entry past the int64 width."""
    for i, v in enumerate(out):
        if abs(v) > _INT64_MAX:
            raise OverflowError(f"{what} overflows the checked width at n={i + 1}")
    return out.astype(np.int64)


def _max_abs(a) -> int:
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _divisor_sums(f, h, out, a: int, sign: int) -> np.ndarray:
    """out(n) = sign * sum over d * m = n of f(d) * h(m), filled for a <= n <= N.

    Entry i of each array holds the value at n = i + 1.  Blocks of n in
    [a, min(2a, N + 1)) are filled in ascending order from O(sqrt(b)) strided
    updates split at sqrt(b - 1); total work is O(N log N).  A block reads f
    and h only below its end b, and reads its own range of h only in the
    d = 1 term, so ``h`` may be ``out`` itself (the inverse): that term
    then reads the block while it is still zero.  Operands keep their dtypes
    and each product is taken in int64 by casting the scalar, as int8 * int8
    would wrap.  Before each block an a-priori guard checks that
    max d(n) * max|f(n)| * max|h(n)| over n < b fits int64, which bounds every
    partial sum in the block; once it does not, the rest runs on Python ints
    and the result is width-checked.
    """
    N = out.shape[0]
    wide = np.int64
    max_f = max_h = 0
    lo = 0   # h[lo:a - 1] may have been filled since the last guard (h is out)
    while a <= N:
        b = min(2 * a, N + 1)
        if wide is np.int64:
            max_f = max(max_f, _max_abs(f[lo:b - 1]))
            max_h = max(max_h, _max_abs(h[lo:b - 1]))
            if _max_tau(b - 1) * max_f * max_h > _INT64_MAX:
                wide = int
                h_is_out = h is out
                f, out = f.astype(object), out.astype(object)
                h = out if h_is_out else h.astype(object)
            lo = a - 1
        block = out[a - 1:b - 1]
        t = isqrt(b - 1)
        for d in range(1, t + 1):
            mlo, mhi = -(-a // d), (b - 1) // d
            if mlo <= mhi:
                block[d * mlo - a : d * mhi - a + 1 : d] += wide(f[d - 1]) * h[mlo - 1 : mhi]
        for m in range(1, (b - 1) // (t + 1) + 1):
            dlo, dhi = max(t + 1, -(-a // m)), (b - 1) // m
            if dlo <= dhi:
                block[m * dlo - a : m * dhi - a + 1 : m] += wide(h[m - 1]) * f[dlo - 1 : dhi]
        if sign < 0:
            np.negative(block, out=block)
        a = b
    if wide is np.int64:
        return out
    return _checked_int64(out, "inverse" if h is out else "convolution")


def convolve(f, h) -> np.ndarray:
    """Exact Dirichlet convolution of two equal-length truncated sequences.

    out(n) = sum over divisors d of n of f(d) * h(n / d), for 1 <= n <= N,
    as int64 from operands of any integer dtype; OverflowError only when a
    true value does not fit.
    """
    f = _as_seq(f)
    h = _as_seq(h)
    if f.shape != h.shape:
        raise ValueError(f"length mismatch: {f.shape[0]} vs {h.shape[0]}")
    return _divisor_sums(f, h, np.zeros(f.shape[0], dtype=np.int64), 1, 1)


def dirichlet_inverse(f) -> np.ndarray:
    """Exact Dirichlet inverse of a truncated sequence with f(1) in {-1, +1}.

    inv(1) = f(1) and inv(n) = -f(1) * sum over divisors d >= 2 of n of
    f(d) * inv(n / d) (Apostol, Introduction to Analytic Number Theory,
    Thm 2.8): the divisor sums with h = inv itself.  Every term with d >= 2
    reads an inv(m) with m < a, final before block [a, b) starts; the d = 1
    term reads the block while it is still zero, so it adds nothing.  ``f``
    keeps its dtype (a uint8 omega + 1 costs no int64 copy).
    """
    f = _as_seq(f)
    f1 = int(f[0])
    if f1 == 0:
        raise NonInvertibleError("f(1) = 0 has no Dirichlet inverse")
    if f1 not in (-1, 1):
        raise NonIntegerInverseError(f"f(1) = {f1}: inverse is not integer-valued")
    inv = np.zeros(f.shape[0], dtype=np.int64)
    inv[0] = f1
    return _divisor_sums(f, inv, inv, 2, -f1)


def unit_sequence(N: int) -> np.ndarray:
    """The convolution identity as int8: 1 at n = 1, else 0."""
    eps = np.zeros(N, dtype=np.int8)
    eps[0] = 1
    return eps


def prime_indicator(N: int) -> np.ndarray:
    """Characteristic sequence of the primes on 1..N as int8, from a classical sieve."""
    chi = np.zeros(N, dtype=np.int8)
    chi[primes_up_to(N) - 1] = 1
    return chi


IDENTITY_LABELS = {
    "a": "prime indicator = omega * mu",
    "b": "(omega + 1) * g = unit",
    "c": "liouville . g = c_omega * mu^2",
    "d": "g = (liouville . c_omega) * mu",
    "e": "liouville . c_omega = inverse(prime indicator + unit)",
    "f": "g * 1 = liouville . c_omega",
}


#: The profile columns the identities read: c_omega is |u|, and g is built from omega.
IDENTITY_COLUMNS = frozenset({"omega", "mobius", "liouville", "u"})


def _first_failure(name, N, lhs, rhs):
    diff = np.nonzero(lhs != rhs)[0]
    if diff.size == 0:
        return IdentityReport(name, N, True)
    i = int(diff[0])
    return IdentityReport(name, N, False, (i + 1, int(lhs[i]), int(rhs[i])))


def verify_identity(name: str, N: int, profile=None) -> IdentityReport:
    """Check one of the convolution identities a..f exactly on 1..N.

    Left and right sides come from independent routes: profile tables on one
    side, generic convolution/inversion (or a classical prime sieve) on the
    other; g is the prefix table ``profile.g``, never the kernel's ``g_sig``,
    which is built from identity (c).  A profile past N is narrowed to views
    of its first N entries, so its ``g`` covers 1..N only; one of exactly N
    keeps its cached ``g``.  Failure is data, not an exception.
    """
    if name not in IDENTITY_NAMES:
        raise ValueError(f"unknown identity {name!r}, expected one of {IDENTITY_NAMES}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if profile is None:
        profile = profile_range(Segment(1, N + 1), columns=IDENTITY_COLUMNS)
    if profile.segment.lo != 1 or profile.segment.hi <= N:
        raise ValueError("profile must cover [1, N] starting at 1")
    if profile.segment.hi > N + 1:
        profile = replace(profile, segment=Segment(1, N + 1), **{
            c: v[:N] for c in PROFILE_COLUMNS if (v := getattr(profile, c)) is not None})

    if name == "a":
        lhs = prime_indicator(N)
        rhs = convolve(profile.omega, profile.mobius)
    elif name == "b":
        lhs = convolve(profile.omega + 1, profile.g)
        rhs = unit_sequence(N)
    elif name == "c":
        # c_omega = |u|; the right side first, so lambda * g is not held beside its temporaries
        rhs = convolve(np.abs(profile.u), profile.mobius != 0)
        lhs = profile.liouville * profile.g
    elif name == "d":
        lhs = profile.g
        rhs = convolve(profile.u, profile.mobius)
    elif name == "e":
        lhs = profile.u
        rhs = dirichlet_inverse(prime_indicator(N) + unit_sequence(N))
    else:  # f
        lhs = convolve(profile.g, np.ones(N, dtype=np.int8))
        rhs = profile.u
    return _first_failure(name, N, lhs, rhs)
