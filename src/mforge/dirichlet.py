"""Truncated Dirichlet convolution, inversion, and the exact identity suite.

Sequences use a 1-indexed layout throughout: an arithmetic function truncated
at N is an integer array of length N + 1 whose entry 0 is unused.  All
arithmetic in this module is integer-exact; there is no floating point
anywhere, and overflow aborts instead of wrapping.
"""

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .sieve import Segment, primes_up_to
from .arith import profile_range

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
    if f.ndim != 1 or f.shape[0] < 2:
        raise ValueError("sequence must be a 1-d array of length >= 2 (index 0 unused)")
    return f


def convolve(f, h) -> np.ndarray:
    """Exact Dirichlet convolution of two equal-length truncated sequences.

    out[n] = sum over divisors d of n of f[d] * h[n // d], for 1 <= n <= N.
    The double loop is split at sqrt(N) so each side runs O(sqrt(N)) strided
    vector updates; total work is O(N log N).
    """
    f = _as_seq(f)
    h = _as_seq(h)
    if f.shape != h.shape:
        raise ValueError(f"length mismatch: {f.shape[0] - 1} vs {h.shape[0] - 1}")
    N = f.shape[0] - 1
    f = f.astype(np.int64, copy=False)
    h = h.astype(np.int64, copy=False)
    maxf = int(np.abs(f[1:]).max(initial=0))
    maxh = int(np.abs(h[1:]).max(initial=0))
    if maxf and maxh and maxf * maxh * _max_tau(N) > _INT64_MAX:
        return _convolve_checked(f, h, N)

    out = np.zeros(N + 1, dtype=np.int64)
    t = isqrt(N)
    for d in range(1, t + 1):
        q = N // d
        out[d::d] += f[d] * h[1 : q + 1]
    for k in range(1, N // (t + 1) + 1):
        dhi = N // k
        out[k * (t + 1) :: k] += h[k] * f[t + 1 : dhi + 1]
    return out


def _convolve_checked(f, h, N):
    # Exact fallback when the int64 pre-check cannot rule out overflow:
    # arbitrary-precision accumulation, then a width check per entry.
    fl = [int(v) for v in f]
    hl = [int(v) for v in h]
    out = [0] * (N + 1)
    for d in range(1, N + 1):
        fd = fl[d]
        if fd == 0:
            continue
        for m in range(1, N // d + 1):
            out[d * m] += fd * hl[m]
    for n in range(1, N + 1):
        if abs(out[n]) > _INT64_MAX:
            raise OverflowError(f"convolution overflows the checked width at n={n}")
    return np.array(out, dtype=np.int64)


def dirichlet_inverse(f) -> np.ndarray:
    """Exact Dirichlet inverse of a truncated sequence with f(1) in {-1, +1}.

    Sequential by nature: inv(m) becomes final in ascending m, then pushes
    f(d) * inv(m) into the accumulator of every multiple d*m, d >= 2.
    Arbitrary-precision accumulation, O(N log N) operations.
    """
    f = _as_seq(f)
    N = f.shape[0] - 1
    f1 = int(f[1])
    if f1 == 0:
        raise NonInvertibleError("f(1) = 0 has no Dirichlet inverse")
    if f1 not in (-1, 1):
        raise NonIntegerInverseError(f"f(1) = {f1}: inverse is not integer-valued")

    fl = [int(v) for v in f]
    acc = [0] * (N + 1)
    inv = [0] * (N + 1)
    inv[1] = f1
    for m in range(1, N + 1):
        if m > 1:
            inv[m] = -f1 * acc[m]
        vm = inv[m]
        if vm == 0:
            continue
        for n in range(2 * m, N + 1, m):
            acc[n] += fl[n // m] * vm
    for n in range(1, N + 1):
        if abs(inv[n]) > _INT64_MAX:
            raise OverflowError(f"inverse overflows the checked width at n={n}")
    return np.array(inv, dtype=np.int64)


def unit_sequence(N: int) -> np.ndarray:
    """The convolution identity: 1 at n = 1, else 0."""
    eps = np.zeros(N + 1, dtype=np.int64)
    eps[1] = 1
    return eps


def prime_indicator(N: int) -> np.ndarray:
    """Characteristic sequence of the primes on 1..N, from a classical sieve."""
    chi = np.zeros(N + 1, dtype=np.int64)
    chi[primes_up_to(N)] = 1
    return chi


IDENTITY_NAMES = ("a", "b", "c", "d", "e", "f")

IDENTITY_LABELS = {
    "a": "prime indicator = omega * mu",
    "b": "(omega + 1) * g = unit",
    "c": "liouville . g = c_omega * mu^2",
    "d": "g = (liouville . c_omega) * mu",
    "e": "liouville . c_omega = inverse(prime indicator + unit)",
    "f": "g * 1 = liouville . c_omega",
}


def _first_failure(name, N, lhs, rhs):
    diff = np.nonzero(lhs[1:] != rhs[1:])[0]
    if diff.size == 0:
        return IdentityReport(name, N, True)
    n = int(diff[0]) + 1
    return IdentityReport(name, N, False, (n, int(lhs[n]), int(rhs[n])))


def verify_identity(name: str, N: int, profile=None) -> IdentityReport:
    """Check one of the convolution identities a..f exactly on 1..N.

    Left and right sides come from independent routes: profile tables on one
    side, generic convolution/inversion (or a classical prime sieve) on the
    other.  Failure is data, not an exception.
    """
    if name not in IDENTITY_NAMES:
        raise ValueError(f"unknown identity {name!r}, expected one of {IDENTITY_NAMES}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if profile is None:
        profile = profile_range(Segment(1, N + 1))
    if profile.segment.lo != 1 or profile.segment.hi <= N:
        raise ValueError("profile must cover [1, N] starting at 1")

    def col(a):
        return np.concatenate([[0], a[:N].astype(np.int64)])

    omega = col(profile.omega)
    mobius = col(profile.mobius)

    if name == "a":
        lhs = prime_indicator(N)
        rhs = convolve(omega, mobius)
    elif name == "b":
        w1 = omega.copy()
        w1[1:] += 1
        lhs = convolve(w1, col(profile.g))
        rhs = unit_sequence(N)
    elif name == "c":
        lhs = col(profile.liouville) * col(profile.g)
        rhs = convolve(col(profile.c_omega), col(profile.mu_squared()))
    elif name == "d":
        lhs = col(profile.g)
        rhs = convolve(col(profile.signed_c_omega()), mobius)
    elif name == "e":
        lhs = col(profile.signed_c_omega())
        rhs = dirichlet_inverse(prime_indicator(N) + unit_sequence(N))
    else:  # f
        ones = np.ones(N + 1, dtype=np.int64)
        lhs = convolve(col(profile.g), ones)
        rhs = col(profile.signed_c_omega())
    return _first_failure(name, N, lhs, rhs)
