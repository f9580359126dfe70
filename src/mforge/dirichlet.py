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


def _checked_int64(out, what: str) -> np.ndarray:
    """An exact object-dtype result as int64, raising OverflowError at the
    first entry past the int64 width."""
    for n in range(1, out.shape[0]):
        if abs(out[n]) > _INT64_MAX:
            raise OverflowError(f"{what} overflows the checked width at n={n}")
    return out.astype(np.int64)


def _max_abs(a) -> int:
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def convolve(f, h) -> np.ndarray:
    """Exact Dirichlet convolution of two equal-length truncated sequences.

    out[n] = sum over divisors d of n of f[d] * h[n // d], for 1 <= n <= N.
    The double loop is split at sqrt(N) so each side runs O(sqrt(N)) strided
    vector updates; total work is O(N log N).  When max|f| * max|h| * max d(n)
    does not fit int64, the same loops run on Python ints and the result is
    width-checked.
    """
    f = _as_seq(f)
    h = _as_seq(h)
    if f.shape != h.shape:
        raise ValueError(f"length mismatch: {f.shape[0] - 1} vs {h.shape[0] - 1}")
    N = f.shape[0] - 1
    f = f.astype(np.int64, copy=False)
    h = h.astype(np.int64, copy=False)
    exact = _max_abs(f[1:]) * _max_abs(h[1:]) * _max_tau(N) > _INT64_MAX
    if exact:
        f, h = f.astype(object), h.astype(object)

    out = np.zeros(N + 1, dtype=f.dtype)
    t = isqrt(N)
    for d in range(1, t + 1):
        q = N // d
        out[d::d] += f[d] * h[1 : q + 1]
    for k in range(1, N // (t + 1) + 1):
        dhi = N // k
        out[k * (t + 1) :: k] += h[k] * f[t + 1 : dhi + 1]
    return _checked_int64(out, "convolution") if exact else out


def dirichlet_inverse(f) -> np.ndarray:
    """Exact Dirichlet inverse of a truncated sequence with f(1) in {-1, +1}.

    inv(1) = f(1) and inv(n) = -f(1) * sum over divisors d >= 2 of n of
    f(d) * inv(n / d) (Apostol, Introduction to Analytic Number Theory,
    Thm 2.8).  Blocks [a, min(2a, N + 1)) are finalized in ascending order:
    every contribution into a block comes from an index m < a whose value is
    already final, so a block has no internal dependencies, and it is built
    from O(sqrt(b)) strided vector updates split at sqrt(b - 1) as in
    ``convolve``.  Total work is O(N log N).

    Before each block an a-priori guard checks that
    max d(n) * max|f[2:]| * max|inv[1:a]| fits int64, which bounds every
    partial sum in the block.  Once it does not, the rest runs on Python
    ints and the result is width-checked.  ``f`` keeps its dtype when that
    casts safely to int64 (a uint8 omega + 1 costs no int64 copy).
    """
    f = _as_seq(f)
    N = f.shape[0] - 1
    f1 = int(f[1])
    if f1 == 0:
        raise NonInvertibleError("f(1) = 0 has no Dirichlet inverse")
    if f1 not in (-1, 1):
        raise NonIntegerInverseError(f"f(1) = {f1}: inverse is not integer-valued")
    if not np.can_cast(f.dtype, np.int64):
        f = f.astype(np.int64)
    max_f = _max_abs(f[2:])

    inv = np.zeros(N + 1, dtype=np.int64)
    inv[1] = f1
    max_inv = 1
    exact = False
    a = 2
    while a <= N:
        b = min(2 * a, N + 1)
        if not exact and _max_tau(b - 1) * max_f * max_inv > _INT64_MAX:
            exact = True
            inv, f = inv.astype(object), f.astype(object)
        block = np.zeros(b - a, dtype=inv.dtype)
        t = isqrt(b - 1)
        for d in range(2, t + 1):
            mlo = (a + d - 1) // d
            mhi = (b - 1) // d
            if mlo <= mhi:
                block[d * mlo - a : d * mhi - a + 1 : d] += f[d] * inv[mlo : mhi + 1]
        for m in range(1, (b - 1) // (t + 1) + 1):
            dlo = max(t + 1, (a + m - 1) // m)
            dhi = (b - 1) // m
            if dlo <= dhi:
                block[m * dlo - a : m * dhi - a + 1 : m] += inv[m] * f[dlo : dhi + 1]
        inv[a:b] = -block if f1 == 1 else block
        if not exact:
            max_inv = max(max_inv, _max_abs(inv[a:b]))
        a = b
    return _checked_int64(inv, "inverse") if exact else inv


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
