"""Per-n arithmetic functions, pointwise and in bulk.

Covers the distinct/total prime-factor counts omega and big_omega, mobius,
liouville, the exponent-multinomial coefficient ``c_omega`` (the multinomial
of the exponent multiset of n), and the table ``g`` defined as the Dirichlet
inverse of ``omega + 1``, computed by ``dirichlet.dirichlet_inverse``.  Bulk
computation works over arbitrary contiguous segments; ``g`` is only defined
for prefix ranges starting at 1 because its recursion is a prefix dependency.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import numpy as np

from .parallel import WorkerPool
from .sieve import DEFAULT_SEGMENT_CAPACITY, Factorization, Segment, factorize, primes_up_to

#: Values at or beyond this bound trigger the checked-overflow error in the
#: pointwise multinomial (128-bit capacity semantics).
C_OMEGA_CHECK_BOUND = 1 << 127

_INT64_MAX = np.iinfo(np.int64).max

#: Wheel primes handled by the presieve pattern, and its period.
_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)
_WHEEL = math.prod(_WHEEL_PRIMES)


#: ceil(2^(k/4)) for k = 0..128, the least t with t^4 >= 2^k: a prime
#: p < 2^32 has floor(4 log2 p) = k exactly when it lies in [t_k, t_(k+1)).
_LG_STEPS = np.array([isqrt(isqrt((1 << k) - 1)) + 1 for k in range(129)], dtype=np.int64)


def _lg(p):
    """floor(4 * log2(p)) per prime p < 2^32, exactly, as uint8: the byte log
    a prime adds per level."""
    return (np.searchsorted(_LG_STEPS, p, side="right") - 1).astype(np.uint8)


def _wheel_pattern():
    """omega and byte log over the wheel primes, per residue mod 30030."""
    omega = np.zeros(_WHEEL, dtype=np.uint8)
    logs = np.zeros(_WHEEL, dtype=np.uint8)
    for p in _WHEEL_PRIMES:
        omega[::p] += 1
        logs[::p] += _lg(p)
    return omega, logs


_WHEEL_OMEGA, _WHEEL_LOG = _wheel_pattern()

#: Sieve strides below this are applied block by block, _BLOCK entries at a
#: time, so a block's working columns (three of one byte, den of eight:
#: 1.4 MB) stay in cache.
_SHORT_STRIDE = 256
_BLOCK = 1 << 17

#: A step whose stride is at least the segment width over this hits the
#: segment at most this many times, and goes through the one scatter pass.
_SPARSE_HITS = 16

#: k! for k <= 20; 21! exceeds 2^63.
_FACTORIAL = np.array([math.factorial(k) for k in range(21)], dtype=np.int64)


#: The per-n columns ``profile_range`` can compute, in profile field order.
PROFILE_COLUMNS = ("omega", "big_omega", "mobius", "liouville", "c_omega")


@dataclass
class ArithmeticProfile:
    """Per-n function values over one contiguous segment.

    Arrays are indexed by offset ``n - segment.lo``; a column that was not
    asked of ``profile_range`` is None.
    """

    segment: Segment
    omega: np.ndarray | None        # uint8, distinct prime factors
    big_omega: np.ndarray | None    # uint8, prime factors with multiplicity
    mobius: np.ndarray | None       # int8 in {-1, 0, +1}
    liouville: np.ndarray | None    # int8 in {-1, +1}
    c_omega: np.ndarray | None      # int64, exponent multinomial, overflow-checked

    @cached_property
    def g(self) -> np.ndarray | None:
        """The inverse table g as int64, built on first read from the omega
        column (or from a fresh omega sweep when it was not built); None
        unless the segment starts at 1 (prefix dependency)."""
        if self.segment.lo != 1:
            return None
        return g_table(self.segment.hi - 1, omega=self.omega)

    def signed_c_omega(self) -> np.ndarray:
        """liouville(n) * c_omega(n) as int64."""
        return np.multiply(self.c_omega, self.liouville)


def profile_range(segment: Segment, columns=PROFILE_COLUMNS) -> ArithmeticProfile:
    """Compute the requested per-n columns over a segment in vectorized sweeps.

    A segmented Mobius sieve in the manner of Deleglise & Rivat (Exp. Math.
    1996), with no division and no table gather per prime:

    * Presieve: omega and the byte log L for the wheel primes 2..13 start as
      a tiled period-30030 pattern, offset by ``lo % 30030``.
    * Steps: every other seed prime p <= r = isqrt(hi - 1) adds 1 to omega
      on its multiples.  Every level p^e < hi of a seed or wheel prime adds
      lg(p) = floor(4 log2 p) to the uint8 byte log L; a level with e >= 2
      also adds 1 to the excess count ``extra`` and multiplies the
      denominator ``den`` by e, so ``den`` ends as the product of alpha_i!.
      The table of strides q = p^e, byte logs and levels is built in numpy.
      A step runs in one of three tiers by its stride: strides of at least
      width / 16 hit the segment at most 16 times each, and all their hits
      are applied in one scatter pass (the bucket idea of Oliveira e Silva,
      Herzog & Pardi, Math. Comp. 2014); strides below 256 run one
      cache-sized block of the segment at a time; the rest run as one
      strided slice update each.
    * Byte-log test (approximate logs, as in the quadratic sieve; Pomerance,
      EUROCRYPT '84): a prime factor q of n that is neither a seed nor a
      wheel prime has q > max(r, 13) and q^2 > hi - 1 >= n, so n has at most
      one, and every other factor is counted in L with full multiplicity.
      On each binary range 2^k <= n < 2^(k+1), n has such a q exactly when
      L < 3k.  With every factor counted, each of the Omega(n) <= k levels
      falls short by less than 1, so L > 4 log2 n - Omega(n) >= 3k.  With q,
      n < q^2 gives k < 2 log2 q, and q > 13 gives log2 q > 2, so
      L <= 4 log2(n / q) < 4 (k + 1 - log2 q) <= 3k.  L < 226 fits uint8.
    * Derived columns: big_omega = omega + extra; n is squarefree iff
      extra == 0; c_omega = big_omega! / prod(alpha_i!) from a table of
      factorials up to 20!, divided into ``den`` in place one block at a
      time, so the int64 column is never allocated twice.

    ``columns`` names the profile fields to build (default: all five); the
    others are left None, and an unknown name raises ValueError.  Each column
    pays only for the steps it needs:

    * ``omega``: the wheel tile, the prime steps and the byte-log test.
      Every prime-power level still adds to L, so the test stays exact.
    * ``big_omega``, ``mobius``, ``liouville``: also the ``extra`` updates.
    * ``c_omega``: also the ``den`` updates, the factorial take, the
      division and the exact path below.

    The few entries with big_omega > 20 (n >= 2^21) would need 21! > 2^63 and
    are computed exactly by trial division instead.  The int64 column cannot
    overflow for n <= 10^17: the exponent-signature search in
    ``tests/test_arith.py::test_c_omega_int64_bound_by_signature_search``
    bounds c_omega there below 2^60, so a ``Segment`` reaching past 10^17
    raises OverflowError when it is made, before any sieving.
    """
    want = frozenset(columns)
    if not want <= set(PROFILE_COLUMNS):
        raise ValueError(f"unknown profile columns {sorted(want - set(PROFILE_COLUMNS))}, "
                         f"expected some of {PROFILE_COLUMNS}")
    lo, hi = segment.lo, segment.hi
    width = segment.width
    seeds = primes_up_to(isqrt(hi - 1))

    off = lo % _WHEEL
    reps = (off + width - 1) // _WHEEL + 1
    omega = np.tile(_WHEEL_OMEGA, reps)[off:off + width]
    logs = np.tile(_WHEEL_LOG, reps)[off:off + width]
    extra = np.zeros(width, dtype=np.uint8) if want - {"omega"} else None
    den = np.ones(width, dtype=np.int64) if "c_omega" in want else None

    cols = (omega, extra, logs, den)
    q, lg, e = _step_table(seeds, hi)
    sparse = q * _SPARSE_HITS >= width
    _scatter_steps(cols, lo, width, q[sparse], lg[sparse], e[sparse])
    short = q < _SHORT_STRIDE
    blocked, strided = (list(zip(q[m].tolist(), lg[m].tolist(), e[m].tolist()))
                        for m in (~sparse & short, ~sparse & ~short))
    # Short strides touch every cache line of the segment; running them one
    # block at a time halves their cost, and more so with two workers.
    for b0 in range(0, width, _BLOCK):
        _sieve_steps(cols, lo, b0, min(b0 + _BLOCK, width), blocked)
    _sieve_steps(cols, lo, 0, width, strided)

    for k in range(lo.bit_length() - 1, (hi - 1).bit_length()):
        a, b = max(lo, 1 << k) - lo, min(hi, 2 << k) - lo
        omega[a:b] += logs[a:b] < 3 * k
    del cols, logs                      # frees the logs tile before the derived columns
    big = mobius = liouville = c = None
    one, two = np.int8(1), np.int8(2)
    if want & {"big_omega", "liouville", "c_omega"}:
        big = omega + extra
    if "c_omega" in want:
        hot = np.nonzero(big > 20)[0]
        for b0 in range(0, width, _BLOCK):
            blk = slice(b0, b0 + _BLOCK)
            np.floor_divide(np.take(_FACTORIAL, big[blk], mode="clip"), den[blk], out=den[blk])
        c = den
        for i in map(int, hot):
            c[i] = _exact_c_omega(lo + i)
    if "mobius" in want:
        mobius = (one - two * (omega & 1).view(np.int8)) * (extra == 0)
    if "liouville" in want:
        liouville = one - two * (big & 1).view(np.int8)

    return ArithmeticProfile(
        segment=segment, omega=omega if "omega" in want else None,
        big_omega=big if "big_omega" in want else None,
        mobius=mobius, liouville=liouville, c_omega=c,
    )


def _step_table(seeds: np.ndarray, hi: int) -> tuple:
    """Every sieve step below hi as arrays: stride q, byte log lg (uint8), level e.

    Level 1 is q = p for each seed prime p > 13; level e >= 2 is q = p^e < hi
    for every seed prime, built from level e - 1 by keeping the p^(e-1) <=
    (hi - 1) // p before multiplying, so no product passes hi.
    """
    lgs = _lg(seeds)
    new = seeds > _WHEEL_PRIMES[-1]
    table = [(seeds[new], lgs[new], 1)]
    p, pe, e = seeds, seeds, 1
    while len(p):
        keep = pe <= (hi - 1) // p
        p, lgs, pe, e = p[keep], lgs[keep], pe[keep] * p[keep], e + 1
        table.append((pe, lgs, e))
    return (np.concatenate([t[0] for t in table]), np.concatenate([t[1] for t in table]),
            np.concatenate([np.full(len(t[0]), t[2], dtype=np.int64) for t in table]))


def _runs(lengths: np.ndarray) -> tuple:
    """(owner, k) over the runs 1..lengths[i] laid end to end: entry j is k[j] of run owner[j]."""
    owner = np.repeat(np.arange(len(lengths)), lengths)
    starts = np.cumsum(lengths) - lengths
    return owner, np.arange(1, len(owner) + 1) - starts[owner]


def _scatter_steps(cols, lo: int, width: int, q, lg, e):
    """Apply steps of stride q >= width / 16 to the segment [lo, lo + width)
    in one pass: their few hits each are laid out as ragged runs and added
    (multiplied, for den) with the unbuffered ``.at`` ufuncs, so an entry hit
    by two of the steps gets both."""
    omega, extra, logs, den = cols
    first = -lo % q
    step, k = _runs((width - first + q - 1) // q)
    at = first[step] + (k - 1) * q[step]
    np.add.at(logs, at, lg[step])
    level = e[step]
    power = level > 1
    np.add.at(omega, at[~power], 1)
    if extra is not None:
        np.add.at(extra, at[power], 1)
    if den is not None:
        np.multiply.at(den, at[power], level[power])


def _sieve_steps(cols, lo: int, b0: int, b1: int, steps):
    """Apply sieve steps to entries [b0, b1) of the segment starting at lo;
    a column given as None is skipped."""
    omega, extra, logs, den = cols
    for q, lg, e in steps:
        s = b0 + -(lo + b0) % q
        if e == 1:
            omega[s:b1:q] += 1
        else:
            if extra is not None:
                extra[s:b1:q] += 1
            if den is not None:
                den[s:b1:q] *= e
        logs[s:b1:q] += lg


def _exact_c_omega(n: int) -> int:
    """c_omega(n) by trial division, raising OverflowError above int64."""
    exact = c_omega(factorize(n))
    if exact > _INT64_MAX:
        raise OverflowError(f"c_omega({n}) exceeds the checked integer width")
    return exact


def c_omega(fact: Factorization) -> int:
    """Exponent multinomial: big_omega! / prod(alpha_i!), exactly.

    Built as a running product of binomials C(alpha_1 + ... + alpha_i,
    alpha_i), so no large factorial is ever divided.  Raises OverflowError
    beyond 128-bit capacity.
    """
    total = 0
    out = 1
    for _, a in fact:
        total += a
        out *= math.comb(total, a)
        if out >= C_OMEGA_CHECK_BOUND:
            raise OverflowError(f"c_omega({fact.n}) exceeds the checked integer width")
    return out


def g_squarefree_closed_form(r: int) -> int:
    """Value of the inverse table at any squarefree n with r distinct primes.

    (-1)^r * sum_{m=0..r} C(r, m) * m!.
    """
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    total = sum(math.comb(r, m) * math.factorial(m) for m in range(r + 1))
    if total >= C_OMEGA_CHECK_BOUND:
        raise OverflowError(f"closed form at r={r} exceeds the checked integer width")
    return (-1) ** r * total


def g_table(N: int, omega: np.ndarray | None = None) -> np.ndarray:
    """The Dirichlet inverse of (omega + 1) on 1..N as int64, entry i at n = i + 1.

    The omega sweep followed by ``dirichlet.dirichlet_inverse``, the one
    inverse engine.  ``omega`` in the same layout (a profile's omega column
    covering at least 1..N) saves the sweep.
    """
    from .dirichlet import dirichlet_inverse   # dirichlet imports this module

    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if omega is None:
        omega = np.concatenate(list(WorkerPool(1).sweep(
            1, N + 1, DEFAULT_SEGMENT_CAPACITY,
            lambda seg: profile_range(seg, columns={"omega"}).omega)))
    omega = np.asarray(omega)
    if omega.shape[0] < N:
        raise ValueError("omega table shorter than N")
    return dirichlet_inverse(omega[:N].astype(np.uint8, copy=False) + np.uint8(1))


def read_bfile(path) -> list:
    """The ``(index, value)`` pairs of an OEIS b-file (lines ``index value``).

    Comment lines starting with ``#`` and blank lines are skipped; any other
    line that does not start with two integers raises ValueError.
    """
    entries = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) < 2:
                raise ValueError(f"malformed b-file line: {line.strip()!r}")
            entries.append((int(parts[0]), int(parts[1])))
    return entries


def compare_bfile(entries, values: np.ndarray, start: int = 1):
    """Check a sequence against b-file ``(index, value)`` pairs.

    Returns None if every overlapping entry matches, else a tuple
    ``(index, file_value, computed_value)`` for the first mismatch.
    Indices outside the computed range are skipped.
    """
    stop = start + len(values)
    for idx, val in entries:
        if start <= idx < stop:
            got = int(values[idx - start])
            if got != val:
                return (idx, val, got)
    return None
