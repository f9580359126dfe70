"""Checkpointed summatory sweeps and the exact partial-sum identities.

One streaming pass over segments records the exact values of the Mertens
sum M, the inverse-table sum G (the kernel's per-n g, summed like the other
columns), the squarefree count Qsq and the prime count pi at every
checkpoint c and at every quotient point floor(c/k): the points the
prime-grouped Mertens identity reads.
"""

from dataclasses import dataclass
from math import inf, isqrt

import numpy as np

from .arith import profile_chunks
from .parallel import WorkerPool
from .sieve import DEFAULT_SEGMENT_CAPACITY, RangeCoverageError, Segment, primes_up_to

_INT64_MAX = np.iinfo(np.int64).max
_INT32_MAX = np.iinfo(np.int32).max
#: Bound on the series' int64 sums: the swept columns are checked against it
#: before any sum is formed.
_SAFE_SUM = 1 << 62


@dataclass(frozen=True)
class CheckpointPolicy:
    """Rule choosing the x values at which summatory values are recorded.

    kind "all" records every integer, "geometric" records a geometric ladder
    (plus every power of 10, plus N), "explicit" records a given list (N is
    appended when missing).  Checkpoints are strictly increasing and always
    end at N.
    """

    kind: str = "geometric"
    ratio: float = 1.25
    points: tuple = ()

    def __post_init__(self):
        if self.kind not in ("all", "geometric", "explicit"):
            raise ValueError(f"unknown checkpoint policy kind {self.kind!r}")
        if self.kind == "geometric" and not 1.0 < self.ratio < inf:
            raise ValueError(f"geometric ratio must be finite and exceed 1, got {self.ratio}")

    def checkpoints(self, N: int) -> np.ndarray:
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")
        if self.kind == "all":
            return np.arange(1, N + 1, dtype=np.int64)
        if self.kind == "geometric":
            pts = [1]
            x = 1
            while x < N:
                x = min(max(int(x * self.ratio), x + 1), N)
                pts.append(x)
            d = 10
            while d <= N:
                pts.append(d)
                d *= 10
            pts.append(N)
            return _sorted_unique(np.asarray(pts, dtype=np.int64))
        # checked as Python ints, so a point past int64 is out of range, not an overflow
        if not self.points or min(self.points) < 1 or max(self.points) > N:
            raise ValueError("explicit checkpoints must lie in [1, N]")
        pts = _sorted_unique(np.asarray(self.points, dtype=np.int64))
        if pts[-1] != N:
            pts = np.append(pts, N)
        return pts

    @classmethod
    def parse(cls, text: str) -> "CheckpointPolicy":
        """Parse 'all', 'geometric[:ratio]' or 'explicit:1,10,100'."""
        kind, _, arg = text.partition(":")
        if text == "all":
            return cls(kind="all")
        if kind == "geometric":
            return cls(kind="geometric", ratio=float(arg) if arg else 1.25)
        if kind == "explicit":
            return cls(kind="explicit", points=tuple(int(s) for s in arg.split(",") if s))
        raise ValueError(f"cannot parse checkpoint policy {text!r}")


@dataclass
class SummatoryRows:
    """Checkpoint rows: the columns of the series table."""

    checkpoints: np.ndarray
    M: np.ndarray
    G: np.ndarray
    Qsq: np.ndarray
    pi: np.ndarray


@dataclass
class SummatorySeries(SummatoryRows):
    """Checkpoint rows plus the quotient-point support tables."""

    N: int
    eval_points: np.ndarray     # sorted; closed under x -> x // k
    M_eval: np.ndarray
    G_eval: np.ndarray
    pi_eval: np.ndarray

    def _idx_many(self, xs) -> np.ndarray:
        idx = np.searchsorted(self.eval_points, xs)
        if idx.size and (idx.max() >= len(self.eval_points)
                         or not np.array_equal(self.eval_points[idx], xs)):
            raise RangeCoverageError("query outside the recorded support points")
        return idx

    def pi_many(self, xs: np.ndarray) -> np.ndarray:
        return self.pi_eval[self._idx_many(xs)]

    def G_at(self, xs) -> np.ndarray:
        return self.G_eval[self._idx_many(xs)]


def _quotient_sum(x: int, A, B) -> int:
    """sum_{n <= x} a(n) * B(x // n), given the partial sums A(y) of a.

    n <= t = isqrt(x) is taken one at a time; the larger n are grouped into
    blocks of equal quotient q <= x // (t + 1), of weight
    A(x // q) - A(max(x // (q + 1), t)).  A and B are each called once, on an
    int64 array of quotient points of x, and return int64 arrays.
    """
    t = isqrt(x)
    n = np.arange(1, t + 1, dtype=np.int64)         # A(n) gives a(n), n <= t
    q = np.arange(1, x // (t + 1) + 1, dtype=np.int64)
    lo = np.maximum(x // (q + 1), t)
    A_small, A_hi, A_lo = np.split(A(np.concatenate([n, x // q, lo])), [t, t + len(q)])
    terms = np.concatenate([np.diff(A_small, prepend=np.int64(0)), A_hi - A_lo])
    return int(terms @ B(np.concatenate([x // n, q])))


def _eval_point_union(checkpoints: np.ndarray, N: int) -> np.ndarray:
    """[1, T] plus every quotient c // k > T of a checkpoint c, T = min(N, isqrt(sum c)).

    Any T gives a set closed under x -> x // k that holds the checkpoints'
    quotients, hence every point ``_quotient_sum`` touches, so T need not be
    exact and the sum is taken in float64, which cannot wrap.  With T =
    isqrt(sum c) < N, each c has at most c / (T + 1) quotients above T, so
    the set has fewer than 2 T + 1 points, built from N // (T + 1) slices."""
    T = min(N, isqrt(int(checkpoints.sum(dtype=np.float64))))
    return _sorted_unique(np.concatenate(
        [np.arange(1, T + 1, dtype=np.int64)]
        + [checkpoints[np.searchsorted(checkpoints, k * (T + 1)):] // k
           for k in range(1, N // (T + 1) + 1)]))


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique of int64 ``a`` by a merging stable sort and a mask (np.unique hashes int64)."""
    a = np.sort(a, kind="stable")
    return a[np.diff(a, prepend=a[:1] - 1) != 0]


def _block_sums(cols, starts: np.ndarray, out=None) -> np.ndarray:
    """Running sums of ``cols`` over the blocks that begin at ``starts``, as
    int64 rows (written into ``out`` if given).  The one-byte columns
    (entries in {-1, 0, 1}) are summed per block in int32, exact since a
    column of 2^31 or more entries is refused before any sum."""
    if max(len(col) for col in cols) > _INT32_MAX:
        raise OverflowError("a segment of 2^31 or more entries overflows its int32 block sums")
    sums = np.empty((len(cols), len(starts)), dtype=np.int64) if out is None else out
    for row, col in zip(sums, cols):
        block = np.add.reduceat(col, starts, dtype=np.int32 if col.itemsize == 1 else None)
        np.cumsum(block, dtype=np.int64, out=row)
    return sums


def build_series(N: int, policy: CheckpointPolicy | None = None, *,
                 segment_size: int = DEFAULT_SEGMENT_CAPACITY,
                 pool: WorkerPool | None = None,
                 checkpoints: np.ndarray | None = None) -> SummatorySeries:
    """One streaming pass computing all summatory functions at the checkpoints.

    ``checkpoints`` is ``policy.checkpoints(N)`` when the caller has built
    that ladder already; it is not built a second time.

    M, G, Qsq and pi are recorded at every eval point as the segments
    stream by; G sums the kernel's g column in the same block sums as the
    masks, so no per-n table of g is built.
    """
    if N < 1:
        raise ValueError(f"x must be >= 1, got {N}")
    Segment(1, N + 1)           # past the kernel's bound, refuse before any planning
    policy = policy or CheckpointPolicy()
    pool = pool or WorkerPool(1)
    cps = policy.checkpoints(N) if checkpoints is None else checkpoints
    eval_points = _eval_point_union(cps, N)

    n_eval = len(eval_points)
    # rows: Qsq, the squarefree n of odd omega, pi and G; since mu is
    # (-1)^omega on squarefree n and 0 elsewhere, M is the first less twice the second
    rows = 4
    recorded = np.zeros((rows, n_eval), dtype=np.int64)

    def summarize(seg, ws):
        # Sums of each row over the blocks [0, o1], (o1, o2], ..., (ok, end)
        # between the eval-point offsets o; their running sums are the prefix
        # sums at the eval points and, last, the segment total.  The kernel
        # derives its columns one chunk at a time: a chunk writes the running
        # sums at the ends of the blocks that meet it, and a block that goes
        # on past the chunk is written again by the next one.  Each segment
        # writes its own slice of recorded in place; the block past its last
        # eval point is kept only in the running sums, and the merge adds the
        # base.
        i0 = int(np.searchsorted(eval_points, seg.lo))
        i1 = int(np.searchsorted(eval_points, seg.hi))
        starts = np.concatenate([[0], eval_points[i0:i1] - (seg.lo - 1)])
        starts = starts[starts < seg.width]
        sums = recorded[:, i0:i1]
        run = np.zeros(rows, dtype=np.int64)
        span = 0
        for a, cols in profile_chunks(seg, {"omega", "big_omega", "g_sig"}, ws):
            om, big, g = cols["omega"], cols["big_omega"], cols["g_sig"]
            # |g(n)| >= c_omega(n) >= 1 by identity (c), so every |entry| of a
            # chunk is at most its max|g|, and every partial sum of every row
            # up to this chunk's end is at most span
            span += len(om) * max(int(g.max()), -int(g.min()))
            if span > _SAFE_SUM:
                raise OverflowError("a segment's sums could exceed the summatory bound")
            sq = big == om
            masks = (sq, om & sq, big == 1)     # squarefree, and of odd omega; prime
            i = int(np.searchsorted(starts, a, side="right")) - 1
            j = int(np.searchsorted(starts, a + len(om)))
            if j == i + 1:                      # the chunk lies inside block i
                run += [*map(np.count_nonzero, masks), g.sum()]
                if i < i1 - i0:
                    sums[:, i] = run
            else:
                # the block starts in the chunk, from 0; a first chunk reads them as they are
                cuts = starts[:j] if a == 0 else np.concatenate([[0], starts[i + 1:j] - a])
                tail = j > i1 - i0              # the last block ends at no eval point
                out = _block_sums((*masks, g), cuts, out=None if tail else sums[:, i:j])
                out += run[:, None]
                if tail:
                    sums[:, i:] = out[:, :-1]
                run = out[:, -1].copy()
        return i0, i1, run.tolist(), span

    base = [0] * rows
    for i0, i1, totals, span in pool.sweep(1, N + 1, segment_size, summarize):
        if max(abs(b) for b in base) + span > _SAFE_SUM:
            raise OverflowError("summatory accumulator could exceed its bound")
        recorded[:, i0:i1] += np.asarray(base, dtype=np.int64)[:, None]
        base = [b + t for b, t in zip(base, totals)]
    M = recorded[1]
    M *= -2
    M += recorded[0]

    # every checkpoint is an eval point; when they are all of them, rows are views
    cp = slice(None) if len(cps) == n_eval else np.searchsorted(eval_points, cps)
    return SummatorySeries(
        checkpoints=cps, M=M[cp], G=recorded[3][cp], Qsq=recorded[0][cp],
        pi=recorded[2][cp], N=N, eval_points=eval_points,
        M_eval=M, G_eval=recorded[3], pi_eval=recorded[2],
    )


def mertens_via_g_pi(x: int, g: np.ndarray) -> int:
    """M(x) evaluated as G(x) + sum_{k <= x} g(k) * pi(floor(x / k)).

    ``g`` is the inverse table covering 1..x, entry i at n = i + 1 (as
    ``g_table`` returns it); pi(y) is the number of primes <= y in
    ``primes_up_to(x)``, found by binary search.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    g = np.asarray(g)
    if g.shape[0] < x:
        raise RangeCoverageError(f"g table covers {g.shape[0]} < x = {x}")
    gx = g[:x].astype(np.int64, copy=False)
    qs = x // np.arange(1, x + 1, dtype=np.int64)
    ranks = np.searchsorted(primes_up_to(x), qs, side="right")
    # every partial sum of both sums is at most max|g| * (sum of ranks + x)
    max_g = max(int(gx.max()), -int(gx.min()))
    if max_g * (int(ranks.sum()) + x) > _INT64_MAX:
        gx, ranks = gx.astype(object), ranks.astype(object)
    return int(gx @ ranks) + int(gx.sum())


def mertens_via_G_over_primes(x: int, series: SummatorySeries) -> int:
    """M(x) evaluated as G(x) + sum over primes p <= x of G(floor(x / p)).

    With G(x) as the n = 1 term, the whole right side is one quotient sum
    over the indicator of {1} and the primes, whose partial sums are 1 + pi,
    so only the G and pi rows at the quotient points of x are read, never M;
    x itself must be one of the series' recorded support points (any
    checkpoint qualifies).
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    return _quotient_sum(x, lambda ys: series.pi_many(ys) + 1, series.G_at)


def g_via_double_sum(x: int, profile) -> int:
    """G(x) via the double sum: outer liouville * c_omega, inner signed
    squarefree partial sums at floor(x / n).  Exact; must equal G(x)."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if profile.segment.lo != 1 or profile.segment.hi <= x:
        raise RangeCoverageError("profile must cover [1, x] starting at 1")
    u = profile.u[:x]
    lam_mu2 = profile.liouville[:x].astype(np.int64) * (profile.mobius[:x] != 0)
    inner = np.concatenate([[0], np.cumsum(lam_mu2)])   # inner[y] for y = 0..x
    ns = np.arange(1, x + 1, dtype=np.int64)
    return int(u @ inner[x // ns])
