"""Checkpointed summatory sweeps and the exact partial-sum identities.

One streaming pass over segments gives the exact values of the Mertens sum
M, the inverse-table sum G (the kernel's per-n g, summed like the other
columns), the squarefree count Qsq and the prime count pi at the
checkpoints, and nowhere else: ``series_blocks`` streams them one segment
at a time and ``build_series`` collects them.  The prime-grouped Mertens
identity reads G and pi at the quotient points floor(x/k) of its x, so a
series it reads is built on ``quotient_closure`` of its checkpoints.
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
    """Checkpoint rows: the columns of the series table, ``checkpoints`` ascending."""

    checkpoints: np.ndarray
    M: np.ndarray
    G: np.ndarray
    Qsq: np.ndarray
    pi: np.ndarray

    def _at(self, column: np.ndarray, xs) -> np.ndarray:
        idx = np.searchsorted(self.checkpoints, xs)
        if idx.size and (idx.max() >= len(self.checkpoints)
                         or not np.array_equal(self.checkpoints[idx], xs)):
            raise RangeCoverageError("query outside the series' checkpoints")
        return column[idx]

    def pi_many(self, xs) -> np.ndarray:
        return self._at(self.pi, xs)

    def G_at(self, xs) -> np.ndarray:
        return self._at(self.G, xs)


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


def quotient_closure(checkpoints: np.ndarray, N: int) -> np.ndarray:
    """[1, T] plus every quotient c // k > T of a checkpoint c, T = min(N, isqrt(sum c)),
    for ascending int64 ``checkpoints`` in [1, N]: a ladder on which the
    prime-grouped Mertens identity can be read at every checkpoint.

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


#: Rows per block of the series stream, each widened to int64 on its own.
_BLOCK_ROWS = 1 << 14


def series_blocks(N: int, checkpoints: np.ndarray | None = None, *,
                  segment_size: int = DEFAULT_SEGMENT_CAPACITY,
                  pool: WorkerPool | None = None):
    """Stream the rows of M, G, Qsq and pi at ``checkpoints`` (ascending, in
    [1, N]), or at every n <= N when None, in order: ``SummatoryRows``
    blocks of at most 2^14 rows, none spanning two segments.

    For every n, each segment makes its own points, so no ladder of N
    points is built.  The range is checked before this returns; the
    segments are swept only as the blocks are taken.
    """
    def summarize(seg, ws):
        # Sums of each row over the blocks [0, o1], (o1, o2], ..., (ok, end)
        # between the offsets o of the segment's points (the last block
        # only if not empty): their running sums are the rows at the points
        # and, last, the segment total.  A chunk of the kernel adds its sums
        # to the blocks that meet it.  Where every block is one entry, as
        # for every n, the mask sums take one byte each.
        if seg.width > _INT32_MAX:
            raise OverflowError("a segment of 2^31 or more entries overflows its int32 block sums")
        points = starts = None
        if checkpoints is not None:
            points = checkpoints[np.searchsorted(checkpoints, seg.lo):
                                 np.searchsorted(checkpoints, seg.hi)]
            starts = np.concatenate([[0], points - (seg.lo - 1)])
            starts = starts[starts < seg.width]
        blocks = seg.width if starts is None else len(starts)
        masks = np.zeros((3, blocks), dtype=np.int8 if blocks == seg.width else np.int32)
        g_sums = np.zeros(blocks, dtype=np.int64)
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
            i, cuts = a, None           # every entry its own block
            if starts is not None:
                # block i is open at a: the chunk's first piece adds to it
                i = int(np.searchsorted(starts, a, side="right")) - 1
                cuts = np.maximum(starts[i:np.searchsorted(starts, a + len(om))] - a, 0)
            # squarefree, and of odd omega; prime; g
            for row, col in zip((*masks, g_sums), (sq, om & sq, big == 1, g)):
                if cuts is None:
                    row[i:i + len(col)] += col
                elif len(cuts) == 1:    # the chunk lies inside block i
                    row[i] += np.count_nonzero(col) if col.itemsize == 1 else col.sum()
                else:
                    row[i:i + len(cuts)] += np.add.reduceat(col, cuts, dtype=row.dtype)
        return seg.lo, points, masks, g_sums, span

    return _running_rows((pool or WorkerPool(1)).sweep(1, N + 1, segment_size, summarize))


def _running_rows(segments):
    """The rows of each segment's block sums, plus the totals of the segments before."""
    base = [0] * 4
    for lo, points, masks, g_sums, span in segments:
        if max(abs(b) for b in base) + span > _SAFE_SUM:
            raise OverflowError("summatory accumulator could exceed its bound")
        n = masks.shape[1] if points is None else len(points)     # a last block may follow
        run = np.array(base, dtype=np.int64)
        for j in range(0, n, _BLOCK_ROWS):
            rows = slice(j, min(j + _BLOCK_ROWS, n))
            # Qsq, the squarefree n of odd omega and pi; since mu is (-1)^omega
            # on squarefree n and 0 elsewhere, M is the first less twice the second
            Qsq, odd, pi = np.cumsum(masks[:, rows], axis=1, dtype=np.int64) + run[:3, None]
            G = np.cumsum(g_sums[rows]) + run[3]
            run = np.array([Qsq[-1], odd[-1], pi[-1], G[-1]])
            x = lo + np.arange(rows.start, rows.stop) if points is None else points[rows]
            yield SummatoryRows(checkpoints=x, M=Qsq - 2 * odd, G=G, Qsq=Qsq, pi=pi)
        base = [b + int(row.sum(dtype=np.int64)) for b, row in zip(base, (*masks, g_sums))]
        del masks, g_sums       # not kept while the next segment is swept


def build_series(N: int, policy: CheckpointPolicy | None = None, *,
                 segment_size: int = DEFAULT_SEGMENT_CAPACITY,
                 pool: WorkerPool | None = None,
                 checkpoints: np.ndarray | None = None) -> SummatoryRows:
    """M, G, Qsq and pi at the checkpoints up to N as one table: the
    ``series_blocks`` stream, collected.

    ``checkpoints`` is ``policy.checkpoints(N)`` when the caller has built
    that ladder already, or a ladder of its own, such as the
    ``quotient_closure`` of one, on which ``mertens_via_G_over_primes`` reads.
    """
    Segment(1, N + 1)           # past the kernel's bound, refuse before any ladder
    policy = policy or CheckpointPolicy()
    if checkpoints is None and policy.kind != "all":
        checkpoints = policy.checkpoints(N)
    blocks = series_blocks(N, checkpoints, segment_size=segment_size, pool=pool)
    x = np.arange(1, N + 1, dtype=np.int64) if checkpoints is None else checkpoints
    rows, i = np.empty((4, len(x)), dtype=np.int64), 0
    for b in blocks:
        rows[:, i:i + len(b.M)] = b.M, b.G, b.Qsq, b.pi
        i += len(b.M)
    return SummatoryRows(x, *rows)


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


def mertens_via_G_over_primes(x: int, series: SummatoryRows) -> int:
    """M(x) evaluated as G(x) + sum over primes p <= x of G(floor(x / p)).

    With G(x) as the n = 1 term, the whole right side is one quotient sum
    over the indicator of {1} and the primes, whose partial sums are 1 + pi,
    so only the G and pi rows at the quotient points of x are read, never M.
    Each of those points must be a checkpoint of the series, as on a series
    built on ``quotient_closure(cps, N)`` for every x in cps; else
    ``RangeCoverageError``.
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
