import io
import sys
import tracemalloc
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mforge.arith import g_table, profile_range
from mforge.parallel import WorkerPool
from mforge.sieve import DEFAULT_SEGMENT_CAPACITY, RangeCoverageError, Segment
from mforge import arith, summatory
from mforge.cli import main, read_series
from mforge.summatory import (
    CheckpointPolicy,
    build_series,
    g_via_double_sum,
    mertens_via_G_over_primes,
    mertens_via_g_pi,
)

from oracles import (
    MERTENS_AT_POW10,
    PI_AT_POW10,
    big_omega_oracle,
    g_recursion_oracle,
    mertens_oracle,
    mobius_block_oracle,
    mobius_oracle,
    quotient_closure_oracle,
    quotient_sum_oracle,
    squarefree_count_oracle,
)


def test_policy_all():
    cps = CheckpointPolicy(kind="all").checkpoints(10)
    assert cps.tolist() == list(range(1, 11))


def test_policy_geometric():
    cps = CheckpointPolicy(kind="geometric", ratio=2.0).checkpoints(100)
    assert cps[0] == 1 and cps[-1] == 100
    assert np.all(np.diff(cps) > 0)
    assert 10 in cps and 100 in cps  # decades always present


def test_policy_explicit():
    cps = CheckpointPolicy(kind="explicit", points=(5, 2, 9)).checkpoints(20)
    assert cps.tolist() == [2, 5, 9, 20]
    with pytest.raises(ValueError):
        CheckpointPolicy(kind="explicit", points=(0, 5)).checkpoints(20)
    with pytest.raises(ValueError):
        CheckpointPolicy(kind="explicit", points=(30,)).checkpoints(20)


@pytest.mark.parametrize("policy, N", [
    (CheckpointPolicy(kind="geometric", ratio=1.00001), 10**6),
    (CheckpointPolicy(kind="geometric", ratio=1.25), 10**6),
    (CheckpointPolicy(kind="geometric", ratio=2.0), 10**6),
    (CheckpointPolicy(kind="explicit", points=(500, 7, 10**6, 7, 3, 500, 42, 3)), 10**6),
])
def test_policy_dedup_equals_np_unique(policy, N):
    # the ladder (then every power of 10, then N) or the explicit list, as given
    pts = list(policy.points)
    if policy.kind == "geometric":
        pts = [1]
        while pts[-1] < N:
            pts.append(min(max(int(pts[-1] * policy.ratio), pts[-1] + 1), N))
        pts += [10**k for k in range(1, len(str(N)))] + [N]
    assert np.array_equal(policy.checkpoints(N), np.unique(np.asarray(pts, dtype=np.int64)))


def test_policy_validation():
    with pytest.raises(ValueError):
        CheckpointPolicy(kind="bogus")
    with pytest.raises(ValueError):
        CheckpointPolicy(kind="geometric", ratio=1.0)
    with pytest.raises(ValueError):
        CheckpointPolicy().checkpoints(0)


def test_policy_parse():
    assert CheckpointPolicy.parse("all").kind == "all"
    p = CheckpointPolicy.parse("geometric:1.5")
    assert p.kind == "geometric" and p.ratio == 1.5
    assert CheckpointPolicy.parse("explicit:1,10,100").points == (1, 10, 100)
    with pytest.raises(ValueError):
        CheckpointPolicy.parse("fibonacci")


def test_series_first_ten_rows():
    s = build_series(10, CheckpointPolicy(kind="all"))
    assert s.M.tolist() == [1, 0, -1, -1, -2, -1, -2, -2, -2, -1]
    assert s.G[:4].tolist() == [1, -1, -3, -1]
    assert int(s.Qsq[-1]) == 7
    assert int(s.pi[-1]) == 4


def test_series_invariants_at_one():
    s = build_series(1, CheckpointPolicy(kind="all"))
    assert (int(s.M[0]), int(s.G[0]), int(s.Qsq[0]), int(s.pi[0])) == (1, 1, 1, 0)


def test_series_against_oracles_2000():
    N = 2000
    s = build_series(N, CheckpointPolicy(kind="all"))
    mu = mobius_block_oracle(N)
    g = np.array(g_recursion_oracle(N), dtype=np.int64)
    assert np.array_equal(s.M, np.cumsum(mu[1:]))
    assert np.array_equal(s.G, np.cumsum(g[1:]))
    assert np.array_equal(s.Qsq, np.cumsum(mu[1:] != 0))
    assert int(s.Qsq[-1]) == squarefree_count_oracle(N)


def test_series_qsq_nondecreasing_and_pow10_spots():
    s = build_series(10**6, CheckpointPolicy())
    assert np.all(np.diff(s.Qsq) >= 0)
    for x, m in MERTENS_AT_POW10.items():
        if x <= 10**6:
            i = np.nonzero(s.checkpoints == x)[0]
            assert i.size == 1 and int(s.M[i[0]]) == m
    for x, p in PI_AT_POW10.items():
        if x <= 10**6:
            i = np.nonzero(s.checkpoints == x)[0]
            assert int(s.pi[i[0]]) == p


def test_G_at_every_support_point_small_N():
    # G is recorded at every eval point, so G_at reads it at any of them
    for N in range(1, 61):
        G = np.cumsum(g_table(N))
        for policy in (CheckpointPolicy(kind="all"),
                       CheckpointPolicy(kind="explicit", points=(N,))):
            s = build_series(N, policy)
            assert np.array_equal(s.G, G[s.checkpoints - 1]), (N, policy)
            assert np.array_equal(s.G_eval, G[s.eval_points - 1]), (N, policy)
            assert np.array_equal(s.G_at(s.eval_points), s.G_eval), (N, policy)


def test_series_routes_agree():
    # one route for G on sparse and dense ladders: G at every eval point is
    # the prefix sum of the inverse table, and the two ladders agree on every
    # column at their shared checkpoints
    N = 10**5
    G = np.cumsum(g_table(N))
    sparse = build_series(N, CheckpointPolicy(kind="geometric", ratio=1.4))
    dense = build_series(N, CheckpointPolicy(kind="geometric", ratio=1.001))
    assert len(sparse.eval_points) < len(dense.eval_points) < N
    for s in (sparse, dense):
        assert np.array_equal(s.G, G[s.checkpoints - 1])
        assert np.array_equal(s.G_eval, G[s.eval_points - 1])
        assert np.array_equal(s.G_at(s.eval_points), G[s.eval_points - 1])
    common, i, j = np.intersect1d(sparse.checkpoints, dense.checkpoints,
                                  return_indices=True)
    assert len(common) > 20
    for col in ("M", "G", "Qsq", "pi"):
        assert np.array_equal(getattr(sparse, col)[i], getattr(dense, col)[j]), col


def test_routes_agree_on_irregular_inputs():
    # irregular limits and checkpoints, on ladders whose eval points are every
    # n and on sparse ones: G at every eval point is the prefix sum of the
    # inverse table, and M at every checkpoint that of mobius
    rng = np.random.default_rng(21)
    every_n = set()
    for kind in ("all", "geometric", "explicit", "dense") * 2:
        N = int(rng.integers(17, 30000))
        if kind == "explicit":
            pts = tuple(sorted(set(map(int, rng.integers(1, N + 1, size=5)))))
            pol = CheckpointPolicy(kind="explicit", points=pts)
        elif kind == "geometric":
            pol = CheckpointPolicy(kind="geometric", ratio=float(rng.uniform(1.1, 3.0)))
        elif kind == "dense":
            pol = CheckpointPolicy(kind="geometric", ratio=float(rng.uniform(1.0005, 1.01)))
        else:
            pol = CheckpointPolicy(kind="all")
        s = build_series(N, pol)
        every_n.add(len(s.eval_points) == N)
        G = np.cumsum(g_table(N))
        M = np.cumsum(mobius_block_oracle(N)[1:])
        assert np.array_equal(s.G_eval, G[s.eval_points - 1]), (N, pol)
        assert np.array_equal(s.G, G[s.checkpoints - 1]), (N, pol)
        assert np.array_equal(s.M, M[s.checkpoints - 1]), (N, pol)
    assert every_n == {True, False}


def test_quotient_sums_match_scalar_oracle():
    # random int64 partial-sum tables, small enough that no sum wraps
    rng = np.random.default_rng(5)
    X = 20000
    for _ in range(5):
        A = np.concatenate([[0], rng.integers(-2**30, 2**30, size=X)])
        B = np.concatenate([[0], rng.integers(-2**20, 2**20, size=X)])
        # x = 1 has no block of equal quotient
        for x in [1, 2, 3, *rng.integers(1, X + 1, size=40).tolist(), X]:
            calls = []

            def lookup(table):
                def read(ys):
                    calls.append(ys.dtype)
                    return table[ys]
                return read

            got = summatory._quotient_sum(x, lookup(A), lookup(B))
            assert calls == [np.int64, np.int64]
            assert got == quotient_sum_oracle(x, lambda y: int(A[y]), lambda y: int(B[y]))


def test_mertens_via_G_over_primes_reads_the_series_only():
    s = build_series(10**5, CheckpointPolicy(kind="explicit", points=(10**5,)))
    before = {k: v.copy() for k, v in vars(s).items() if isinstance(v, np.ndarray)}
    assert mertens_via_G_over_primes(10**5, s) == MERTENS_AT_POW10[10**5]
    after = {k: v for k, v in vars(s).items() if isinstance(v, np.ndarray)}
    assert after.keys() == before.keys()
    for k, v in before.items():
        assert np.array_equal(after[k], v), k


def test_mertens_via_G_over_primes_reads_no_M():
    # the identity ties M to G and pi: a series whose M rows are garbage
    # still gives the published M(1e5)
    s = build_series(10**5, CheckpointPolicy(kind="explicit", points=(10**5,)))
    rng = np.random.default_rng(3)
    for col in (s.M, s.M_eval):
        col[:] = rng.integers(-2**40, 2**40, size=len(col))
    assert mertens_via_G_over_primes(10**5, s) == MERTENS_AT_POW10[10**5] == -48


def test_series_segment_size_and_workers_invariant():
    # segments on different threads write disjoint slices of the shared
    # prefix-sum tables; with more workers than cores and a short switch
    # interval a lost or misplaced write would change some recorded value
    for pol in (CheckpointPolicy(kind="geometric", ratio=1.8), CheckpointPolicy(kind="all")):
        a = build_series(10**5, pol, segment_size=10**5 + 1)
        b = build_series(10**5, pol, segment_size=977)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            c = build_series(10**5, pol, segment_size=977, pool=WorkerPool(4))
        finally:
            sys.setswitchinterval(interval)
        for col in ("M", "G", "Qsq", "pi", "M_eval", "G_eval", "pi_eval"):
            assert np.array_equal(getattr(a, col), getattr(b, col))
            assert np.array_equal(getattr(b, col), getattr(c, col))


@st.composite
def _policies(draw, N):
    """A checkpoint policy valid at N: all, geometric:r or explicit:a,b,..."""
    kind = draw(st.sampled_from(["all", "geometric", "explicit"]))
    if kind == "geometric":
        ratio = draw(st.floats(1.0005, 4.0) | st.sampled_from([1.001, 1.25, 2.0]))
        return CheckpointPolicy(kind="geometric", ratio=ratio)
    if kind == "explicit":
        points = draw(st.lists(st.integers(1, N), min_size=1, max_size=12))
        return CheckpointPolicy(kind="explicit", points=tuple(points))
    return CheckpointPolicy(kind="all")


def _policy_text(pol):
    if pol.kind == "geometric":
        return f"geometric:{pol.ratio!r}"
    if pol.kind == "explicit":
        return "explicit:" + ",".join(map(str, pol.points))
    return "all"


@st.composite
def _series_case(draw):
    N = draw(st.integers(1, 20000))
    pol = draw(_policies(N))
    segment_size = draw(st.integers(max(1, N // 40), N + 1))
    return N, pol, segment_size, draw(st.sampled_from([1, 3]))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_series_case())
def test_series_invariant_under_segments_workers_and_route(case):
    N, pol, segment_size, threads = case
    ref = build_series(N, pol, segment_size=N + 1)
    s = build_series(N, pol, segment_size=segment_size, pool=WorkerPool(threads))
    for col in ("checkpoints", "M", "G", "Qsq", "pi"):
        assert np.array_equal(getattr(s, col), getattr(ref, col)), col
    assert np.array_equal(s.G, np.cumsum(g_table(N))[s.checkpoints - 1])


@st.composite
def _eval_case(draw):
    N = draw(st.integers(1, 30000))
    pol = draw(_policies(N))
    # the brute-force closure walks every k <= c of every point: keep the
    # sum of the checkpoints near 1e7 at most
    if pol.kind == "all":
        N = min(N, 3000)
    elif pol.kind == "geometric":
        N = min(N, max(1000, int(2e7 * (pol.ratio - 1))))
    return N, pol


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_eval_case())
def test_eval_points_are_the_closed_quotient_set(case):
    # [1, T] plus the checkpoints' quotients above T, T = isqrt(sum c):
    # closed under x -> x // k, so every quotient sum at every point reads
    # recorded values, and small unless it is all of 1..N
    N, pol = case
    cps = pol.checkpoints(N)
    E = summatory._eval_point_union(cps, N)
    assert E.dtype == np.int64 and np.all(np.diff(E) > 0)
    assert E[0] == 1 and E[-1] == N
    assert np.isin(cps, E).all()
    assert np.array_equal(quotient_closure_oracle(E), E)
    assert np.isin(quotient_closure_oracle(cps), E).all()
    total = sum(int(c) for c in cps)
    assert len(E) < 2 * isqrt(total) + 2 or np.array_equal(E, np.arange(1, N + 1))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 10**6).flatmap(lambda N: st.tuples(st.just(N), _policies(N))))
def test_policy_parse_round_trip_and_checkpoints_shape(case):
    N, pol = case
    assert CheckpointPolicy.parse(_policy_text(pol)) == pol
    if pol.kind == "all":
        with pytest.raises(ValueError):
            CheckpointPolicy.parse(f"all:{N}")
    if pol.kind == "all":
        N = min(N, 1000)
    cps = pol.checkpoints(N)
    assert cps.dtype == np.int64
    assert cps[0] >= 1 and cps[-1] == N
    assert np.all(np.diff(cps) > 0)
    if pol.kind == "explicit":
        assert set(pol.points) <= set(cps.tolist())


_BLOCK_N = 5 * 977


def _pointwise_prefix_sums(N):
    """M, Qsq, pi and G on 0..N from the trial-division and recursion oracles."""
    mu = [0] + [mobius_oracle(n) for n in range(1, N + 1)]
    pi = [0] + [int(big_omega_oracle(n) == 1) for n in range(1, N + 1)]
    return (np.cumsum(mu), np.cumsum(np.asarray(mu) != 0),
            np.cumsum(pi), np.cumsum(g_recursion_oracle(N)))


@pytest.fixture(scope="module")
def block_oracle():
    return _pointwise_prefix_sums(_BLOCK_N)


#: The kernel's chunk width in the block-sum test, so that a 977-wide
#: segment holds nine chunk edges; the second segment starts at 978.
_TEST_CHUNK = 100


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("segment_size", [1, 2, 977])
@pytest.mark.parametrize("ladder, policy", [
    # six checkpoints, whose other eval points are their quotients; and
    # every n up to 1000 directly, then one checkpoint every 0.1%
    ("quotient", CheckpointPolicy(kind="explicit", points=(
        977, 978, 1954, *(978 + o for o in (_TEST_CHUNK - 1, _TEST_CHUNK, _TEST_CHUNK + 1))))),
    ("direct", CheckpointPolicy(kind="geometric", ratio=1.001)),
])
def test_block_sums_at_segment_edges(ladder, policy, segment_size, threads, block_oracle,
                                     monkeypatch):
    # each segment reads its eval points from the running block sums
    # between them, carried across the kernel's chunks: points on a
    # segment's first and last entry (an empty trailing block), on either
    # side of a chunk edge, and segments with no point at all must all read
    # the same prefix sums as one whole-range segment and the pointwise oracles
    monkeypatch.setattr(arith, "_CHUNK", _TEST_CHUNK)
    N = _BLOCK_N
    ref = build_series(N, policy, segment_size=N + 1)
    s = build_series(N, policy, segment_size=segment_size, pool=WorkerPool(threads))
    offs = (s.eval_points - 1) % segment_size
    assert 0 in offs and segment_size - 1 in offs
    if segment_size > _TEST_CHUNK:
        c = _TEST_CHUNK
        assert {0, c - 1, c, c + 1} <= set(offs.tolist())
    # the dense ladder has a point in every 977-wide segment
    if ladder == "quotient" or segment_size < 977:
        assert len(np.unique((s.eval_points - 1) // segment_size)) < -(-N // segment_size)
    for col in ("checkpoints", "M", "G", "Qsq", "pi"):
        assert np.array_equal(getattr(s, col), getattr(ref, col)), col
    for col in ("eval_points", "M_eval", "G_eval", "pi_eval"):
        assert np.array_equal(getattr(s, col), getattr(ref, col)), col
    M, Qsq, pi, G = block_oracle
    assert np.array_equal(s.M_eval, M[s.eval_points])
    assert np.array_equal(s.G_eval, G[s.eval_points])
    assert np.array_equal(s.pi_eval, pi[s.eval_points])
    assert np.array_equal(s.Qsq, Qsq[s.checkpoints])


def _segment_spans(N, segment_size):
    return [min(segment_size, N + 1 - lo) * int(np.abs(profile_range(
                Segment(lo, min(lo + segment_size, N + 1)), {"g_sig"}).g_sig).max())
            for lo in range(1, N + 1, segment_size)]


def test_series_overflow_bound_is_checked_before_summing(monkeypatch):
    # width * max|g| bounds every partial sum inside a segment; past
    # the bound the segment is refused before any int64 sum is formed
    N, size = 10**4, 100
    spans = _segment_spans(N, size)
    pol = CheckpointPolicy(kind="explicit", points=(N,))
    monkeypatch.setattr(summatory, "_SAFE_SUM", max(spans) - 1)
    with pytest.raises(OverflowError):
        build_series(N, pol, segment_size=size)
    # every segment fits on its own, but the running total plus the widest
    # segment's span does not
    monkeypatch.setattr(summatory, "_SAFE_SUM", max(spans))
    with pytest.raises(OverflowError):
        build_series(N, pol, segment_size=size, pool=WorkerPool(2))
    monkeypatch.setattr(summatory, "_SAFE_SUM", max(spans) + N * max(spans))
    s = build_series(N, pol, segment_size=size)
    assert s.M.tolist() == [mertens_oracle(N)] and s.G.tolist() == [g_table(N).sum()]


def test_series_overflow_bound_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(summatory, "_SAFE_SUM", 1000)
    assert main(["summatory", "--limit", "10000", "--segment-size", "1000"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "bound" in err


class _Unsummable(np.ndarray):
    def __array_ufunc__(self, *args, **kwargs):
        raise AssertionError("a column was summed before the width guard")


def test_block_sums_refuse_int32_overflow_before_summing():
    # one-byte columns are summed per block in int32, exact only below 2^31
    # entries; zero-stride views stand in for 2^31-entry columns
    starts = np.array([0, 5], dtype=np.int64)
    for width in (2**31, 2**40):
        ones = np.broadcast_to(np.int8(1), (width,)).view(_Unsummable)
        wide = np.broadcast_to(np.int64(1), (width,)).view(_Unsummable)
        with pytest.raises(OverflowError, match="int32"):
            summatory._block_sums((ones, ones, ones, wide), starts)
    mu = np.array([1, -1, -1, 0, -1, 1, -1, 0], dtype=np.int8)
    u = np.arange(8, dtype=np.int64) * 2**40
    sums = summatory._block_sums((mu, mu != 0, u), starts)
    assert sums.dtype == np.int64
    assert sums.tolist() == [[-2, -2], [4, 6], [10 * 2**40, 28 * 2**40]]


def test_block_sum_guard_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(summatory, "_INT32_MAX", 999)
    assert main(["summatory", "--limit", "5000", "--segment-size", "999"]) == 0
    capsys.readouterr()
    assert main(["summatory", "--limit", "5000", "--segment-size", "1000"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "int32" in err


@pytest.mark.parametrize("N, policy, support", [
    # the eval points: [1, T] and the quotients of the checkpoints above T
    (10**6, CheckpointPolicy(), "quotient"),
    # every n directly: the first default-size segment sums 5e4 blocks
    (50_000, CheckpointPolicy(kind="all"), "direct"),
])
def test_series_bytes_equal_across_segment_sizes(N, policy, support):
    def columns(segment_size):
        s = build_series(N, policy, segment_size=segment_size)
        assert (len(s.eval_points) == N) == (support == "direct")
        return [getattr(s, c).tobytes() for c in
                ("checkpoints", "M", "G", "Qsq", "pi", "M_eval", "G_eval", "pi_eval")]

    ref = columns(DEFAULT_SEGMENT_CAPACITY)
    for size in (999, 2**16):
        assert columns(size) == ref, size


def test_series_memory_per_segment_entry_flat_in_N():
    # the kernel derives its columns one chunk at a time, so a segment holds
    # only its 5 B/n of sieve columns plus a fixed 2 MB of chunk temporaries
    # (about 14 B per entry of this 2^18 segment, 6 of a 2^20 one), and a
    # sparse ladder's peak is set by the segment width, not by N
    size = 2**18
    build_series(size, segment_size=size)       # one-time allocations

    def peak(N):
        tracemalloc.start()
        try:
            build_series(N, segment_size=size)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(10**6), peak(4 * 10**6)
    assert large < 1.5 * small
    assert max(small, large) <= 16 * size


def test_direct_route_peak_bytes_per_n():
    # segments write their prefix sums into one array allocated once, so no
    # per-segment block sums are alive at the peak: for "all", recorded
    # (32 B/n), checkpoints and eval points (8 each); a sparser ladder keeps
    # only its eval points' rows
    N, size = 2**20, 2**16
    for policy, bytes_per_n in ((CheckpointPolicy(kind="all"), 80),
                                (CheckpointPolicy(kind="geometric", ratio=1.001), 24)):
        build_series(size, policy, segment_size=size)       # one-time allocations
        tracemalloc.start()
        try:
            build_series(N, policy, segment_size=size)
            assert tracemalloc.get_traced_memory()[1] <= bytes_per_n * N, policy
        finally:
            tracemalloc.stop()


def test_direct_route_narrow_segments_keep_only_their_omega():
    # profile_chunks' columns live in the sweep's workspace, and each segment
    # sums its g into the recorded rows (no per-n omega copy is kept), so no
    # 1-wide segment keeps its sieve columns alive past its sweep
    pol = CheckpointPolicy(kind="all")
    build_series(100, pol, segment_size=1)
    tracemalloc.start()
    try:
        build_series(1000, pol, segment_size=1)
        assert tracemalloc.get_traced_memory()[1] < 4 * 2**20
    finally:
        tracemalloc.stop()


def test_series_rejects_zero():
    with pytest.raises(ValueError):
        build_series(0, CheckpointPolicy())


def test_mertens_via_g_pi_examples():
    g = g_table(100)
    assert mertens_via_g_pi(1, g) == 1
    assert mertens_via_g_pi(4, g) == -1
    for x in range(1, 101):
        assert mertens_via_g_pi(x, g) == mertens_oracle(x)


def test_mertens_via_g_pi_range_errors():
    g = g_table(50)
    with pytest.raises(RangeCoverageError):
        mertens_via_g_pi(60, g)


def test_mertens_via_g_pi_exact_past_int64():
    # g near 2^50 at x ~ 1e4: the bound max|g| * (sum of ranks + x) is past
    # int64 and so is the true sum, which only the Python-int path gets right
    x = 10007
    rng = np.random.default_rng(11)
    g = 2**50 - rng.integers(0, 2**20, size=x)
    pi = [0] * (x + 1)
    for n in range(2, x + 1):
        pi[n] = pi[n - 1] + (big_omega_oracle(n) == 1)
    want = sum(int(g[k - 1]) * pi[x // k] + int(g[k - 1]) for k in range(1, x + 1))
    assert want > np.iinfo(np.int64).max
    assert mertens_via_g_pi(x, g) == want


def test_mertens_via_G_over_primes_examples():
    s = build_series(100, CheckpointPolicy(kind="all"))
    assert mertens_via_G_over_primes(2, s) == 0
    assert mertens_via_G_over_primes(4, s) == -1
    for x in range(1, 101):
        assert mertens_via_G_over_primes(x, s) == mertens_oracle(x)


def test_mertens_identities_spot_1e6():
    s = build_series(10**6, CheckpointPolicy(kind="explicit", points=(10**5,)))
    g = g_table(10**6)
    for x in (10**5, 10**6):
        expect = MERTENS_AT_POW10[x]
        assert mertens_via_g_pi(x, g) == expect
        assert mertens_via_G_over_primes(x, s) == expect


def test_mertens_uncovered_point_raises():
    s = build_series(10**4, CheckpointPolicy(kind="explicit", points=(10**4,)))
    with pytest.raises(RangeCoverageError):
        mertens_via_G_over_primes(9973, s)  # not a checkpoint, not in closure


def test_double_sum_small(profile_1e4):
    assert g_via_double_sum(1, profile_1e4) == 1
    assert g_via_double_sum(4, profile_1e4) == -1
    g = g_recursion_oracle(300)
    total = 0
    for x in range(1, 301):
        total += g[x]
        assert g_via_double_sum(x, profile_1e4) == total


def test_csv_round_trip(tmp_path):
    s = build_series(10**4, CheckpointPolicy())
    path = tmp_path / "series.csv"
    assert main(["summatory", "--limit", str(10**4), "--out", str(path)]) == 0
    with open(path) as fh:
        rows = read_series(fh)
    for col in ("checkpoints", "M", "G", "Qsq", "pi"):
        assert np.array_equal(getattr(rows, col), getattr(s, col))


def test_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        read_series(io.StringIO("a,b,c\n1,2,3\n"))
