import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mforge import arith
from mforge.arith import (
    ArithmeticProfile,
    _exact_columns,
    c_omega,
    g_squarefree_closed_form,
    g_table,
    profile_chunks,
    profile_range,
)
from mforge.cli import main, read_bfile
from mforge.parallel import WorkerPool
from mforge.sieve import Factorization, Segment, factorize, primes_up_to
from mforge.stats import collect_counts, erdos_kac_cdf
from mforge.summatory import build_series

from oracles import (
    big_omega_oracle,
    c_omega_oracle,
    columns_from_exponents,
    exponents_oracle,
    g_closed_form_oracle,
    g_recursion_oracle,
    g_subset_sum,
    liouville_oracle,
    mobius_oracle,
    multinomial,
    omega_oracle,
    trial_factorize,
)


def test_profile_pointwise_examples(profile_1e4):
    p = profile_1e4

    def i(n):
        return n - p.segment.lo
    # n = 12: omega 2, big_omega 3, mu 0, lambda -1, multinomial 3!/2! = 3
    assert (p.omega[i(12)], p.big_omega[i(12)], p.mobius[i(12)],
            p.liouville[i(12)], p.c_omega[i(12)]) == (2, 3, 0, -1, 3)
    # n = 30: squarefree with three primes, multinomial 3! = 6
    assert (p.omega[i(30)], p.big_omega[i(30)], p.mobius[i(30)],
            p.liouville[i(30)], p.c_omega[i(30)]) == (3, 3, -1, -1, 6)
    # n = 1 conventions
    assert (p.omega[0], p.big_omega[0], p.mobius[0], p.liouville[0],
            p.c_omega[0], p.g[0]) == (0, 0, 1, 1, 1, 1)


def test_profile_invariants(profile_1e4):
    p = profile_1e4
    lam = p.liouville.astype(np.int64)
    mob = p.mobius.astype(np.int64)
    assert np.array_equal(lam, 1 - 2 * (p.big_omega.astype(np.int64) & 1))
    squarefree = p.omega == p.big_omega
    assert np.array_equal(mob != 0, squarefree)
    assert np.array_equal(mob[squarefree], lam[squarefree])
    # mu = lambda * mu^2 everywhere
    assert np.array_equal(mob, lam * (mob != 0))


def test_profile_matches_trial_division_oracle():
    lo = 999_000
    p = profile_range(Segment(lo, lo + 500))
    for n in range(lo, lo + 500):
        j = n - lo
        assert p.omega[j] == omega_oracle(n)
        assert p.big_omega[j] == big_omega_oracle(n)
        assert p.mobius[j] == mobius_oracle(n)
        assert p.liouville[j] == liouville_oracle(n)
        assert p.c_omega[j] == c_omega_oracle(n)
    assert p.g is None  # offset ranges cannot carry g


def test_profile_bulk_agrees_with_pointwise_1e4_samples():
    # 1e4 random n up to 1e8, grouped into the segments that cover them so
    # the bulk profiler runs on realistic widths
    rng = np.random.default_rng(11)
    ns = np.unique(rng.integers(1, 10**8, size=10**4))
    seg_w = 1 << 22
    for seg_id in np.unique(ns // seg_w):
        lo = int(seg_id) * seg_w
        members = ns[(ns >= lo) & (ns < lo + seg_w)]
        prof = profile_range(Segment(max(lo, 1), lo + seg_w))
        for n in map(int, members):
            j = n - prof.segment.lo
            f = factorize(n)
            assert prof.omega[j] == len(f.factors)
            assert prof.big_omega[j] == sum(a for _, a in f)
            assert prof.c_omega[j] == c_omega(f)
            assert prof.mobius[j] == (0 if any(a > 1 for _, a in f)
                                      else (-1) ** len(f.factors))


_INT64_MAX = (1 << 63) - 1

COLUMNS = ("omega", "big_omega", "mobius", "liouville", "c_omega", "u", "g_sig")

# Presieve pattern periods and prime powers whose strides restart at a multiple
_PERIODS = (*arith._PATTERN_PERIODS, 4, 8, 9, 25, 27, 49, 121, 169, 289, 1024, 2187, 4913)


@st.composite
def _segment_and_split(draw):
    """[lo, hi) plus a split point lo < mid < hi (mid = hi when width is 1)."""
    if draw(st.booleans()):
        # tiny segments, where the pattern primes 2..13 exceed sqrt(hi)
        hi = draw(st.integers(2, 169))
        lo = draw(st.integers(1, hi - 1))
    else:
        q = draw(st.sampled_from(_PERIODS))
        anchor = q * draw(st.integers(1, 2 * 10**6 // q))
        lo = max(1, anchor - draw(st.integers(0, 150)))
        hi = max(lo + 1, anchor + draw(st.integers(-150, 150)))
    mid = draw(st.integers(lo + 1, hi - 1)) if hi - lo > 1 else hi
    return lo, mid, hi


def _profile_split_invariant(lo, mid, hi):
    """Profile of [lo, hi), checked equal to those of [lo, mid) and [mid, hi) joined."""
    whole = profile_range(Segment(lo, hi))
    parts = [profile_range(Segment(a, b))
             for a, b in ((lo, mid), (mid, hi)) if b > a]
    for col in COLUMNS:
        joined = np.concatenate([getattr(p, col) for p in parts])
        assert getattr(whole, col).dtype == joined.dtype
        assert np.array_equal(getattr(whole, col), joined), col
    return whole


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_segment_and_split())
def test_profile_split_invariant_and_matches_oracles(seg):
    lo, mid, hi = seg
    whole = _profile_split_invariant(lo, mid, hi)
    for n in range(lo, hi):
        j = n - lo
        assert (whole.omega[j], whole.big_omega[j], whole.mobius[j],
                whole.liouville[j], whole.c_omega[j]) == (
            omega_oracle(n), big_omega_oracle(n), mobius_oracle(n),
            liouville_oracle(n), c_omega_oracle(n)), n


@pytest.mark.parametrize("lo,mid,hi", [
    (1, 99_991, 300_001),
    (30_030 * 97 - 11, 30_030 * 97 + 131_075, 30_030 * 97 + 400_000),
    (10**8 - 2**19 + 7, 10**8 - 2**18 + 3, 10**8 + 1),
])
def test_profile_split_invariant_across_blocks(lo, mid, hi):
    # wider than the kernel's derivation chunk, so chunk edges fall at different n
    whole = _profile_split_invariant(lo, mid, hi)
    for b in range(0, hi - lo, arith._CHUNK):
        for n in range(lo + max(b - 3, 0), min(lo + b + 3, hi)):
            j = n - lo
            assert (whole.omega[j], whole.big_omega[j], whole.c_omega[j]) == (
                omega_oracle(n), big_omega_oracle(n), c_omega_oracle(n)), n


_COLUMN_SUBSETS = [set(c) for r in range(1, len(COLUMNS) + 1)
                   for c in itertools.combinations(COLUMNS, r)]


def _check_column_subsets(lo, hi):
    """profile_range with each non-empty column subset equals the full profile
    on that subset and leaves every other column None."""
    seg = Segment(lo, hi)
    full = profile_range(seg)
    for cols in _COLUMN_SUBSETS:
        part = profile_range(seg, columns=cols)
        for col in COLUMNS:
            got = getattr(part, col)
            if col in cols:
                assert got.dtype == getattr(full, col).dtype, (cols, col)
                assert np.array_equal(got, getattr(full, col)), (cols, col)
            else:
                assert got is None, (cols, col)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_segment_and_split())
def test_profile_column_subsets_match_full_profile(seg):
    lo, _, hi = seg
    _check_column_subsets(lo, hi)


def test_profile_column_subsets_on_exact_path_and_block_edges():
    # entries with big_omega > 20 take the exact c_omega path; the segment is
    # wider than the kernel's derivation chunk
    _check_column_subsets(2**21 - 3, 2**21 + 3 * 2**17 + 5)


def test_profile_unknown_column_raises():
    with pytest.raises(ValueError, match="unknown profile columns"):
        profile_range(Segment(1, 100), columns={"omega", "g"})
    with pytest.raises(ValueError):
        profile_range(Segment(1, 100), columns="omega")   # a name, not a collection


@pytest.mark.parametrize("n0", [2**21, 3 * 2**21, 2**22, 2**26])
def test_profile_exact_path_above_twenty_factors(n0):
    # big_omega > 20 needs 21! > 2^63, so these entries take the exact path,
    # for g as for c_omega
    lo = n0 - 2000
    prof = profile_range(Segment(lo, n0 + 2000))
    hot = np.nonzero(prof.big_omega > 20)[0]
    assert n0 - lo in hot
    near = range(n0 - lo - 50, n0 - lo + 50)
    for j in sorted(set(map(int, hot)) | set(near)):
        f = factorize(lo + j)
        assert prof.c_omega[j] == c_omega(f)
        assert prof.g_sig[j] == g_subset_sum([a for _, a in f])
        assert prof.big_omega[j] == sum(a for _, a in f)
        assert prof.omega[j] == len(f.factors)
        assert prof.mobius[j] == (0 if any(a > 1 for _, a in f)
                                  else (-1) ** len(f.factors))


def _profile_rows(prof):
    return list(zip(*(getattr(prof, col).tolist() for col in COLUMNS)))


#: Windows of +-64 around 2^k for k above this cost over a second each, most
#: of it in the trial-division oracle (up to 2^(k/3) per entry); the kernel
#: scatters the pi(2^(k/2)) seed primes' steps in one pass (0.16 s at k = 46).
_EDGE_K_MAX = 46


@pytest.mark.parametrize("k", range(1, _EDGE_K_MAX + 1))
def test_profile_matches_oracles_around_binary_range_edges(k):
    # the byte-log test compares L with 3k on each binary range [2^k, 2^(k+1)),
    # so every entry of a window across 2^k is checked against its factorization
    lo, hi = max(1, 2**k - 64), 2**k + 64
    rows = _profile_rows(profile_range(Segment(lo, hi)))
    for n, row in zip(range(lo, hi), rows):
        assert row == columns_from_exponents(exponents_oracle(n)), n


def _sparse_steps_dividing(n: int, width: int, hi: int) -> int:
    """How many of the kernel's steps of stride >= width / 16 divide n: one per
    prime-power level p^e | n with p a seed (p^2 < hi) and e >= 2 or p > 13."""
    return sum(1 for p, a in trial_factorize(n) if p * p < hi
               for e in range(1, a + 1) if 16 * p**e >= width and (e >= 2 or p > 13))


@pytest.mark.parametrize("width", [64, 1024])
@pytest.mark.parametrize("n0", [
    7 * (11 * 13) ** 2,            # 11^2 and 13^2
    (67 * 71) ** 2,                # 67, 71, 67^2 and 71^2
    67 * 71 * 73 * 79,             # four sparse primes
    2**12 * 3**5 * 5**3,           # 2^e for e >= 6 (or 2), 3^4, 3^5, 5^3
    3 * (257 * 263) ** 2,          # primes and squares above width / 16
])
def test_profile_entries_hit_by_several_sparse_steps(n0, width):
    # every entry of the window is checked, and n0 is hit by at least two of
    # the steps that the kernel applies in one scatter pass, which must add
    # every one of them (their codes, for the denominators)
    lo, hi = n0 - width // 2, n0 + width // 2
    assert _sparse_steps_dividing(n0, width, hi) >= 2
    rows = _profile_rows(profile_range(Segment(lo, hi)))
    for n, row in zip(range(lo, hi), rows):
        assert row == columns_from_exponents(exponents_oracle(n)), n


def test_exponents_oracle_matches_trial_division():
    ns = [*range(1, 3000), 2**31 - 1, 2**32 + 15, 10**12 + 39, (10**6 + 3)**2,
          (10**6 + 3) * (10**6 + 33), 2**40 * 3, 999_983 * 1_000_003 * 7]
    for n in ns:
        assert exponents_oracle(n) == [a for _, a in trial_factorize(n)], n


def test_profile_matches_oracles_on_every_segment_below_40():
    # here r = isqrt(hi - 1) < 7: the patterns count the primes up to 13 and
    # the primes 17..37 above r are left to the byte-log test
    oracle = {n: columns_from_exponents(exponents_oracle(n)) for n in range(1, 40)}
    for hi in range(2, 41):
        for lo in range(1, hi):
            rows = _profile_rows(profile_range(Segment(lo, hi)))
            assert rows == [oracle[n] for n in range(lo, hi)], (lo, hi)


def test_byte_log_is_floor_of_four_log2_on_seed_primes():
    # lg(p) = m exactly when 2^m <= p^4 < 2^(m + 1), in exact integers
    ps = primes_up_to(10**6)
    for p, m in zip(ps.tolist(), arith._lg(ps).tolist()):
        assert 1 << m <= p**4 < 2 << m, p
        assert m == math.floor(4 * math.log2(p)), p
    # and on both sides of every threshold 2^(k/4) up to 2^32, past the
    # largest seed prime of a segment below 10^17
    ns = sorted({n for k in range(1, 129) for r in [math.isqrt(math.isqrt(1 << k))]
                 for n in (r - 1, r, r + 1, r + 2) if 2 <= n < 1 << 32})
    for n, m in zip(ns, arith._lg(np.array(ns)).tolist()):
        assert 1 << m <= n**4 < 2 << m, n


@pytest.mark.parametrize("columns, bytes_per_n", [
    (set(COLUMNS) - {"u", "g_sig"}, 17), ({"omega"}, 4), (set(COLUMNS) - {"c_omega", "g_sig"}, 17)])
def test_profile_peak_bytes_per_entry(columns, bytes_per_n):
    # one-byte logs, a two-byte signature code and derived columns built
    # one chunk at a time leave no full-width temporary beside the outputs;
    # omega alone keeps two byte columns and a mask.  No sweep asks for both
    # c_omega and u, so the bound is for five columns
    seg = Segment(10**8 - 2**20 + 1, 10**8 + 1)
    profile_range(seg, columns=columns)
    tracemalloc.start()
    try:
        profile_range(seg, columns=columns)
        assert tracemalloc.get_traced_memory()[1] <= bytes_per_n * seg.width
    finally:
        tracemalloc.stop()


def _partitions(n, cap=None):
    """Every exponent multiset summing to n, as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for a in range(min(n, cap or n), 0, -1):
        for rest in _partitions(n - a, a):
            yield (a,) + rest


def test_signature_index_gathers_u_and_g():
    # every exponent multiset with big_omega <= 20 and omega <= 15 (omega <=
    # 14 below 10^17): the index code << 4 | omega, with code summed from its
    # levels' adds, is distinct and below 2^16, and one gather from each
    # table gives u = (-1)^big_omega c_omega and g in the subset-sum form of
    # identity (c), which shares no step with the tables' e_t and H
    primes = primes_up_to(80).tolist()
    cases = [alphas for total in range(21) for alphas in _partitions(total) if len(alphas) <= 15]
    assert len(cases) == 2688
    index, u, g = [], [], []
    for alphas in cases:
        code = sum(int(arith._CODE_ADDS[e]) for a in alphas for e in range(1, a + 1))
        index.append(code << 4 | len(alphas))
        u.append((-1) ** sum(alphas) * c_omega(Factorization(0, tuple(zip(primes, alphas)))))
        g.append(g_subset_sum(list(alphas)))
    assert len(set(index)) == len(cases) and max(index) < 1 << 16
    # the weights name each of the 627 multisets of exponents >= 2, up to code 2584
    codes = {tuple(a for a in alphas if a > 1): i >> 4 for alphas, i in zip(cases, index)}
    assert len(codes) == 627 and len(set(codes.values())) == 627
    assert max(codes.values()) == 2584
    U, G = arith._signature_table("u"), arith._signature_table("g_sig")
    assert U[index].tolist() == u and G[index].tolist() == g
    assert np.count_nonzero(U) == np.count_nonzero(G) == len(cases)    # 0 elsewhere
    # every exponent above 20 weighs w_20, so its levels past 20 add nothing
    assert not arith._CODE_ADDS[21:].any()


def test_g_sig_equals_g_table_and_recursion_oracle(profile_1e4):
    # the signature gather against the Dirichlet inverse and the divisor-sum
    # recursion, which build g from omega alone
    prof = profile_range(Segment(1, 10**6 + 1), columns={"g_sig"})
    assert prof.g_sig.dtype == np.int64
    assert np.array_equal(prof.g_sig, g_table(10**6))
    assert prof.g_sig[:400].tolist() == g_recursion_oracle(400)[1:]
    assert np.array_equal(profile_1e4.g_sig, profile_1e4.g)


@pytest.mark.parametrize("lo", [9 * 10**7, 2**21 - arith._CHUNK + 2])
@pytest.mark.parametrize("width", [arith._CHUNK - 1, arith._CHUNK, 3 * arith._CHUNK + 5])
def test_chunked_columns_equal_one_piece(lo, width, monkeypatch):
    # the derived columns are built one chunk at a time; below, at and past
    # the chunk width they equal one piece, and so do the chunks of
    # profile_chunks; 2^21 (big_omega 21, the exact path) is the
    # second-to-last entry of the first chunk
    seg = Segment(lo, lo + width)
    chunked = profile_range(seg)
    chunk = arith._CHUNK
    # a chunk's arrays are valid until the next chunk is pulled
    pieces = [(a, {k: v.copy() for k, v in p.items()}) for a, p in profile_chunks(seg, COLUMNS)]
    monkeypatch.setattr(arith, "_CHUNK", width)
    whole = profile_range(seg)
    assert lo > 2**21 or (whole.big_omega[2**21 - lo], whole.g_sig[2**21 - lo]) == (
        21, g_subset_sum([21]))
    assert [a for a, _ in pieces] == list(range(0, width, chunk))
    assert all(len(p["u"]) == min(chunk, width - a) for a, p in pieces)
    for col in COLUMNS:
        ref = getattr(whole, col)
        joined = np.concatenate([p[col] for _, p in pieces])
        assert joined.dtype == ref.dtype and np.array_equal(joined, ref), col
        assert np.array_equal(getattr(chunked, col), ref), col
    assert np.array_equal(whole.u, whole.c_omega * whole.liouville)


def _profile_columns(lo, hi):
    return [getattr(profile_range(Segment(lo, hi)), col) for col in COLUMNS]


def _pattern_windows():
    """Windows that start at 1, at 2..100 with tiny widths, and at residues
    0, 1 and P - 1 of each presieve period P, with widths below, at and
    above P; and windows high up, to 2^46."""
    periods = arith._PATTERN_PERIODS
    yield from ((1, 1 + w) for w in (1, 2, 3, 64, *periods, 2 * max(periods) + 3))
    yield from ((lo, lo + w) for lo in range(2, 101) for w in (1, 2, 5))
    for period in periods:
        for lo in (5 * period, 5 * period + 1, 5 * period - 1):
            yield from ((lo, lo + w) for w in (period - 1, period, period + 1, 2 * period + 7))
    for k in (30, 40, 46):
        lo = 2**k - 2**k % (3**5 * 5**2) - 1        # -1 mod 6075, 2^k inside
        yield from ((2**k - 100, 2**k + 100), (lo, lo + 9000))


def test_presieve_patterns_equal_per_step_sieve(monkeypatch):
    # the levels 2..2^12, 3..3^5, 5, 5^2, 7, 11 and 13 are added as periodic
    # patterns; every column must equal the kernel that applies them as
    # strided steps (a period of 1 leaves every level a step, level 1 of
    # 2..13 included, and 11 and 13 are seed primes only from hi = 122 and
    # 170 on)
    windows = list(_pattern_windows())
    fast = [_profile_columns(lo, hi) for lo, hi in windows]
    monkeypatch.setattr(arith, "_PATTERN_PERIODS", (1,))
    for (lo, hi), got in zip(windows, fast):
        want = _profile_columns(lo, hi)
        for col, a, b in zip(COLUMNS, got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), (lo, hi, col)


def test_presieve_patterns_hold_only_their_periods_levels():
    # one rule: a level q = p^e, e >= 1, is in the pattern of the period it
    # divides, whose entry at residue r sums the adds of the levels dividing
    # both; level 1 adds lg(p) - 256 to the word alone.  The step table keeps
    # every other level.
    periods = arith._PATTERN_PERIODS
    assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(periods, 2))
    for period, cols in zip(periods, arith._patterns(periods)):
        levels = [(p, e) for p in (2, 3, 5, 7, 11, 13) for e in range(1, 20)
                  if period % p**e == 0]
        assert levels
        for r in (0, 1, 2, 4, 7, 8, 9, 11, 13, 25, 27, 77, 81, 100, 143, 225, 675,
                  period - 1):
            r %= period
            hit = [(p, e) for p, e in levels if r % p**e == 0]
            want = (sum(int(arith._lg(p)) + 0xFF00 * (e == 1) for p, e in hit) % 2**16,
                    sum(e > 1 for _, e in hit),
                    sum(int(arith._CODE_ADDS[e]) for _, e in hit if e > 1) % 2**16)
            for col, value in zip(cols, want):
                assert (0 if col is None else int(col[r])) == value, (period, r)
        powers = any(e > 1 for _, e in levels)
        for col, holds in zip(cols, (True, powers, powers)):
            assert (col is not None) == holds, period
    seeds = primes_up_to(10**4)
    q, _, e = arith._step_table(seeds, 10**8)
    assert all((period % q != 0).all() for period in periods)
    assert {17, 19, 49, 121, 169, 8192, 729, 125} <= set(q.tolist())
    assert [len(t) for t in arith._step_table(seeds[:0], 10**8)] == [0, 0, 0]


def test_profile_chunks_yields_only_the_named_columns():
    pieces = list(profile_chunks(Segment(1, 1000), {"mobius", "u"}))
    assert [sorted(p) for _, p in pieces] == [["mobius", "u"]]
    with pytest.raises(ValueError, match="unknown profile columns"):
        next(profile_chunks(Segment(1, 100), {"g"}))


def test_two_live_chunk_streams_share_no_array():
    # a stream reuses its chunk arrays, so each is valid only until the next
    # chunk is pulled; two live streams on one thread share none of them
    width = 3 * arith._CHUNK
    first = profile_chunks(Segment(10**6, 10**6 + width), COLUMNS)
    second = profile_chunks(Segment(5 * 10**6, 5 * 10**6 + width), COLUMNS)
    _, a = next(first)
    kept = {k: v.copy() for k, v in a.items()}
    _, b = next(second)
    for col in COLUMNS:
        assert not np.shares_memory(a[col], b[col]), col
        assert np.array_equal(a[col], kept[col]), col
    _, later = next(first)
    assert np.shares_memory(a["u"], later["u"])


def test_profile_range_columns_outlive_later_sweeps():
    # profile_range owns its columns: no sweep's workspace reaches them
    prof = profile_range(Segment(1, 2**17 + 1))
    kept = {col: getattr(prof, col).copy() for col in COLUMNS}
    collect_counts(2**18, 2**16)
    erdos_kac_cdf(2**18, "log_c_omega", 2**16, pool=WorkerPool(2))
    build_series(2**18, segment_size=2**16)
    for col in COLUMNS:
        assert np.array_equal(getattr(prof, col), kept[col]), col


@pytest.mark.parametrize("threads", [1, 2])
def test_kernel_sweep_leaves_no_memory_behind(threads):
    # each worker's sieve columns live in its workspace for one sweep only
    pool = WorkerPool(threads)
    collect_counts(2**19, 2**17, pool=pool)     # one-time caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        collect_counts(2**19, 2**17, pool=pool)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before > 3 * 2**17
    assert after - before < 2**16, (before, after)


def _signatures_up_to(x: int) -> list:
    """Every exponent signature of the n <= x, as the non-increasing exponent
    tuple of its least n, which puts them on 2, 3, 5, ... in that order."""
    primes = [p for p in range(2, 80) if all(p % d for d in range(2, p))]
    found = []

    def walk(i, n, alphas):
        found.append(alphas)
        for a in range(1, (alphas[-1] if alphas else x.bit_length()) + 1):
            n *= primes[i]
            if n > x:
                return
            walk(i + 1, n, alphas + (a,))

    walk(0, 1, ())
    return found


def _max_c_omega_up_to(x: int) -> int:
    """max c_omega(n) over n <= x by exhaustive exponent-signature search:
    c_omega depends only on the exponent multiset."""
    return max(map(multinomial, _signatures_up_to(x)))


def test_c_omega_int64_bound_by_signature_search():
    # A-priori bounds behind profile_range's int64 c_omega, u and g_sig columns
    assert _max_c_omega_up_to(10**8) == 28_828_800
    assert _max_c_omega_up_to(10**12) == 1_177_930_353_600
    assert _max_c_omega_up_to(10**17) < 1 << 60
    assert _max_c_omega_up_to(10**18) > _INT64_MAX  # the bound is not vacuous
    # g also depends only on the signature; the tables' entries (big_omega
    # <= 20) stay far below the exact path's
    sigs = _signatures_up_to(10**17)
    g = [abs(g_subset_sum(list(alphas))) for alphas in sigs]
    assert max(g) < 1 << 61
    assert max(v for v, alphas in zip(g, sigs) if sum(alphas) <= 20) < 1 << 52


def test_exact_path_raises_beyond_int64():
    # 2^16 3^9 5^4 7^3 11 13 17 < 2^63: the smallest n whose c_omega leaves
    # int64, found by the signature search
    n = 672_249_239_101_440_000
    assert c_omega(Factorization(n, tuple(trial_factorize(n)))) > _INT64_MAX
    with pytest.raises(OverflowError):
        _exact_columns(n)


def test_c_omega_examples():
    assert c_omega(Factorization(4, ((2, 2),))) == 1
    assert c_omega(Factorization(60060, tuple(trial_factorize(60060)))) == 2520
    assert c_omega(Factorization(1, ())) == 1


def test_c_omega_matches_factorial_oracle():
    for n in range(1, 3000):
        assert c_omega(factorize(n)) == c_omega_oracle(n)


def test_c_omega_permutation_invariant():
    rng = np.random.default_rng(5)
    primes = [2, 3, 5, 7, 11, 13, 17, 19]
    for _ in range(50):
        r = int(rng.integers(1, 7))
        alphas = rng.integers(1, 6, size=r)
        perm = rng.permutation(r)
        f1 = Factorization(0, tuple(zip(primes[:r], map(int, alphas))))
        f2 = Factorization(0, tuple(zip(primes[:r], map(int, alphas[perm]))))
        assert c_omega(f1) == c_omega(f2)


def test_c_omega_prime_powers_equal_one():
    for p in (2, 3, 5, 7, 11, 997):
        pk = p
        while pk <= 10**6:
            assert c_omega(factorize(pk)) == 1
            pk *= p


def test_c_omega_overflow_checked():
    # 128 exponent-1 primes would give 128! >> 2^127
    fact = Factorization(0, tuple((p, 1) for p in map(int, primes_up_to(720))))
    with pytest.raises(OverflowError):
        c_omega(fact)


def test_g_table_against_recursion_oracle():
    N = 400
    oracle = g_recursion_oracle(N)
    mine = g_table(N)
    assert mine.tolist() == oracle[1:]


def test_g_examples():
    g = g_table(10)
    assert g[0] == 1 and g[1] == -2 and g[3] == 2 and g[5] == 5    # n = 1, 2, 4, 6


def test_g_at_primes():
    g = g_table(1000)
    for p in primes_up_to(1000):
        assert g[p - 1] == -2


def test_g_closed_form():
    assert [g_squarefree_closed_form(r) for r in (0, 1, 2)] == [1, -2, 5]
    for r in range(8):
        assert g_squarefree_closed_form(r) == g_closed_form_oracle(r)
    with pytest.raises(ValueError):
        g_squarefree_closed_form(-1)
    with pytest.raises(OverflowError):
        g_squarefree_closed_form(50)


def test_g_closed_form_matches_table_on_squarefree(profile_1e4):
    p = profile_1e4
    g = p.g
    closed = {r: g_squarefree_closed_form(r) for r in range(8)}
    squarefree = np.nonzero(p.mobius != 0)[0]
    for j in map(int, squarefree):
        assert g[j] == closed[int(p.omega[j])]


def test_profile_g_only_from_one():
    p = profile_range(Segment(1, 100))
    assert "g" not in vars(p)   # built on first read
    assert p.g is not None and len(p.g) == 99
    assert np.array_equal(p.g, g_table(99))
    assert profile_range(Segment(2, 100)).g is None


def test_profile_rejects_segments_past_1e17_before_sieving(monkeypatch):
    class Sieved(Exception):
        pass

    def no_sieve(limit):
        raise Sieved

    monkeypatch.setattr(arith, "primes_up_to", no_sieve)
    with pytest.raises(OverflowError):
        profile_range(Segment(10**17 + 1, 10**17 + 2))
    with pytest.raises(Sieved):     # n = 10^17 itself is within the proven bound
        profile_range(Segment(10**17, 10**17 + 1))


def test_width_one_edges():
    p1 = profile_range(Segment(1, 2))
    assert (p1.omega[0], p1.big_omega[0], p1.mobius[0], p1.c_omega[0], p1.g[0]) \
        == (0, 0, 1, 1, 1)
    p2 = profile_range(Segment(2, 3))
    assert (p2.omega[0], p2.big_omega[0], p2.mobius[0]) == (1, 1, -1)
    assert g_table(1).tolist() == [1]
    with pytest.raises(ValueError):
        g_table(0)


def test_bfile_comparator(tmp_path, profile_1e4, capsys):
    # oeis-check reads the b-file, comment lines skipped, and compares it
    # with the kernel's column segment by segment
    path = tmp_path / "b008683.txt"
    mu = profile_1e4.mobius[:100]
    lines = ["# A008683 fixture"] + [f"{n} {int(mu[n-1])}" for n in range(1, 101)]
    path.write_text("\n".join(lines) + "\n")
    assert read_bfile(path) == [(n, int(mu[n - 1])) for n in range(1, 101)]
    argv = ["oeis-check", "--sequence", "mu", "--bfile", str(path), "--segment-size", "30"]
    assert main(argv) == 0
    # corrupt one entry
    lines[50] = "50 99"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().out == f"mu: first mismatch at index 50: file has 99, computed {int(mu[49])}\n"
