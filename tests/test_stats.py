import math
import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mforge import arith
from mforge.arith import c_omega, profile_chunks, profile_range
from mforge.parallel import WorkerPool
from mforge.sieve import DEFAULT_SEGMENT_CAPACITY, Segment, factorize, primes_up_to
from mforge.stats import (
    DegenerateSampleError,
    _d_m_fold,
    _ks_from_counts,
    collect_counts,
    conditional_squarefree,
    d_m_coefficients,
    erdos_kac_cdf,
    excess_density,
    normal_cdf,
    omega_k_density,
    prime_exponent_distribution,
    sign_balance,
)

from oracles import (
    big_omega_oracle,
    c_omega_oracle,
    mobius_oracle,
    omega_oracle,
    sorted_sample_cdf,
    trial_factorize,
    valuation_counts_oracle,
)


X = 10**5


@pytest.fixture(scope="module")
def counts():
    return collect_counts(X)


def test_partition_by_big_omega(counts):
    # counts over [3, x] plus the n in {1, 2} conventions tile everything
    total = sum(counts.big_omega_count_from_3(k) for k in range(X.bit_length() + 1))
    assert total == X - 2
    assert int(counts.excess_hist.sum()) == X


def test_counts_match_brute_force_small():
    c = collect_counts(3000)
    bo = [big_omega_oracle(n) for n in range(1, 3001)]
    om = [omega_oracle(n) for n in range(1, 3001)]
    for k in range(13):
        assert int(c.big_omega_hist[k]) == sum(1 for v in bo if v == k)
        assert int(c.excess_hist[k]) == sum(1 for b, o in zip(bo, om) if b - o == k)


@pytest.fixture(scope="module")
def oracle_columns():
    """omega, big_omega and mobius of n = 1..5000 by trial division."""
    ns = range(1, 5001)
    return tuple(np.array([f(n) for n in ns])
                 for f in (omega_oracle, big_omega_oracle, mobius_oracle))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(x=st.integers(1, 5000), segment_size=st.sampled_from([7, 101, 4099]),
       threads=st.sampled_from([1, 2]))
def test_collect_counts_every_field_matches_oracles(oracle_columns, x, segment_size, threads):
    c = collect_counts(x, segment_size, pool=WorkerPool(threads))
    kmax = x.bit_length() + 1
    om, bo, mu = (col[:x] for col in oracle_columns)
    assert np.array_equal(c.big_omega_hist, np.bincount(bo, minlength=kmax))
    assert np.array_equal(c.excess_hist, np.bincount(bo - om, minlength=kmax))
    assert np.array_equal(c.squarefree_by_big_omega,
                          np.bincount(bo[mu != 0], minlength=kmax))
    assert c.mobius_plus == int(np.count_nonzero(mu == 1))
    assert c.mobius_minus == int(np.count_nonzero(mu == -1))


def test_omega_k_density_example(counts):
    r = omega_k_density(X, 1, counts)
    assert r.count == 9591                      # primes in [3, 1e5]
    assert r.predicted == pytest.approx(1 / math.log(X))
    assert 0.0 <= r.empirical <= 1.0
    r0 = omega_k_density(X, 0, counts)
    assert r0.count == 0                        # only n = 1 has none, below 3


def test_omega_k_density_validation(counts):
    with pytest.raises(ValueError):
        omega_k_density(2, 1)
    with pytest.raises(ValueError):
        omega_k_density(X, 40, counts)


def test_excess_density_m0(counts):
    r = excess_density(X, 0, counts)
    assert r.count == 60794                     # squarefree below 1e5
    assert r.predicted == pytest.approx(6 / math.pi**2, abs=1e-6)
    assert r.abs_error < 1e-3


def test_excess_density_large_m_zero(counts):
    assert excess_density(X, 40, counts).count == 0


def test_partition_by_excess(counts):
    assert sum(int(counts.excess_hist[m]) for m in range(len(counts.excess_hist))) == X


def test_d_m_coefficients_d0():
    dm = d_m_coefficients(10**6, 8)
    assert abs(dm.values[0] - 6 / math.pi**2) < 1e-6
    assert dm.tail_bound <= 1e-6


def test_d_m_nonnegative_and_summable():
    dm = d_m_coefficients()          # default truncation 1e6, m_max 16
    assert np.all(dm.values >= 0)
    # factors at z=1 are exactly 1, so the series sums to 1 up to truncation
    assert dm.values.sum() == pytest.approx(1.0, abs=1e-3)
    # observed shape: nonincreasing for m >= 1
    assert np.all(np.diff(dm.values[1:]) <= 0)


def test_d_m_coefficients_equal_per_prime_scalar_fold():
    # the factor rows are built for all primes at once; each entry must be
    # the same float64 the per-prime scalar recurrence gives, so the folded
    # coefficients are bit-identical
    m_max = 10
    want = np.zeros(m_max + 1)
    want[0] = 1.0
    fac = np.empty(m_max + 1)
    for p in primes_up_to(5000).tolist():
        p = float(p)
        fac[0] = 1.0 - 1.0 / (p * p)
        scale = (1.0 - 1.0 / p) / (p * p)
        for j in range(1, m_max + 1):
            fac[j] = scale
            scale /= p
        want = np.convolve(want, fac)[: m_max + 1]
    assert np.array_equal(d_m_coefficients(5000, m_max).values, want)


def test_d_m_default_table_is_the_fold():
    # the command line reads the defaults from a written-out table, which
    # must hold the fold's float64 values bit for bit
    dm = d_m_coefficients()
    assert (dm.prime_limit, dm.m_max) == (10**6, 16)
    assert np.array_equal(dm.values, _d_m_fold(10**6, 16))
    assert dm.values.dtype == np.float64
    # each call gets its own array, so a caller's edit reaches no later call
    dm.values[0] = 0.0
    assert d_m_coefficients().values[0] == _d_m_fold(10**6, 16)[0]


def test_d_m_validation():
    with pytest.raises(ValueError):
        d_m_coefficients(1, 4)


def test_sign_balance(counts):
    b = sign_balance(X, counts)
    fp, fm = b.fractions
    assert b.plus + b.minus == 60794
    assert abs(fp - 0.5) < 0.01 and abs(fm - 0.5) < 0.01
    tiny = sign_balance(2)
    assert tiny.fractions == (0.5, 0.5)         # n in {1, 2}


def test_conditional_squarefree(counts):
    r1 = conditional_squarefree(X, 1, counts)
    assert r1.conditional == 1.0                # big_omega = 1 means prime
    assert r1.conditional > r1.unconditional
    r3 = conditional_squarefree(X, 3, counts)
    assert 0.0 < r3.conditional < 1.0
    assert r3.ratio == pytest.approx(r3.conditional / r3.unconditional)
    r0 = conditional_squarefree(X, 0, counts)
    assert r0.undefined and r0.conditional is None and r0.ratio is None


def test_prime_exponent_distribution_pow2():
    x = 2**20
    rows = prime_exponent_distribution(x, 2, 3)
    assert rows[0].count == x // 2              # k = 0: odd numbers
    assert rows[0].empirical == 0.5
    assert rows[1].empirical == 0.25
    assert [r.count for r in rows] == valuation_counts_oracle(x, 2, 3)


def test_prime_exponent_distribution_p3():
    x = 10**6
    rows = prime_exponent_distribution(x, 3, 4)
    r2 = rows[2]
    assert r2.count == valuation_counts_oracle(x, 3, 4)[2]
    assert abs(r2.empirical - (2 / 3) / 9) < 1e-5
    with pytest.raises(ValueError):
        prime_exponent_distribution(10, 11, 2)


def test_erdos_kac_omega_shapes():
    cdf = erdos_kac_cdf(10**4, "omega")
    assert cdf.size == 10**4 - 2
    assert np.all(np.diff(cdf.values) >= 0)
    assert 0.0 <= cdf.ks <= 1.0
    # classical centering: mean of standardized sample is near but not at 0
    assert abs(float(cdf.values.mean())) < 0.5


def test_erdos_kac_ks_decreases():
    k4 = erdos_kac_cdf(10**4, "omega").ks
    k5 = erdos_kac_cdf(10**5, "omega").ks
    assert k5 < k4


def test_erdos_kac_log_c_omega():
    cdf = erdos_kac_cdf(10**4, "log_c_omega", pool=WorkerPool(2))
    assert cdf.size == 10**4 - 2
    assert float(cdf.values.mean()) == pytest.approx(0.0, abs=1e-12)
    assert float(cdf.values.std(ddof=1)) == pytest.approx(1.0, rel=1e-9)
    assert 0.0 <= cdf.ks <= 1.0


@cache
def _log_c_omega_sample(x: int) -> np.ndarray:
    """log c_omega(n) over [3, x]: by the factorial oracle up to 10^5; above,
    |u| of the kernel, whose entries with big_omega > 20 come from its exact
    path (``arith._exact_columns``), apart from the CDF's sentinel bins."""
    if x <= 10**5:
        c = [c_omega_oracle(n) for n in range(3, x + 1)]
    else:
        c = np.abs(profile_range(Segment(3, x + 1), {"u"}).u)
    return np.log(np.asarray(c, dtype=np.float64))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("x,segment_size", [
    (100, 7), (12345, 101), (10**5, 4099),
    # the six n <= 3 * 2^21 with big_omega > 20: three in each of two
    # segments, each in its own chunk; or at most two to a segment
    (3 * 2**21 + 1, 2**22 - 1), (3 * 2**21 + 1, 2**20 - 3)])
@pytest.mark.parametrize("statistic", ["omega", "log_c_omega"])
def test_erdos_kac_cdf_matches_sorted_sample_oracle(statistic, x, segment_size, threads):
    if statistic == "omega":
        ll = math.log(math.log(x))
        omega = profile_range(Segment(3, x + 1), {"omega"}).omega
        want, ks = sorted_sample_cdf((omega.astype(np.float64) - ll) / math.sqrt(ll),
                                     standardize=False)
    else:
        want, ks = sorted_sample_cdf(_log_c_omega_sample(x))
    cdf = erdos_kac_cdf(x, statistic, segment_size, pool=WorkerPool(threads))
    assert cdf.size == x - 2
    if statistic == "omega":
        assert np.array_equal(cdf.values, want)
    else:
        # mean and sd summed with fsum over the histogram, not pairwise over
        # the sample: the standardized values may differ in the last bits
        assert np.abs(cdf.values - want).max() < 1e-12
    assert abs(cdf.ks - ks) < 1e-12


def _omega_histogram(seg, ws):
    h = np.zeros(64, dtype=np.int64)
    for _, cols in profile_chunks(seg, {"omega"}, ws):
        h += np.bincount(cols["omega"], minlength=64)
    return h


def _c_omega_rank_histogram(seg, ws):
    values, rank = arith.c_omega_ranks()
    hist, exact = np.zeros(len(values) + 1, dtype=np.int64), []
    for offset, cols in profile_chunks(seg, {"sig"}, ws):
        at = ws.empty("rank", len(cols["sig"]), np.uint16)
        np.take(rank, cols["sig"], out=at, mode="clip")
        h = np.bincount(at, minlength=len(hist))
        hist += h
        if h[-1]:
            exact += [c_omega(factorize(seg.lo + offset + i))
                      for i in np.flatnonzero(at == len(values)).tolist()]
    return hist, exact


def test_erdos_kac_cdf_memory_flat_in_x():
    # each segment's histogram is folded in as it arrives, so the CDF peaks no
    # higher than a sweep that makes the same 98 histograms and drops them,
    # plus one running histogram (keeping all 98 adds about 40 KB for omega).
    # Both run over the same range, as the kernel's own peak grows with the
    # seed primes below sqrt(x)
    x, size = 1_600_000, 2**14

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for statistic, histogram in (("omega", _omega_histogram),
                                 ("log_c_omega", _c_omega_rank_histogram)):
        erdos_kac_cdf(10**5, statistic, size)       # one-time caches and tables
        sweep = peak(lambda: [None for _ in WorkerPool(1).sweep(3, x + 1, size, histogram)])
        got = peak(lambda: erdos_kac_cdf(x, statistic, size))
        assert got - sweep < 24 * 2**10, (statistic, got, sweep)


def _peak(run):
    run()                                       # one-time caches and tables
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_sweeps_peak_at_the_sieve_columns_and_one_chunk():
    # at a 2^20 segment, the log c_omega CDF keeps the sieve's word, extra
    # and code (5 B per entry) and collect_counts its word and extra (3 B),
    # each with one chunk's arrays and histograms beside them (about 14 and
    # 11 B per chunk entry); no column as wide as the segment is made
    size, chunk = 2**20, arith._CHUNK
    for run, sieve_bytes in ((lambda: erdos_kac_cdf(2**21, "log_c_omega", size), 5),
                             (lambda: collect_counts(2**21, size), 3)):
        assert _peak(run) <= sieve_bytes * size + 24 * chunk


def test_d_m_factor_rows_stay_under_the_prime_list():
    # the factor rows are built a block of primes at a time (a few hundred
    # KB), so the fold peaks at the prime sieve's own peak (1.6 MB at 1e6);
    # it is measured itself, as d_m_coefficients() reads a written-out table
    assert _peak(lambda: _d_m_fold(10**6, 16)) <= _peak(lambda: primes_up_to(10**6)) + 2**12


def test_erdos_kac_validation():
    with pytest.raises(ValueError):
        erdos_kac_cdf(50, "omega")
    with pytest.raises(ValueError):
        erdos_kac_cdf(10**4, "zeta")


def test_degenerate_sample():
    with pytest.raises(DegenerateSampleError):
        _ks_from_counts(np.array([3.25]), np.array([100]))


def test_normal_cdf_matches_scipy_ndtr():
    from scipy.special import ndtr

    r2 = math.sqrt(2)
    z = np.concatenate([np.linspace(-38, 9, 200_001),
                        [0.0, -0.0, 1.0, -1.0, r2, -r2, math.inf, -math.inf]])
    got = np.array([normal_cdf(v) for v in z.tolist()])
    want = ndtr(z)
    assert np.abs(got - want).max() <= 2.0**-51
    core = z >= -30
    assert (np.abs(got - want)[core] / want[core]).max() <= 1e-13
    assert normal_cdf(-0.0) == 0.5
    assert (normal_cdf(math.inf), normal_cdf(-math.inf)) == (1.0, 0.0)
    assert math.isnan(normal_cdf(math.nan))


def test_empirical_cdf_ks_matches_scipy():
    from scipy.stats import kstest

    rng = np.random.default_rng(12)
    sample = rng.normal(size=2000)
    mine = _ks_from_counts(*np.unique(sample, return_counts=True), 0.0, 1.0)
    theirs = kstest(sample, "norm").statistic
    assert mine.ks == pytest.approx(theirs, abs=1e-12)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(2, 2 * 10**4), st.sampled_from(primes_up_to(50).tolist()),
       st.integers(0, 40))
def test_prime_exponent_counts_match_valuation_count(x, p, k_max):
    # k_max up to 40 reaches powers of p past x, whose rows must read 0
    if p > x:
        with pytest.raises(ValueError):
            prime_exponent_distribution(x, p, k_max)
        return
    rows = prime_exponent_distribution(x, p, k_max)
    assert [r.k for r in rows] == list(range(k_max + 1))
    assert [r.count for r in rows] == valuation_counts_oracle(x, p, k_max)


@pytest.mark.parametrize("p", primes_up_to(50).tolist())
def test_prime_exponent_counts_around_prime_powers(p):
    # x = p^j - 1, p^j, p^j + 1: the row of k = j turns on at x = p^j
    pj = p
    while pj <= 2 * 10**4:
        for x in (pj - 1, pj, pj + 1):
            if x >= p:
                rows = prime_exponent_distribution(x, p, 40)
                assert [r.count for r in rows] == valuation_counts_oracle(x, p, 40), x
        pj *= p


@pytest.mark.parametrize("p", [2, 3, 7])
def test_prime_exponent_counts_across_segment_edge(p):
    x = DEFAULT_SEGMENT_CAPACITY + 12345
    rows = prime_exponent_distribution(x, p, 30)
    assert [r.count for r in rows] == valuation_counts_oracle(x, p, 30)


@pytest.mark.parametrize("p", [1, 4, 9, 12, 49])
def test_prime_exponent_rejects_non_primes(p):
    with pytest.raises(ValueError, match="need a prime"):
        prime_exponent_distribution(1000, p, 3)


def test_geometric_counts_closed_form_oracle():
    # the floor counts agree with the exponents of a trial-division factoring
    for x in (10**3, 10**4 + 7):
        exps = [dict(trial_factorize(n)) for n in range(1, x + 1)]
        for p in (2, 3, 5):
            for r in prime_exponent_distribution(x, p, 5):
                assert r.count == sum(e.get(p, 0) == r.k for e in exps)
