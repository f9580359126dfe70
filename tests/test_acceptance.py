"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; the suite is the
exit contract of the package.
"""

import math
import resource
import time

import numpy as np
import pytest

from mforge.arith import g_squarefree_closed_form, g_table, profile_range
from mforge.dirichlet import IDENTITY_NAMES, verify_identity
from mforge.parallel import WorkerPool
from mforge.randmodel import LIL_CONSTANT, P_NONZERO, lil_statistic, simulate_many
from mforge.sieve import Segment
from mforge.stats import erdos_kac_cdf, prime_exponent_distribution
from mforge.summatory import (
    CheckpointPolicy,
    build_series,
    g_via_double_sum,
    mertens_via_G_over_primes,
    mertens_via_g_pi,
)
from mforge.cli import main
from mforge.tracker import REFERENCE_LINES, build_trace

from oracles import (
    MERTENS_AT_POW10,
    g_recursion_oracle,
    mobius_block_oracle,
    recompute_trace_row,
    valuation_counts_oracle,
)

POOL = WorkerPool(4)


def report(num, ok, text):
    print(f"\n[criterion {str(num):>2}] {'PASS' if ok else 'FAIL'}: {text}")
    return ok


def test_criterion_01_identity_suite_exact():
    t0 = time.time()
    prof5 = profile_range(Segment(1, 10**5 + 1))
    for name in IDENTITY_NAMES:
        rep = verify_identity(name, 10**5, profile=prof5)
        assert rep.passed, f"identity ({name}) failed at N=1e5: {rep}"
    del prof5
    prof7 = profile_range(Segment(1, 10**7 + 1))
    for name in ("a", "b"):
        rep = verify_identity(name, 10**7, profile=prof7)
        assert rep.passed, f"identity ({name}) failed at N=1e7: {rep}"
    elapsed = time.time() - t0
    assert report(1, elapsed < 60.0,
                  f"identities a-f exact at 1e5, a+b at 1e7, zero tolerance "
                  f"({elapsed:.1f}s < 60s)")


def test_criterion_02_mertens_identities_exact():
    t0 = time.time()
    # exhaustive to 1e4 against an independent product-tracking Mobius sieve
    N = 10**4
    mu = mobius_block_oracle(N)
    m_direct = np.concatenate([[0], np.cumsum(mu[1:])])
    g = g_table(N)
    series4 = build_series(N, CheckpointPolicy(kind="all"))
    assert np.array_equal(series4.M, m_direct[1:])
    for x in range(1, N + 1):
        expect = int(m_direct[x])
        assert mertens_via_g_pi(x, g) == expect, f"g*pi identity broke at x={x}"
        assert mertens_via_G_over_primes(x, series4) == expect, \
            f"prime-grouped identity broke at x={x}"
    # spot checks against published Mertens values
    spots = (10**5, 10**6, 10**7)
    series7 = build_series(10**7, CheckpointPolicy(kind="explicit", points=spots))
    g7 = g_table(10**7)
    for x in spots:
        expect = MERTENS_AT_POW10[x]
        assert mertens_via_g_pi(x, g7) == expect
        assert mertens_via_G_over_primes(x, series7) == expect
    elapsed = time.time() - t0
    assert report(2, elapsed < 120.0,
                  f"both Mertens identities equal direct M(x) for all x<=1e4 "
                  f"and x in {{1e5,1e6,1e7}} ({elapsed:.1f}s < 120s)")


def test_criterion_03_double_sum_identity():
    t0 = time.time()
    prof = profile_range(Segment(1, 2001))
    g = g_recursion_oracle(2000)
    running = 0
    for x in range(1, 2001):
        running += g[x]
        assert g_via_double_sum(x, prof) == running, f"double sum broke at x={x}"
    elapsed = time.time() - t0
    assert report(3, elapsed < 30.0,
                  f"double-sum identity exact for all x<=2000 ({elapsed:.1f}s < 30s)")


def test_criterion_04_squarefree_closed_form():
    t0 = time.time()
    prof = profile_range(Segment(1, 10**5 + 1))
    closed = {r: g_squarefree_closed_form(r) for r in range(8)}
    squarefree = np.nonzero(prof.mobius != 0)[0]
    gv = prof.g[squarefree]
    want = np.array([closed[int(r)] for r in prof.omega[squarefree]], dtype=np.int64)
    assert np.array_equal(gv, want), "closed form mismatch on a squarefree n"
    elapsed = time.time() - t0
    assert report(4, elapsed < 10.0,
                  f"closed form matches g on every squarefree n<=1e5 "
                  f"({elapsed:.1f}s < 10s)")


def test_criterion_05_squarefree_density_window():
    t0 = time.time()
    prof = profile_range(Segment(1, 10**6 + 1))
    qsq = np.cumsum(prof.mobius != 0, dtype=np.int64)
    xs = np.arange(1, 10**6 + 1, dtype=np.float64)
    dev = np.abs(qsq - 6.0 * xs / math.pi**2)
    window = slice(9, 10**6)               # 10 <= x <= 1e6
    ok = bool(np.all(dev[window] <= np.sqrt(xs[window])))
    assert ok, "some x in [10, 1e6] violates |Qsq - 6x/pi^2| <= sqrt(x)"
    elapsed = time.time() - t0
    assert report(5, elapsed < 30.0,
                  f"|Qsq(x) - 6x/pi^2| <= sqrt(x) for all 10<=x<=1e6, "
                  f"worst ratio {float((dev[window]/np.sqrt(xs[window])).max()):.3f} "
                  f"({elapsed:.1f}s < 30s)")


def test_criterion_06_geometric_exponent_law():
    x = 10**6
    for p in (2, 3, 5):
        rows = prime_exponent_distribution(x, p, 6)
        valuations = valuation_counts_oracle(x, p, 6)
        for r in rows:
            closed = x // p**r.k - x // p ** (r.k + 1)
            assert r.count == closed == valuations[r.k], f"count mismatch at p={p}, k={r.k}"
            assert abs(r.empirical - r.predicted) <= 2 * p / x, \
                f"density off at p={p}, k={r.k}"
    assert report(6, True,
                  "exact exponent counts equal floor formula; within 2p/x of "
                  "(1-1/p)p^-k for p in {2,3,5}, k<=6, x=1e6")


def test_criterion_07_random_model_statistics():
    t0 = time.time()
    trials, x, seed = 400, 10**6, 7
    runs = simulate_many(seed, trials, x, pool=POOL)
    finals = np.array([r.mbar[-1] for r in runs], dtype=np.float64)
    target_var = P_NONZERO * x
    ratio = finals.var(ddof=1) / target_var
    mean = finals.mean()
    se3 = 3.0 * math.sqrt(target_var / trials)
    lil = lil_statistic(runs)
    elapsed = time.time() - t0
    print(f"\n    lil reference 2*sqrt(3)/pi = {LIL_CONSTANT:.7f} "
          f"(observed aggregate sup {lil.aggregate_sup:.4f}, not asserted)")
    assert abs(ratio - 1.0) <= 0.10, f"variance ratio {ratio:.4f} outside 10%"
    assert abs(mean) <= se3, f"mean {mean:.1f} outside 3 standard errors ({se3:.1f})"
    assert report(7, elapsed < 60.0,
                  f"{trials} trials seed={seed}: var ratio {ratio:.4f} within 10%, "
                  f"mean {mean:.1f} within 3se={se3:.1f} ({elapsed:.1f}s < 60s)")


def test_criterion_08_erdos_kac_normality():
    ks = {}
    for x in (10**4, 10**5, 10**6, 10**7):
        ks[x] = erdos_kac_cdf(x, "omega", pool=POOL).ks
    decreasing = ks[10**4] > ks[10**5] > ks[10**6] > ks[10**7]
    log_cdf = erdos_kac_cdf(10**6, "log_c_omega", pool=POOL)
    print(f"\n    log-multinomial CDF at 1e6 emitted for inspection: "
          f"KS={log_cdf.ks:.4f} over {log_cdf.size} points (no threshold)")
    report("8a", decreasing,
           f"KS decreases {ks[10**4]:.4f} > {ks[10**5]:.4f} > {ks[10**6]:.4f} "
           f"> {ks[10**7]:.4f} from 1e4 to 1e7")
    report("8b", ks[10**7] < 0.15,
           f"KS(1e7) = {ks[10**7]:.4f} against the stated < 0.15 threshold")
    assert decreasing, f"KS chain not decreasing: {ks}"
    # The omega sample is a lattice: its largest atom (mass ~0.364 at 1e7)
    # bounds any sup distance to a continuous CDF below by half the atom,
    # ~0.182.  The 0.15 threshold is therefore unattainable as stated; this
    # assertion is kept faithful to the criterion and is expected to fail.
    assert ks[10**7] < 0.15, (
        f"KS(1e7) = {ks[10**7]:.4f} >= 0.15: unattainable as stated; the "
        f"largest atom of the omega lattice forces sup-distance >= "
        f"max_atom/2 ~ 0.182 regardless of standardization")


def test_criterion_09_ratio_traces_and_references(tmp_path):
    series = build_series(10**6, CheckpointPolicy())
    trace = build_trace(series)
    worst = 0.0
    for i in range(len(trace.x)):
        x = int(trace.x[i])
        j = int(np.searchsorted(series.checkpoints, x))
        slow = recompute_trace_row(x, int(series.M[j]), int(series.G[j]))
        for name in ("q", "gonek", "r1", "r2", "rG1", "rG2", "qhat_pred"):
            fast = float(getattr(trace, name)[i])
            ref = slow[name]
            rel = abs(fast - ref) / max(abs(ref), 1e-300)
            worst = max(worst, rel)
            assert rel <= 1e-12, f"{name} at x={x}: rel err {rel:.2e}"
        if trace.twice_g_defined[i]:
            ref = slow["twice_g"]
            rel = abs(float(trace.twice_g[i]) - ref) / max(abs(ref), 1e-300)
            worst = max(worst, rel)
            assert rel <= 1e-12
    series_csv, trace_csv = tmp_path / "series.csv", tmp_path / "trace.csv"
    assert main(["summatory", "--limit", str(10**6), "--out", str(series_csv)]) == 0
    assert main(["trace", "--in", str(series_csv), "--out", str(trace_csv)]) == 0
    head = trace_csv.read_text()
    for key, val in REFERENCE_LINES.items():
        assert f"{key} = {val}" in head, f"reference line {key} missing"
    assert report(9, True,
                  f"ratio arithmetic re-verified to 1e-12 (worst {worst:.2e}); "
                  f"limits replaced by reference lines "
                  f"{sorted(REFERENCE_LINES.values())}")


def test_criterion_10_performance_1e8():
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # MB
    t0 = time.time()
    series = build_series(10**8, CheckpointPolicy(), pool=WorkerPool(2))
    elapsed = time.time() - t0
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert elapsed < 600.0, f"1e8 build took {elapsed:.0f}s"
    total = int(series.checkpoints.sum())
    assert len(series.eval_points) < 2 * math.isqrt(total) + 1, "rows kept at too many eval points"
    grew = rss1 - rss0
    assert grew < 2500.0, f"peak RSS grew {grew:.0f} MB; not bounded"
    i = int(np.searchsorted(series.checkpoints, 10**8))
    assert int(series.M[i]) == 1928          # published Mertens value
    assert int(series.pi[i]) == 5761455      # published prime count
    assert report(10, True,
                  f"series to 1e8 in {elapsed:.0f}s (<600s), rows at "
                  f"{len(series.eval_points)} eval points, "
                  f"peak RSS +{grew:.0f} MB during build (process peak {rss1:.0f} MB), "
                  f"M(1e8)=1928 and pi(1e8)=5761455 verified")


def test_criterion_11_determinism_across_workers(tmp_path):
    from mforge.cli import main

    jobs = [
        (["summatory", "--limit", "200000"], "summatory"),
        (["simulate", "--seed", "7", "--trials", "6", "--x-max", "50000"], "simulate"),
        (["stats", "--x", "100000", "--report", "cdf", "--statistic", "log_c_omega"],
         "stats-cdf"),
        (["verify", "--identity", "a", "--limit", "50000"], "verify"),
    ]
    for args, tag in jobs:
        outs = []
        for threads in (1, 2, 8):
            path = tmp_path / f"{tag}-{threads}.out"
            code = main(args + ["--threads", str(threads), "--out", str(path)]
                        if tag != "verify"
                        else args + ["--threads", str(threads), "--out", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1] == outs[2], f"{tag} output differs across workers"
    assert report(11, True,
                  "byte-identical CSV output across 1, 2 and 8 workers for "
                  "summatory, simulate, stats and verify")
