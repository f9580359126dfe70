import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mforge import randmodel
from mforge.parallel import WorkerPool
from mforge.randmodel import (
    GENERATOR_NAME,
    LIL_CONSTANT,
    LIL_MIN_X,
    P_MINUS,
    P_NONZERO,
    lil_statistic,
    simulate,
    simulate_many,
)
from mforge.summatory import CheckpointPolicy

from oracles import simulate_oracle


def test_constants():
    assert P_MINUS == pytest.approx(3 / math.pi**2)
    assert P_NONZERO == pytest.approx(6 / math.pi**2)
    assert LIL_CONSTANT == pytest.approx(1.1026578, abs=5e-8)


def test_single_draw_support():
    run = simulate(1, 16, CheckpointPolicy(kind="all"))
    assert int(run.mbar[0]) in (-1, 0, 1)
    # increments stay in {-1, 0, +1}
    assert set(np.diff(run.mbar).tolist()) <= {-1, 0, 1}


def test_determinism_fixed_seed():
    a = simulate(42, 10**5)
    b = simulate(42, 10**5)
    assert np.array_equal(a.mbar, b.mbar)
    assert np.array_equal(a.lil_running_max, b.lil_running_max)
    assert a.lil_sup == b.lil_sup
    assert a.generator == GENERATOR_NAME


def test_block_size_does_not_change_trajectory(monkeypatch):
    monkeypatch.setattr(randmodel, "_BLOCK", 257)
    a = simulate(5, 10**4)
    monkeypatch.setattr(randmodel, "_BLOCK", 1 << 20)
    b = simulate(5, 10**4)
    assert np.array_equal(a.mbar, b.mbar)
    assert a.lil_sup == pytest.approx(b.lil_sup, abs=0)


@st.composite
def _model_cases(draw):
    block = draw(st.sampled_from([1, 257, 1 << 20]))
    sub = draw(st.sampled_from([1, 3, 64]))
    # a 1-wide block costs one numpy round per draw, so keep those runs short
    x_max = draw(st.integers(16, 300) | st.integers(300, 2000 if block == 1 else 50_000))
    kind = draw(st.sampled_from(["geometric", "explicit"] + (["all"] if x_max <= 5000 else [])))
    if kind == "explicit":
        points = tuple(draw(st.lists(st.integers(1, x_max), min_size=1, max_size=8)))
        policy = CheckpointPolicy(kind="explicit", points=points)
    else:
        policy = CheckpointPolicy(kind=kind)
    seed = draw(st.sampled_from([0, 1, 2**64 + 4]) | st.integers(0, 2**70))
    return (seed, draw(st.integers(1, 5)), x_max, policy, block, sub,
            draw(st.sampled_from([1, 2, 8])))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_model_cases())
def test_simulate_many_matches_unblocked_oracle(case):
    seed, trials, x_max, policy, block, sub, threads = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(randmodel, "_BLOCK", block)
        mp.setattr(randmodel, "_SUB", sub)
        runs = simulate_many(seed, trials, x_max, policy, pool=WorkerPool(threads))
    cps = policy.checkpoints(x_max)
    assert len(runs) == trials
    for i, run in enumerate(runs):
        mbar, lil, sup = simulate_oracle(seed + i, x_max, cps)
        assert run.seed == seed + i and np.array_equal(run.checkpoints, cps)
        assert np.array_equal(run.mbar, mbar)
        assert np.array_equal(run.lil_running_max, lil)
        assert run.lil_sup == sup


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("points, x_max", [
    ((514, 515), 1000),    # both sides of the edge between blocks 2 and 3
    ((771,), 1200),        # the last entry of block 3
    ((100, 900), 1500),    # blocks 2 and 3 hold no checkpoint
])
def test_simulate_many_exact_at_block_edges(points, x_max, threads, monkeypatch):
    # the running sup is a max of the same float64 products as the oracle's,
    # so it must match exactly, not to a tolerance
    monkeypatch.setattr(randmodel, "_BLOCK", 257)
    policy = CheckpointPolicy(kind="explicit", points=points)
    runs = simulate_many(11, 3, x_max, policy, pool=WorkerPool(threads))
    cps = policy.checkpoints(x_max)
    for i, run in enumerate(runs):
        mbar, lil, sup = simulate_oracle(11 + i, x_max, cps)
        assert np.array_equal(run.mbar, mbar)
        assert np.array_equal(run.lil_running_max, lil)
        assert run.lil_sup == sup


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("seed", [0, 11, 2**64 + 4])
@pytest.mark.parametrize("sub", [2, 7, 64])
def test_simulate_exact_at_sub_block_edges(sub, seed, threads, monkeypatch):
    # ten sub-blocks and three draws per block, so every block ends in a
    # short sub-block and the grid restarts at each block's first draw
    block = 10 * sub + 3
    monkeypatch.setattr(randmodel, "_SUB", sub)
    monkeypatch.setattr(randmodel, "_BLOCK", block)
    lo = block + 1                                   # the second block's first draw
    points = (LIL_MIN_X - 1, LIL_MIN_X,              # around the cutoff of the statistic
              lo + 2 * sub, lo + 3 * sub - 1,        # first and last entry of a sub-block
              block, lo)                             # both sides of a block edge
    x_max = 3 * block + sub // 2 + 1                 # ends inside a short sub-block
    policy = CheckpointPolicy(kind="explicit", points=points)
    runs = simulate_many(seed, 3, x_max, policy, pool=WorkerPool(threads))
    cps = policy.checkpoints(x_max)
    for i, run in enumerate(runs):
        mbar, lil, sup = simulate_oracle(seed + i, x_max, cps)
        assert np.array_equal(run.mbar, mbar)
        assert np.array_equal(run.lil_running_max, lil)
        assert run.lil_sup == sup


@pytest.mark.parametrize("seed", range(5))
def test_first_block_walks_few_sub_blocks(seed, monkeypatch):
    # the sup carried into a trial's first block is 0, so a threshold of the
    # carried sup alone walks all 1024 of its sub-blocks; the statistic at
    # the draw before each sub-block skips most of them, and the run stays
    # equal to the oracle's
    walked, carried_only = [], []

    def counting(before, smax, last, held, carried):
        rows = walked_rows(before, smax, last, held, carried)
        walked.append(len(rows))
        bound = (np.abs(before) + randmodel._SUB) * smax
        carried_only.append(np.count_nonzero((bound > carried) | held))
        return rows

    walked_rows = randmodel._walked
    monkeypatch.setattr(randmodel, "_walked", counting)
    x_max = 10**6
    run = simulate(seed, x_max)
    assert carried_only[0] == randmodel._BLOCK // randmodel._SUB == 1024
    assert walked[0] < carried_only[0] // 3
    assert all(w <= c for w, c in zip(walked, carried_only))
    mbar, lil, sup = simulate_oracle(seed, x_max, run.checkpoints)
    assert np.array_equal(run.mbar, mbar)
    assert np.array_equal(run.lil_running_max, lil)
    assert run.lil_sup == sup


def test_simulate_peak_memory_flat_in_x_max(monkeypatch):
    # no per-block array outlives its block, so the traced peak is set by
    # the block width, not by x_max
    monkeypatch.setattr(randmodel, "_BLOCK", 1 << 12)
    simulate(1, 1 << 12)                     # one-time allocations

    def peak(x_max):
        tracemalloc.start()
        try:
            simulate(1, x_max)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(1 << 18) < 1.5 * peak(1 << 16)


def test_worker_count_does_not_change_runs():
    pol = CheckpointPolicy(kind="geometric", ratio=2.0)
    serial = simulate_many(9, 6, 10**4, pol, pool=WorkerPool(1))
    threaded = simulate_many(9, 6, 10**4, pol, pool=WorkerPool(8))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.mbar, b.mbar)
        assert a.lil_sup == b.lil_sup


def test_running_max_is_monotone_and_matches_sup():
    run = simulate(3, 10**5)
    live = run.checkpoints >= 16
    assert np.all(np.diff(run.lil_running_max[live]) >= 0)
    assert run.lil_sup == pytest.approx(float(run.lil_running_max[-1]))


def test_lil_statistic_aggregate():
    runs = simulate_many(17, 10, 10**4)
    s = lil_statistic(runs)
    assert s.per_run.shape == (10,)
    assert s.aggregate_sup == pytest.approx(float(s.per_run.max()))
    assert s.aggregate_mean == pytest.approx(float(s.per_run.mean()))
    assert s.reference == pytest.approx(LIL_CONSTANT)
    with pytest.raises(ValueError):
        lil_statistic([])


def test_nonzero_frequency():
    # empirical P[draw != 0] within 0.002 of 6/pi^2 over 1e6 draws
    run = simulate(123, 10**6, CheckpointPolicy(kind="all"))
    steps = np.diff(run.mbar, prepend=np.int64(0))
    frac = np.count_nonzero(steps) / 10**6
    assert abs(frac - P_NONZERO) < 0.002


def test_mean_and_variance_batch():
    trials = 64
    x = 10**5
    runs = simulate_many(1000, trials, x)
    finals = np.array([r.mbar[-1] for r in runs], dtype=np.float64)
    target_var = P_NONZERO * x
    # loose 3-sigma style bounds for a small pinned batch
    assert abs(finals.mean()) < 4 * math.sqrt(target_var / trials)
    assert 0.6 < finals.var(ddof=1) / target_var < 1.5


def test_x_max_guard():
    with pytest.raises(ValueError):
        simulate(1, 15)
    with pytest.raises(ValueError):
        simulate_many(1, 0, 100)


def test_csv_output(tmp_path):
    from mforge.cli import main

    out = tmp_path / "runs.csv"
    assert main(["simulate", "--seed", "2", "--trials", "2", "--x-max", "100",
                 "--checkpoints", "explicit:4,16,100", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,x,Mbar,lil_stat"
    assert len(lines) == 1 + 2 * 3
    # x = 4 row has an empty lil column (statistic undefined below 16)
    assert lines[1].startswith("0,4,") and lines[1].endswith(",")
    assert not lines[2].endswith(",")
