import random
import threading
import time
import tracemalloc

import numpy as np
import pytest

from mforge.parallel import WorkerPool


def test_one_thread_pulls_one_item_per_result():
    pulled = []

    def items():
        for i in range(10):
            pulled.append(i)
            yield i

    results = WorkerPool(1).map(lambda i: i * i, items())
    assert pulled == []                         # nothing runs before a result is taken
    assert [next(results) for _ in range(3)] == [0, 1, 4]
    assert pulled == [0, 1, 2]


@pytest.mark.parametrize("threads", [2, 3])
def test_threads_yield_jittered_items_in_input_order(threads):
    rng = random.Random(threads)
    delays = [rng.uniform(0, 0.004) for _ in range(50)]

    def slow(i):
        time.sleep(delays[i])
        return i

    assert list(WorkerPool(threads).map(slow, range(50))) == list(range(50))


@pytest.mark.parametrize("threads", [2, 3])
def test_threads_pull_at_most_a_window_ahead(threads):
    # a stream of any length holds at most 2 x threads items in flight
    pulled = []

    def items():
        for i in range(60):
            pulled.append(i)
            yield i

    taken = 0
    for result in WorkerPool(threads).map(lambda i: i * i, items()):
        assert result == taken * taken
        taken += 1
        assert len(pulled) - taken < 2 * threads, (len(pulled), taken)
    assert taken == len(pulled) == 60


def test_threads_cancel_queued_items_when_the_stream_stops():
    started = []

    def slow(i):
        started.append(i)
        time.sleep(0.01)
        return i

    results = WorkerPool(2).map(slow, range(100))
    assert next(results) == 0
    results.close()
    assert len(started) <= 4


def test_sweep_checks_its_whole_range_before_cutting():
    calls = []
    with pytest.raises(OverflowError, match="past 10\\^17"):
        WorkerPool(1).sweep(10**17 - 5, 10**17 + 2, 4, lambda s, ws: calls.append(s))
    assert calls == []
    segments = WorkerPool(1).sweep(10**17 - 5, 10**17 + 1, 4, lambda s, ws: (s.lo, s.hi))
    assert list(segments) == [(10**17 - 5, 10**17 - 1), (10**17 - 1, 10**17 + 1)]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_sweep_gives_each_running_call_its_own_workspace(threads):
    # no two calls that run at once hold one workspace, and there are at most
    # as many workspaces as workers
    lock = threading.Lock()
    running, seen = set(), set()

    def fn(seg, ws):
        with lock:
            assert id(ws) not in running
            running.add(id(ws))
            seen.add(id(ws))
        time.sleep(0.002)
        with lock:
            running.discard(id(ws))
        return seg.lo

    assert list(WorkerPool(threads).sweep(1, 41, 2, fn)) == list(range(1, 41, 2))
    assert 1 <= len(seen) <= threads


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_workspaces_go_with_the_stream(threads):
    # a workspace belongs to one sweep: once its stream ends, the traced
    # memory is back at its level before the sweep
    def fn(seg, ws):
        ws.zeros("col", 2**18, np.uint8)
        return seg.lo

    list(WorkerPool(threads).sweep(1, 9, 1, fn))       # one-time allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert list(WorkerPool(threads).sweep(1, 9, 1, fn)) == list(range(1, 9))
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before >= 2**18
    assert after - before < 2**14, (before, after)
