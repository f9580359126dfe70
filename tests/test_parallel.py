import random
import time

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


def test_sweep_checks_its_whole_range_before_cutting():
    calls = []
    with pytest.raises(OverflowError, match="past 10\\^17"):
        WorkerPool(1).sweep(10**17 - 5, 10**17 + 2, 4, calls.append)
    assert calls == []
    segments = WorkerPool(1).sweep(10**17 - 5, 10**17 + 1, 4, lambda s: (s.lo, s.hi))
    assert list(segments) == [(10**17 - 5, 10**17 - 1), (10**17 - 1, 10**17 + 1)]
