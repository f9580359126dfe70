"""Deterministic worker pool: the one sweep engine of every scanning command.

Results are yielded as a stream in submission order (on one thread, each
result taken pulls one item) and merged sequentially, so output is
byte-identical regardless of the worker count.  Threads suffice here: the
heavy lifting is numpy, which releases the GIL.
"""

import os
from collections import deque

import numpy as np

from .sieve import Segment


def default_threads() -> int:
    """Worker count from MFORGE_THREADS, defaulting to 1."""
    raw = os.environ.get("MFORGE_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


class Workspace:
    """Named scratch arrays that one worker reuses across the segments of a
    sweep; each grows to the largest length asked of it and is never shrunk."""

    def __init__(self):
        self._arrays = {}

    def empty(self, name: str, n: int, dtype) -> np.ndarray:
        """The first n entries of array ``name``, holding whatever the last user left."""
        a = self._arrays.get(name)
        if a is None or len(a) < n or a.dtype != dtype:
            a = self._arrays[name] = np.empty(n, dtype=dtype)
        return a[:n]

    def zeros(self, name: str, n: int, dtype) -> np.ndarray:
        a = self.empty(name, n, dtype)
        a.fill(0)
        return a


class WorkerPool:
    """Ordered map over a fixed number of worker threads."""

    def __init__(self, threads: int | None = None):
        self.threads = max(1, threads if threads is not None else default_threads())

    def map(self, fn, items):
        """Apply fn to each item, yielding results in input order.

        On several threads at most 2 x threads items are in flight: one is
        pulled and submitted, and once that many are waiting the oldest
        result is yielded first, so memory stays bounded however many items
        come.  Items still queued when the stream stops are cancelled.
        """
        if self.threads == 1:
            yield from map(fn, items)
            return
        from concurrent.futures import ThreadPoolExecutor   # not loaded by one-thread runs
        ex = ThreadPoolExecutor(max_workers=self.threads)
        window = deque()
        try:
            for item in items:
                window.append(ex.submit(fn, item))
                if len(window) == 2 * self.threads:
                    yield window.popleft().result()
            while window:
                yield window.popleft().result()
        finally:
            ex.shutdown(cancel_futures=True)

    def sweep(self, lo: int, hi: int, size: int, fn):
        """Apply ``fn(segment, workspace)`` to consecutive Segments of width
        <= size covering [lo, hi), yielding the results in segment order;
        [lo, hi) is checked whole first.

        No two running calls share a ``Workspace``, so there are at most as
        many as threads; they belong to this sweep and go when its stream
        ends.  A result must not be a view of its workspace, which the
        worker's next segment overwrites.
        """
        Segment(lo, hi)
        free = []

        def call(seg):
            ws = free.pop() if free else Workspace()
            try:
                return fn(seg, ws)
            finally:
                free.append(ws)
        return self.map(call, (Segment(a, min(a + size, hi)) for a in range(lo, hi, size)))
