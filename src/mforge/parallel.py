"""Deterministic worker pool shared by the sweep-style operations.

Work items are mapped in submission order and merged sequentially, so results
are byte-identical regardless of the worker count.  Threads suffice here: the
heavy lifting is numpy, which releases the GIL.
"""

import os
from concurrent.futures import ThreadPoolExecutor

from .sieve import Segment


def default_threads() -> int:
    """Worker count from MFORGE_THREADS, defaulting to 1."""
    raw = os.environ.get("MFORGE_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


class WorkerPool:
    """Ordered map over a fixed number of worker threads."""

    def __init__(self, threads: int | None = None):
        self.threads = max(1, threads if threads is not None else default_threads())

    def map(self, fn, items):
        """Apply fn to each item, yielding results in input order."""
        items = list(items)
        if self.threads == 1 or len(items) <= 1:
            return [fn(it) for it in items]
        with ThreadPoolExecutor(max_workers=self.threads) as ex:
            return list(ex.map(fn, items))

    def sweep(self, lo: int, hi: int, size: int, fn):
        """Apply fn to consecutive Segments of width <= size covering [lo, hi),
        returning the results in segment order."""
        return self.map(fn, (Segment(a, min(a + size, hi)) for a in range(lo, hi, size)))
