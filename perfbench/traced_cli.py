"""Run one mforge CLI command with timing spans around each layer.

    python3 perfbench/traced_cli.py SPANS.json <mforge arguments...>

Spans are installed from outside the program: every public function the
benchmark reports on is replaced by a timing wrapper, in the module that
defines it and in every mforge module that imported it by name, so nested
calls (g_table -> profile_range) and calls through importers
(summatory.profile_range) are both caught.  Layers missing from the program
are skipped and report zero.  On exit the spans are written to SPANS.json as
``{"spans": {name: [calls, seconds, child_seconds]}, "counters": {...}}``.
A span's child seconds are the time of spans nested in it on the same
thread; work a pool runs on other threads is covered by ``parallel.map``.
"""

import functools
import json
import sys
import threading
from time import perf_counter

import mforge
from mforge import arith, cli, dirichlet, parallel, randmodel, sieve, stats, summatory, tracker

MODULES = (mforge, arith, cli, dirichlet, parallel, randmodel, sieve, stats, summatory, tracker)


class Recorder:
    """Per-name span totals and named counters, safe across worker threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans = {}
        self.counters = {}

    def add(self, key: str, value: float):
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                with self._lock:
                    rec = self.spans.setdefault(name, [0, 0.0, 0.0])
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += child
            if on_result is not None:
                on_result(result)
            return result
        return traced


def _rebind(original, replacement):
    for mod in MODULES:
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, replacement)


def install(rec: Recorder):
    """Replace each traced function by its timing wrapper."""

    def function(module, attr, name, on_result=None):
        fn = getattr(module, attr, None)
        if fn is not None:
            _rebind(fn, rec.wrap(name, fn, on_result))

    def method(cls_name, module, attr, name):
        cls = getattr(module, cls_name, None)
        if cls is not None and hasattr(cls, attr):
            setattr(cls, attr, rec.wrap(name, getattr(cls, attr)))

    def profiled(prof):
        cols = (getattr(prof, c, None) for c in
                ("omega", "big_omega", "mobius", "liouville", "c_omega", "g"))
        rec.add("profile_ints", prof.segment.width)
        rec.add("profile_out_bytes", sum(a.nbytes for a in cols if a is not None))

    function(arith, "profile_range", "arith.profile_range", profiled)
    function(arith, "g_table", "arith.g_table")
    function(sieve, "primes_up_to", "sieve.primes_up_to")
    method("FactorSieve", sieve, "__init__", "sieve.FactorSieve")
    function(summatory, "build_series", "summatory.build_series")
    function(summatory, "_eval_point_union", "summatory.eval_points")
    method("SummatorySeries", summatory, "G_at", "summatory.G_at")
    for attr in ("erdos_kac_cdf", "empirical_cdf", "collect_counts",
                 "prime_exponent_distribution", "d_m_coefficients"):
        function(stats, attr, f"stats.{attr}")
    function(randmodel, "simulate", "randmodel.simulate")
    function(randmodel, "lil_statistic", "randmodel.lil_statistic")
    for attr in ("verify_identity", "convolve", "dirichlet_inverse"):
        function(dirichlet, attr, f"dirichlet.{attr}")
    function(tracker, "build_trace", "tracker.build_trace")
    method("SummatoryRows", summatory, "to_csv", "cli.output")
    function(randmodel, "write_runs_csv", "cli.output")
    function(tracker, "write_trace_csv", "cli.output")
    function(cli, "_emit_rows", "cli.output")

    pool_map = parallel.WorkerPool.map

    def timed_map(self, fn, items):
        # busy = time inside the mapped function, summed over items;
        # capacity = workers that could run x wall time of the map
        items = list(items)
        busy = []

        def timed(item):
            t = perf_counter()
            try:
                return fn(item)
            finally:
                busy.append(perf_counter() - t)

        t0 = perf_counter()
        result = pool_map(self, timed, items)
        wall = perf_counter() - t0
        rec.add("pool_busy_s", sum(busy))
        rec.add("pool_capacity_s", max(1, min(self.threads, len(items))) * wall)
        return result

    parallel.WorkerPool.map = rec.wrap("parallel.map", timed_map)


def main(argv) -> int:
    out, args = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    try:
        code = cli.main(args)
    finally:
        with open(out, "w") as fh:
            json.dump({"spans": rec.spans, "counters": rec.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
