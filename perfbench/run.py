"""mforge benchmark: run one workload's CLI commands, check them, report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads and metric names are declared in BENCHMARK.json at the
checkout root.  One client runs the workload's commands one after another,
each in a fresh interpreter (``python -m mforge.cli`` on the checkout's own
``src/``), a closed loop.  Rounds repeat while the measured time allows
another one, with at least ``MIN_ROUNDS`` rounds.  CPU time and peak RSS
come from ``os.wait4`` per child.  Every output is checked by ``checks.py``
in its own process after the round, outside the timed region, so the
checker's memory never shows in a child's peak RSS.

With ``--trace 0`` the run times ``mforge --help`` several times before
and after its rounds (set-up) and reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced rounds with rounds run under
``traced_cli.py`` and reports the per-layer metrics; the traced-minus-
untraced wall time is the tracing overhead.  ``--workload all`` runs each workload in turn.

Human-readable lines (median, quartiles and sample count per metric) go
first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is the median of this many ``mforge --help`` runs of about 0.7 s,
#: half before the rounds and half after, since start-up time drifts with
#: the host's load over tens of seconds.
SETUP_REPEATS = 6
#: A single round's wall time varies by about 10% on a shared two-core box;
#: the median of two or more keeps the run-to-run spread under the bounds.
MIN_ROUNDS = 2
#: A run must finish within 180 s; commands still running by then are killed.
RUN_BUDGET_S = 170.0


class Client:
    """Runs mforge commands as children with a pinned, clean environment."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items()
               if k not in ("MFORGE_THREADS", "PYTHONPATH", "PYTHONSTARTUP")}
        env.update(PYTHONPATH=str(SRC), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", TMPDIR=str(work))
        self.env = env

    def run(self, argv: list, stdout_name: str | None = None) -> dict:
        """Run one child; returns wall, cpu (user+sys) and rss_mb, and rc."""
        out = open(self.work / stdout_name, "w") if stdout_name else subprocess.DEVNULL
        err = open(self.work / "stderr.txt", "a")
        try:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            wall = time.perf_counter() - t0
        finally:
            err.close()
            if stdout_name:
                out.close()
        return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0, "rc": proc.returncode}


def check(client: Client, commands: list) -> dict:
    """Run the checker over one round's outputs; name -> reason or None."""
    spec = {"dir": str(client.work),
            "commands": [{"name": c.name, "kind": c.kind, "out": c.out, "params": c.params}
                         for c in commands]}
    (client.work / "check.json").write_text(json.dumps(spec))
    res = client.run([str(HERE / "checks.py"), "check.json"], "check-result.json")
    try:
        return json.loads((client.work / "check-result.json").read_text())
    except (OSError, ValueError):
        return {c.name: f"checker exited with {res['rc']}" for c in commands}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, commands, runs, reasons):
        for cmd, r in zip(commands, runs):
            self.attempted += 1
            why = f"exit code {r['rc']}" if r["rc"] != 0 else reasons.get(cmd.name)
            if why:
                self.failures.append(f"{cmd.name}: {why}")


def run_round(client, commands, traced, tally, spans_out=None):
    """One closed-loop pass over the commands, then the output checks."""
    runs = []
    for i, cmd in enumerate(commands):
        if traced:
            spans = f"spans-{i}.json"
            argv = [str(HERE / "traced_cli.py"), spans, *cmd.argv]
        else:
            argv = ["-m", "mforge.cli", *cmd.argv]
        runs.append(client.run(argv))
        if traced and spans_out is not None:
            try:
                spans_out.append(json.loads((client.work / spans).read_text()))
            except (OSError, ValueError):
                pass
    tally.record(commands, runs, check(client, commands))
    return {"wall": sum(r["wall"] for r in runs), "cpu": sum(r["cpu"] for r in runs),
            "rss_mb": max(r["rss_mb"] for r in runs)}


def setup_times(client, tally, repeats) -> list:
    """Fresh interpreter to parsed CLI: ``mforge --help``."""
    cmds = [workloads.Command(f"help-{i}", "help", ["--help"], f"help-{i}.txt")
            for i in range(repeats)]
    runs = [client.run(["-m", "mforge.cli", "--help"], c.out) for c in cmds]
    tally.record(cmds, runs, check(client, cmds))
    return [r["wall"] for r in runs]


def end_to_end(client, wl, seconds, tally) -> dict:
    setup = setup_times(client, tally, SETUP_REPEATS // 2)
    rounds = []
    while len(rounds) < MIN_ROUNDS or \
            sum(r["wall"] for r in rounds) + rounds[-1]["wall"] <= seconds:
        rounds.append(run_round(client, wl.commands, False, tally))
        if time.monotonic() > client.deadline:
            break
    setup += setup_times(client, tally, SETUP_REPEATS - SETUP_REPEATS // 2)
    walls = [r["wall"] for r in rounds]
    return {
        "wall_s": walls,
        "cpu_s": [r["cpu"] for r in rounds],
        # the run's peak: a round's maximum depends on how the workers'
        # segments happen to overlap, so one round can read 10% low
        "peak_rss_mb": [max(r["rss_mb"] for r in rounds)],
        "setup_s": setup,
        "mitems_per_s": [wl.items / 1e6 / w for w in walls],
    }


def per_layer(client, wl, seconds, tally, declared) -> dict:
    client.run(["-m", "mforge.cli", "--help"])     # compile once, outside the pairs
    plain, traced, layers = [], [], []
    while not plain or sum(plain + traced) + plain[-1] + traced[-1] <= seconds:
        plain.append(run_round(client, wl.commands, False, tally)["wall"])
        spans = []
        traced.append(run_round(client, wl.commands, True, tally, spans)["wall"])
        layers.append(layer_values(spans, declared))
        if time.monotonic() > client.deadline:
            break
    out = {k: [lv[k] for lv in layers] for k in layers[0]}
    out["trace.wall_s"] = traced
    out["trace.overhead_s"] = [statistics.median(traced) - statistics.median(plain)]
    return out


def layer_values(records: list, declared: list) -> dict:
    """Per-layer metrics of one traced round from its commands' span files.

    A declared span metric of a layer the round never entered reads 0.
    """
    spans, counters = {}, {}
    for rec in records:
        for name, (calls, s, child) in rec["spans"].items():
            tot = spans.setdefault(name, [0, 0.0, 0.0])
            tot[0] += calls
            tot[1] += s
            tot[2] += child
        for key, val in rec["counters"].items():
            counters[key] = counters.get(key, 0) + val
    out = {m["name"]: 0 for m in declared
           if m["name"].endswith((".calls", ".s", ".self_s"))}
    for name, (calls, s, child) in spans.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = s
        out[f"{name}.self_s"] = s - child
    ints = counters.get("profile_ints", 0)
    busy = counters.get("pool_busy_s", 0.0)
    capacity = counters.get("pool_capacity_s", 0.0)
    out["arith.profile_range.ints"] = ints
    out["arith.profile_range.out_bytes"] = counters.get("profile_out_bytes", 0)
    out["arith.profile_range.ns_per_int"] = (
        out.get("arith.profile_range.s", 0.0) / ints * 1e9 if ints else 0.0)
    out["parallel.busy_s"] = busy
    out["parallel.idle_s"] = capacity - busy
    out["parallel.efficiency"] = busy / capacity if capacity else 0.0
    return out


def summarize(samples: dict, declared: list) -> dict:
    """Median of each declared metric; prints it with quartiles and n."""
    metrics = {}
    for m in declared:
        values = samples[m["name"]]
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        print(f"  {m['name']:<36} {metrics[m['name']]['value']:>14.6g} {m['unit']:<8}"
              f" q1 {q[0]:.6g}  q3 {q[2]:.6g}  n {len(values)}")
    return metrics


def run_workload(name, seed, seconds, trace, declared) -> tuple:
    threads = min(2, os.cpu_count() or 1)
    wl = workloads.build(name, seed, threads)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    tally = Tally()
    try:
        client = Client(work, time.monotonic() + RUN_BUDGET_S)
        if trace:
            samples = per_layer(client, wl, seconds, tally, declared)
        else:
            samples = end_to_end(client, wl, seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass    # another run still uses it
    print(f"{name} seed={seed} trace={trace}:")
    metrics = summarize(samples, declared)
    print(f"  {'error_rate':<36} {len(tally.failures) / tally.attempted:>14.6g} "
          f"{'share':<8} ({len(tally.failures)} of {tally.attempted} commands)")
    for f in tally.failures:
        print(f"  FAILED {f}")
    return tally.attempted, len(tally.failures), metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload named in BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mforge" / "cli.py").is_file():
        print(f"perfbench: no mforge sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; choose from {names} or all")

    attempted = failed = 0
    metrics = {}
    for name in names if args.workload == "all" else [args.workload]:
        a, f, m = run_workload(name, args.seed, args.seconds, args.trace, declared)
        attempted += a
        failed += f
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
