"""Run workloads under several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload series-1e8 --workload stats-1e7 \
        --seeds 10 [--first-seed 1] [--trace 0] [--out FILE]

For every workload it runs ``run.py`` once per seed, one after another, for
the ``run_seconds`` that BENCHMARK.json sets, and
prints each metric's median, quartiles (``statistics.quantiles(n=4)``) and
spread, the interquartile distance as a share of the median; ``run_s`` is
the duration of each whole run.  ``--out`` writes the same figures with the
machine facts as JSON; ``baseline.json`` was assembled from such files.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version()}
    try:
        facts["cpu"] = next(line.split(":", 1)[1].strip()
                            for line in open("/proc/cpuinfo") if line.startswith("model name"))
        facts["l3"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except (OSError, StopIteration):
        pass
    probe = ("import numpy, scipy, mforge.sieve as s; "
             "print(numpy.__version__, scipy.__version__, s.DEFAULT_SEGMENT_CAPACITY)")
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True).stdout.split()
    if len(out) == 3:
        facts.update(numpy=out[0], scipy=out[1], segment_size=int(out[2]))
    return facts


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    report = {"machine": machine_facts(), "run_seconds": RUN_SECONDS, "workloads": {}}
    ok = True
    for wl in args.workload:
        samples = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(RUN_SECONDS), "--trace", str(args.trace)],
                capture_output=True, text=True)
            samples.setdefault("run_s", []).append(time.monotonic() - t0)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                ok = False
                continue
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
        report["workloads"][wl] = {name: spread(v) for name, v in samples.items()}
        for name, s in report["workloads"][wl].items():
            print(f"{wl:<13} {name:<36} median {s['median']:<12.6g} q1 {s['q1']:<12.6g}"
                  f" q3 {s['q3']:<12.6g} spread {s['spread']:.4f}  n {len(s['values'])}",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
