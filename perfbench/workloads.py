"""Seeded command lists for the benchmark workloads.

Every workload is a list of mforge CLI invocations run one after another,
each in a fresh interpreter.  All inputs derive from the benchmark seed; the
program only sees the generated arguments.  ``params`` carries what the
output checker needs to know about each command.
"""

import random
from dataclasses import dataclass, field

#: Checkpoints drawn log-uniformly for each series workload, besides the
#: powers of ten (which carry published reference values).
SERIES_POINTS = 96


@dataclass
class Command:
    name: str               # unique within a round; also the checker's key
    kind: str               # selects the output checker
    argv: list              # mforge arguments, output flag included
    out: str                # output file name inside the work directory
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    commands: list
    items: int              # integers one round covers (for mitems_per_s)


def _series_points(rng: random.Random, limit: int) -> list:
    decades = len(str(limit)) - 1
    pts = {10**k for k in range(1, decades + 1)}
    pts.update(int(10 ** rng.uniform(1, decades)) for _ in range(SERIES_POINTS))
    return sorted(pts)


def _series(rng, limit, threads):
    points = _series_points(rng, limit)
    csv = ",".join(map(str, points))
    return Workload(
        commands=[
            Command("summatory", "series",
                    ["summatory", "--limit", str(limit), "--threads", str(threads),
                     "--checkpoints", f"explicit:{csv}", "--out", "series.csv"],
                    "series.csv", {"limit": limit, "checkpoints": points}),
            Command("trace", "trace",
                    ["trace", "--in", "series.csv", "--out", "trace.csv"],
                    "trace.csv", {"series": "series.csv"}),
        ],
        items=limit,
    )


def _stats(rng, x):
    p = rng.choice((2, 3, 5, 7))
    m = rng.randrange(4)
    base = ["stats", "--x", str(x), "--threads", "1", "--report"]
    cmds = [
        Command(f"cdf-{stat}", "cdf",
                base + ["cdf", "--statistic", stat, "--out", f"cdf-{stat}.csv"],
                f"cdf-{stat}.csv", {"x": x, "statistic": stat})
        for stat in ("log_c_omega", "omega")
    ]
    cmds.append(Command("exponent", "exponent",
                        base + ["exponent", "--p", str(p), "--out", "exponent.csv"],
                        "exponent.csv", {"x": x, "p": p, "k_max": 6}))
    cmds.append(Command("excess", "excess",
                        base + ["excess", "--m", str(m), "--out", "excess.csv"],
                        "excess.csv", {"x": x, "m": m}))
    return Workload(commands=cmds, items=4 * x)


def _model(rng, threads, trials=100, x_max=10**6, limit=10**6):
    seed = rng.randrange(1 << 31)
    return Workload(
        commands=[
            Command("simulate", "simulate",
                    ["simulate", "--seed", str(seed), "--trials", str(trials),
                     "--x-max", str(x_max), "--threads", str(threads),
                     "--out", "runs.csv"],
                    "runs.csv", {"seed": seed, "trials": trials, "x_max": x_max,
                                 "trial": rng.randrange(trials)}),
            Command("verify", "verify",
                    ["verify", "--identity", "all", "--limit", str(limit),
                     "--out", "verify.txt"],
                    "verify.txt", {"limit": limit}),
        ],
        items=trials * x_max + limit,
    )


def build(name: str, seed: int, threads: int) -> Workload:
    """Commands of one round of workload ``name`` under benchmark ``seed``.

    ``threads`` is the worker count for the workloads that use the pool;
    the single-thread workloads always pass 1.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "series-1e8":
        return _series(rng, 10**8, threads)
    if name == "series-1e7":
        return _series(rng, 10**7, 1)
    if name == "stats-1e7":
        return _stats(rng, 10**7)
    if name == "model-verify":
        return _model(rng, threads)
    raise ValueError(f"unknown workload {name!r}")
