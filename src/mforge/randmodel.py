"""Monte-Carlo model of the Mobius values as iid three-point draws.

Each site draws -1 and +1 with probability 3/pi^2 each and 0 otherwise, so
the trajectory of partial sums mimics the Mertens sum: mean ~ 0, variance
~ 6x/pi^2, and a law-of-the-iterated-logarithm sup statistic whose almost-sure
limit is 2*sqrt(3)/pi (a reference value only; the limsup is not observable
at any finite x).
"""

import math
from dataclasses import dataclass

import numpy as np

from .parallel import WorkerPool
from .summatory import CheckpointPolicy

P_NONZERO = 6.0 / math.pi**2
P_MINUS = 3.0 / math.pi**2

#: Almost-sure limit of sup |Mbar_x| / sqrt(x loglog x): 2*sqrt(3)/pi.
LIL_CONSTANT = 2.0 * math.sqrt(3.0) / math.pi

#: Stream identity recorded in run metadata: counter-based Philox (4x64,
#: 10 rounds) as shipped by numpy, one stream per trial keyed by seed + trial.
GENERATOR_NAME = "numpy-philox4x64-10"

#: The loglog scaling is only positive from here up.
LIL_MIN_X = 16


@dataclass
class ModelRun:
    """One simulated trajectory, reproducible from (generator, seed)."""

    seed: int
    x_max: int
    checkpoints: np.ndarray      # ascending, last = x_max
    mbar: np.ndarray             # partial sums at the checkpoints
    lil_running_max: np.ndarray  # running sup of |mbar|/sqrt(x loglog x), x >= 16
    lil_sup: float               # final running sup over the whole trajectory
    generator: str = GENERATOR_NAME


@dataclass
class LilSummary:
    """Sup statistics across a batch of runs; informational, never asserted."""

    per_run: np.ndarray
    aggregate_sup: float
    aggregate_mean: float
    reference: float = LIL_CONSTANT


#: Draws per block. A worker computes each block's scale once and advances
#: all of its trials through the block, so memory is set by the block width
#: and the trial count, not by x_max.
_BLOCK = 1 << 20


def _lil_scale(lo: int, hi: int) -> np.ndarray:
    # 1 / sqrt(x loglog x) for x in [lo, hi), zero below the x >= 16 cutoff
    out = np.empty(hi - lo)
    cut = min(max(LIL_MIN_X - lo, 0), hi - lo)
    out[:cut] = 0.0
    xs = np.arange(lo + cut, hi, dtype=np.float64)
    live = out[cut:]
    np.log(xs, out=live)
    np.log(live, out=live)
    live *= xs
    np.sqrt(live, out=live)
    np.divide(1.0, live, out=live)
    return out


def _run_trials(seeds: range, x_max: int, cps: np.ndarray) -> list:
    """Trajectories for consecutive seeds, advanced block by block.

    Draw mapping (fixed threshold order, part of the reproducibility
    contract): uniform u < 3/pi^2 -> -1, else u < 6/pi^2 -> +1, else 0.

    The running sup is read at the checkpoints only: the max of |traj| * scale
    over each span ending at one (and a tail), joined by the carried sup and
    accumulated; exact, as a max of the same float64s is one of them.
    """
    rngs = [np.random.Generator(np.random.Philox(s)) for s in seeds]
    mbar = np.zeros((len(rngs), len(cps)), dtype=np.int64)
    lil = np.zeros((len(rngs), len(cps)), dtype=np.float64)
    total = [0] * len(rngs)
    run_max = [0.0] * len(rngs)
    # buffers shared by the worker's trials and blocks (the last may be narrower)
    width = min(_BLOCK, x_max)
    bufs = [np.empty(width, dt) for dt in (np.float64, np.int64, np.float64, np.int8, np.int8)]
    for lo in range(1, x_max + 1, _BLOCK):
        hi = min(lo + _BLOCK, x_max + 1)
        scale = _lil_scale(lo, hi)
        i0, i1 = np.searchsorted(cps, [lo, hi])
        offs = (cps[i0:i1] - lo).astype(np.intp)
        starts = np.r_[0, offs[offs < hi - lo - 1] + 1]     # spans end at checkpoints
        u, traj, absx, steps, minus = (b[:hi - lo] for b in bufs)
        for t, rng in enumerate(rngs):
            rng.random(out=u)
            np.less(u, P_NONZERO, out=steps.view(bool))
            np.less(u, P_MINUS, out=minus.view(bool))
            minus <<= 1
            steps -= minus                              # -1, +1 or 0 by the thresholds above
            np.cumsum(steps, dtype=np.int64, out=traj)
            traj += total[t]
            np.abs(traj, out=absx)                      # |traj| as float64
            absx *= scale
            peaks = np.maximum.reduceat(absx, starts)
            peaks[0] = max(peaks[0], run_max[t])
            np.maximum.accumulate(peaks, out=peaks)
            mbar[t, i0:i1] = traj[offs]
            lil[t, i0:i1] = peaks[:i1 - i0]
            total[t] = int(traj[-1])
            run_max[t] = float(peaks[-1])
        del scale       # free it before the next block's scale is built
    return [ModelRun(seed=s, x_max=x_max, checkpoints=cps, mbar=mbar[t],
                     lil_running_max=lil[t], lil_sup=run_max[t])
            for t, s in enumerate(seeds)]


def simulate(seed: int, x_max: int, policy: CheckpointPolicy | None = None) -> ModelRun:
    """Simulate one trajectory of x_max draws, recording at the checkpoints."""
    return simulate_many(seed, 1, x_max, policy)[0]


def simulate_many(seed: int, trials: int, x_max: int,
                  policy: CheckpointPolicy | None = None,
                  pool: WorkerPool | None = None) -> list:
    """Independent trials; trial i runs on its own stream keyed seed + i, and
    each worker runs one contiguous run of the seeds."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if x_max < LIL_MIN_X:
        raise ValueError(f"x_max must be >= {LIL_MIN_X}, got {x_max}")
    pool = pool or WorkerPool(1)
    cps = (policy or CheckpointPolicy()).checkpoints(x_max)
    k = min(pool.threads, trials)
    q, r = divmod(trials, k)
    starts = [seed + i * q + min(i, r) for i in range(k + 1)]
    chunks = pool.map(lambda i: _run_trials(range(starts[i], starts[i + 1]), x_max, cps),
                      range(k))
    return [run for chunk in chunks for run in chunk]


def lil_statistic(runs) -> LilSummary:
    """Per-run and aggregate sup of the iterated-logarithm statistic."""
    runs = list(runs)
    if not runs:
        raise ValueError("need at least one run")
    per = np.array([r.lil_sup for r in runs])
    return LilSummary(per_run=per, aggregate_sup=float(per.max()),
                      aggregate_mean=float(per.mean()))


def write_runs_csv(fh, runs):
    """Emit ``trial,x,Mbar,lil_stat`` rows, one per checkpoint per run.

    The lil column is empty below x = 16, where the statistic is undefined.
    """
    fh.write("trial,x,Mbar,lil_stat\n")
    for t, run in enumerate(runs):
        for i in range(len(run.checkpoints)):
            x = int(run.checkpoints[i])
            lil = f"{run.lil_running_max[i]:.9f}" if x >= LIL_MIN_X else ""
            fh.write(f"{t},{x},{int(run.mbar[i])},{lil}\n")
