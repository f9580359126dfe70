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

from . import LIL_MIN_X
from .parallel import WorkerPool
from .summatory import CheckpointPolicy

P_NONZERO = 6.0 / math.pi**2
P_MINUS = 3.0 / math.pi**2

#: Almost-sure limit of sup |Mbar_x| / sqrt(x loglog x): 2*sqrt(3)/pi.
LIL_CONSTANT = 2.0 * math.sqrt(3.0) / math.pi

#: Stream identity recorded in run metadata: counter-based Philox (4x64,
#: 10 rounds) as shipped by numpy, one stream per trial keyed by seed + trial.
GENERATOR_NAME = "numpy-philox4x64-10"


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
#: and the trial count, not by x_max; 2^16 draws keep a block's buffers in
#: cache.
_BLOCK = 1 << 16

#: Draws per sub-block, the unit over which the running sup is bounded. A
#: sub-block's steps are summed in int8, which holds |sum| <= _SUB < 128.
_SUB = 64


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

    Each block is cut into sub-blocks of _SUB draws. One int8 sum per
    sub-block and a cumsum over those sums give the trajectory T before each
    sub-block, and no product |traj| * scale inside it exceeds
    bound = fl((|T| + _SUB) * max scale over the sub-block), since rounding to
    nearest is monotone. Only the sub-blocks whose bound exceeds an earlier
    value of the statistic (see ``_walked``), and those holding a
    checkpoint, are walked draw by draw. The running sup is read at the
    checkpoints only: the max of the walked products over each span ending
    at one (and a tail), joined by the carried sup and accumulated; exact,
    as a max of the same float64s is one of them.
    """
    rngs = [np.random.Generator(np.random.Philox(s)) for s in seeds]
    mbar = np.zeros((len(rngs), len(cps)), dtype=np.int64)
    lil = np.zeros((len(rngs), len(cps)), dtype=np.float64)
    total = [0] * len(rngs)
    run_max = [0.0] * len(rngs)
    sub = _SUB
    # buffers shared by the worker's trials and blocks (the last may be
    # narrower); steps past the block's end stay 0 to pad its last sub-block
    width = min(_BLOCK, x_max)
    ubuf, mbuf = np.empty(width), np.empty(width, np.int8)
    steps = np.zeros(-(-width // sub) * sub, np.int8)
    for lo in range(1, x_max + 1, _BLOCK):
        hi = min(lo + _BLOCK, x_max + 1)
        nsub = -(-(hi - lo) // sub)
        u, draws, minus = ubuf[:hi - lo], steps[:hi - lo], mbuf[:hi - lo]
        steps[hi - lo:] = 0
        grid = steps[:nsub * sub].reshape(nsub, sub)
        scale = _lil_scale(lo, lo + nsub * sub)
        scale[hi - lo:] = 0.0                           # padding never raises the sup
        scale = scale.reshape(nsub, sub)
        smax = scale.max(axis=1)
        last = np.r_[0.0, scale[:-1, -1]]               # scale at the draw before each sub-block
        i0, i1 = np.searchsorted(cps, [lo, hi])
        cpsub, cpcol = np.divmod((cps[i0:i1] - lo).astype(np.intp), sub)
        held = np.zeros(nsub, dtype=bool)               # sub-blocks holding a checkpoint
        held[cpsub] = True
        for t, rng in enumerate(rngs):
            rng.random(out=u)
            np.less(u, P_NONZERO, out=draws.view(bool))
            np.less(u, P_MINUS, out=minus.view(bool))
            minus <<= 1
            draws -= minus                              # -1, +1 or 0 by the thresholds above
            sums = np.add.reduce(grid, axis=1, dtype=np.int8)
            before = np.cumsum(sums, dtype=np.int64)
            before -= sums
            before += total[t]                          # T before each sub-block
            total[t] = int(before[-1]) + int(sums[-1])
            rows = _walked(before, smax, last, held, run_max[t])
            if rows.size == 0:
                continue
            traj = np.cumsum(grid[rows], axis=1, dtype=np.int64)
            traj += before[rows, None]
            absx = np.abs(traj).astype(np.float64)
            absx *= scale[rows]
            traj, absx = traj.ravel(), absx.ravel()
            at = np.searchsorted(rows, cpsub) * sub + cpcol
            starts = np.r_[0, at[at < absx.size - 1] + 1]   # spans end at checkpoints
            peaks = np.maximum.reduceat(absx, starts)
            peaks[0] = max(peaks[0], run_max[t])
            np.maximum.accumulate(peaks, out=peaks)
            mbar[t, i0:i1] = traj[at]
            lil[t, i0:i1] = peaks[:i1 - i0]
            run_max[t] = float(peaks[-1])
        del scale       # free it before the next block's scale is built
    return [ModelRun(seed=s, x_max=x_max, checkpoints=cps, mbar=mbar[t],
                     lil_running_max=lil[t], lil_sup=run_max[t])
            for t, s in enumerate(seeds)]


def _walked(before: np.ndarray, smax: np.ndarray, last: np.ndarray, held: np.ndarray,
            carried: float) -> np.ndarray:
    """Indices of a block's sub-blocks that must be walked draw by draw:
    those holding a checkpoint, and those whose bound fl((|T| + _SUB) * smax)
    exceeds both the sup ``carried`` in from earlier blocks and every
    fl(|T_i| * last_i) up to its own.  Each of those products is the
    statistic at the draw just before sub-block i, so by induction every
    value in a skipped sub-block is at most a walked or carried value at an
    earlier draw, and the running sup read from the walked ones is exact.
    ``before`` holds T before each sub-block, ``last`` the scale at the draw
    just before it (0 where that draw is in an earlier block)."""
    seen = np.abs(before).astype(np.float64)
    seen *= last
    np.maximum.accumulate(seen, out=seen)
    np.maximum(seen, carried, out=seen)
    bound = np.abs(before)
    bound += _SUB
    walk = bound * smax > seen
    walk |= held
    return np.flatnonzero(walk)


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
