"""Scaled growth ratios and heuristic sums over computed checkpoint data.

The traces visualize conjectured limiting behaviour without asserting any
limit: every column is plain arithmetic on exact (x, M, G) rows, and the
conjectured constants are emitted as horizontal reference lines in the CSV
metadata.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

#: Conjectured value of limsup |M(x)| logloglog(x) / sqrt(x loglog x):
#: 6 / sqrt(2 pi^5).
REF_SCALED_LIMSUP = 0.242528

#: Computational record bounds for limsup / liminf of M(x)/sqrt(x).
REF_MPLUS_RECORD = 1.826054
REF_MMINUS_RECORD = -1.837625

REFERENCE_LINES = {
    "scaled_limsup": REF_SCALED_LIMSUP,
    "mplus_record": REF_MPLUS_RECORD,
    "mminus_record": REF_MMINUS_RECORD,
}

#: Ratios involve a triple logarithm, defined only past e^e.
TRACE_MIN_X = 16


@dataclass
class RatioTrace:
    """Per-checkpoint scaled ratios of the Mertens and inverse-table sums."""

    x: np.ndarray
    q: np.ndarray            # M / sqrt(x)
    gonek: np.ndarray        # |M| / (sqrt(x) (logloglog x)^(5/4))
    r1: np.ndarray           # |M| (logloglog x)^(3/2) / sqrt(x)
    r2: np.ndarray           # |M| logloglog x / sqrt(x loglog x)
    rG1: np.ndarray          # same scalings applied to |G|
    rG2: np.ndarray
    twice_g: np.ndarray      # M / (2 G), nan where G = 0
    twice_g_defined: np.ndarray
    qhat_pred: np.ndarray
    qhat_exact: np.ndarray   # exact signed squarefree sum at n = 1, i.e. M
    references: dict = field(default_factory=lambda: dict(REFERENCE_LINES))


def build_trace(rows) -> RatioTrace:
    """Compute every ratio column from checkpoint rows (x >= 16 only).

    ``rows`` is anything with checkpoints / M / G integer arrays, e.g. a
    built series or rows parsed back from a checkpoint CSV.
    """
    keep = rows.checkpoints >= TRACE_MIN_X
    x = rows.checkpoints[keep].astype(np.float64)
    if x.size == 0:
        raise ValueError(f"no checkpoints at or above x = {TRACE_MIN_X}")
    M = rows.M[keep].astype(np.float64)
    G = rows.G[keep].astype(np.float64)
    sx = np.sqrt(x)
    ll = np.log(np.log(x))
    lll = np.log(ll)
    absM = np.abs(M)
    absG = np.abs(G)
    defined = G != 0.0
    twice = np.full_like(x, np.nan)
    twice[defined] = M[defined] / (2.0 * G[defined])
    if not defined.all():
        log.warning("twice_g undefined at %d checkpoint(s) where G(x) = 0",
                    int((~defined).sum()))
    return RatioTrace(
        x=rows.checkpoints[keep],
        q=M / sx,
        gonek=absM / (sx * lll ** 1.25),
        r1=absM * lll ** 1.5 / sx,
        r2=absM * lll / np.sqrt(x * ll),
        rG1=absG * lll ** 1.5 / sx,
        rG2=absG * lll / np.sqrt(x * ll),
        twice_g=twice,
        twice_g_defined=defined,
        qhat_pred=np.array([qhat_prediction(float(v)) for v in x]),
        qhat_exact=rows.M[keep].copy(),
    )


@dataclass
class HeuristicEval:
    """Direct evaluation of the Stirling-side sums at one x."""

    x: float
    K: int
    b_x: float               # e loglog(x) / log(x)
    s_inv_sqrt: float        # sum of b^(k-1) e / (log x sqrt(k)), k <= K
    s_sqrt: float            # the sqrt(k)-weighted variant
    b_hat: float             # ratio of the two sums; compare to loglog x


def heuristic_sums(x: float, K: int) -> HeuristicEval:
    """Evaluate both heuristic sums by direct compensated summation.

    Terms are summed in ascending k; the common factor e/log(x) keeps the
    k-th term at b_x^(k-1) scale, a geometric tail whenever b_x < 1.
    """
    if not x > math.e**math.e:
        raise ValueError(f"x must exceed e^e ~ 15.154, got {x}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    lx = math.log(x)
    ll = math.log(lx)
    b = math.e * ll / lx
    lead = math.e / lx
    inv_terms = []
    w_terms = []
    bpow = 1.0
    for k in range(1, K + 1):
        rk = math.sqrt(k)
        inv_terms.append(lead * bpow / rk)
        w_terms.append(lead * bpow * rk)
        bpow *= b
        if not math.isfinite(bpow):
            raise ArithmeticError(f"non-finite term at k={k} (b_x={b})")
    s_inv = math.fsum(inv_terms)
    s_w = math.fsum(w_terms)
    if not (math.isfinite(s_inv) and math.isfinite(s_w)):
        raise ArithmeticError("heuristic sum overflowed to non-finite")
    return HeuristicEval(x=x, K=K, b_x=b, s_inv_sqrt=s_inv, s_sqrt=s_w,
                         b_hat=s_w / s_inv)


def qhat_prediction(x: float) -> float:
    """Heuristic main term for the signed squarefree sum:
    (6x/pi^2) (-1)^floor(loglog x) / (2 sqrt(2 pi loglog x))."""
    if not x > math.e:
        raise ValueError(f"x must exceed e, got {x}")
    ll = math.log(math.log(x))
    # the sign factor flips where loglog x crosses an integer
    if abs(ll - round(ll)) < 1e-9:
        log.warning("x=%s lies within 1e-9 of a parity boundary of "
                    "floor(loglog x); the sign factor is unstable there", x)
    sign = -1.0 if math.floor(ll) % 2 else 1.0
    return (6.0 * x / math.pi**2) * sign / (2.0 * math.sqrt(2.0 * math.pi * ll))
