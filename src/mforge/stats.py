"""Empirical distribution measurements over the integers up to x.

Exact counts paired with the heuristic predictions they are compared
against: densities of a fixed total prime-factor count, excess factor-count
densities against the Euler-product coefficients, squarefree sign balance,
conditional-independence diagnostics and central-limit behaviour (segmented
sweeps), and the geometric law of a fixed prime's exponent (floor counts).
Counts are the ground truth; predictions are floating point.
"""

import math
from dataclasses import dataclass

import numpy as np

from .parallel import WorkerPool
from .sieve import DEFAULT_SEGMENT_CAPACITY, factorize, primes_up_to
from .arith import profile_chunks

_SQRT_HALF = math.sqrt(0.5)


class DegenerateSampleError(ValueError):
    """Sample variance is zero; the standardized CDF is undefined."""


@dataclass
class DensityReport:
    """One empirical density next to its predicted main term."""

    x: int
    k: int                  # k or m, depending on the measurement
    count: int              # exact
    predicted: float

    @property
    def empirical(self) -> float:
        return self.count / self.x

    @property
    def abs_error(self) -> float:
        return abs(self.empirical - self.predicted)


@dataclass
class SignBalance:
    x: int
    plus: int               # squarefree n <= x with mobius +1
    minus: int              # ... with mobius -1

    @property
    def squarefree(self) -> int:
        return self.plus + self.minus

    @property
    def fractions(self) -> tuple:
        q = self.squarefree
        return (self.plus / q, self.minus / q)


@dataclass
class ConditionalReport:
    """P(squarefree | big_omega = k) over [3, x] against the unconditional P."""

    x: int
    k: int
    class_count: int
    squarefree_in_class: int
    unconditional: float
    undefined: bool

    @property
    def conditional(self) -> float | None:
        if self.undefined:
            return None
        return self.squarefree_in_class / self.class_count

    @property
    def ratio(self) -> float | None:
        if self.undefined:
            return None
        return self.conditional / self.unconditional


@dataclass
class EmpiricalCdf:
    """A standardized sample as its distinct values and their multiplicities."""

    z: np.ndarray           # distinct standardized values, ascending
    counts: np.ndarray      # int64 multiplicity of each value
    ks: float               # sup distance to the standard normal CDF

    @property
    def size(self) -> int:
        return int(self.counts.sum())

    @property
    def values(self) -> np.ndarray:
        """The sorted standardized sample, expanded from the counts."""
        return np.repeat(self.z, self.counts)


@dataclass
class RangeCounts:
    """Histograms from one sweep over [1, x]; shared by the density reports."""

    x: int
    big_omega_hist: np.ndarray          # counts of big_omega = k over [1, x]
    excess_hist: np.ndarray             # counts of big_omega - omega = m
    squarefree_by_big_omega: np.ndarray
    mobius_plus: int
    mobius_minus: int

    def _from_3(self, hist: np.ndarray, k: int) -> int:
        # entry k of a histogram over [1, x], less n = 1 (k = 0) and n = 2 (k = 1),
        # which are squarefree with big_omega = k
        c = int(hist[k]) if k < len(hist) else 0
        if k == 0 or (k == 1 and self.x >= 2):
            c -= 1
        return c

    def big_omega_count_from_3(self, k: int) -> int:
        return self._from_3(self.big_omega_hist, k)

    def squarefree_by_k_from_3(self, k: int) -> int:
        return self._from_3(self.squarefree_by_big_omega, k)


def collect_counts(x: int, segment_size: int = DEFAULT_SEGMENT_CAPACITY,
                   pool: WorkerPool | None = None) -> RangeCounts:
    """Single segmented sweep filling every histogram the reports need, all
    read from one joint (omega, big_omega) table: big_omega counts are its
    column sums, excess counts its offset traces, and its diagonal (n is
    squarefree iff big_omega = omega) gives the squarefree and sign counts.
    Each kernel chunk adds its own table, keyed by omega * kmax + big_omega
    in uint16 (kmax <= 58 below 10^17)."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    pool = pool or WorkerPool(1)
    kmax = x.bit_length() + 1

    def summarize(seg, ws):
        table = np.zeros(kmax * kmax, dtype=np.int64)
        for _, cols in profile_chunks(seg, {"omega", "big_omega"}, ws):
            key = ws.empty("key", len(cols["omega"]), np.uint16)
            np.copyto(key, cols["omega"])
            key *= kmax
            key += cols["big_omega"]
            table += np.bincount(key, minlength=kmax * kmax)
        return table

    table = sum(pool.sweep(1, x + 1, segment_size, summarize)).reshape(kmax, kmax)
    excess = np.array([np.trace(table, offset=m) for m in range(kmax)])
    sq = table.diagonal().copy()
    return RangeCounts(x, table.sum(axis=0), excess, sq, int(sq[::2].sum()), int(sq[1::2].sum()))


def omega_k_density(x: int, k: int, counts: RangeCounts | None = None) -> DensityReport:
    """Density of big_omega(n) = k over [3, x] with its predicted main term
    (loglog x)^(k-1) / ((log x) (k-1)!)."""
    if x < 3:
        raise ValueError(f"x must be >= 3, got {x}")
    if k < 0 or (k > 0 and k > math.log2(x)):
        raise ValueError(f"k={k} outside [0, log2(x)]")
    counts = counts or collect_counts(x)
    count = counts.big_omega_count_from_3(k)
    if k == 0:
        predicted = 0.0
    else:
        ll = math.log(math.log(x))
        predicted = ll ** (k - 1) / (math.log(x) * math.factorial(k - 1))
    return DensityReport(x=x, k=k, count=count, predicted=predicted)


def excess_density(x: int, m: int, counts: RangeCounts | None = None,
                   coefficients: "DmCoefficients | None" = None) -> DensityReport:
    """Density of big_omega(n) - omega(n) = m over [1, x] against d_m."""
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    counts = counts or collect_counts(x)
    coefficients = coefficients or d_m_coefficients()
    count = int(counts.excess_hist[m]) if m < len(counts.excess_hist) else 0
    predicted = float(coefficients.values[m]) if m <= coefficients.m_max else 0.0
    return DensityReport(x=x, k=m, count=count, predicted=predicted)


@dataclass
class DmCoefficients:
    """Power-series coefficients of the truncated excess-density product.

    Factor for each prime p: (1 - 1/p) (1 + 1/(p - z)), expanded as
    (1 - 1/p^2) + sum_{j >= 1} (1 - 1/p) p^-(j+1) z^j.  ``tail_bound`` is an
    upper estimate of the multiplicative deviation contributed by the omitted
    primes (bounded by the sum of p^-2 over p > prime_limit).
    """

    prime_limit: int
    m_max: int
    values: np.ndarray
    tail_bound: float


#: d_m_coefficients builds the factor rows of this many primes at a time.
_DM_BLOCK = 2048

#: The fold's values at the defaults (primes up to 10^6, m <= 16), the only
#: arguments the command line uses, written with ``repr`` (which round-trips
#: a float64), so a run need not make the fold's 78,498 products again.
_DM_DEFAULT = (
    0.6079271430567112, 0.20075569442296462, 0.0963023087611147,
    0.047614933016989505, 0.023719455733135802, 0.011843911883204708,
    0.005918986036769591, 0.002958922066103048, 0.0014793497671100465,
    0.0007396530178046766, 0.0003698221885128051, 0.00018491023749130783,
    9.245494841763352e-05, 4.622744028790109e-05, 2.3113713380282317e-05,
    1.1556855340316183e-05, 5.778427400614285e-06,
)


def d_m_coefficients(prime_limit: int = 10**6, m_max: int = 16) -> DmCoefficients:
    if prime_limit < 2:
        raise ValueError(f"prime_limit must be >= 2, got {prime_limit}")
    if (prime_limit, m_max) == (10**6, 16):
        values = np.array(_DM_DEFAULT)
    else:
        values = _d_m_fold(prime_limit, m_max)
    return DmCoefficients(prime_limit=prime_limit, m_max=m_max, values=values,
                          tail_bound=1.0 / prime_limit)


def _d_m_fold(prime_limit: int, m_max: int) -> np.ndarray:
    """The first m_max + 1 coefficients of the product of the factors of
    the primes up to prime_limit, folded one prime at a time."""
    primes = primes_up_to(prime_limit)
    coeffs = np.zeros(m_max + 1)
    coeffs[0] = 1.0
    for b in range(0, len(primes), _DM_BLOCK):
        ps = primes[b:b + _DM_BLOCK].astype(np.float64)
        fac = np.empty((len(ps), m_max + 1))     # one factor row per prime
        fac[:, 0] = 1.0 - 1.0 / (ps * ps)
        scale = (1.0 - 1.0 / ps) / (ps * ps)
        for j in range(1, m_max + 1):
            fac[:, j] = scale
            scale /= ps
        # np.convolve(a, v) is np.correlate(a, v[::-1], "full"): the rows are
        # reversed once per block, not once per prime
        for row in fac[:, ::-1]:
            coeffs = np.correlate(coeffs, row, "full")[: m_max + 1]
    return coeffs


def sign_balance(x: int, counts: RangeCounts | None = None) -> SignBalance:
    """Exact counts of mobius = +1 and -1 over n <= x."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    counts = counts or collect_counts(x)
    return SignBalance(x=x, plus=counts.mobius_plus, minus=counts.mobius_minus)


def conditional_squarefree(x: int, k: int, counts: RangeCounts | None = None) -> ConditionalReport:
    """Diagnostic for the independence ansatz: P(squarefree | big_omega = k)
    over [3, x].  Reported, never asserted; an empty class raises no error
    but sets the undefined flag."""
    if x < 3:
        raise ValueError(f"x must be >= 3, got {x}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    counts = counts or collect_counts(x)
    cls = counts.big_omega_count_from_3(k)
    sq = counts.squarefree_by_k_from_3(k)
    total_sq = sum(counts.squarefree_by_k_from_3(j) for j in range(len(counts.squarefree_by_big_omega)))
    return ConditionalReport(
        x=x, k=k, class_count=cls, squarefree_in_class=sq,
        unconditional=total_sq / (x - 2),
        undefined=cls <= 0,
    )


def prime_exponent_distribution(x: int, p: int, k_max: int) -> list:
    """Per-k table of the exact density of p^k exactly dividing n <= x,
    next to the geometric prediction (1 - 1/p) p^-k.

    The count is Legendre's floor count: p^k divides floor(x / p^k) of the
    n <= x, and p^(k + 1) divides floor(x / p^(k + 1)) of those."""
    if p < 2 or x < p or factorize(p).factors != ((p, 1),):
        raise ValueError(f"need a prime p <= x, got p={p}, x={x}")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    return [DensityReport(x=x, k=k, count=x // p**k - x // p ** (k + 1),
                          predicted=(1.0 - 1.0 / p) * p ** (-k))
            for k in range(k_max + 1)]


def normal_cdf(z: float) -> float:
    """Standard normal CDF in the Cephes ``ndtr`` layout over the C library's
    erf: x = z / sqrt(2); 0.5 + 0.5 erf(x) for |x| < sqrt(1/2), else from erfc."""
    x = z * _SQRT_HALF
    if abs(x) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(abs(x))
    return 1.0 - y if x > 0 else y


def _ks_from_counts(values, counts: np.ndarray, center: float | None = None,
                    scale: float | None = None) -> EmpiricalCdf:
    """Standardize a histogram (distinct ascending values, their counts) and take
    its KS distance to the standard normal; center and scale default to the
    sample mean and standard deviation, summed over the histogram with math.fsum."""
    values = np.asarray(values, dtype=np.float64)
    n = int(counts.sum())
    if center is None:
        center = math.fsum(values * counts) / n
        var = math.fsum((values - center) ** 2 * counts) / (n - 1) if n > 1 else 0.0
        if var == 0.0:
            raise DegenerateSampleError("sample standard deviation is zero")
        scale = math.sqrt(var)
    z = (values - center) / scale
    cum = np.cumsum(counts)
    phi = np.array([normal_cdf(v) for v in z.tolist()])
    upper = np.abs(cum / n - phi)
    lower = np.abs((cum - counts) / n - phi)
    return EmpiricalCdf(z=z, counts=counts, ks=float(np.maximum(upper, lower).max()))


def erdos_kac_cdf(x: int, statistic: str = "omega",
                  segment_size: int = DEFAULT_SEGMENT_CAPACITY,
                  pool: WorkerPool | None = None) -> EmpiricalCdf:
    """Empirical CDF of a standardized additive statistic over n in [3, x].

    statistic "omega" uses the classical centering
    (omega(n) - loglog x) / sqrt(loglog x); "log_c_omega" has no published
    centering constants, so it is standardized empirically by sample mean
    and standard deviation.  Each kernel chunk leaves an exact histogram: of
    omega, a bincount of fixed length, summed; of c_omega, its distinct values
    and counts, merged once per segment and that into the running histogram
    as each segment arrives, so memory is bounded by the segment width.
    """
    if x < 100:
        raise ValueError(f"x must be >= 100, got {x}")
    if statistic not in ("omega", "log_c_omega"):
        raise ValueError(f"unknown statistic {statistic!r}")
    pool = pool or WorkerPool(1)
    if statistic == "omega":
        kmax = x.bit_length()           # omega(n) <= log2 n

        def omega_histogram(seg, ws):
            h = np.zeros(kmax, dtype=np.int64)
            for _, cols in profile_chunks(seg, {"omega"}, ws):
                h += np.bincount(cols["omega"], minlength=kmax)
            return h

        h = sum(pool.sweep(3, x + 1, segment_size, omega_histogram))
        keys = np.flatnonzero(h)
        ll = math.log(math.log(x))
        return _ks_from_counts(keys, h[keys], ll, math.sqrt(ll))

    def c_omega_histogram(seg, ws):
        return _merged([np.unique(cols["c_omega"], return_counts=True)
                        for _, cols in profile_chunks(seg, {"c_omega"}, ws)])

    keys = counts = np.empty(0, dtype=np.int64)
    for hist in pool.sweep(3, x + 1, segment_size, c_omega_histogram):
        keys, counts = _merged([(keys, counts), hist])
    return _ks_from_counts(np.log(keys.astype(np.float64)), counts)


def _merged(histograms) -> tuple:
    """One (distinct ascending values, int64 counts) histogram from several."""
    keys, where = np.unique(np.concatenate([k for k, _ in histograms]), return_inverse=True)
    counts = np.zeros(len(keys), dtype=np.int64)
    np.add.at(counts, where, np.concatenate([c for _, c in histograms]))
    return keys, counts
