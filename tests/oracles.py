"""Brute-force reference implementations used to freeze expected values.

Everything here is deliberately independent of the package internals: trial
division, direct divisor-sum recursions, direct summation, and a
product-tracking Mobius block sieve that shares no code with the profiler.
"""

import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from functools import cache
from math import isqrt

import numpy as np
from scipy.special import ndtr


def load_prime_cache(path) -> np.ndarray:
    """Read a prime export written by ``mforge sieve``: the 9-byte header
    ``MFPRIMES1``, then the primes as little-endian u64s."""
    with open(path, "rb") as fh:
        magic = fh.read(9)
        if magic != b"MFPRIMES1":
            raise ValueError(f"{path}: bad magic {magic!r}")
        data = fh.read()
    return np.frombuffer(data, dtype="<u8").astype(np.int64)


def trial_factorize(n: int):
    """(prime, exponent) pairs by trial division."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            out.append((p, a))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


def omega_oracle(n: int) -> int:
    return len(trial_factorize(n))


def big_omega_oracle(n: int) -> int:
    return sum(a for _, a in trial_factorize(n))


def mobius_oracle(n: int) -> int:
    f = trial_factorize(n)
    if any(a > 1 for _, a in f):
        return 0
    return (-1) ** len(f)


def liouville_oracle(n: int) -> int:
    return (-1) ** big_omega_oracle(n)


def c_omega_oracle(n: int) -> int:
    """Direct factorial evaluation of the exponent multinomial."""
    f = trial_factorize(n)
    total = math.factorial(sum(a for _, a in f))
    for _, a in f:
        total //= math.factorial(a)
    return total


def _is_prime(m: int) -> bool:
    """Miller-Rabin on the first twelve prime bases, deterministic for m < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if m < 2:
        return False
    if m in bases:
        return True
    if any(m % b == 0 for b in bases):
        return False
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def exponents_oracle(n: int) -> list:
    """Exponents of the prime factorization of n, for n up to 2^63.

    Trial division by every integer up to the cube root of n; the cofactor
    left then has at most two prime factors, both beyond the cube root, so
    it is 1, a prime (Miller-Rabin), a prime square, or a product of two
    distinct primes.
    """
    out = []
    m = n
    p = 2
    while p * p * p <= n:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            out.append(a)
        p += 1
    if m == 1:
        return out
    if _is_prime(m):
        return out + [1]
    return out + ([2] if isqrt(m) ** 2 == m else [1, 1])


def valuation_counts_oracle(x: int, p: int, k_max: int) -> list:
    """Number of n <= x with p^k exactly dividing n, for k = 0..k_max, by
    dividing each n by p for as long as p divides it."""
    counts = [0] * (k_max + 1)
    for n in range(1, x + 1):
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k <= k_max:
            counts[k] += 1
    return counts


def multinomial(exps) -> int:
    """sum(exps)! / prod(a!), exactly."""
    c = math.factorial(sum(exps))
    for a in exps:
        c //= math.factorial(a)
    return c


@cache
def _lowerings(a: int, c: int) -> list:
    """For each j <= c: the C(c, j) sets of j of c primes of exponent a, j,
    and the product of the c exponents' factorials once those j are lowered."""
    return [(math.comb(c, j), j, math.factorial(a) ** (c - j) * math.factorial(a - 1) ** j)
            for j in range(c + 1)]


def g_subset_sum(exps: list) -> int:
    """g of n from its exponents as identity (c) gives it: liouville(n) times
    the sum of c_omega(alpha - 1_S) over every set S of n's primes.  The sets
    that lower the same number of the primes of each exponent share a term,
    counted once per set."""
    big = sum(exps)
    lam_g = 0
    for choice in itertools.product(*(_lowerings(a, c) for a, c in Counter(exps).items())):
        ways, lowered, den = 1, 0, 1
        for w, j, d in choice:
            ways, lowered, den = ways * w, lowered + j, den * d
        lam_g += ways * (math.factorial(big - lowered) // den)
    return (-1) ** big * lam_g


def columns_from_exponents(exps: list) -> tuple:
    """(omega, big_omega, mobius, liouville, c_omega, u, g) of n from its
    exponents, where u = liouville * c_omega."""
    big = sum(exps)
    c = multinomial(exps)
    mobius = 0 if any(a > 1 for a in exps) else (-1) ** len(exps)
    return len(exps), big, mobius, (-1) ** big, c, (-1) ** big * c, g_subset_sum(exps)


def g_recursion_oracle(N: int):
    """g(1..N) by the definitional divisor-sum recursion (quadratic-ish)."""
    g = [0] * (N + 1)
    g[1] = 1
    for n in range(2, N + 1):
        s = 0
        for d in range(2, n + 1):
            if n % d == 0:
                s += (omega_oracle(d) + 1) * g[n // d]
        g[n] = -s
    return g


def g_closed_form_oracle(r: int) -> int:
    return (-1) ** r * sum(math.comb(r, m) * math.factorial(m) for m in range(r + 1))


def quotient_closure_oracle(points) -> np.ndarray:
    """Every floor(c / k), 1 <= k <= c, of every c in ``points``, sorted: the
    closure of ``points`` under x -> floor(x / k), straight from the definition."""
    hit = np.zeros(int(max(points)) + 1, dtype=bool)
    for c in map(int, points):
        hit[c // np.arange(1, c + 1)] = True
    return np.flatnonzero(hit)


def quotient_sum_oracle(x: int, A, B) -> int:
    """sum_{n <= x} a(n) * B(x // n) in Python ints, given the partial sums
    A(y) of a (A(0) = 0): n <= isqrt(x) one at a time, the larger n in blocks
    of equal quotient q, of weight A(x // q) - A(max(x // (q + 1), isqrt(x)))."""
    t = isqrt(x)
    total = sum((A(n) - A(n - 1)) * B(x // n) for n in range(1, t + 1))
    for q in range(1, x // (t + 1) + 1):
        total += (A(x // q) - A(max(x // (q + 1), t))) * B(q)
    return total


def mertens_oracle(x: int) -> int:
    return sum(mobius_oracle(n) for n in range(1, x + 1))


def squarefree_count_oracle(x: int) -> int:
    """Q_sq(x) by the inclusion-exclusion identity sum_{d<=sqrt(x)} mu(d) floor(x/d^2)."""
    return sum(mobius_oracle(d) * (x // (d * d)) for d in range(1, isqrt(x) + 1))


def mobius_block_oracle(N: int) -> np.ndarray:
    """mu(1..N) via a product-tracking sieve, index 0 unused.

    Tracks the product of the primes sieved out of each n; a leftover
    cofactor > 1 is one extra prime.  No shared machinery with the package's
    exponent-based profiler.
    """
    mu = np.ones(N + 1, dtype=np.int64)
    prod = np.ones(N + 1, dtype=np.int64)
    is_comp = np.zeros(N + 1, dtype=bool)
    for p in range(2, isqrt(N) + 1):
        if is_comp[p]:
            continue
        is_comp[p * p :: p] = True
        mu[p::p] *= -1
        prod[p::p] *= p
        mu[p * p :: p * p] = 0
    rest = prod[1:] != np.arange(1, N + 1)
    sign = np.where(rest, -1, 1)
    mu[1:] *= sign
    mu[0] = 0
    return mu


def dirichlet_convolution_oracle(f, h):
    """sum over divisors d of n of f(d) * h(n / d) for n = 1..N, by direct
    divisor enumeration in Python integers.  Entry i of f, h and the result
    is the value at n = i + 1."""
    N = len(f)
    return [sum(int(f[d - 1]) * int(h[n // d - 1]) for d in range(1, n + 1) if n % d == 0)
            for n in range(1, N + 1)]


def dirichlet_inverse_oracle(f):
    """Dirichlet inverse of f (f(1) = f[0] = +-1) on 1..N in Python integers,
    the value at n in entry n - 1.

    inv(m) becomes final in ascending m, then pushes f(d) * inv(m) into the
    accumulator of every multiple d * m with d >= 2.  No width check.
    """
    N = len(f)
    fl = [0] + [int(v) for v in f]     # fl[n] = f(n)
    f1 = fl[1]
    acc = [0] * (N + 1)
    inv = [0] * (N + 1)
    inv[1] = f1
    for m in range(1, N + 1):
        if m > 1:
            inv[m] = -f1 * acc[m]
        vm = inv[m]
        if vm == 0:
            continue
        for n in range(2 * m, N + 1, m):
            acc[n] += fl[n // m] * vm
    return inv[1:]


def simulate_oracle(seed: int, x_max: int, cps):
    """(Mbar, lil running max, lil sup) of one model trial at the checkpoints.

    One ``random(x_max)`` call on the Philox stream keyed by ``seed``, mapped
    by the documented thresholds (u < 3/pi^2 -> -1, u < 6/pi^2 -> +1, else 0),
    then one cumsum and one running max over the whole trajectory; no
    blocks and no pool.
    """
    u = np.random.Generator(np.random.Philox(seed)).random(x_max)
    steps = np.where(u < 3 / math.pi**2, -1, np.where(u < 6 / math.pi**2, 1, 0))
    traj = np.cumsum(steps)
    xs = np.arange(1, x_max + 1, dtype=np.float64)
    scale = np.zeros(x_max)
    live = xs >= 16
    scale[live] = 1.0 / np.sqrt(xs[live] * np.log(np.log(xs[live])))
    running = np.maximum.accumulate(np.abs(traj) * scale)
    idx = np.asarray(cps) - 1
    return traj[idx], running[idx], float(running[-1])


def sorted_sample_cdf(sample, standardize: bool = True):
    """(sorted sample, KS distance to the standard normal) from the whole sample.

    Standardizes by the sample mean and standard deviation when asked, sorts
    every value and takes the sup of |F_n - Phi| over both sides of each step.
    """
    v = np.asarray(sample, dtype=np.float64)
    if standardize:
        v = (v - v.mean()) / v.std(ddof=1)
    v = np.sort(v)
    n = v.size
    phi = ndtr(v)
    steps = np.arange(1, n + 1) / n
    return v, float(max(np.abs(steps - phi).max(), np.abs(steps - 1.0 / n - phi).max()))


def recompute_trace_row(x: int, M: int, G: int) -> dict:
    """Slow scalar re-computation of one trace row (x >= 16, past e^e).

    Independent of the vectorized path: rational parts are exact Fractions
    converted to float at the last step, the rest is plain math calls.
    Used to validate the fast arithmetic to 1e-12 relative.
    """
    if x < 16:
        raise ValueError("x must be >= 16")
    lx = math.log(x)
    ll = math.log(lx)
    lll = math.log(ll)
    sign = 1 if M >= 0 else -1
    q = sign * math.sqrt(float(Fraction(M * M, x)))
    abs_m_over_sx = math.sqrt(float(Fraction(M * M, x)))
    abs_g_over_sx = math.sqrt(float(Fraction(G * G, x)))
    parity = -1.0 if math.floor(ll) % 2 else 1.0
    return {
        "q": q,
        "gonek": abs_m_over_sx / lll ** 1.25,
        "r1": abs_m_over_sx * lll ** 1.5,
        "r2": abs_m_over_sx * lll / math.sqrt(ll),
        "rG1": abs_g_over_sx * lll ** 1.5,
        "rG2": abs_g_over_sx * lll / math.sqrt(ll),
        "twice_g": float(Fraction(M, 2 * G)) if G != 0 else math.nan,
        "qhat_pred": (6.0 * x / math.pi**2) * parity / (2.0 * math.sqrt(2.0 * math.pi * ll)),
        "qhat_exact": M,
    }


# Row-at-a-time table writers: the reference layout of every data file the
# CLI writes, one f-string or one json.dumps per row.

def series_csv_oracle(rows) -> str:
    """The series table ``x,M,G,Qsq,pi`` of checkpoint rows."""
    out = ["x,M,G,Qsq,pi\n"]
    for i in range(len(rows.checkpoints)):
        out.append(f"{int(rows.checkpoints[i])},{int(rows.M[i])},"
                   f"{int(rows.G[i])},{int(rows.Qsq[i])},{int(rows.pi[i])}\n")
    return "".join(out)


def series_json_rows(rows) -> list:
    return list(zip(rows.checkpoints.tolist(), rows.M.tolist(), rows.G.tolist(),
                    rows.Qsq.tolist(), rows.pi.tolist()))


def runs_csv_oracle(runs) -> str:
    """``trial,x,Mbar,lil_stat`` rows; the lil column is empty below x = 16."""
    out = ["trial,x,Mbar,lil_stat\n"]
    for t, run in enumerate(runs):
        for i in range(len(run.checkpoints)):
            x = int(run.checkpoints[i])
            lil = f"{run.lil_running_max[i]:.9f}" if x >= 16 else ""
            out.append(f"{t},{x},{int(run.mbar[i])},{lil}\n")
    return "".join(out)


def runs_json_rows(runs) -> list:
    return [(t, int(r.checkpoints[i]), int(r.mbar[i]),
             float(r.lil_running_max[i]) if r.checkpoints[i] >= 16 else None)
            for t, r in enumerate(runs) for i in range(len(r.checkpoints))]


TRACE_HEADER = ("x", "q", "gonek", "r1", "r2", "rG1", "rG2",
                "twice_g", "qhat_pred", "qhat_exact")


def trace_csv_oracle(trace) -> str:
    """Reference lines as ``#`` comments, then one row per checkpoint;
    twice_g is empty where G = 0."""
    out = [f"# reference {key} = {val}\n" for key, val in trace.references.items()]
    out.append(",".join(TRACE_HEADER) + "\n")
    for i in range(len(trace.x)):
        tg = f"{trace.twice_g[i]:.12g}" if trace.twice_g_defined[i] else ""
        out.append(f"{int(trace.x[i])},{trace.q[i]:.12g},{trace.gonek[i]:.12g},"
                   f"{trace.r1[i]:.12g},{trace.r2[i]:.12g},{trace.rG1[i]:.12g},"
                   f"{trace.rG2[i]:.12g},{tg},{trace.qhat_pred[i]:.12g},"
                   f"{int(trace.qhat_exact[i])}\n")
    return "".join(out)


def trace_json_rows(trace) -> list:
    return [(int(trace.x[i]), float(trace.q[i]), float(trace.gonek[i]),
             float(trace.r1[i]), float(trace.r2[i]), float(trace.rG1[i]),
             float(trace.rG2[i]),
             float(trace.twice_g[i]) if trace.twice_g_defined[i] else None,
             float(trace.qhat_pred[i]), int(trace.qhat_exact[i]))
            for i in range(len(trace.x))]


def csv_oracle(header, rows) -> str:
    """A header line, then each row's values joined by commas, None empty."""
    return "".join([",".join(header) + "\n"] +
                   [",".join("" if v is None else str(v) for v in row) + "\n"
                    for row in rows])


def ndjson_oracle(header, rows) -> str:
    """One JSON object per row, keyed by the header."""
    return "".join(json.dumps(dict(zip(header, row))) + "\n" for row in rows)


# Published spot values (OEIS A084237 / A006880): Mertens and prime counts
# at powers of 10, frozen as independent cross-checks.
MERTENS_AT_POW10 = {10: -1, 10**2: 1, 10**3: 2, 10**4: -23,
                    10**5: -48, 10**6: 212, 10**7: 1037}
PI_AT_POW10 = {10: 4, 10**2: 25, 10**3: 168, 10**4: 1229,
               10**5: 9592, 10**6: 78498, 10**7: 664579}
