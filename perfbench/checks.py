"""Output checkers for the benchmark workloads.

Each checker takes the text of one command's output plus the command's
parameters and returns None when the output is right, else a one-line
reason.  Exact values come from ``reference.json`` or from routes computed
here that share no code with mforge: a segmented Mobius/prime sieve for the
series, a divisor-sum Dirichlet inverse of omega + 1 for G up to
``G_CHECK_LIMIT``, the closed floor-count formula for prime exponents,
histogram formulas for the CDF rows and a re-simulation of one model trial.

Run as a script, it checks one round of outputs:

    python3 perfbench/checks.py SPEC.json

where SPEC.json holds ``{"dir": ..., "commands": [{"name", "kind", "out",
"params"}, ...]}``; it prints one JSON object mapping each command name to
its failure reason or null.
"""

import bisect
import json
import math
import sys
from math import isqrt
from pathlib import Path

import numpy as np

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

#: Printed floats carry 12 significant digits (9 decimals for the model).
REL_TOL = 1e-9

#: G is recomputed at every checkpoint up to here; above it (series-1e8
#: only) it is checked at the powers of ten, from the reference table, since
#: the inverse table to 1e8 would take 800 MB.
G_CHECK_LIMIT = 10**7

TRACE_REFERENCES = {"scaled_limsup": 0.242528, "mplus_record": 1.826054,
                    "mminus_record": -1.837625}
TRACE_HEADER = "x,q,gonek,r1,r2,rG1,rG2,twice_g,qhat_pred,qhat_exact"
IDENTITIES = "abcdef"


def _close(got: str, want: float) -> bool:
    return math.isclose(float(got), want, rel_tol=REL_TOL, abs_tol=1e-12)


def _csv(text: str, header: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[:1]} != {header!r}")
    return [line.split(",") for line in lines[1:]]


def _ints(rows, width):
    if any(len(r) != width for r in rows):
        raise ValueError(f"row without {width} columns")
    return [[int(v) for v in r] for r in rows]


# -- series ---------------------------------------------------------------

def series_reference(limit: int, points: list, width: int = 1 << 22) -> dict:
    """M, Qsq and pi at each point by a segmented sieve of mu over [1, limit],
    and G at the points up to ``G_CHECK_LIMIT`` by ``inverse_sums``.

    For every prime p <= sqrt(limit): flip mu on multiples of p, zero it on
    multiples of p^2 and multiply p into a radical accumulator.  A squarefree
    n whose accumulated radical falls short of n has exactly one more prime
    factor (one above sqrt(limit)), so its sign flips once more.
    """
    root = isqrt(limit)
    small = np.nonzero(_prime_mask(root))[0]
    pts = np.asarray(sorted(points), dtype=np.int64)
    out = {"M": [], "Qsq": [], "pi": []}
    base = [0, 0, 0]
    # Buffers are reused across segments: fresh arrays per segment would
    # spend more time in page faults than in sieving.  rad <= n < 2^31 fits.
    dt = np.int32 if limit < 2**31 else np.int64
    offsets = np.arange(width, dtype=dt)
    n, rad = np.empty(width, dtype=dt), np.empty(width, dtype=dt)
    mu = np.empty(width, dtype=np.int8)
    for lo in range(1, limit + 1, width):
        w = min(width, limit + 1 - lo)
        np.add(offsets[:w], lo, out=n[:w])
        mu[:w] = 1
        rad[:w] = 1
        for p in small.tolist():
            mu[(-lo) % p:w:p] *= -1
            rad[(-lo) % p:w:p] *= p
            mu[(-lo) % (p * p):w:p * p] = 0
        np.negative(mu[:w], out=mu[:w], where=rad[:w] != n[:w])
        prime = (rad[:w] == 1) & (n[:w] > 1)
        prime[small[(small >= lo) & (small < lo + w)] - lo] = True
        # partial sums up to each point's end, then the segment total
        ends = pts[(pts >= lo) & (pts < lo + w)] - lo + 1
        starts = np.concatenate(([0], ends[ends < w]))
        for i, (key, col) in enumerate((("M", mu[:w]), ("Qsq", mu[:w] != 0), ("pi", prime))):
            part = base[i] + np.cumsum(np.add.reduceat(col, starts, dtype=np.int64))
            out[key].extend(part[:len(ends)].tolist())
            base[i] = int(part[-1])
    out["G"] = inverse_sums([x for x in pts.tolist() if x <= G_CHECK_LIMIT])
    return out


def _prime_mask(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if mask[p]:
            mask[p * p::p] = False
    return mask


def inverse_sums(points: list) -> list:
    """G(x) = sum of g(n) over n <= x at each point, g the Dirichlet inverse
    of omega + 1: g(1) = 1 and g(n) = -sum of g(d) * (omega(n/d) + 1) over
    the divisors d < n of n.

    Each g(d), once final, is pushed to its multiples in ascending d.  Every
    proper divisor of an n in [L, 2L) is below L, so once all d < L have
    pushed, the sources in [L, 2L) are final together and push as one slice
    per multiplier k; single sources push below ``cut``, where slices per
    source are long.
    """
    n = max(points)
    f = _omega_table(n) + np.uint8(1)
    g = np.zeros(n + 1, dtype=np.int64)
    g[1] = 1
    cut = isqrt(2 * n)
    for d in range(1, min(cut, n // 2 + 1)):
        g[2 * d::d] -= g[d] * f[2:n // d + 1]
    lo = cut
    while lo <= n // 2:
        hi = min(2 * lo, n // 2 + 1)            # sources [lo, hi)
        for k in range(2, n // lo + 1):
            top = min(hi - 1, n // k)
            g[k * lo:k * top + 1:k] -= f[k] * g[lo:top + 1]
        lo = hi
    np.cumsum(g, out=g)
    return g[np.asarray(points)].tolist()


def _omega_table(n: int) -> np.ndarray:
    """omega(m) for m <= n: the primes up to sqrt(n) counted one by one, plus
    one where they leave a cofactor (a single prime above sqrt(n))."""
    omega = np.zeros(n + 1, dtype=np.uint8)
    smooth = np.ones(n + 1, dtype=np.int32)     # part of m made of small primes
    for p in np.nonzero(_prime_mask(isqrt(n)))[0].tolist():
        omega[p::p] += 1
        q = p
        while q <= n:
            smooth[q::q] *= p
            q *= p
    omega[smooth != np.arange(n + 1, dtype=np.int32)] += 1
    omega[:2] = 0
    return omega


def check_series(text: str, params: dict, reference: dict | None = None) -> str | None:
    limit = params["limit"]
    want_x = sorted(set(params["checkpoints"]) | {limit})
    rows = _ints(_csv(text, "x,M,G,Qsq,pi"), 5)
    xs = [r[0] for r in rows]
    if xs != want_x:
        return f"checkpoints differ from the {len(want_x)} requested"
    reference = reference or series_reference(limit, want_x)
    for i, (x, M, G, Qsq, pi) in enumerate(rows):
        for key, got in (("M", M), ("Qsq", Qsq), ("pi", pi), ("G", G)):
            if i < len(reference[key]) and got != reference[key][i]:
                return f"{key}({x}) = {got}, the checker gives {reference[key][i]}"
        published = REFERENCE["series"].get(str(x))
        if published and (M, G, Qsq, pi) != tuple(published[k] for k in ("M", "G", "Qsq", "pi")):
            return f"row {x} differs from the reference table: {(M, G, Qsq, pi)}"
    return None


# -- trace ----------------------------------------------------------------

def _trace_row(x: int, M: int, G: int) -> list:
    ll = math.log(math.log(x))
    lll = math.log(ll)
    sx = math.sqrt(x)
    sign = -1.0 if math.floor(ll) % 2 else 1.0
    return [
        M / sx,
        abs(M) / (sx * lll ** 1.25),
        abs(M) * lll ** 1.5 / sx,
        abs(M) * lll / math.sqrt(x * ll),
        abs(G) * lll ** 1.5 / sx,
        abs(G) * lll / math.sqrt(x * ll),
        M / (2 * G) if G else None,
        (6.0 * x / math.pi ** 2) * sign / (2.0 * math.sqrt(2.0 * math.pi * ll)),
    ]


def check_trace(text: str, series_text: str) -> str | None:
    lines = text.splitlines()
    refs = [ln for ln in lines if ln.startswith("# reference ")]
    got_refs = {ln.split()[2]: float(ln.split()[4]) for ln in refs}
    if got_refs != TRACE_REFERENCES:
        return f"reference lines {got_refs}"
    rows = _csv("\n".join(lines[len(refs):]), TRACE_HEADER)
    series = [r for r in _ints(_csv(series_text, "x,M,G,Qsq,pi"), 5) if r[0] >= 16]
    if len(rows) != len(series):
        return f"{len(rows)} trace rows for {len(series)} series rows >= 16"
    for row, (x, M, G, _, _) in zip(rows, series):
        if len(row) != 10 or int(row[0]) != x or int(row[9]) != M:
            return f"row for x={x} has wrong x or qhat_exact"
        for col, want in zip(row[1:9], _trace_row(x, M, G)):
            if (col == "") != (want is None) or (want is not None and not _close(col, want)):
                return f"row x={x}: {row[1:9]} vs {want}"
    return None


# -- stats ----------------------------------------------------------------

def _phi(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def cdf_expected(x: int, statistic: str) -> list:
    """The 256 quantile rows, derived from the exact value histogram."""
    if statistic == "omega":
        hist = REFERENCE["omega_counts"]
        ll = math.log(math.log(x))
        z = [(int(k) - ll) / math.sqrt(ll) for k in hist]
    else:
        hist = REFERENCE["c_omega_counts"]
        v = [math.log(int(k)) for k in hist]
        c = list(hist.values())
        n = sum(c)
        mean = math.fsum(ci * vi for ci, vi in zip(c, v)) / n
        sd = math.sqrt(math.fsum(ci * (vi - mean) ** 2 for ci, vi in zip(c, v)) / (n - 1))
        z = [(vi - mean) / sd for vi in v]
    counts = list(hist.values())
    n = sum(counts)
    cum = np.cumsum(counts).tolist()
    ks = max(max(abs(hi / n - _phi(zi)), abs((hi - ci) / n - _phi(zi)))
             for zi, ci, hi in zip(z, counts, cum))
    rows = []
    for i in range(1, 257):
        j = min(n - 1, max(0, (i * n) // 256 - 1))
        zj = z[bisect.bisect_right(cum, j)]
        rows.append([i / 256, zj, (j + 1) / n, _phi(zj), ks])
    return rows


def check_cdf(text: str, params: dict) -> str | None:
    if params["x"] != REFERENCE["cdf_x"]:
        return f"no reference histogram for x={params['x']}"
    rows = _csv(text, "quantile,z,ecdf,normal_cdf,ks")
    want = cdf_expected(params["x"], params["statistic"])
    if len(rows) != len(want):
        return f"{len(rows)} rows, expected {len(want)}"
    for i, (got, exp) in enumerate(zip(rows, want)):
        if len(got) != 5 or not all(_close(g, e) for g, e in zip(got, exp)):
            return f"quantile row {i + 1}: {got} vs {exp}"
    return None


def check_exponent(text: str, params: dict) -> str | None:
    x, p = params["x"], params["p"]
    rows = _csv(text, "x,p,k,count,empirical,predicted")
    if len(rows) != params["k_max"] + 1:
        return f"{len(rows)} rows for k = 0..{params['k_max']}"
    for k, row in enumerate(rows):
        count = x // p**k - x // p**(k + 1)
        if len(row) != 6 or [int(v) for v in row[:4]] != [x, p, k, count]:
            return f"row k={k}: {row[:4]}, expected count {count}"
        if not (_close(row[4], count / x) and _close(row[5], (1 - 1 / p) * p ** -k)):
            return f"row k={k}: densities {row[4:]}"
    return None


def check_excess(text: str, params: dict) -> str | None:
    x, m = params["x"], params["m"]
    if x != REFERENCE["excess_x"]:
        return f"no reference excess counts for x={x}"
    rows = _csv(text, "x,m,count,empirical,predicted,abs_error")
    count, dm = REFERENCE["excess_counts"][m], REFERENCE["d_m"][m]
    if len(rows) != 1 or len(rows[0]) != 6:
        return "expected one row of six columns"
    row = rows[0]
    if [int(v) for v in row[:3]] != [x, m, count]:
        return f"row {row[:3]}, expected count {count}"
    if not (_close(row[3], count / x) and _close(row[4], dm)
            and math.isclose(float(row[5]), abs(count / x - dm), abs_tol=1e-11)):
        return f"densities {row[3:]}"
    return None


# -- model and identities -------------------------------------------------

def geometric_checkpoints(n: int, ratio: float = 1.25) -> list:
    pts = {1, n}
    x = 1
    while x < n:
        x = min(max(int(x * ratio), x + 1), n)
        pts.add(x)
    d = 10
    while d <= n:
        pts.add(d)
        d *= 10
    return sorted(pts)


def model_trial(seed: int, x_max: int, checkpoints: list) -> list:
    """(Mbar, lil) at each checkpoint for one trial, from the documented
    draw mapping on the Philox stream keyed by ``seed``."""
    u = np.random.Generator(np.random.Philox(seed)).random(x_max)
    steps = np.where(u < 3 / math.pi**2, -1, np.where(u < 6 / math.pi**2, 1, 0))
    traj = np.cumsum(steps)
    xs = np.arange(1, x_max + 1, dtype=np.float64)
    scale = np.zeros(x_max)
    live = xs >= 16
    scale[live] = 1.0 / np.sqrt(xs[live] * np.log(np.log(xs[live])))
    running = np.maximum.accumulate(np.abs(traj) * scale)
    idx = np.asarray(checkpoints) - 1
    return list(zip(traj[idx].tolist(), running[idx].tolist()))


def check_simulate(text: str, params: dict) -> str | None:
    trials, x_max, t = params["trials"], params["x_max"], params["trial"]
    cps = geometric_checkpoints(x_max)
    rows = _csv(text, "trial,x,Mbar,lil_stat")
    if len(rows) != trials * len(cps):
        return f"{len(rows)} rows for {trials} trials x {len(cps)} checkpoints"
    for i, row in enumerate(rows):
        trial, x, mbar = (int(v) for v in row[:3])
        lil = row[3]
        if (trial, x) != (i // len(cps), cps[i % len(cps)]) or abs(mbar) > x:
            return f"row {i}: {row}"
        if (lil == "") != (x < 16):
            return f"row {i}: lil column {lil!r} at x={x}"
    mine = rows[t * len(cps):(t + 1) * len(cps)]
    for row, (mbar, lil) in zip(mine, model_trial(params["seed"] + t, x_max, cps)):
        if int(row[2]) != mbar or (row[3] and abs(float(row[3]) - lil) > 2e-9):
            return f"trial {t} row x={row[1]}: {row[2:]} vs re-derived {(mbar, lil)}"
    return None


def check_verify(text: str, params: dict) -> str | None:
    lines = text.splitlines()
    want = [f"[pass] {name}  (N={params['limit']})" for name in IDENTITIES]
    if len(lines) != len(want):
        return f"{len(lines)} lines for {len(want)} identities"
    for line, prefix in zip(lines, want):
        if not line.startswith(prefix + "  -- "):
            return f"line {line!r}"
    return None


def check_help(text: str, params: dict) -> str | None:
    names = ("sieve", "verify", "summatory", "stats", "simulate", "trace", "oeis-check")
    if not text.startswith("usage: mforge") or not all(n in text for n in names):
        return "help text lacks the usage line or a subcommand"
    return None


# -- one round ------------------------------------------------------------

def verdict(checker, *args) -> str | None:
    """The checker's failure reason, counting malformed output as a failure."""
    try:
        return checker(*args)
    except (ValueError, IndexError, KeyError) as exc:
        return f"malformed output: {exc!r}"


def check_round(spec: dict) -> dict:
    """Failure reason (or None) per command of one round of outputs."""
    work = Path(spec["dir"])
    result = {}
    for cmd in spec["commands"]:
        params = cmd["params"]
        try:
            text = (work / cmd["out"]).read_text()
            if cmd["kind"] == "series":
                args = (check_series, text, params, _cached_reference(work, params))
            elif cmd["kind"] == "trace":
                args = (check_trace, text, (work / params["series"]).read_text())
            else:
                args = (CHECKERS[cmd["kind"]], text, params)
        except OSError as exc:
            result[cmd["name"]] = f"unreadable output: {exc!r}"
            continue
        result[cmd["name"]] = verdict(*args)
    return result


def _cached_reference(work: Path, params: dict) -> dict:
    # The reference depends only on the request, which repeats every round.
    path = work / f"reference-{params['limit']}.json"
    points = sorted(set(params["checkpoints"]) | {params["limit"]})
    if path.exists():
        cached = json.loads(path.read_text())
        if cached["points"] == points:
            return cached
    ref = series_reference(params["limit"], points)
    ref["points"] = points
    path.write_text(json.dumps(ref))
    return ref


CHECKERS = {
    "cdf": check_cdf,
    "exponent": check_exponent,
    "excess": check_excess,
    "simulate": check_simulate,
    "verify": check_verify,
    "help": check_help,
}


if __name__ == "__main__":
    print(json.dumps(check_round(json.loads(Path(sys.argv[1]).read_text()))))
