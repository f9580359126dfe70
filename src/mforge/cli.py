"""Command-line entry point wiring every module together.

Subcommands: sieve, verify, summatory, stats, simulate, trace, oeis-check.
Data goes to stdout or the --out file (CSV by default, NDJSON with
--format json: one object per row); logging goes to stderr.  Exit codes:
0 success; 1 failed identity/comparison, I/O error, malformed input file,
arithmetic overflow, or a limit or segment that cannot fit in available
memory; 2 usage error.

The parser loads neither numpy nor an engine module, so ``--help`` and a
usage error cost only the interpreter; each command imports the modules it
runs when it is called.
"""

import argparse
import logging
import os
import sys
from contextlib import contextmanager, nullcontext, suppress
from itertools import chain
from math import isqrt

from . import IDENTITY_NAMES, LIL_MIN_X

log = logging.getLogger("mforge")

USAGE_ERROR = 2

#: The numeric tables' columns and their CSV %-formats.  ``summatory`` writes
#: the series table and ``trace`` reads it back.
SERIES_COLUMNS = ("x", "M", "G", "Qsq", "pi")
SERIES_FORMATS = ("%d",) * 5
TRACE_COLUMNS = ("x", "q", "gonek", "r1", "r2", "rG1", "rG2",
                 "twice_g", "qhat_pred", "qhat_exact")
TRACE_FORMATS = ("%d",) + ("%.12g",) * 8 + ("%d",)
RUNS_COLUMNS = ("trial", "x", "Mbar", "lil_stat")
RUNS_FORMATS = ("%d", "%d", "%d", "%.9f")

#: Header of the ``sieve`` export, which is followed by every prime up to
#: the limit as a little-endian u64.
PRIME_EXPORT_MAGIC = b"MFPRIMES1"

#: Rows formatted per write.  Small, so that a table of N rows adds no peak
#: that grows with N (summatory is held to 128 B per eval point).
WRITE_CHUNK_ROWS = 1024


class InputFileError(Exception):
    """An input file is malformed or lacks the rows a command needs."""


@contextmanager
def _reading(path):
    """Report a ValueError raised while reading ``path`` as an input-file error."""
    try:
        yield
    except ValueError as exc:
        raise InputFileError(f"{path}: {exc}") from exc


def _open_in(path):
    return nullcontext(sys.stdin) if path == "-" else open(path)


def _open_out(config):
    if config.out in (None, "-"):
        return nullcontext(sys.stdout)
    return open(config.out, "w")


def _values(column) -> list:
    """A column slice as Python values, None where a float is NaN."""
    import numpy as np

    if not isinstance(column, np.ndarray):
        return list(column)
    values = column.tolist()
    if column.dtype.kind == "f":
        for i in np.flatnonzero(np.isnan(column)).tolist():
            values[i] = None
    return values


def _emit_rows(config, header, blocks, formats=None, comments=()):
    """Write blocks of rows as one table: CSV, or NDJSON objects of the raw
    values with --format json.  Each block, a list of equal-length columns,
    is taken from ``blocks`` once the one before is written.

    ``formats`` holds one %-format per column (default ``%s``); a missing
    value (None, or NaN in a float column) is an empty CSV field and a JSON
    null.  ``comments`` are written as ``# `` lines before the CSV header.
    """
    formats = formats or ("%s",) * len(header)
    if config.format == "json":
        import json
    with _open_out(config) as fh:
        if config.format == "csv":
            fh.writelines(f"# {line}\n" for line in comments)
            fh.write(",".join(header) + "\n")
        for columns in blocks:
            for lo in range(0, len(columns[0]), WRITE_CHUNK_ROWS):
                cols = [_values(c[lo:lo + WRITE_CHUNK_ROWS]) for c in columns]
                if config.format == "json":
                    fh.writelines(json.dumps(dict(zip(header, row))) + "\n"
                                  for row in zip(*cols))
                    continue
                fmts = list(formats)
                for j, col in enumerate(cols):
                    if None in col:
                        cols[j] = ["" if v is None else fmts[j] % v for v in col]
                        fmts[j] = "%s"
                line = ",".join(fmts) + "\n"
                fh.write("".join(map(line.__mod__, zip(*cols))))


def read_series(fh):
    """Parse a series table (``x,M,G,Qsq,pi`` rows, as ``summatory`` writes
    them) into ``SummatoryRows``; any malformed row is a ValueError."""
    import numpy as np

    from .summatory import SummatoryRows

    header = fh.readline().strip()
    if header != ",".join(SERIES_COLUMNS):
        raise ValueError(f"unexpected series header {header!r}")
    first = next((line for line in fh if line.strip()), None)
    if first is None:       # loadtxt would warn on an empty table
        table = np.empty((0, len(SERIES_COLUMNS)), dtype=np.int64)
    else:
        table = np.loadtxt(chain([first], fh), dtype=np.int64, delimiter=",", ndmin=2)
    if table.shape[1] != len(SERIES_COLUMNS):
        raise ValueError(f"series rows have {table.shape[1]} fields, "
                         f"expected {len(SERIES_COLUMNS)}")
    return SummatoryRows(*table.T)


def read_bfile(path) -> list:
    """The ``(index, value)`` pairs of an OEIS b-file (lines ``index value``).

    Comment lines starting with ``#`` and blank lines are skipped; any other
    line that does not start with two integers raises ValueError.
    """
    entries = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) < 2:
                raise ValueError(f"malformed b-file line: {line.strip()!r}")
            entries.append((int(parts[0]), int(parts[1])))
    return entries


def _fmt_float(v: float) -> str:
    return f"{v:.12g}"


def cmd_sieve(config: argparse.Namespace) -> int:
    import numpy as np

    from . import arith
    from .parallel import WorkerPool

    _require_segment(config, config.limit)

    def primes(seg, ws):    # the series' own prime test; as <i8, the export's u64s
        return np.concatenate([np.flatnonzero(cols["big_omega"] == 1) + (seg.lo + a)
                               for a, cols in arith.profile_chunks(seg, {"big_omega"}, ws)]
                              ).astype("<i8", copy=False)

    # the range is checked before --out is created; chunks are written as they come
    chunks = WorkerPool(config.threads).sweep(1, config.limit + 1, config.segment_size, primes)
    count = 0
    with open(config.out, "wb") as fh:
        try:
            fh.write(PRIME_EXPORT_MAGIC)
            for chunk in chunks:
                fh.write(chunk)
                count += len(chunk)
        except BaseException:
            # emptied, a partial export has no header (a device or FIFO stays as is)
            with suppress(OSError):
                fh.truncate(0)
            raise
    log.info("exported %d primes <= %d to %s", count, config.limit, config.out)
    return 0


#: Peak bytes per n of ``verify --identity all`` (a four-column profile of
#: 1..limit: 421 MB at 1e7), and per eval point of ``summatory``, which sums
#: G directly from g at each; every n is one for ``--checkpoints all``
#: (86.3 B/n traced at 5e4, one segment; 54.4 B/n of RSS at 1e7).
VERIFY_BYTES_PER_N = 44
SUMMATORY_DIRECT_BYTES_PER_N = 128

#: Peak bytes per output row (trial x checkpoint) of ``simulate``: the runs'
#: mbar and lil values and shared ladder, written one trial at a time
#: (30.7 B/row at 2e6 rows of ``--checkpoints all`` over the RSS of a run
#: that loads numpy and the engine but sweeps nothing, 24 B/row from 5e5 to
#: 4e6, plus 6%).
SIMULATE_BYTES_PER_ROW = 33


def available_memory(meminfo: str = "/proc/meminfo") -> int:
    """Bytes a new run may take: MemAvailable in ``meminfo``, else physical memory."""
    try:
        with open(meminfo) as fh:
            fields = dict(line.split(":", 1) for line in fh)
        return int(fields["MemAvailable"].split()[0]) * 1024
    except (OSError, KeyError, ValueError):
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_memory(run: str, need: int):
    """Refuse a run whose estimated peak of ``need`` bytes exceeds the available memory."""
    have = available_memory()
    if need > have:
        raise MemoryError(f"{run} needs about {need / 2**30:.1f} GiB, "
                          f"more than the {have / 2**30:.1f} GiB of available memory")


#: Peak bytes per entry of one kernel call on five columns (no sweep asks for
#: both c_omega and u), the bound of ``tests/test_arith.py::test_profile_peak_bytes_per_entry``.
KERNEL_BYTES_PER_ENTRY = 17


def _require_segment(config, extent: int):
    """Refuse a --segment-size whose kernel columns, on every worker a sweep
    over ``extent`` entries keeps busy, exceed the available memory."""
    size = config.segment_size
    workers = min(config.threads, -(-extent // size))
    need, have = min(size, extent) * workers * KERNEL_BYTES_PER_ENTRY, available_memory()
    if need > have:
        raise MemoryError(f"--segment-size {size} needs about {need / 2**30:.1f} GiB on "
                          f"{workers} worker(s), more than the {have / 2**30:.1f} GiB of "
                          "available memory")


def cmd_verify(config: argparse.Namespace) -> int:
    from . import arith, dirichlet, sieve

    names = IDENTITY_NAMES if config.identity == "all" else (config.identity,)
    _require_memory(f"verify up to {config.limit}", config.limit * VERIFY_BYTES_PER_N)
    profile = arith.profile_range(sieve.Segment(1, config.limit + 1),
                                  columns=dirichlet.IDENTITY_COLUMNS)
    failed = False
    with _open_out(config) as fh:
        for name in names:
            report = dirichlet.verify_identity(name, config.limit, profile=profile)
            fh.write(f"{report}  -- {dirichlet.IDENTITY_LABELS[name]}\n")
            failed |= not report.passed
    return 1 if failed else 0


def cmd_summatory(config: argparse.Namespace) -> int:
    from . import sieve, summatory
    from .parallel import WorkerPool

    policy, limit = config.checkpoints, config.limit
    sieve.Segment(1, limit + 1)     # past the kernel's bound, refuse before any estimate
    # rows are kept at every eval point: every n for "all", which is refused
    # before its ladder, else fewer than 2 isqrt(sum c) + 1 (_eval_point_union)
    cps = None if policy.kind == "all" else policy.checkpoints(limit)
    points = limit if cps is None else min(limit, 2 * isqrt(int(cps.sum(dtype=float))) + 1)
    _require_memory(f"summatory up to {limit}", points * SUMMATORY_DIRECT_BYTES_PER_N)
    _require_segment(config, limit)
    series = summatory.build_series(limit, policy, segment_size=config.segment_size,
                                    pool=WorkerPool(config.threads), checkpoints=cps)
    log.info("summatory: %d checkpoints, %d eval points",
             len(series.checkpoints), len(series.eval_points))
    _emit_rows(config, SERIES_COLUMNS,
               [[series.checkpoints, series.M, series.G, series.Qsq, series.pi]],
               SERIES_FORMATS)
    return 0


def cmd_stats(config: argparse.Namespace) -> int:
    from . import stats
    from .parallel import WorkerPool

    pool = WorkerPool(config.threads)
    x = config.x
    kind = config.report
    if kind != "exponent":          # every other report sweeps 1..x
        _require_segment(config, x)
    if kind in ("omega-k", "excess", "sign", "conditional"):
        counts = stats.collect_counts(x, config.segment_size, pool=pool)
    if kind == "omega-k":
        r = stats.omega_k_density(x, _require(config.k, "--k"), counts)
        header = ["x", "k", "count", "empirical", "predicted", "abs_error"]
        rows = [(r.x, r.k, r.count, _fmt_float(r.empirical),
                 _fmt_float(r.predicted), _fmt_float(r.abs_error))]
    elif kind == "excess":
        r = stats.excess_density(x, _require(config.m, "--m"), counts)
        header = ["x", "m", "count", "empirical", "predicted", "abs_error"]
        rows = [(r.x, r.k, r.count, _fmt_float(r.empirical),
                 _fmt_float(r.predicted), _fmt_float(r.abs_error))]
    elif kind == "sign":
        b = stats.sign_balance(x, counts)
        fp, fm = b.fractions
        header = ["x", "squarefree", "plus", "minus", "plus_fraction", "minus_fraction"]
        rows = [(b.x, b.squarefree, b.plus, b.minus, _fmt_float(fp), _fmt_float(fm))]
    elif kind == "conditional":
        r = stats.conditional_squarefree(x, _require(config.k, "--k"), counts)
        header = ["x", "k", "class_count", "squarefree_in_class",
                  "conditional", "unconditional", "ratio", "undefined"]
        rows = [(r.x, r.k, r.class_count, r.squarefree_in_class,
                 None if r.undefined else _fmt_float(r.conditional),
                 _fmt_float(r.unconditional),
                 None if r.undefined else _fmt_float(r.ratio),
                 int(r.undefined))]
    elif kind == "exponent":
        table = stats.prime_exponent_distribution(x, _require(config.p, "--p"),
                                                  config.k if config.k is not None else 6)
        header = ["x", "p", "k", "count", "empirical", "predicted"]
        rows = [(r.x, config.p, r.k, r.count, _fmt_float(r.empirical),
                 _fmt_float(r.predicted)) for r in table]
    elif kind == "cdf":
        cdf = stats.erdos_kac_cdf(x, config.statistic, config.segment_size, pool=pool)
        log.info("KS distance vs standard normal at x=%d (%s): %.6f",
                 x, config.statistic, cdf.ks)
        header = ["quantile", "z", "ecdf", "normal_cdf", "ks"]
        rows = list(_cdf_quantile_rows(cdf))
    else:
        raise ValueError(f"unknown stats report {kind!r}")
    # the floats are already .12g strings, in CSV and in JSON alike
    _emit_rows(config, header, [list(zip(*rows))])
    return 0


def _cdf_quantile_rows(cdf, grid: int = 256):
    from .stats import normal_cdf

    n = cdf.size
    cum = cdf.counts.cumsum()
    for i in range(1, grid + 1):
        j = min(n - 1, max(0, (i * n) // grid - 1))
        z = float(cdf.z[cum.searchsorted(j, side="right")])   # sample value of rank j
        yield (_fmt_float(i / grid), _fmt_float(z), _fmt_float((j + 1) / n),
               _fmt_float(normal_cdf(z)), _fmt_float(cdf.ks))


def _require(value, flag):
    if value is None:
        raise ValueError(f"this report requires {flag}")
    return value


def cmd_simulate(config: argparse.Namespace) -> int:
    import numpy as np

    from . import randmodel
    from .parallel import WorkerPool

    policy, trials, x_max = config.checkpoints, config.trials, config.x_max
    # every checkpoint of every trial is kept until the table is written, so
    # the rows are refused up front, those of "all" before its ladder
    rows = x_max if policy.kind == "all" else len(policy.checkpoints(x_max))
    _require_memory(f"simulate of {trials} trials x {rows} checkpoints",
                    trials * rows * SIMULATE_BYTES_PER_ROW)
    pool = WorkerPool(config.threads)
    runs = randmodel.simulate_many(config.seed, trials, x_max, policy, pool=pool)
    summary = randmodel.lil_statistic(runs)
    log.info("lil sup: aggregate %.6f (mean %.6f over %d runs; reference %.7f)",
             summary.aggregate_sup, summary.aggregate_mean, len(runs),
             summary.reference)
    for r in runs:      # the statistic is undefined below x = 16; the ladder is ascending
        r.lil_running_max[:np.searchsorted(r.checkpoints, LIL_MIN_X)] = np.nan
    # one block per trial, written from the run's own arrays
    _emit_rows(config, RUNS_COLUMNS,
               ([np.broadcast_to(t, len(r.checkpoints)), r.checkpoints, r.mbar,
                 r.lil_running_max] for t, r in enumerate(runs)), RUNS_FORMATS)
    return 0


def cmd_trace(config: argparse.Namespace) -> int:
    from . import tracker

    with _reading(config.infile), _open_in(config.infile) as fh:
        trace = tracker.build_trace(read_series(fh))
    # twice_g is NaN exactly where it is undefined, so it is written empty there
    _emit_rows(config, TRACE_COLUMNS, [[getattr(trace, c) for c in TRACE_COLUMNS]],
               TRACE_FORMATS,
               comments=[f"reference {k} = {v}" for k, v in trace.references.items()])
    return 0


#: The kernel column each sequence is read from, one segment at a time; g is
#: gathered by prime signature, so it needs no prefix table.
OEIS_SEQUENCES = {"mu": "mobius", "lambda": "liouville", "g": "g_sig"}


def cmd_oeis_check(config: argparse.Namespace) -> int:
    import numpy as np

    from . import arith
    from .parallel import WorkerPool

    with _reading(config.bfile):
        entries = read_bfile(config.bfile)
        limit = max((idx for idx, _ in entries), default=0)
        if config.limit:
            limit = min(limit, config.limit)
        if limit < 1:
            raise ValueError("no usable entries")
    column = OEIS_SEQUENCES[config.sequence]
    _require_segment(config, limit)
    # the entries of each segment, in file order, so a segment reads only its own
    size = config.segment_size
    by_segment = {}
    for idx, val in entries:
        if 1 <= idx <= limit:
            by_segment.setdefault((idx - 1) // size, []).append((idx, val))

    def check(seg, ws):
        mine = by_segment.get((seg.lo - 1) // size)
        if mine is None:
            return None
        # the computed value of each entry, gathered chunk by chunk
        at = np.array([idx for idx, _ in mine]) - seg.lo
        got = np.empty(len(mine), dtype=np.int64)
        for a, cols in arith.profile_chunks(seg, {column}, ws):
            col = cols[column]
            here = (at >= a) & (at < a + len(col))
            got[here] = col[at[here] - a]
        return next(((idx, val, g) for (idx, val), g in zip(mine, got.tolist())
                     if g != val), None)
    mismatches = WorkerPool(config.threads).sweep(1, limit + 1, size, check)
    # each segment reports its first mismatch in file order; the first of those
    # in file order is the first mismatch of the whole file
    found = [m for m in mismatches if m is not None]
    if not found:
        print(f"{config.sequence}: all entries up to {limit} match {config.bfile}")
        return 0
    idx, want, got = min(found, key=lambda m: entries.index(m[:2]))
    print(f"{config.sequence}: first mismatch at index {idx}: "
          f"file has {want}, computed {got}")
    return 1


_COMMANDS = {
    "sieve": cmd_sieve,
    "verify": cmd_verify,
    "summatory": cmd_summatory,
    "stats": cmd_stats,
    "simulate": cmd_simulate,
    "trace": cmd_trace,
    "oeis-check": cmd_oeis_check,
}


def run(config: argparse.Namespace) -> int:
    """Dispatch a parsed config; returns the process exit code."""
    try:
        return _COMMANDS[config.subcommand](config)
    except (InputFileError, OverflowError, MemoryError) as exc:
        log.error("%s", exc)
        return 1
    except ValueError as exc:
        log.error("%s", exc)
        return USAGE_ERROR
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename is not None else ""
        log.error("%s%s", where, exc.strerror or exc)
        return 1


def _read_config_file(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def _at_least(lo: int):
    """argparse type: an integer >= lo."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    return convert


def _path(text: str) -> str:
    """argparse type: a non-empty path."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return text


def _policy(text: str):
    """argparse type: a ``CheckpointPolicy``."""
    from .summatory import CheckpointPolicy

    try:
        return CheckpointPolicy.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None


POSITIVE = _at_least(1)
NON_NEGATIVE = _at_least(0)


def _default_threads() -> int:
    from .parallel import default_threads
    return default_threads()


def _default_segment_size() -> int:
    from .sieve import DEFAULT_SEGMENT_CAPACITY
    return DEFAULT_SEGMENT_CAPACITY


def _default_policy():
    from .summatory import CheckpointPolicy
    return CheckpointPolicy()


#: The keys a --config file may set, each with the converter of the flag of
#: the same name and the maker of the value used when neither a flag nor the
#: file gives one, called only after parsing.
CONFIG_KEYS = {
    "threads": (POSITIVE, _default_threads),
    "segment_size": (POSITIVE, _default_segment_size),
    "checkpoints": (_policy, _default_policy),
    "limit": (NON_NEGATIVE, lambda: 0),
}


def build_parsers() -> tuple:
    """The mforge parser, and each subcommand's own parser by name."""
    # A SUPPRESS-defaulted flag enters the namespace only when given, so no
    # subparser default clobbers a value parsed before the subcommand name
    # (global flags are accepted in both positions), and parse_config can
    # tell which CONFIG_KEYS the config file may fill
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=_path, default=argparse.SUPPRESS,
                        help="key=value defaults file; flags override")
    common.add_argument("--threads", type=POSITIVE, default=argparse.SUPPRESS,
                        help="worker count (default: MFORGE_THREADS or 1)")
    common.add_argument("--segment-size", type=POSITIVE, default=argparse.SUPPRESS,
                        help="sieve segment capacity (default 2^20)")
    common.add_argument("-v", "--verbose", action="count", default=argparse.SUPPRESS,
                        help="more logging on stderr")
    common.add_argument("-q", "--quiet", action="store_true",
                        default=argparse.SUPPRESS, help="errors only")

    ap = argparse.ArgumentParser(
        prog="mforge",
        description="Sieve laboratory for Mertens-adjacent arithmetic functions.",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="subcommand", required=True,
                            parser_class=lambda **kw: argparse.ArgumentParser(
                                parents=[common], **kw))

    def add_out(p):
        p.add_argument("--out", "--output", dest="out", type=_path, default=None,
                       help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="csv (default) or json, one object per row")

    p = sub.add_parser("sieve", help="export the primes up to --limit")
    p.add_argument("--limit", type=POSITIVE, required=True)
    p.add_argument("--out", "--output", dest="out", type=_path, required=True,
                   help="binary export path (MFPRIMES1 header + u64le primes)")

    p = sub.add_parser("verify", help="exact convolution identity suite")
    p.add_argument("--identity", default="all",
                   choices=list(IDENTITY_NAMES) + ["all"],
                   help="which identity to check (default: all)")
    p.add_argument("--limit", type=POSITIVE, required=True,
                   help="check the identity exactly on 1..N")
    p.add_argument("--out", "--output", dest="out", type=_path, default=None)

    p = sub.add_parser("summatory", help="checkpointed summatory series")
    p.add_argument("--limit", type=POSITIVE, required=True,
                   help="upper limit N of the streaming pass")
    p.add_argument("--checkpoints", type=_policy, default=argparse.SUPPRESS,
                   help="all | geometric[:ratio] | explicit:x1,x2,... "
                        "(default: geometric:1.25 plus powers of 10)")
    add_out(p)

    p = sub.add_parser("stats", help="distribution measurements")
    p.add_argument("--x", type=POSITIVE, required=True, help="count over n <= x")
    p.add_argument("--report", required=True,
                   choices=("omega-k", "excess", "sign", "conditional", "exponent", "cdf"))
    p.add_argument("--k", type=int, default=None,
                   help="factor count (omega-k, conditional) or max exponent (exponent, default 6)")
    p.add_argument("--m", type=int, default=None, help="excess factor count")
    p.add_argument("--p", type=int, default=None, help="prime for the exponent report")
    p.add_argument("--statistic", choices=("omega", "log_c_omega"), default="omega",
                   help="cdf statistic (default: omega)")
    add_out(p)

    p = sub.add_parser("simulate", help="randomized Mobius model runs")
    p.add_argument("--seed", type=NON_NEGATIVE, default=0,
                   help="base seed >= 0; trial i uses stream seed+i (default: 0)")
    p.add_argument("--trials", type=POSITIVE, default=1,
                   help="independent trajectories (default: 1)")
    p.add_argument("--x-max", type=_at_least(LIL_MIN_X), required=True,
                   help="draws per trajectory (>= 16)")
    p.add_argument("--checkpoints", type=_policy, default=argparse.SUPPRESS,
                   help="recording points (default: geometric:1.25)")
    add_out(p)

    p = sub.add_parser("trace", help="scaled growth ratios from a series CSV")
    p.add_argument("--in", dest="infile", type=_path, required=True,
                   help="checkpoint CSV ('-' for stdin)")
    add_out(p)

    p = sub.add_parser("oeis-check", help="compare a sequence against a b-file")
    p.add_argument("--sequence", required=True, choices=sorted(OEIS_SEQUENCES))
    p.add_argument("--bfile", type=_path, required=True)
    p.add_argument("--limit", type=NON_NEGATIVE, default=argparse.SUPPRESS,
                   help="cap on indices to check (default: whole file)")

    return ap, sub.choices


def parse_config(argv) -> argparse.Namespace:
    """Parse argv into the run config.

    Each CONFIG_KEYS value comes from its flag, else from the --config file
    (checked whole, even where a flag wins), else from its default (for
    threads, MFORGE_THREADS or 1).  A default is made only for a key whose
    flag the subcommand has, so that no command imports the module behind
    another command's default.
    """
    ap, subcommands = build_parsers()
    config = ap.parse_args(argv)
    if "config" in config:
        try:
            entries = _read_config_file(config.config)
        except (OSError, UnicodeDecodeError) as exc:
            ap.exit(1, f"mforge: error: {config.config}: "
                       f"{getattr(exc, 'strerror', None) or exc}\n")
        for key, text in entries.items():
            if key not in CONFIG_KEYS:
                ap.error(f"config file {config.config}: unknown key {key!r}")
            try:
                value = CONFIG_KEYS[key][0](text)
            except argparse.ArgumentTypeError as exc:
                ap.error(f"config file {config.config}: {key}: {exc}")
            if key not in config:
                setattr(config, key, value)
    has_flag = subcommands[config.subcommand].get_default
    for key, (_, default) in CONFIG_KEYS.items():
        if key not in config and has_flag(key) is not None:
            setattr(config, key, default())
    return config


def main(argv=None) -> int:
    config = parse_config(sys.argv[1:] if argv is None else argv)
    verbosity = -1 if getattr(config, "quiet", False) else getattr(config, "verbose", 0)
    level = logging.WARNING
    if verbosity < 0:
        level = logging.ERROR
    elif verbosity == 1:
        level = logging.INFO
    elif verbosity >= 2:
        level = logging.DEBUG
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s", force=True)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
