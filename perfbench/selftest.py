"""Self-test of the output checkers: real outputs pass, corrupted ones fail.

    python3 perfbench/selftest.py

Runs small mforge commands (the CDF and excess reports at x = 1e7, where the
reference histograms live), checks that every checker accepts their output,
then feeds each checker corrupted copies (one digit changed, a row
truncated, a ``verify`` line flipped to ``[FAIL]``) and checks that each is
reported.  Exits 1 if any case goes the wrong way.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SERIES_POINTS = [10, 100, 1000, 1234, 10000, 56789, 100000]
CASES = [
    # name, argv, checker kind, params
    ("series", ["summatory", "--limit", "100000", "--checkpoints",
                "explicit:" + ",".join(map(str, SERIES_POINTS))],
     "series", {"limit": 100000, "checkpoints": SERIES_POINTS}),
    ("verify", ["verify", "--identity", "all", "--limit", "3000"], "verify", {"limit": 3000}),
    ("exponent", ["stats", "--x", "100000", "--report", "exponent", "--p", "3"],
     "exponent", {"x": 100000, "p": 3, "k_max": 6}),
    ("excess", ["stats", "--x", "10000000", "--report", "excess", "--m", "2"],
     "excess", {"x": 10**7, "m": 2}),
    ("cdf", ["stats", "--x", "10000000", "--report", "cdf", "--statistic", "omega"],
     "cdf", {"x": 10**7, "statistic": "omega"}),
    ("simulate", ["simulate", "--seed", "11", "--trials", "3", "--x-max", "5000"],
     "simulate", {"seed": 11, "trials": 3, "x_max": 5000, "trial": 1}),
    ("help", ["--help"], "help", {}),
]


def change_digit(text: str, line: int, field: int, which: int = -1) -> str:
    """Bump one digit (the last by default) of one field of one line.

    Printed floats are checked to a relative tolerance, so their corruption
    must hit a leading digit (``which=0``); integers are checked exactly.
    """
    lines = text.split("\n")
    cells = lines[line].split(",")
    cell = cells[field]
    pos = [i for i, ch in enumerate(cell) if ch.isdigit()][which]
    cells[field] = cell[:pos] + str((int(cell[pos]) + 1) % 10) + cell[pos + 1:]
    lines[line] = ",".join(cells)
    return "\n".join(lines)


def truncate_row(text: str, line: int) -> str:
    lines = text.split("\n")
    lines[line] = lines[line].rsplit(",", 1)[0]
    return "\n".join(lines)


def corruptions(name: str, text: str) -> list:
    if name == "series":
        return [("M digit in a row between powers of ten", change_digit(text, 4, 1)),
                ("G digit at 10^4", change_digit(text, 5, 2)),
                ("G digit in a row between powers of ten", change_digit(text, 6, 2)),
                ("pi digit at the limit", change_digit(text, 7, 4)),
                ("row truncated", truncate_row(text, 3))]
    if name == "verify":
        return [("one line flipped to [FAIL]", text.replace("[pass] c", "[FAIL] c")),
                ("one line missing", "\n".join(text.split("\n")[1:]))]
    if name in ("exponent", "excess"):
        return [("count digit", change_digit(text, 1, 3 if name == "exponent" else 2)),
                ("row truncated", truncate_row(text, 1))]
    if name == "cdf":
        return [("z digit", change_digit(text, 100, 1, 0)),
                ("ks digit", change_digit(text, 7, 4, 0)),
                ("row truncated", truncate_row(text, 256))]
    if name == "simulate":
        end = 2 * (len(text.split("\n")) - 2) // 3    # last row of trial 1
        return [("Mbar digit in the re-derived trial", change_digit(text, end - 2, 2)),
                ("lil digit in the re-derived trial", change_digit(text, end - 4, 3, 0)),
                ("row truncated", truncate_row(text, 5))]
    return [("usage line dropped", text.split("\n", 1)[1])]


def trace_case(work: Path, env: dict) -> list:
    """The trace checker, on a trace built from the series output."""
    subprocess.run([sys.executable, "-m", "mforge.cli", "trace", "--in", "series.out",
                    "--out", "trace.out"], cwd=work, env=env, check=True)
    series = (work / "series.out").read_text()
    text = (work / "trace.out").read_text()
    bad_series = change_digit(series, 5, 2)
    cases = [(None, text, series),
             ("q digit", change_digit(text, 5, 1, 0), series),
             ("series G changed under the trace", text, bad_series),
             ("row truncated", truncate_row(text, 6), series)]
    return [(label, checks.verdict(checks.check_trace, t, s)) for label, t, s in cases]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("MFORGE_THREADS", None)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    wrong = 0
    try:
        for name, argv, kind, params in CASES:
            with open(work / f"{name}.out", "w") as fh:
                subprocess.run([sys.executable, "-m", "mforge.cli", *argv], cwd=work,
                               env=env, stdout=fh, check=True)
            text = (work / f"{name}.out").read_text()
            checker = checks.check_series if kind == "series" else checks.CHECKERS[kind]
            results = [(None, checks.verdict(checker, text, params))]
            results += [(label, checks.verdict(checker, bad, params))
                        for label, bad in corruptions(name, text)]
            if name == "series":
                results += trace_case(work, env)
            for label, reason in results:
                ok = (reason is None) == (label is None)
                wrong += not ok
                what = label or "real output"
                print(f"{'ok ' if ok else 'BAD'} {name:<9} {what:<38} -> {reason or 'accepted'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(f"{wrong} checker case(s) went the wrong way")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
