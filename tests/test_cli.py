import ast
import json
import os
import subprocess
import sys
import warnings
from math import isqrt
from pathlib import Path

import numpy as np
import pytest

from mforge import stats
from mforge.cli import (
    RUNS_COLUMNS,
    SERIES_COLUMNS,
    TRACE_COLUMNS,
    WRITE_CHUNK_ROWS,
    _cdf_quantile_rows,
    main,
    parse_config,
)
from mforge.randmodel import simulate_many
from mforge.sieve import DEFAULT_SEGMENT_CAPACITY, primes_up_to
from mforge.summatory import CheckpointPolicy, SummatoryRows, build_series
from mforge.tracker import build_trace

import oracles


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_verify_all_pass(capsys):
    code, out, _ = run_cli(["verify", "--identity", "all", "--limit", "2000"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 6
    assert all(l.startswith("[pass]") for l in lines)


def test_verify_single_identity(capsys):
    code, out, _ = run_cli(["verify", "--identity", "b", "--limit", "500"], capsys)
    assert code == 0
    assert out.count("[pass]") == 1


def test_verify_usage_error_limit_zero():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--identity", "b", "--limit", "0"])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--bogus"])
    assert exc.value.code == 2


def test_summatory_csv_format(tmp_path):
    out = tmp_path / "series.csv"
    code = main(["summatory", "--limit", "1000", "--checkpoints", "geometric:1.25",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,M,G,Qsq,pi"
    assert lines[1] == "1,1,1,1,0"
    assert lines[-1].startswith("1000,")


def test_summatory_json_mirror(tmp_path):
    out = tmp_path / "series.ndjson"
    code = main(["summatory", "--limit", "100", "--format", "json", "--out", str(out)])
    assert code == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert rows[0] == {"x": 1, "M": 1, "G": 1, "Qsq": 1, "pi": 0}
    assert rows[-1]["x"] == 100 and rows[-1]["M"] == 1


def test_trace_round_trip(tmp_path):
    series = tmp_path / "series.csv"
    trace = tmp_path / "trace.csv"
    assert main(["summatory", "--limit", "100000", "--out", str(series)]) == 0
    assert main(["trace", "--in", str(series), "--out", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any("0.242528" in l for l in meta)
    assert any("1.826054" in l for l in meta)
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "x,q,gonek,r1,r2,rG1,rG2,twice_g,qhat_pred,qhat_exact"


def test_trace_reads_stdin(tmp_path):
    series = tmp_path / "series.csv"
    trace = tmp_path / "trace.csv"
    assert main(["summatory", "--limit", "1000", "--out", str(series)]) == 0
    assert main(["trace", "--in", str(series), "--out", str(trace)]) == 0
    summatory = subprocess.Popen([sys.executable, "-m", "mforge.cli", "summatory",
                                  "--limit", "1000"], stdout=subprocess.PIPE)
    piped = subprocess.run([sys.executable, "-m", "mforge.cli", "trace", "--in", "-"],
                           stdin=summatory.stdout, capture_output=True, text=True, timeout=60)
    summatory.stdout.close()
    assert summatory.wait(timeout=60) == 0
    assert piped.returncode == 0, piped.stderr
    assert piped.stdout == trace.read_text()


def test_stats_excess_report(capsys):
    code, out, _ = run_cli(
        ["stats", "--x", "100000", "--report", "excess", "--m", "0"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,m,count,empirical,predicted,abs_error"
    cells = lines[1].split(",")
    assert cells[:3] == ["100000", "0", "60794"]
    assert float(cells[4]) == pytest.approx(0.6079271, abs=1e-6)


def test_stats_missing_flag_is_usage_error(capsys):
    code, _, err = run_cli(["stats", "--x", "1000", "--report", "excess"], capsys)
    assert code == 2
    assert "--m" in err


def test_stats_exponent_report(capsys):
    code, out, _ = run_cli(
        ["stats", "--x", "4096", "--report", "exponent", "--p", "2", "--k", "2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,p,k,count,empirical,predicted"
    assert lines[1].split(",")[3] == "2048"


def test_stats_cdf_quantiles_monotone_small_sample(capsys):
    # sample smaller than the quantile grid: z column must stay sorted
    code, out, _ = run_cli(["stats", "--x", "150", "--report", "cdf"], capsys)
    assert code == 0
    zs = [float(l.split(",")[1]) for l in out.splitlines()[1:]]
    assert zs == sorted(zs)
    ecdf = [float(l.split(",")[2]) for l in out.splitlines()[1:]]
    assert ecdf[0] < 0.5 and ecdf[-1] == 1.0


@pytest.mark.parametrize("statistic", ["omega", "log_c_omega"])
def test_stats_cdf_independent_of_segment_size(statistic, capsys):
    # the histogram merge does not depend on where segments start or end
    args = ["stats", "--x", "1000", "--report", "cdf", "--statistic", statistic]
    code, default, _ = run_cli(args, capsys)
    assert code == 0
    code, small, _ = run_cli(args + ["--segment-size", "2"], capsys)
    assert code == 0
    assert small == default


def test_simulate_reproducible(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["simulate", "--seed", "7", "--trials", "5", "--x-max", "10000"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b), "--threads", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "trial,x,Mbar,lil_stat"


def test_simulate_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--x-max", "4"])
    assert exc.value.code == 2


def test_sieve_cache(tmp_path):
    out = tmp_path / "primes.bin"
    assert main(["sieve", "--limit", "10000", "--out", str(out)]) == 0
    assert np.array_equal(oracles.load_prime_cache(out), primes_up_to(10000))


@pytest.mark.parametrize("limit", [1, 2, 3, 4, 10, 30031, 2**20, 2**20 + 1])
def test_sieve_export_independent_of_segments_and_threads(limit, tmp_path):
    # the streamed export holds the classical sieve's primes, whatever the cut
    want = primes_up_to(limit)
    out = tmp_path / "primes.bin"
    for size in ([7] if limit <= 30031 else []) + [1000, None]:
        for threads in (1, 2, 3):
            args = ["sieve", "--limit", str(limit), "--out", str(out), "--threads", str(threads)]
            assert main(args + (["--segment-size", str(size)] if size else [])) == 0
            assert np.array_equal(oracles.load_prime_cache(out), want), (size, threads)


def test_sieve_export_at_1e8(tmp_path):
    out = tmp_path / "primes.bin"
    want = primes_up_to(10**8)
    for threads in ("1", "2"):
        assert main(["sieve", "--limit", str(10**8), "--out", str(out),
                     "--threads", threads]) == 0
        got = oracles.load_prime_cache(out)
        assert len(got) == 5_761_455 and np.array_equal(got, want)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_failed_sieve_export_is_emptied(threads, tmp_path, monkeypatch, capsys):
    # a run that fails after --out is opened leaves no header, so no reader
    # takes the part written before the failure for a whole export
    import stat

    from mforge import arith

    profile_chunks = arith.profile_chunks

    def fail_after_first(seg, *args, **kwargs):
        if seg.lo > 1:
            raise MemoryError("no room for a segment")
        return profile_chunks(seg, *args, **kwargs)

    monkeypatch.setattr(arith, "profile_chunks", fail_after_first)
    out = tmp_path / "primes.bin"
    for path in (str(out), os.devnull):
        code, _, err = run_cli(["sieve", "--limit", "1000", "--segment-size", "100",
                                "--threads", threads, "--out", path], capsys)
        assert code == 1 and "no room for a segment" in err
    assert out.read_bytes() == b""
    with pytest.raises(ValueError):
        oracles.load_prime_cache(out)
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)    # emptied, never replaced


def test_sieve_export_to_fifo(tmp_path, monkeypatch, capsys):
    # a FIFO takes the export; a failure midway reports itself, not the
    # truncation that a FIFO refuses
    import threading

    from mforge import arith

    def no_room(*args, **kwargs):
        raise MemoryError("no room for a segment")

    fifo = tmp_path / "primes.fifo"
    os.mkfifo(fifo)
    args = ["sieve", "--limit", "1000", "--out", str(fifo)]
    for fails in (False, True):
        if fails:
            monkeypatch.setattr(arith, "profile_chunks", no_room)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code, _, err = run_cli(args, capsys)
        reader.join(timeout=30)
        assert not reader.is_alive()
        if fails:
            assert code == 1 and "no room for a segment" in err
        else:
            assert code == 0
            assert got == [b"MFPRIMES1" + primes_up_to(1000).astype("<u8").tobytes()]


@pytest.mark.parametrize("args", [
    ["stats", "--x", str(10**18), "--report", "sign"],
    ["summatory", "--limit", str(10**18)],
    ["sieve", "--limit", str(10**18)],
])
def test_limit_past_kernel_bound_fails_before_sieving(args, tmp_path, monkeypatch, capsys):
    # the range is checked whole before it is cut, planned or written to
    from mforge import arith

    # every profile, whole or in chunks, starts in the one sieve
    monkeypatch.setattr(arith, "_sieve", lambda *a, **k: pytest.fail("sieved past the bound"))
    out = tmp_path / "out"
    code, stdout, err = run_cli(args + ["--out", str(out)], capsys)
    assert code == 1 and stdout == ""
    assert "past 10^17" in err and "Traceback" not in err
    assert not out.exists()


def test_oeis_check_pass_and_fail(tmp_path, capsys, profile_1e4):
    good = tmp_path / "b008683.txt"
    mu = profile_1e4.mobius[:500]
    good.write_text("\n".join(f"{n} {int(mu[n-1])}" for n in range(1, 501)) + "\n")
    code, out, _ = run_cli(["oeis-check", "--sequence", "mu", "--bfile", str(good)], capsys)
    assert code == 0 and "match" in out

    bad = tmp_path / "b.txt"
    bad.write_text("# comment\n1 1\n2 -1\n3 5\n")
    code, out, _ = run_cli(["oeis-check", "--sequence", "mu", "--bfile", str(bad)], capsys)
    assert code == 1
    assert "index 3" in out


def test_oeis_check_g_sequence(tmp_path, capsys):
    path = tmp_path / "b341444.txt"
    vals = [1, -2, -2, 2, -2, 5, -2, -2, 2, 5]
    path.write_text("\n".join(f"{i+1} {v}" for i, v in enumerate(vals)) + "\n")
    code, out, _ = run_cli(["oeis-check", "--sequence", "g", "--bfile", str(path)], capsys)
    assert code == 0


FIXTURES = Path(__file__).parent / "data"


@pytest.mark.parametrize("sequence,fname", [
    ("mu", "b008683.txt"),
    ("lambda", "b008836.txt"),
    ("g", "b341444.txt"),
])
def test_oeis_check_oracle_fixtures(sequence, fname, capsys):
    # fixture files hold oracle-computed values (trial division / divisor-sum
    # recursion), so this crosses two independent routes end to end
    code, out, _ = run_cli(
        ["oeis-check", "--sequence", sequence, "--bfile", str(FIXTURES / fname)],
        capsys)
    assert code == 0, out
    assert "match" in out


@pytest.mark.parametrize("sequence, column", [("mu", "mobius"), ("lambda", "liouville"),
                                              ("g", "g")])
def test_oeis_check_streams_by_segment(sequence, column, tmp_path, monkeypatch, capsys,
                                       profile_1e4):
    # every sequence is compared one segment at a time, with no guard on the
    # limit: the memory below holds the widest segment here (1000 entries on
    # one worker) but no per-n table of the limit.  Segments of 100 start
    # at 1, 101, 201, 301, ...; the file holds wrong values at 301 (the first
    # entry of a segment) and 200 (the last entry of another), and the one
    # listed first in the file is reported; g is checked against the prefix
    # table
    import mforge.cli as cli

    monkeypatch.setattr(cli, "available_memory", lambda: 1000 * cli.KERNEL_BYTES_PER_ENTRY)
    values = getattr(profile_1e4, column)
    lines = {n: f"{n} {int(values[n - 1])}" for n in range(1, 1001)}
    lines[301], lines[200] = "301 7", "200 -7"
    path = tmp_path / "b.txt"
    for order, first in ((range(1000, 0, -1), 301), (range(1, 1001), 200)):
        path.write_text("\n".join(lines[n] for n in order) + "\n")
        want = "7" if first == 301 else "-7"
        expected = (f"{sequence}: first mismatch at index {first}: "
                    f"file has {want}, computed {int(values[first - 1])}\n")
        for size, threads in (("100", "1"), ("100", "3"), ("7", "2"), ("4096", "1")):
            code, out, _ = run_cli(["oeis-check", "--sequence", sequence, "--bfile", str(path),
                                    "--segment-size", size, "--threads", threads], capsys)
            assert (code, out) == (1, expected), (first, size, threads)
    # segments that hold no entry are skipped, and do not hide a later mismatch
    path.write_text(f"5 {int(values[4])}\n950 7\n")
    code, out, _ = run_cli(["oeis-check", "--sequence", sequence, "--bfile", str(path),
                            "--segment-size", "100"], capsys)
    assert (code, out) == (1, f"{sequence}: first mismatch at index 950: "
                              f"file has 7, computed {int(values[949])}\n")
    fixture = {"mu": "b008683.txt", "lambda": "b008836.txt", "g": "b341444.txt"}[sequence]
    code, out, _ = run_cli(["oeis-check", "--sequence", sequence, "--segment-size", "64",
                            "--bfile", str(FIXTURES / fixture)], capsys)
    assert code == 0 and "all entries up to 1000 match" in out


def test_oeis_check_limit_caps_range(capsys):
    code, out, _ = run_cli(
        ["oeis-check", "--sequence", "g", "--bfile", str(FIXTURES / "b341444.txt"),
         "--limit", "50"], capsys)
    assert code == 0
    assert "up to 50" in out


def test_config_file_defaults_flags_override(tmp_path):
    cfg = tmp_path / "mforge.cfg"
    cfg.write_text("threads=3\ncheckpoints=geometric:2.0\n")
    config = parse_config(["--config", str(cfg), "summatory", "--limit", "50"])
    assert config.threads == 3
    assert config.checkpoints == CheckpointPolicy(kind="geometric", ratio=2.0)
    # a flag, before or after the subcommand, wins over the config file
    config2 = parse_config(["--config", str(cfg), "--threads", "5",
                            "summatory", "--limit", "50", "--checkpoints", "all"])
    assert config2.threads == 5
    assert config2.checkpoints == CheckpointPolicy(kind="all")
    config3 = parse_config(["summatory", "--limit", "50", "--threads", "4",
                            "--config", str(cfg)])
    assert config3.threads == 4


def test_config_file_limit_fills_oeis_check(tmp_path, capsys):
    cfg = tmp_path / "mforge.cfg"
    cfg.write_text("limit=40\n")
    args = ["oeis-check", "--sequence", "g", "--bfile", str(FIXTURES / "b341444.txt"),
            "--config", str(cfg)]
    code, out, _ = run_cli(args, capsys)
    assert code == 0 and "up to 40" in out
    code, out, _ = run_cli(args + ["--limit", "50"], capsys)
    assert code == 0 and "up to 50" in out


def test_missing_config_file_is_io_error(tmp_path):
    missing = tmp_path / "absent.cfg"
    proc = subprocess.run(
        [sys.executable, "-m", "mforge.cli", "--config", str(missing),
         "summatory", "--limit", "50"], capture_output=True, text=True)
    assert proc.returncode == 1
    assert str(missing) in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("args,flag", [
    (["summatory", "--limit", "100", "--checkpoints", "geometric:abc"], "--checkpoints"),
    (["summatory", "--limit", "100", "--checkpoints", "geometric:0.5"], "--checkpoints"),
    (["summatory", "--limit", "100", "--segment-size", "0"], "--segment-size"),
    (["stats", "--x", "1000", "--report", "sign", "--segment-size", "-4"], "--segment-size"),
    (["summatory", "--limit", "100", "--checkpoints", "geometric:inf"], "--checkpoints"),
    (["summatory", "--limit", "20", "--checkpoints", "all:junk"], "--checkpoints"),
    (["stats", "--x", "1000", "--report", "exponent", "--p", "4"], "p=4"),
    (["summatory", "--limit", "10", "--out", ""], "--out"),
    (["verify", "--limit", "10", "--out", ""], "--out"),
    (["sieve", "--limit", "10", "--out", ""], "--out"),
    (["trace", "--in", ""], "--in"),
    (["oeis-check", "--sequence", "mu", "--bfile", ""], "--bfile"),
    (["--config", "", "summatory", "--limit", "10"], "--config"),
    # a checkpoint past int64 is out of range like any other, not an overflow
    (["summatory", "--limit", "10", "--checkpoints", "explicit:99999999999999999999999"],
     "explicit checkpoints must lie in [1, N]"),
    (["simulate", "--x-max", "16", "--checkpoints", "explicit:1,99999999999999999999"],
     "explicit checkpoints must lie in [1, N]"),
    (["simulate", "--seed", "-1", "--x-max", "16"], "--seed"),
])
def test_bad_flag_value_is_usage_error(args, flag, capsys):
    # a value caught by the parser raises SystemExit, one caught by the
    # command is returned as the exit code: the console script exits with both
    with pytest.raises(SystemExit) as exc:
        sys.exit(main(args))
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_dash_out_is_stdout(capsys):
    # "-" is not an empty path: it still names stdout
    default = run_cli(["summatory", "--limit", "50"], capsys)
    assert run_cli(["summatory", "--limit", "50", "--out", "-"], capsys) == default
    assert default[0] == 0 and default[1].startswith("x,")


@pytest.mark.parametrize("line", ["threads=abc", "segment_size=2.5", "threads=0",
                                  "checkpoints=junk", "thread=3", "limit"])
def test_bad_config_value_is_usage_error(tmp_path, line, capsys):
    cfg = tmp_path / "mforge.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "summatory", "--limit", "50"])
    assert exc.value.code == 2
    assert line.partition("=")[0] in capsys.readouterr().err


def test_env_threads_default(monkeypatch):
    monkeypatch.setenv("MFORGE_THREADS", "6")
    config = parse_config(["summatory", "--limit", "10"])
    assert config.threads == 6


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "mforge.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("sieve", "verify", "summatory", "stats", "simulate", "trace", "oeis-check"):
        assert sub in proc.stdout


def test_cli_import_leaves_scipy_unloaded():
    # scipy loads only inside the CDF reports, not at start-up
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, mforge.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _run_in_child(argv) -> tuple:
    """Exit code of ``main(argv)`` in a fresh interpreter, and the names of
    the modules loaded by then."""
    script = (
        "import sys\n"
        "from mforge.cli import main\n"
        "try:\n"
        "    code = main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(repr((code, sorted(sys.modules))))\n")
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, modules = ast.literal_eval(proc.stdout.splitlines()[-1])
    return code, set(modules)


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["verify", "--identity", "b"], 2),                   # --limit missing
    (["stats", "--x", "0", "--report", "sign"], 2),       # --x out of range
])
def test_parsing_loads_no_numpy_and_no_engine(argv, code):
    got, modules = _run_in_child(argv)
    assert got == code
    assert "numpy" not in modules
    assert {m for m in modules if m.startswith("mforge")} == {"mforge", "mforge.cli"}


def test_stats_loads_only_its_own_modules():
    code, modules = _run_in_child(["stats", "--report", "exponent", "--p", "2", "--x", "10"])
    assert code == 0
    assert not modules & {"mforge.dirichlet", "mforge.randmodel", "mforge.summatory",
                          "mforge.tracker"}
    # neither a one-thread pool nor a CSV table needs these
    assert not modules & {"concurrent.futures", "json"}


def test_package_names_resolve_lazily():
    script = (
        "import sys, mforge\n"
        "loaded = 'numpy' in sys.modules\n"
        "listed = set(mforge.__all__) <= set(dir(mforge))\n"
        "missing = [n for n in mforge.__all__ if getattr(mforge, n, None) is None]\n"
        "from mforge import build_series, g_table\n"
        "print(loaded, listed, missing, build_series.__module__, g_table.__module__)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "[]", "mforge.summatory", "mforge.arith"]
    import mforge

    assert mforge.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        getattr(mforge, "no_such_name")


def test_stats_reports_run_without_scipy(tmp_path):
    # the CDF and excess reports need no scipy at run time
    script = (
        "import sys\n"
        "from mforge.cli import main\n"
        "for report in (['cdf', '--statistic', 'omega'], ['cdf', '--statistic', 'log_c_omega'],\n"
        "               ['excess', '--m', '1']):\n"
        "    assert main(['stats', '--x', '1000', '--report', *report,\n"
        "                 '--out', sys.argv[1]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out.csv")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_io_error_reported(capsys):
    code, _, err = run_cli(["trace", "--in", "/nonexistent/series.csv"], capsys)
    assert code == 1


@pytest.mark.parametrize("body", [
    "x,M,G,Qsq,pi\n16,-1,abc,11,6\n",          # non-integer cell
    "x,M,G\n16,-1,5\n",                          # foreign header
    "x,M,G,Qsq,pi\n2,-1,-1,2,1\n",               # no row at x >= 16
    "x,M,G,Qsq,pi\n16,1,1,1\n",                  # four fields
    "x,M,G,Qsq,pi\n16,1,1,1,1,1\n",              # six fields
    "x,M,G,Qsq,pi\n16,-1,0,11,6\n20,-3,5,13\n",  # rows of mixed length
    "x,M,G,Qsq,pi\n16,-1,99999999999999999999,11,6\n",   # cell past int64
])
def test_malformed_trace_input_is_input_error(tmp_path, body, capsys):
    path = tmp_path / "series.csv"
    path.write_text(body)
    code, out, err = run_cli(["trace", "--in", str(path)], capsys)
    assert code == 1
    assert str(path) in err and out == ""
    assert "Traceback" not in err


def test_header_only_trace_input_is_input_error(tmp_path, capsys):
    path = tmp_path / "series.csv"
    path.write_text("x,M,G,Qsq,pi\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["trace", "--in", str(path)], capsys)
    assert code == 1 and out == ""
    assert f"{path}: no checkpoints at or above x = 16" in err


def test_closed_stdout_pipe_is_io_error(tmp_path):
    log = tmp_path / "stderr.txt"
    with open(log, "w") as stderr:
        cli = subprocess.Popen([sys.executable, "-m", "mforge.cli", "summatory",
                                "--limit", "200000", "--checkpoints", "all"],
                               stdout=subprocess.PIPE, stderr=stderr, text=True)
        cli.stdout.readline()
        cli.stdout.close()
        assert cli.wait(timeout=120) == 1
    err = log.read_text()
    assert "Broken pipe" in err
    assert "None:" not in err and "Traceback" not in err


def test_malformed_bfile_is_input_error(tmp_path, capsys):
    path = tmp_path / "b.txt"
    for body in ("1 1\n2 x\n", "1 1\nseven -1\n", "# comments only\n"):
        path.write_text(body)
        code, _, err = run_cli(["oeis-check", "--sequence", "mu", "--bfile", str(path)],
                               capsys)
        assert code == 1, body
        assert str(path) in err


def test_malformed_bfile_fails_before_sieving(tmp_path, monkeypatch, capsys):
    # a line holding an index alone must not set the range to profile
    from mforge import arith

    path = tmp_path / "b.txt"
    path.write_text("1 1\n2 -1\n30000000\n")
    monkeypatch.setattr(arith, "profile_chunks",
                        lambda *a, **kw: pytest.fail("sieved a malformed b-file"))
    code, out, err = run_cli(["oeis-check", "--sequence", "mu", "--bfile", str(path)],
                             capsys)
    assert code == 1 and out == ""
    assert str(path) in err and "30000000" in err


def test_oeis_check_negative_limit_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oeis-check", "--sequence", "mu", "--bfile",
              str(FIXTURES / "b008683.txt"), "--limit", "-5"])
    assert exc.value.code == 2
    assert "--limit" in capsys.readouterr().err


def test_overflow_is_failed_run(monkeypatch, capsys):
    def overflow(*args, **kwargs):
        raise OverflowError("summatory accumulator exceeded its safety bound")

    monkeypatch.setattr("mforge.summatory.build_series", overflow)
    code, _, err = run_cli(["summatory", "--limit", "100"], capsys)
    assert code == 1
    assert "safety bound" in err


@pytest.mark.parametrize("args, bytes_per_n, limit", [
    (["verify", "--limit", "2000"], "VERIFY_BYTES_PER_N", 2000),
])
def test_limit_past_physical_memory_is_refused(args, bytes_per_n, limit,
                                               monkeypatch, capsys):
    # the refusal reads the estimate against available memory before sieving
    import mforge.cli as cli
    from mforge import arith, sieve

    need = limit * getattr(cli, bytes_per_n)
    monkeypatch.setattr(cli, "available_memory", lambda: need - 1)
    for kernel in ("profile_range", "profile_chunks"):
        monkeypatch.setattr(arith, kernel,
                            lambda *a, **k: pytest.fail("profiled a refused limit"))
    monkeypatch.setattr(sieve, "primes_up_to",
                        lambda *a, **k: pytest.fail("sieved a refused limit"))
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert "available memory" in err
    monkeypatch.undo()
    monkeypatch.setattr(cli, "available_memory", lambda: need)
    assert run_cli(args, capsys)[0] == 0


def test_verify_peak_within_documented_bytes_per_n():
    # the refusal's estimate must stay an upper bound on the real peak
    import tracemalloc

    from mforge.cli import VERIFY_BYTES_PER_N

    N = 200_000
    main(["verify", "--limit", "100", "--out", "/dev/null"])
    tracemalloc.start()
    try:
        assert main(["verify", "--limit", str(N), "--out", "/dev/null"]) == 0
        assert tracemalloc.get_traced_memory()[1] <= VERIFY_BYTES_PER_N * N
    finally:
        tracemalloc.stop()


def test_summatory_direct_route_past_memory_is_refused(monkeypatch, capsys):
    # rows are kept at every eval point, every n for "all", so it is refused
    # on the limit, and before the sweep
    import mforge.cli as cli
    from mforge import summatory

    need = 2000 * cli.SUMMATORY_DIRECT_BYTES_PER_N
    monkeypatch.setattr(cli, "available_memory", lambda: need - 1)
    monkeypatch.setattr(summatory, "build_series", lambda *a, **k: pytest.fail("swept a refused limit"))
    code, out, err = run_cli(["summatory", "--checkpoints", "all", "--limit", "2000"], capsys)
    assert code == 1 and out == ""
    assert "available memory" in err
    monkeypatch.undo()
    monkeypatch.setattr(cli, "available_memory", lambda: need)
    assert run_cli(["summatory", "--checkpoints", "all", "--limit", "2000"], capsys)[0] == 0
    # room for one segment's kernel columns, far short of 128 B/n
    monkeypatch.setattr(cli, "available_memory", lambda: 100_000 * cli.KERNEL_BYTES_PER_ENTRY)
    code, out, _ = run_cli(["summatory", "--limit", "100000"], capsys)
    assert code == 0 and out.startswith("x,M,G,Qsq,pi\n")


def test_summatory_memory_guard_counts_eval_points(monkeypatch, capsys):
    # a dense ladder keeps its rows at fewer than 2 isqrt(sum c) + 1 eval
    # points, far fewer than N, and is charged for those alone
    import mforge.cli as cli

    N, per = 300_000, cli.SUMMATORY_DIRECT_BYTES_PER_N
    bound = 2 * isqrt(int(CheckpointPolicy.parse("geometric:1.001").checkpoints(N).sum())) + 1
    assert bound < N // 4
    argv = ["summatory", "--checkpoints", "geometric:1.001", "--limit", str(N),
            "--segment-size", str(2**16)]       # kernel columns well inside the bound
    monkeypatch.setattr(cli, "available_memory", lambda: bound * per)
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and out.startswith("x,M,G,Qsq,pi\n")
    monkeypatch.setattr(cli, "available_memory", lambda: bound * per - 1)
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == "" and "available memory" in err
    # "all" is still charged for every n
    monkeypatch.setattr(cli, "available_memory", lambda: N * per - 1)
    code, out, err = run_cli(["summatory", "--checkpoints", "all", "--limit", str(N)], capsys)
    assert code == 1 and out == "" and "available memory" in err


def test_checkpoints_all_is_refused_before_its_ladder(monkeypatch, capsys):
    # "all" keeps rows at every n, so its guard reads the limit alone and
    # never builds the 8 B/n ladder
    import mforge.cli as cli

    monkeypatch.setattr(cli, "available_memory", lambda: 2**20)
    monkeypatch.setattr(CheckpointPolicy, "checkpoints",
                        lambda *a, **k: pytest.fail("built the ladder of a refused limit"))
    code, out, err = run_cli(["summatory", "--checkpoints", "all", "--limit", str(10**9)], capsys)
    assert code == 1 and out == ""
    assert f"summatory up to {10**9} needs about" in err and "Traceback" not in err


def test_simulate_rows_past_memory_are_refused(tmp_path, monkeypatch, capsys):
    # every trial x checkpoint row is kept until the table is written; "all"
    # is refused on trials x x_max alone, before its ladder or any draw
    import mforge.cli as cli
    from mforge import randmodel

    out = tmp_path / "runs.csv"
    argv = ["simulate", "--trials", "100", "--x-max", str(10**7), "--out", str(out)]
    monkeypatch.setattr(cli, "available_memory", lambda: 2**30)
    monkeypatch.setattr(randmodel, "simulate_many",
                        lambda *a, **k: pytest.fail("simulated a refused run"))
    ladder = CheckpointPolicy.checkpoints
    monkeypatch.setattr(CheckpointPolicy, "checkpoints",
                        lambda *a, **k: pytest.fail("built the ladder of a refused run"))
    code, stdout, err = run_cli(argv + ["--checkpoints", "all"], capsys)
    assert code == 1 and stdout == "" and not out.exists()
    assert f"simulate of 100 trials x {10**7} checkpoints needs about" in err
    assert "Traceback" not in err
    # a ladder's rows are counted from the ladder itself
    monkeypatch.setattr(CheckpointPolicy, "checkpoints", ladder)
    rows = len(CheckpointPolicy(kind="geometric", ratio=1.001).checkpoints(10**7))
    monkeypatch.setattr(cli, "available_memory",
                        lambda: 100 * rows * cli.SIMULATE_BYTES_PER_ROW - 1)
    code, _, err = run_cli(argv + ["--checkpoints", "geometric:1.001"], capsys)
    assert code == 1 and f"simulate of 100 trials x {rows} checkpoints" in err
    monkeypatch.undo()
    monkeypatch.setattr(cli, "available_memory", lambda: 2 * 50 * cli.SIMULATE_BYTES_PER_ROW)
    args = ["simulate", "--trials", "2", "--x-max", "50", "--checkpoints", "all"]
    code, stdout, _ = run_cli(args, capsys)
    assert code == 0 and len(stdout.splitlines()) == 1 + 2 * 50


@pytest.mark.parametrize("policy, support", [
    # the eval points: [1, T] and the quotients of the checkpoints above T,
    # or every n directly
    ("geometric:1.25", "quotient"),
    ("geometric:1.00001", "direct"),
    ("explicit:7,5000,30000", "quotient"),
    ("all", "direct"),
])
def test_summatory_builds_its_ladder_once(policy, support, monkeypatch, capsys):
    # the memory guard and the sweep read one ladder; "all" is guarded on the
    # limit alone and builds its ladder inside the sweep
    calls = []
    ladder = CheckpointPolicy.checkpoints

    def counted(self, N):
        calls.append(N)
        return ladder(self, N)

    monkeypatch.setattr(CheckpointPolicy, "checkpoints", counted)
    args = ["summatory", "--limit", "30000", "--checkpoints", policy]
    code, out, err = run_cli(args + ["-v"], capsys)
    assert code == 0 and ("30000 eval points" in err) == (support == "direct")
    assert calls == [30000]
    monkeypatch.undo()
    assert run_cli(args, capsys)[1] == out


@pytest.mark.parametrize("args", [
    ["sieve", "--limit", "3000000"],
    ["stats", "--report", "sign", "--x", "3000000"],
    ["stats", "--report", "cdf", "--statistic", "log_c_omega", "--x", "3000000"],
])
def test_segment_past_memory_is_refused(args, tmp_path, monkeypatch, capsys):
    # a segment's kernel columns need KERNEL_BYTES_PER_ENTRY per entry on each
    # busy worker; past the available memory the run exits 1 naming the flag,
    # before any sieving or output file
    import mforge.cli as cli
    from mforge import arith

    out = tmp_path / "out"
    argv = args + ["--out", str(out), "--segment-size", str(2**20), "--threads", "2"]
    have = 2 * 2**20 * cli.KERNEL_BYTES_PER_ENTRY - 1
    monkeypatch.setattr(cli, "available_memory", lambda: have)
    sieve = arith._sieve
    monkeypatch.setattr(arith, "_sieve", lambda *a, **k: pytest.fail("sieved a refused segment"))
    code, stdout, err = run_cli(argv, capsys)
    assert code == 1 and stdout == "" and not out.exists()
    assert "--segment-size 1048576 needs about" in err and "Traceback" not in err
    # one worker, or a segment no wider than the range, fits
    monkeypatch.setattr(arith, "_sieve", sieve)
    assert run_cli(argv[:-1] + ["1"], capsys)[0] == 0
    assert run_cli(argv[:-3] + [str(10**9), "--threads", "2"], capsys)[0] == 1
    limit = str(have // cli.KERNEL_BYTES_PER_ENTRY)
    short = [limit if a == "3000000" else a for a in argv[:-3]]
    assert run_cli(short + [str(10**9)], capsys)[0] == 0


@pytest.mark.parametrize("policy, line", [
    ("all", "summatory: 3000 checkpoints, 3000 eval points"),
    # [1, isqrt(5100)] plus the quotients above 71 of 100, 2000 and 3000
    ("explicit:100,2000", "summatory: 3 checkpoints, 126 eval points"),
], ids=["all", "explicit"])
def test_summatory_verbose_counts_eval_points(policy, line, capsys):
    # -v logs the table sizes on stderr; stdout is unchanged
    args = ["summatory", "--limit", "3000", "--checkpoints", policy]
    code, out, err = run_cli(args, capsys)
    assert code == 0 and "eval points" not in err
    code, out_v, err_v = run_cli(args + ["-v"], capsys)
    assert code == 0 and out_v == out
    assert [l for l in err_v.splitlines() if "eval points" in l] == [f"INFO mforge: {line}"]


def test_summatory_direct_peak_within_documented_bytes_per_n():
    import tracemalloc

    from mforge.cli import SUMMATORY_DIRECT_BYTES_PER_N

    N = 50_000
    args = ["summatory", "--checkpoints", "all", "--out", "/dev/null", "--limit"]
    main(args + ["100"])
    tracemalloc.start()
    try:
        assert main(args + [str(N)]) == 0
        assert tracemalloc.get_traced_memory()[1] <= SUMMATORY_DIRECT_BYTES_PER_N * N
    finally:
        tracemalloc.stop()


def _child_peak_rss_mb(argv) -> float:
    """Peak RSS in MiB of one ``mforge`` child process, read with os.wait4."""
    proc = subprocess.Popen([sys.executable, "-m", "mforge.cli", *argv],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, proc.stderr.read()
    proc.stderr.close()
    return usage.ru_maxrss / 1024           # ru_maxrss is in KiB on Linux


#: A child that loads numpy and the engine but sweeps nothing, whose peak RSS
#: the RSS tests subtract (``--help`` loads no numpy).
BASE_ARGV = ["stats", "--report", "exponent", "--p", "2", "--x", "2"]

#: A streamed command's peak RSS over that of ``BASE_ARGV``, per entry of
#: the default segment (about 21 for the default-ladder series, 10 for the
#: omega CDF and 19 for the log c_omega CDF, one worker), and the growth
#: allowed from 4e6 to 1.6e7 (4 to 16 default segments).
STREAMED_BYTES_PER_SEGMENT_ENTRY = 28
STREAMED_RSS_GROWTH_MB = 4


def _streamed_argv(args, limit, tmp_path):
    """``args`` run up to ``limit`` on one thread, output discarded; for
    oeis-check, against a b-file of two true entries, at 1 and at limit."""
    if args[0] != "oeis-check":
        return args + [str(limit), "--threads", "1", "--out", os.devnull]
    # 4e6 = 2^8 5^6 and 1.6e7 = 2^10 5^6, so mu = 0 and lambda = 1 at both,
    # and g is 6798 at one and 18018 at the other
    value = {"mu": 0, "lambda": 1, "g": 6798 if limit == 4_000_000 else 18018}[args[2]]
    bfile = tmp_path / f"b{limit}.txt"
    bfile.write_text(f"1 1\n{limit} {value}\n")
    return args + ["--bfile", str(bfile), "--threads", "1"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
@pytest.mark.parametrize("args", [
    ["summatory", "--limit"],                 # the default ladder: few eval points
    ["stats", "--report", "cdf", "--x"],
    ["stats", "--report", "cdf", "--statistic", "log_c_omega", "--x"],
    ["stats", "--report", "sign", "--x"],
    ["stats", "--report", "exponent", "--p", "3", "--x"],
    ["simulate", "--x-max"],
    ["oeis-check", "--sequence", "mu"],
    ["sieve", "--limit"],
    ["oeis-check", "--sequence", "lambda"],
    ["oeis-check", "--sequence", "g"],
])
def test_streamed_peak_rss_is_flat_in_the_limit(args, tmp_path):
    base = _child_peak_rss_mb(BASE_ARGV)
    small, large = (_child_peak_rss_mb(_streamed_argv(args, limit, tmp_path))
                    for limit in (4_000_000, 16_000_000))
    assert abs(large - small) <= STREAMED_RSS_GROWTH_MB, (small, large)
    bound = STREAMED_BYTES_PER_SEGMENT_ENTRY * DEFAULT_SEGMENT_CAPACITY / 2**20
    assert max(small, large) - base <= bound, (base, small, large)


def _guarded_argv(command, limit):
    """A run with per-n tables up to ``limit``, output discarded."""
    if command == "verify":
        return ["verify", "--limit", str(limit), "--out", os.devnull]
    if command == "summatory":             # "all": every n an eval point
        return ["summatory", "--checkpoints", "all", "--limit", str(limit), "--out", os.devnull]
    # one trial: a row per draw
    return ["simulate", "--checkpoints", "all", "--x-max", str(limit), "--out", os.devnull]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
@pytest.mark.parametrize("command, guard", [
    ("verify", "VERIFY_BYTES_PER_N"),
    ("summatory", "SUMMATORY_DIRECT_BYTES_PER_N"),
    ("simulate", "SIMULATE_BYTES_PER_ROW"),
])
def test_guarded_peak_rss_is_within_the_guard(command, guard):
    # the commands that keep per-n tables (per-row, for simulate) are refused
    # up front at guard bytes per n; their peak RSS over that of BASE_ARGV,
    # and its growth from 5e5 to 2e6, must stay within that many bytes per n
    import mforge.cli as cli

    bytes_per_n = getattr(cli, guard)
    lo, hi = 500_000, 2_000_000
    base = _child_peak_rss_mb(BASE_ARGV)
    small, large = (_child_peak_rss_mb(_guarded_argv(command, limit)) for limit in (lo, hi))
    assert (large - small) * 2**20 <= bytes_per_n * (hi - lo), (small, large)
    assert (large - base) * 2**20 <= bytes_per_n * hi, (base, large)


def test_available_memory_within_physical_memory(tmp_path):
    from mforge.cli import available_memory

    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert 0 < available_memory() <= physical
    # where meminfo cannot be read, the guard falls back to physical memory
    assert available_memory(str(tmp_path / "missing")) == physical


# -- every table byte for byte against the row-at-a-time writers -------------

def _written(args, fmt, tmp_path, capsys):
    """The table a command writes to --out, checked equal to its stdout."""
    out = tmp_path / f"table.{fmt}"
    assert main(args + ["--format", fmt, "--out", str(out)]) == 0
    code, stdout, _ = run_cli(args + ["--format", fmt], capsys)
    assert code == 0 and stdout == out.read_text()
    return stdout


def test_summatory_table_bytes(tmp_path, capsys):
    N = 2 * WRITE_CHUNK_ROWS + 100
    series = build_series(N, CheckpointPolicy(kind="all"))
    args = ["summatory", "--limit", str(N), "--checkpoints", "all"]
    assert _written(args, "csv", tmp_path, capsys) == oracles.series_csv_oracle(series)
    assert _written(args, "json", tmp_path, capsys) == oracles.ndjson_oracle(
        SERIES_COLUMNS, oracles.series_json_rows(series))


def test_trace_table_bytes_with_zero_G(tmp_path, capsys):
    rows = [(2, -1, -1, 2, 1), (16, -1, 0, 11, 6), (20, -3, 5, 13, 8)]
    path = tmp_path / "series.csv"
    path.write_text(oracles.csv_oracle(SERIES_COLUMNS, rows))
    trace = build_trace(SummatoryRows(*(np.array(c, dtype=np.int64) for c in zip(*rows))))
    assert not trace.twice_g_defined.all()
    args = ["trace", "--in", str(path)]
    assert TRACE_COLUMNS == oracles.TRACE_HEADER
    assert _written(args, "csv", tmp_path, capsys) == oracles.trace_csv_oracle(trace)
    assert _written(args, "json", tmp_path, capsys) == oracles.ndjson_oracle(
        TRACE_COLUMNS, oracles.trace_json_rows(trace))


def test_simulate_table_bytes(tmp_path, capsys):
    policy = CheckpointPolicy(kind="explicit", points=(4, 10, 16, 100, 999))
    runs = simulate_many(3, 3, 5000, policy)
    args = ["simulate", "--seed", "3", "--trials", "3", "--x-max", "5000",
            "--checkpoints", "explicit:4,10,16,100,999", "--threads", "2"]
    assert _written(args, "csv", tmp_path, capsys) == oracles.runs_csv_oracle(runs)
    assert _written(args, "json", tmp_path, capsys) == oracles.ndjson_oracle(
        RUNS_COLUMNS, oracles.runs_json_rows(runs))


def _f(v):
    return f"{v:.12g}"


def _conditional_rows(x):
    r = stats.conditional_squarefree(x, 12, stats.collect_counts(x))
    assert r.undefined
    return [(r.x, r.k, r.class_count, r.squarefree_in_class, None,
             _f(r.unconditional), None, 1)]


def _exponent_rows(x):
    return [(r.x, 3, r.k, r.count, _f(r.empirical), _f(r.predicted))
            for r in stats.prime_exponent_distribution(x, 3, 6)]


@pytest.mark.parametrize("report, header, expected_rows", [
    (["conditional", "--k", "12"],
     ("x", "k", "class_count", "squarefree_in_class", "conditional",
      "unconditional", "ratio", "undefined"), _conditional_rows),
    (["cdf"], ("quantile", "z", "ecdf", "normal_cdf", "ks"),
     lambda x: list(_cdf_quantile_rows(stats.erdos_kac_cdf(x)))),
    (["exponent", "--p", "3"], ("x", "p", "k", "count", "empirical", "predicted"),
     _exponent_rows),
])
def test_stats_table_bytes(report, header, expected_rows, tmp_path, capsys):
    x = 3000
    rows = expected_rows(x)
    args = ["stats", "--x", str(x), "--report", *report]
    assert _written(args, "csv", tmp_path, capsys) == oracles.csv_oracle(header, rows)
    assert _written(args, "json", tmp_path, capsys) == oracles.ndjson_oracle(header, rows)
