import logging
import math

import numpy as np
import pytest

from mforge.cli import TRACE_COLUMNS, main
from mforge.summatory import CheckpointPolicy, SummatoryRows, build_series
from mforge.tracker import (
    REF_MMINUS_RECORD,
    REF_MPLUS_RECORD,
    REF_SCALED_LIMSUP,
    build_trace,
    heuristic_sums,
    qhat_prediction,
)

from oracles import MERTENS_AT_POW10, recompute_trace_row


def test_reference_constants():
    assert REF_SCALED_LIMSUP == pytest.approx(6 / math.sqrt(2 * math.pi**5), abs=5e-7)
    assert REF_MPLUS_RECORD == 1.826054
    assert REF_MMINUS_RECORD == -1.837625


@pytest.fixture(scope="module")
def series_1e5():
    return build_series(10**5, CheckpointPolicy(kind="explicit",
                                                points=(16, 100, 1000, 10**4)))


def test_trace_q_at_16(series_1e5):
    tr = build_trace(series_1e5)
    assert int(tr.x[0]) == 16
    assert tr.q[0] == pytest.approx(-0.25)      # M(16) = -1
    assert int(tr.qhat_exact[0]) == -1


def test_trace_drops_small_x():
    s = build_series(100, CheckpointPolicy(kind="explicit", points=(2, 8, 15, 16, 50)))
    tr = build_trace(s)
    assert int(tr.x[0]) == 16
    with pytest.raises(ValueError):
        build_trace(build_series(10, CheckpointPolicy(kind="all")))


def test_trace_columns_finite(series_1e5):
    tr = build_trace(series_1e5)
    for name in ("q", "gonek", "r1", "r2", "rG1", "rG2", "qhat_pred"):
        assert np.all(np.isfinite(getattr(tr, name))), name
    assert np.all(np.isfinite(tr.twice_g[tr.twice_g_defined]))


def _trace_lines(tmp_path, series_args=None, series_text=None):
    """The trace CSV that the CLI writes from a series table."""
    series = tmp_path / "series.csv"
    if series_text is None:
        assert main(["summatory", *series_args, "--out", str(series)]) == 0
    else:
        series.write_text(series_text)
    trace = tmp_path / "trace.csv"
    assert main(["trace", "--in", str(series), "--out", str(trace)]) == 0
    return trace.read_text().splitlines()


def test_trace_zero_G_flagged(tmp_path):
    rows = SummatoryRows(
        checkpoints=np.array([16, 20], dtype=np.int64),
        M=np.array([-1, -3], dtype=np.int64),
        G=np.array([0, 5], dtype=np.int64),
        Qsq=np.array([11, 13], dtype=np.int64),
        pi=np.array([6, 8], dtype=np.int64),
    )
    tr = build_trace(rows)
    assert not tr.twice_g_defined[0] and np.isnan(tr.twice_g[0])
    assert tr.twice_g_defined[1] and tr.twice_g[1] == pytest.approx(-0.3)
    lines = _trace_lines(tmp_path, series_text="x,M,G,Qsq,pi\n16,-1,0,11,6\n20,-3,5,13,8\n")
    row16 = [l for l in lines if l.startswith("16,")][0]
    assert ",," in row16                         # empty twice_g field


def test_trace_matches_slow_recomputation(series_1e5):
    tr = build_trace(series_1e5)
    for i in range(len(tr.x)):
        x = int(tr.x[i])
        j = int(np.searchsorted(series_1e5.checkpoints, x))
        row = recompute_trace_row(x, int(series_1e5.M[j]), int(series_1e5.G[j]))
        for name in ("q", "gonek", "r1", "r2", "rG1", "rG2", "qhat_pred"):
            fast = float(getattr(tr, name)[i])
            assert fast == pytest.approx(row[name], rel=1e-12), (name, x)
        if tr.twice_g_defined[i]:
            assert float(tr.twice_g[i]) == pytest.approx(row["twice_g"], rel=1e-12)


def test_trace_csv_metadata_and_header(tmp_path):
    lines = _trace_lines(tmp_path, ["--limit", "100000",
                                    "--checkpoints", "explicit:16,100,1000,10000"])
    assert lines[0] == "# reference scaled_limsup = 0.242528"
    assert lines[1] == "# reference mplus_record = 1.826054"
    assert lines[2] == "# reference mminus_record = -1.837625"
    assert lines[3] == ",".join(TRACE_COLUMNS)


def test_heuristic_single_term():
    h = heuristic_sums(10**6, 1)
    assert h.s_inv_sqrt == pytest.approx(math.e / math.log(10**6), rel=1e-15)
    assert h.b_x == pytest.approx(math.e * math.log(math.log(10**6)) / math.log(10**6))


def test_heuristic_tail_converges():
    h50 = heuristic_sums(10**6, 50)
    h500 = heuristic_sums(10**6, 500)
    assert abs(h500.s_inv_sqrt - h50.s_inv_sqrt) / h500.s_inv_sqrt < 1e-12
    assert abs(h500.s_sqrt - h50.s_sqrt) / h500.s_sqrt < 1e-12


def test_heuristic_monotone_with_tail_bound():
    x = 10**4
    prev = heuristic_sums(x, 1)
    b = prev.b_x
    for K in range(2, 40):
        cur = heuristic_sums(x, K)
        gap = cur.s_inv_sqrt - prev.s_inv_sqrt
        assert gap > 0
        assert gap < b ** (K - 1) * math.e / math.sqrt(K)
        prev = cur


def test_heuristic_b_hat_reported():
    h = heuristic_sums(10**6, 200)
    assert h.b_hat == pytest.approx(h.s_sqrt / h.s_inv_sqrt)
    assert 1.0 < h.b_hat < math.log(math.log(10**6)) * 2


def test_heuristic_validation():
    with pytest.raises(ValueError):
        heuristic_sums(10.0, 5)
    with pytest.raises(ValueError):
        heuristic_sums(10**6, 0)


def test_qhat_prediction_at_e_to_e():
    x = math.e**math.e + 1e-9
    v = qhat_prediction(x)
    expect = -(6 * x / math.pi**2) / (2 * math.sqrt(2 * math.pi * 1.0))
    assert v == pytest.approx(expect, rel=1e-6)


def test_qhat_prediction_1e6():
    ll = math.log(math.log(10**6))
    expect = (6 * 10**6 / math.pi**2) / (2 * math.sqrt(2 * math.pi * ll))
    assert qhat_prediction(10**6) == pytest.approx(expect, rel=1e-15)


def test_qhat_prediction_pairs_with_exact():
    # report pairing at x = 1e4: prediction vs exact M(1e4)
    pred = qhat_prediction(10**4)
    exact = MERTENS_AT_POW10[10**4]
    assert math.isfinite(pred) and isinstance(exact, int)
    assert pred != exact                        # heuristic, not the value


def test_parity_boundary_flag(caplog):
    caplog.set_level(logging.WARNING, logger="mforge.tracker")
    qhat_prediction(math.exp(math.exp(2.0)))    # loglog exactly 2
    assert "parity boundary" in caplog.text
    caplog.clear()
    qhat_prediction(10**6)
    assert not caplog.records


def test_qhat_sign_flips_across_boundary():
    lo = math.exp(math.exp(1.999999))
    hi = math.exp(math.exp(2.000001))
    assert qhat_prediction(lo) < 0 < qhat_prediction(hi)
