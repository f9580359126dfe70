"""Smoke test: every demo script runs to completion on the installed package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# output that a demo prints only when one of its exact checks disagrees
FAILURE_MARKERS = {
    "mertens_three_ways.py": "MISMATCH",
    "identity_playground.py": "[FAIL]",
}


def test_all_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # cwd is a scratch directory: growth_ratio_trace.py writes its CSV there
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    marker = FAILURE_MARKERS.get(demo.name)
    assert marker is None or marker not in run.stdout, run.stdout
