"""Smoke runs of the experiment scripts, so a stale call in one fails here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# keys of the one JSON line a script prints, for those that print one
REPORT_KEYS = {"encode_batch_sizes.py": {"model_bytes", "pts_per_s", "load_ms"}}


@pytest.mark.parametrize("script, args", [
    ("run_synthetic_demo.py", ["--trees", "4", "--per-class", "20", "--bits", "4"]),
    ("encode_batch_sizes.py", ["--reps", "1", "--sizes", "1,4"]),
])
def test_script_runs(script, args):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    if script in REPORT_KEYS:
        report = json.loads(done.stdout)
        assert REPORT_KEYS[script] <= report.keys()
        assert set(report["load_ms"]) == {"median", "q1", "q3"}
