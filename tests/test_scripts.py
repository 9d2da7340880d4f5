"""Smoke runs of the experiment scripts, so a stale call in one fails here."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


# keys of the one JSON line a script prints, for those that print one
REPORT_KEYS = {"encode_batch_sizes.py": {"model_bytes", "pts_per_s", "load_ms"}}


def run_script(script, args):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("script, args", [
    ("run_synthetic_demo.py", ["--trees", "4", "--per-class", "20", "--bits", "4"]),
    ("encode_batch_sizes.py", ["--reps", "1", "--sizes", "1,4"]),
])
def test_script_runs(script, args):
    out = run_script(script, args)
    if script in REPORT_KEYS:
        report = json.loads(out)
        assert REPORT_KEYS[script] <= report.keys()
        assert set(report["load_ms"]) == {"median", "q1", "q3"}


def write_idx(path, images, labels):
    """MNIST-named IDX files: ``images`` (N, 28, 28) uint8 and their labels."""
    n = len(labels)
    Path(f"{path}-images-idx3-ubyte").write_bytes(
        struct.pack(">IIII", 0x803, n, 28, 28) + images.tobytes())
    Path(f"{path}-labels-idx1-ubyte").write_bytes(
        struct.pack(">II", 0x801, n) + labels.astype(np.uint8).tobytes())


def test_mnist_benchmark_runs_protocol_a(tmp_path):
    # ten classes of 28x28 images, 110 training and 5 test images each, so
    # the 1100-image gallery is encoded in two slices.  Protocol B draws a
    # 10,000-image gallery, so it is not run here.
    rng = np.random.default_rng(0)
    for name, per_class in (("train", 110), ("t10k", 5)):
        labels = np.repeat(np.arange(10), per_class)
        images = rng.integers(0, 256, size=(labels.size, 28, 28), dtype=np.uint8)
        write_idx(tmp_path / name, images, labels)
    out = run_script("run_mnist_benchmark.py",
                     ["--data-dir", str(tmp_path), "--protocol", "A", "--trees", "36",
                      "--per-class", "3", "--workers", "1"])
    assert "precision@0=" in out and "recall@0=" in out
