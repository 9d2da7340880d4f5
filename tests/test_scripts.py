"""Smoke runs of the experiment scripts, so a stale call in one fails here."""

import dataclasses
import importlib.util
import inspect
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


# keys of the one JSON line a script prints, for those that print one
REPORT_KEYS = {"encode_batch_sizes.py": {"model_bytes", "pts_per_s", "serial_pts_per_s",
                                          "load_ms"}}


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
        for way in ("pts_per_s", "serial_pts_per_s"):
            assert set(report[way]) == {"1", "4"}
            assert all(set(q) == {"median", "q1", "q3"} for q in report[way].values())


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


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary():
    summarize = load_script("bench_pairs").summarize
    metrics = [{"name": "fit_s", "better": "lower", "bound": 0.25},
               {"name": "encode_pts_per_s", "better": "higher", "bound": 0.25}]
    parent = [{"fit_s": f, "encode_pts_per_s": e}
              for f, e in ((4.0, 100.0), (5.0, 90.0), (6.0, 110.0), (5.0, 80.0))]
    change = [{"fit_s": f, "encode_pts_per_s": e}
              for f, e in ((6.0, 200.0), (6.5, 60.0), (6.0, 210.0), (7.0, 190.0))]
    fit, rate = summarize(list(zip(parent, change)), metrics)
    assert fit["parent"] == [4.0, 5.0, 6.0, 5.0] and fit["change"] == [6.0, 6.5, 6.0, 7.0]
    assert (fit["parent_median"], fit["change_median"]) == (5.0, 6.25)
    # inclusive quartiles of 4, 5, 5, 6 are 4.75 and 5.25
    assert fit["parent_iqr"] == 0.5
    # a tie is no win, and 6.25 is within 25% of 5.0 but 6.26 would not be
    assert fit["wins"] == 0 and fit["pairs"] == 4 and not fit["worse_beyond_bound"]
    assert (rate["parent_median"], rate["change_median"]) == (95.0, 195.0)
    assert rate["parent_iqr"] == 15.0 and rate["wins"] == 3
    assert not rate["worse_beyond_bound"]
    # 3 of 4 pairs is less than nine of ten
    assert fit["verdict"] == rate["verdict"] == "within bound"
    slower = [dict(c, encode_pts_per_s=70.0, fit_s=6.3) for c in change]
    fit, rate = summarize(list(zip(parent, slower)), metrics)
    assert fit["worse_beyond_bound"] and rate["worse_beyond_bound"]
    assert fit["verdict"] == rate["verdict"] == "worse beyond bound"
    # pairs 2 and 4 did a second round on one side only
    round_counts = load_script("bench_pairs").round_counts
    counts = round_counts([(1, 1), (1, 2), (1, 1), (2, 1)])
    assert counts == {"parent": [1, 1, 1, 2], "change": [1, 2, 1, 1], "differ": [2, 4]}
    assert round_counts([(1, 1)] * 3)["differ"] == []

    # verdicts, one metric at a time
    def verdict(spec, parent, change):
        name = spec["name"]
        (row,) = summarize([({name: p}, {name: c}) for p, c in zip(parent, change)], [spec])
        return row["verdict"]

    fit, rate = metrics

    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
    # better in 9 of 10 pairs, by far more than the parent's quartile distance
    change = [120.0, 121.0, 119.0, 122.0, 118.0, 120.0, 99.0, 121.0, 120.0, 123.0]
    assert verdict(rate, parent, change) == "gain"
    # a tie counts for neither side: 8 wins of 10
    tied = change[:]
    tied[0] = parent[0]
    assert verdict(rate, parent, tied) == "within bound"
    # 9 of 10, but the medians differ by less than the quartile distance (1.75)
    close = [p + 1.0 for p in parent]
    close[6] = parent[6]
    assert verdict(rate, parent, close) == "within bound"
    # the parent spreads (quartile distance 2) wider than the bound (25% of 4)
    assert verdict(fit, [2.0, 3.0, 4.0, 5.0, 6.0], [3.0, 4.0, 5.0, 6.0, 2.5]) == "unresolved"
    # unless every change run is better than every parent run
    assert verdict(fit, [3.9, 4.0, 4.0, 6.0, 8.0], [3.5] * 5) == "within bound"
    assert verdict(fit, [3.9, 4.0, 4.0, 6.0, 8.0], [3.5, 3.5, 3.5, 3.5, 4.0]) == "unresolved"
    assert verdict(fit, [4.0, 4.1, 4.0, 3.9, 4.0], [5.1] * 5) == "worse beyond bound"


def test_bench_pairs_child_churn_counts_the_faults_of_finished_children():
    child_churn = load_script("bench_pairs").child_churn
    out, churn = child_churn(lambda: 7)
    assert out == 7 and churn == {"minflt": 0, "stime_s": 0.0}
    # a child that writes to 40 MB of fresh memory in 4 KiB pages faults in
    # each page once
    touch = ("import mmap\n"
             "m = mmap.mmap(-1, 40_000_000)\n"
             "m.madvise(getattr(mmap, 'MADV_NOHUGEPAGE', mmap.MADV_NORMAL))\n"
             "for i in range(0, len(m), 4096):\n"
             "    m[i] = 1\n")
    done, churn = child_churn(lambda: subprocess.run([sys.executable, "-c", touch],
                                                     check=True))
    assert done.returncode == 0
    assert churn["minflt"] >= 40_000_000 // 4096 and churn["stime_s"] >= 0.0


# appended to a copy of forest.py: block 0 of every batch takes the other
# leaf in its first column
FLIP_ONE_LEAF = '''

_encode_dataset = encode_dataset


def encode_dataset(forest, x, modality=0):
    blocks = _encode_dataset(forest, x, modality)
    if blocks[0].shape[1]:
        blocks[0][:, 0] = blocks[0][::-1, 0]
    return blocks
'''


def test_bench_interleaved_compares_sides_and_fails_when_outputs_differ(tmp_path):
    tiny = ["--workload", "train-kernel16", "--trees", "4", "--ops", "2", "--seed", "3"]
    for stage in ("load", "encode"):
        out = run_script("bench_interleaved.py",
                         ["--parent", str(ROOT), "--change", str(ROOT), "--stage", stage, *tiny])
        assert "outputs: equal" in out
        assert "change better in" in out and "parent: " in out and "change: " in out
    package = tmp_path / "src" / "leafhash"
    shutil.copytree(ROOT / "src" / "leafhash", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    forest_py = package / "forest.py"
    forest_py.write_text(forest_py.read_text(encoding="utf-8") + FLIP_ONE_LEAF,
                         encoding="utf-8")
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_interleaved.py"),
                           "--parent", str(ROOT), "--change", str(tmp_path),
                           "--stage", "encode", *tiny],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1
    assert "OUTPUTS DIFFER" in done.stderr


def test_bench_interleaved_encode_is_the_benchmarks_encode_operation(tmp_path, monkeypatch):
    # the script copies bench/run.py's encode step; both must serve each part
    # alike, batch by batch, from the same model
    import leafhash as lh

    script = load_script("bench_interleaved")
    bench = script.import_as("bench_run", ROOT / "bench" / "run.py")
    monkeypatch.setattr(bench, "WORK", tmp_path)
    w = dataclasses.replace(bench.WORKLOADS["train-kernel16"], trees=4, bits=4,
                            opt_iters=(5, 5), encode_reps=3, encode_chunks=3,
                            encode_batch=200, sweeps=1)
    inputs = bench.make_inputs(lh, w, 3)
    _, out = bench.run_stages(lh, w, inputs, "t")
    parts = script.encode_parts(w, *inputs[1:])
    assert len(parts) == len(out["encodings"]) == 3
    for part, served in out["encodings"]:
        copied = script.encode_operation(lh, tmp_path / "model-t.fhsh", parts[part],
                                         tmp_path / "codes.fhcd")
        assert copied.keys() == served.keys()
        for name, (blocks, codes, labels) in served.items():
            assert len(blocks) == w.trees
            assert script.same_served({name: (blocks, codes.words, labels)},
                                      {name: copied[name]})


def test_bench_tracer_wraps_every_target_and_restores_every_binding():
    # bench/spans.py wraps the package's functions by module path, so a name
    # moved out of its module would make every traced benchmark run fail
    import leafhash as lh

    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = [lh] + [importlib.import_module(f"leafhash.{m}") for m in spans.MODULES]
    owners = modules + [np.linalg, lh.BlockSet]
    before = [dict(vars(owner)) for owner in owners]
    targets = {}
    for target in spans.TARGETS:
        module, name = target.split(".")
        targets[target] = getattr(importlib.import_module(f"leafhash.{module}"), name)

    ds = lh.gen_synthetic(lh.SyntheticSpec(kind="subspaces", class_count=3, ambient_dim=6,
                                           samples_per_class=20))
    cfg = lh.ForestConfig(split=lh.SplitConfig(atoms=3, sparsity=1))
    with spans.Tracer(lh) as tracer:
        for target, orig in targets.items():
            module, name = target.split(".")
            wrapped = getattr(importlib.import_module(f"leafhash.{module}"), name)
            assert wrapped is not orig, target
            assert inspect.unwrap(wrapped, stop=lambda f: f is orig) is orig, target
        lh.encode_dataset(lh.train_forest(ds, 2, cfg=cfg), ds.features)
    assert tracer.calls("forest.train_forest") == tracer.calls("forest.encode_dataset") == 1
    assert tracer.seconds("forest.encode_dataset") > 0
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert [k for k, v in saved.items() if callable(v) and now.get(k) is not v] == [], owner
