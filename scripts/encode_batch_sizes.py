#!/usr/bin/env python3
"""Encode rate of the serve-784 benchmark's model at several batch sizes.

Trains the forest of ``bench/run.py``'s serve-784 workload (its
``WORKLOADS["serve-784"]``, ``make_inputs`` and ``forest_config``: 128
depth-2 RBF-kernel trees of 16 anchors on 784-d subspace data shaped like
MNIST), then times ``encode_dataset`` on batches of N points of its gallery
for each N.  Every repetition visits all batch sizes in turn and encodes
batches of one size until a quarter second has passed, so load from
elsewhere on the machine hits every size alike: once as the library decides
(``pts_per_s``) and once serially (``serial_pts_per_s``), with
``encode.THREAD_MULADDS`` raised past any batch, alternating which goes first.
At a size that threads, the two rates show whether threads pay there, which
is how the threshold's break-even is measured.  It then times one ``load_model`` of the
saved model, the load a serving process makes before it encodes.  One warm-up
call comes first, so the forest's first-encode set-up is not timed.  Prints
one JSON line: the saved model's size in bytes, the forest's distinct and
total kernel anchors, the median and quartiles of the points/s of the
repetitions, per N and way, and those of the load times (``load_ms``).

    PYTHONPATH=src python scripts/encode_batch_sizes.py [--seed 0] [--reps 7] \
        [--sizes 1,4,16,30,64,100,250,1000]
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import leafhash as lh
from leafhash import encode as encode_module

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_interleaved import import_as  # noqa: E402

SIZES = (1, 4, 16, 30, 64, 100, 250, 1000)
MIN_SECONDS = 0.25


def encode_rate(forest, pool, n):
    """Points per second over batches of ``n`` columns of ``pool``."""
    points, calls = 0, 0
    start = time.perf_counter()
    while True:
        at = (calls * n) % (pool.shape[1] - n + 1)
        lh.encode_dataset(forest, pool[:, at:at + n])
        points += n
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_SECONDS:
            return points / elapsed


def serial_rate(forest, pool, n):
    """:func:`encode_rate` with no batch large enough for threads."""
    threshold = encode_module.THREAD_MULADDS
    encode_module.THREAD_MULADDS = float("inf")
    try:
        return encode_rate(forest, pool, n)
    finally:
        encode_module.THREAD_MULADDS = threshold


def load_ms(path):
    """Milliseconds one ``load_model`` of the model file at ``path`` takes."""
    start = time.perf_counter()
    lh.load_model(path)
    return (time.perf_counter() - start) * 1e3


def quartiles(values, digits=1):
    """{"median", "q1", "q3"} of ``values``, rounded to ``digits``."""
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else (values[0],) * 3)
    return {"median": round(median, digits), "q1": round(q1, digits), "q3": round(q3, digits)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--reps", type=int, default=7)
    ap.add_argument("--sizes", default=",".join(map(str, SIZES)),
                    help="comma-separated batch sizes (default: %(default)s)")
    args = ap.parse_args()
    sizes = [int(n) for n in args.sizes.split(",")]

    bench = import_as("bench_run", ROOT / "bench" / "run.py")
    w = bench.WORKLOADS["serve-784"]
    train, gallery, _ = bench.make_inputs(lh, w, args.seed)
    pool = gallery.features
    start = time.perf_counter()
    forest = lh.train_forest(train, w.trees, bench.DEPTH, bench.forest_config(lh, w),
                             bench.MASTER_SEED, w.workers)
    fit_s = time.perf_counter() - start
    lh.encode_dataset(forest, pool[:, :1])

    rates, serial, loads = {n: [] for n in sizes}, {n: [] for n in sizes}, []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.fhsh")
        lh.save_model(forest, None, path)
        size = os.path.getsize(path)
        for rep in range(args.reps):
            for n in sizes:
                ways = [(rates, encode_rate), (serial, serial_rate)]
                for out, rate in ways[::-1] if rep % 2 else ways:
                    out[n].append(rate(forest, pool, n))
            loads.append(load_ms(path))
    anchors = forest.pools[0]
    print(json.dumps({"seed": args.seed, "reps": args.reps,
                      "fit_s": round(fit_s, 2), "model_bytes": size,
                      "anchors_distinct": anchors.rows.shape[0],
                      "anchors_total": sum(idx.size for idx in anchors.indices),
                      "pts_per_s": {str(n): quartiles(r) for n, r in rates.items()},
                      "serial_pts_per_s": {str(n): quartiles(r) for n, r in serial.items()},
                      "load_ms": quartiles(loads, 2)}))


if __name__ == "__main__":
    main()
