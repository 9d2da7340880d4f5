#!/usr/bin/env python3
"""MNIST retrieval benchmarks (requires local IDX files; nothing is downloaded).

Protocol A (reduced training): train on a small labeled subset (default
30/class), 128 kernel trees of depth 2, 36-bit semi-supervised codes, then
report radius-0 precision/recall over the full 60k gallery and 10k queries.

Protocol B (ranking): 48-bit codes, 10k-sample gallery, 1k queries, Hamming
ranking mAP.

    python scripts/run_mnist_benchmark.py --data-dir /path/to/mnist \
        [--protocol A|B|both] [--per-class 30] [--trees 128] [--workers 8]
"""

import argparse
import os
import time
from pathlib import Path

import numpy as np

import leafhash as lh

FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def load_mnist(root):
    root = Path(root)
    out = {}
    for key, name in FILES.items():
        path = root / name
        if not path.exists():
            path = root / (name + ".gz")
        if not path.exists():
            raise SystemExit(f"missing {name}[.gz] under {root}")
        out[key] = lh.load_idx(path)
    return out


def per_class_subset(labels, per_class, rng):
    picks = [rng.choice(np.flatnonzero(labels == c), size=per_class, replace=False)
             for c in np.unique(labels)]
    return np.sort(np.concatenate(picks))


def train_and_select(features, labels, trees, bits, seed, workers):
    ds = lh.LabeledDataset(features=features, labels=labels)
    cfg = lh.ForestConfig(split=lh.SplitConfig(learner="kernel"),
                          kernel_kind="rbf", anchor_count=256)
    start = time.perf_counter()
    forest = lh.train_forest(ds, trees, 2, cfg, master_seed=seed, workers=workers)
    print(f"  trained {trees} trees in {time.perf_counter() - start:.0f}s")
    blocks = lh.encode_dataset(forest, ds.features)
    selection = lh.greedy_semisupervised(lh.BlockSet.from_blocks(blocks),
                                         ds.labels, bits // 2)
    print(f"  selected blocks {selection.chosen} (lambda={selection.lam:.3g})")
    return forest, selection


def encode(forest, features, chosen, size=1000):
    """Packed codes of ``features``, encoded ``size`` columns at a time, as a
    call's temporaries grow with its batch.  A column's code is the one a
    larger batch gives it up to the rounding of the matrix products, so a
    column within that of a split tie may take the other side."""
    codes = [lh.pack_codes(lh.encode_dataset(forest, features[:, i:i + size]), chosen)
             for i in range(0, features.shape[1], size)]
    return lh.PackedCodes(np.concatenate([c.words for c in codes]), codes[0].length)


def protocol_a(data, args):
    print("protocol A: reduced training, radius-0 lookup on 60k/10k")
    start = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    subset = per_class_subset(data["train_labels"], args.per_class, rng)
    forest, selection = train_and_select(
        data["train_images"][:, subset], data["train_labels"][subset],
        args.trees, 36, args.seed, args.workers)
    gallery = encode(forest, data["train_images"], selection.chosen)
    queries = encode(forest, data["test_images"], selection.chosen)
    idx = lh.HammingIndex(codes=gallery, labels=data["train_labels"])
    p, r = lh.precision_recall_at_radius(idx, queries, data["test_labels"], 0)
    print(f"  precision@0={p:.4f} recall@0={r:.4f} "
          f"total={time.perf_counter() - start:.0f}s")


def protocol_b(data, args):
    print("protocol B: 48-bit Hamming ranking mAP on 10k/1k")
    rng = np.random.default_rng(args.seed + 1)
    subset = per_class_subset(data["train_labels"], max(args.per_class, 100), rng)
    forest, selection = train_and_select(
        data["train_images"][:, subset], data["train_labels"][subset],
        args.trees, 48, args.seed + 1, args.workers)
    gallery_idx = rng.choice(data["train_labels"].size, size=10_000, replace=False)
    query_idx = rng.choice(data["test_labels"].size, size=1_000, replace=False)
    gallery = encode(forest, data["train_images"][:, gallery_idx], selection.chosen)
    queries = encode(forest, data["test_images"][:, query_idx], selection.chosen)
    idx = lh.HammingIndex(codes=gallery, labels=data["train_labels"][gallery_idx])
    value = lh.mean_average_precision(idx, queries, data["test_labels"][query_idx])
    print(f"  map={value:.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--data-dir", default=os.environ.get("LEAFHASH_MNIST_DIR"),
                    help="directory with the four MNIST IDX files")
    ap.add_argument("--protocol", choices=["A", "B", "both"], default="both")
    ap.add_argument("--per-class", type=int, default=30)
    ap.add_argument("--trees", type=int, default=128)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    args = ap.parse_args()
    if not args.data_dir:
        raise SystemExit("--data-dir (or LEAFHASH_MNIST_DIR) is required")

    data = load_mnist(args.data_dir)
    if args.protocol in ("A", "both"):
        protocol_a(data, args)
    if args.protocol in ("B", "both"):
        protocol_b(data, args)


if __name__ == "__main__":
    main()
