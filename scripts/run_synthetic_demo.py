#!/usr/bin/env python3
"""End-to-end demo on synthetic subspace data.

Trains a kernel-learner forest, compares the three block-selection criteria,
and reports radius lookup and ranking metrics on held-out queries.

    python scripts/run_synthetic_demo.py [--classes 5] [--trees 32] [--bits 24]
"""

import argparse
import time

import numpy as np

import leafhash as lh


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--classes", type=int, default=5)
    ap.add_argument("--trees", type=int, default=32)
    ap.add_argument("--depth", type=int, default=2)
    ap.add_argument("--bits", type=int, default=24)
    ap.add_argument("--per-class", type=int, default=120)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    leaf_count = 2 ** (args.depth - 1)
    if args.bits % leaf_count:
        ap.error(f"--bits must be divisible by {leaf_count}")
    k = args.bits // leaf_count

    full = lh.gen_synthetic(lh.SyntheticSpec(
        kind="subspaces", class_count=args.classes, ambient_dim=16,
        intrinsic_dim=2, noise=0.02, samples_per_class=args.per_class,
        seed=args.seed))
    half = args.per_class // 2
    train_mask = (np.arange(full.n_samples) % args.per_class) < half
    train = lh.LabeledDataset(features=full.features[:, train_mask],
                              labels=full.labels[train_mask])
    query = lh.LabeledDataset(features=full.features[:, ~train_mask],
                              labels=full.labels[~train_mask])

    cfg = lh.ForestConfig(split=lh.SplitConfig(learner="kernel"),
                          kernel_kind="rbf", anchor_count=64)
    start = time.perf_counter()
    forest = lh.train_forest(train, args.trees, args.depth, cfg,
                             master_seed=args.seed, workers=args.workers)
    print(f"trained {args.trees} trees of depth {args.depth} in "
          f"{time.perf_counter() - start:.1f}s")

    blocks = lh.encode_dataset(forest, train.features)
    bs = lh.BlockSet.from_blocks(blocks)
    query_blocks = lh.encode_dataset(forest, query.features)

    for mode in ("unsup", "sup", "semi"):
        selection = lh.select_blocks(bs, train.labels, k, mode)
        gallery = lh.pack_codes(blocks, selection.chosen)
        queries = lh.pack_codes(query_blocks, selection.chosen)
        idx = lh.HammingIndex(codes=gallery, labels=train.labels)
        line = [f"mode={mode}"]
        if selection.lam is not None:
            line.append(f"lambda={selection.lam:.4g}")
        for radius in (0, 2):
            p, r = lh.precision_recall_at_radius(idx, queries, query.labels, radius)
            line.append(f"precision@{radius}={p:.4f}")
            line.append(f"recall@{radius}={r:.4f}")
        line.append(f"map={lh.mean_average_precision(idx, queries, query.labels):.4f}")
        print(" ".join(line))


if __name__ == "__main__":
    main()
