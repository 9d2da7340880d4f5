#!/usr/bin/env python3
"""Compare two source trees on one stage of a benchmark workload, call by call.

Imports the ``src/leafhash`` of ``--parent`` and of ``--change`` into one
process under distinct names, builds the workload's inputs once with
``bench/run.py``'s ``WORKLOADS`` and ``make_inputs`` (from this repository),
and trains and saves one model with the parent's package: the workload's
forest and its block selection.  It then alternates the two packages' calls
on the same inputs, ``--ops`` each after one untimed warm-up call each,
flipping which side goes first every round, so a change in the machine's
speed hits both sides alike.  Stages:

- ``load``: ``load_model`` of the saved model, timed in ms;
- ``encode``: ``bench/run.py``'s whole encode operation on one part of the
  gallery and queries (``load_model``, ``encode_dataset`` per batch,
  ``pack_codes``, ``save_codes``, ``load_codes``), in points per second,
  cycling through the workload's parts.

Each side's blocks and packed words must equal the other's: every encode
operation is compared, and after a ``load`` run both loaded forests encode
and pack every part.  A difference exits 1.  Prints each side's median and
quartiles, the rounds the change won, and ``bench_pairs.summarize``'s
verdict, with the bound of the benchmark's ``encode_pts_per_s``.
Interleaving in one warm process hides the cost of faulting in fresh
memory, which ``bench_pairs.py``'s fresh processes pay.  Both sides load the
model the parent saved, so the script cannot compare two trees across a
change of the model format (the change cannot read the parent's model);
compare those with ``bench_pairs.py``, whose runs each save their own.

    python3 scripts/bench_interleaved.py --parent ../parent --change . \\
        --workload serve-784 --stage load --seed 23 --ops 60

``--trees`` trains that many trees instead of the workload's, and caps the
workload's bits at the largest even number up to it, so that the selection
takes at most half of the trees: a quick check of the script itself, not a
benchmark.
"""

import argparse
import dataclasses
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_pairs import summarize  # noqa: E402

STAGES = {"load": ("load_ms", "lower"), "encode": ("encode_pts_per_s", "higher")}


def import_as(name, path, package=None):
    """The module at ``path`` (a package's ``__init__.py`` when ``package``
    is its directory), imported as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package is None else [str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def import_tree(root, name):
    """``root``'s ``src/leafhash``, imported as the package ``name``."""
    package = Path(root).resolve() / "src" / "leafhash"
    return import_as(name, package / "__init__.py", package)


def encode_parts(w, gallery, queries):
    """The gallery's and the queries' parts as ``bench/run.py``'s encode
    operation takes them: per part, its batches and its labels."""
    batch = w.encode_batch or max(gallery.n_samples, queries.n_samples)

    def part(ds, c):
        return ([np.ascontiguousarray(ds.features[:, c[i:i + batch]])
                 for i in range(0, c.size, batch)], ds.labels[c])

    splits = [np.array_split(np.arange(ds.n_samples), w.encode_chunks)
              for ds in (gallery, queries)]
    return [{"gallery": part(gallery, g), "queries": part(queries, q)} for g, q in zip(*splits)]


def encode_operation(lh, model_path, part, codes_path):
    """``bench/run.py``'s encode operation on ``part``: per input, the
    blocks, the packed words and the labels read back."""
    loaded, selection = lh.load_model(model_path)
    served = {}
    for name, (batches, labels) in part.items():
        per_batch = [lh.encode_dataset(loaded, x) for x in batches]
        blocks = [np.concatenate(b, axis=1) for b in zip(*per_batch)]
        lh.save_codes(lh.pack_codes(blocks, selection.chosen), labels, codes_path)
        codes, read_labels = lh.load_codes(codes_path)
        served[name] = (blocks, codes.words, read_labels)
    return served


def same_served(a, b):
    """Whether two :func:`encode_operation` outputs are equal."""
    return a.keys() == b.keys() and all(
        len(a[k][0]) == len(b[k][0])
        and all(np.array_equal(x, y) for x, y in zip(a[k][0], b[k][0]))
        and np.array_equal(a[k][1], b[k][1]) and np.array_equal(a[k][2], b[k][2])
        for k in a)


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="source tree to compare against")
    ap.add_argument("--change", required=True, type=Path, help="source tree of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--stage", required=True, choices=sorted(STAGES))
    ap.add_argument("--seed", type=int, default=23)
    ap.add_argument("--ops", type=int, default=60, help="timed calls per side")
    ap.add_argument("--trees", type=int,
                    help="trees to train instead of the workload's; also caps its bits at"
                         " the largest even number up to this (a quick check, not a benchmark)")
    args = ap.parse_args(argv)
    if args.ops < 2:
        ap.error("--ops must be at least 2")

    bench = import_as("bench_run", ROOT / "bench" / "run.py")
    w = bench.WORKLOADS[args.workload]
    if args.trees is not None:
        w = dataclasses.replace(w, trees=args.trees, bits=min(w.bits, args.trees // 2 * 2))
    sides = {"parent": import_tree(args.parent, "leafhash_parent"),
             "change": import_tree(args.change, "leafhash_change")}
    lh = sides["parent"]
    train, gallery, queries = bench.make_inputs(lh, w, args.seed)
    parts = encode_parts(w, gallery, queries)
    metric, better = STAGES[args.stage]
    bound = next(m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())
                 ["end_to_end"] if m["name"] == "encode_pts_per_s")

    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.fhsh"
        forest = lh.train_forest(train, w.trees, bench.DEPTH, bench.forest_config(lh, w),
                                 bench.MASTER_SEED, w.workers)
        selection = lh.greedy_semisupervised(
            lh.BlockSet.from_blocks(lh.encode_dataset(forest, train.features)),
            train.labels, w.bits // 2)
        lh.save_model(forest, selection, model)
        codes = {side: Path(tmp) / f"codes-{side}.fhcd" for side in sides}
        points = [sum(labels.size for _, labels in part.values()) for part in parts]

        def call(side, op):
            """One timed call of ``side``; its metric value and its output."""
            start = time.perf_counter()
            if args.stage == "load":
                out = sides[side].load_model(model)
                return (time.perf_counter() - start) * 1e3, out
            part = op % len(parts)
            out = encode_operation(sides[side], model, parts[part], codes[side])
            return points[part] / (time.perf_counter() - start), out

        differ = []
        for side in sides:
            call(side, 0)
        values = {side: [] for side in sides}
        for op in range(args.ops):
            order = ("parent", "change") if op % 2 == 0 else ("change", "parent")
            outs = {}
            for side in order:
                value, outs[side] = call(side, op)
                values[side].append(value)
            if args.stage == "encode" and not same_served(outs["parent"], outs["change"]):
                differ.append(op)
        if args.stage == "load":
            # both loaded forests serve every part alike
            for i, part in enumerate(parts):
                served = [encode_operation(sides[side], model, part, codes[side])
                          for side in sides]
                if not same_served(*served):
                    differ.append(i)

    print(f"{args.workload}, seed {args.seed}, stage {args.stage}, {args.ops} calls per side,"
          f" {w.trees} trees")
    for side in sides:
        median, q1, q3 = quartiles(values[side])
        print(f"{side}: {metric} median {median:.6g} (quartiles {q1:.6g}, {q3:.6g})")
    pairs = [({metric: p}, {metric: c}) for p, c in zip(values["parent"], values["change"])]
    (row,) = summarize(pairs, [{"name": metric, "better": better, "bound": bound}])
    p_med, c_med = row["parent_median"], row["change_median"]
    print(f"{metric}: median {p_med:.6g} -> {c_med:.6g}"
          f" ({p_med / c_med if better == 'lower' else c_med / p_med:.3g}x as fast), parent IQR"
          f" {row['parent_iqr']:.6g}, change better in {row['wins']}/{row['pairs']}:"
          f" {row['verdict']}")
    if differ:
        what = "operations" if args.stage == "encode" else "parts"
        raise SystemExit(f"OUTPUTS DIFFER: the two sides' blocks or packed words differ in "
                         f"{what} {' '.join(map(str, differ))}")
    print("outputs: equal")


if __name__ == "__main__":
    main()
