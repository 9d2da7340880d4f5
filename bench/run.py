#!/usr/bin/env python3
"""End-to-end benchmark of the leafhash pipeline, with a traced run per layer.

    python3 bench/run.py --workload serve-784 --seed 0 --seconds 5 --trace 0

Run from the repository root; the package is imported from ``src/``.  Each
round trains a forest, selects code blocks, writes and reads the model,
encodes and packs the gallery and queries, answers ranking queries and
evaluates retrieval, checking every output against ``reference.py``.  Rounds
repeat until ``--seconds`` have passed.  The last line of standard output is
one JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics of a
traced round (after an untraced one) with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"
SETUP_PROBES = 7
DEPTH = 2
MASTER_SEED = 0
RADIUS = 2
QUERY_SAMPLES = 1200  # per sweep: twelve samples beyond the p99


@dataclass(frozen=True)
class Workload:
    dim: int
    classes: int
    intrinsic: int
    noise: float
    train_per_class: int
    gallery_per_class: int
    query_per_class: int
    learner: str
    trees: int
    bits: int
    workers: int
    map_floor: float
    anchors: int = 64
    opt_iters: tuple[int, int] | None = None  # (max_iters, geometry_iters)
    ksvd_iters: int = 10
    # An encode operation serves one of ``encode_chunks`` parts of the gallery
    # and queries.  The encode operations after the first pass are spread over
    # ``sweeps``, each of which also times QUERY_SAMPLES ranking queries, so
    # that a burst of load from elsewhere on the machine hits only some of
    # them.  The run reports the median encode rate.  Within an operation,
    # ``encode_dataset`` takes at most ``encode_batch`` points at a time.
    encode_reps: int = 1
    encode_chunks: int = 1
    encode_batch: int | None = None
    sweeps: int = 1


# The class subspaces are fixed per workload; --seed draws the points.  The
# transform fit runs a fixed step budget: with the default relative-tolerance
# stop, its step count on the 16-d inputs varied 1.8x from seed to seed.
WORKLOADS = {
    # single-process baseline: transform fit and k-SVD/OMP are nearly all the time
    "train-kernel16": Workload(
        dim=16, classes=5, intrinsic=2, noise=0.02, train_per_class=60,
        gallery_per_class=600, query_per_class=60, learner="kernel", trees=24, bits=24,
        workers=1, map_floor=0.8, opt_iters=(40, 30), encode_reps=40, sweeps=10),
    # the paper's neural learner over the process pool
    "train-neural16-pool2": Workload(
        dim=16, classes=5, intrinsic=2, noise=0.02, train_per_class=60,
        gallery_per_class=600, query_per_class=60, learner="neural", trees=24, bits=24,
        workers=2, map_floor=0.8, encode_reps=60, sweeps=10),
    # MNIST-shaped: encoding, selection, retrieval and the containers dominate.
    # A 784x250 batch (1.6 MB) stays in a core's cache; 1000-point batches
    # were memory-bound, encoded 10% slower and varied twice as much.
    "serve-784": Workload(
        dim=784, classes=10, intrinsic=12, noise=0.1, train_per_class=30,
        gallery_per_class=1000, query_per_class=100, learner="kernel", trees=128,
        bits=36, workers=1, map_floor=0.1, anchors=16, opt_iters=(20, 20),
        ksvd_iters=2, encode_reps=30, encode_chunks=10, encode_batch=250, sweeps=3),
}


def import_leafhash():
    sys.path.insert(0, str(SRC))
    try:
        import leafhash
    except ImportError as exc:
        raise SystemExit(f"cannot import leafhash from {SRC}: {exc}")
    if Path(leafhash.__file__).resolve().parent != SRC / "leafhash":
        raise SystemExit(f"leafhash was imported from {leafhash.__file__}, not {SRC}")
    return leafhash


def make_inputs(lh, w: Workload, seed: int):
    """Training set, gallery and queries drawn from the workload's subspaces."""
    import numpy as np

    geometry = np.random.default_rng([w.dim, w.classes, w.intrinsic])
    bases = [np.linalg.qr(geometry.normal(size=(w.dim, w.intrinsic)))[0]
             for _ in range(w.classes)]
    rng = np.random.default_rng(seed)

    def draw(per_class):
        cols = [b @ rng.normal(size=(w.intrinsic, per_class))
                + w.noise * rng.normal(size=(w.dim, per_class)) for b in bases]
        return lh.LabeledDataset(np.concatenate(cols, axis=1),
                                 np.repeat(np.arange(w.classes), per_class))

    return draw(w.train_per_class), draw(w.gallery_per_class), draw(w.query_per_class)


def forest_config(lh, w: Workload):
    split = {"learner": w.learner, "ksvd_iters": w.ksvd_iters}
    if w.opt_iters is not None:
        split["optimizer"] = lh.OptimizerConfig(max_iters=w.opt_iters[0],
                                                geometry_iters=w.opt_iters[1])
    return lh.ForestConfig(split=lh.SplitConfig(**split), kernel_kind="rbf",
                           anchor_count=w.anchors)


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def spread(extra, sweeps):
    """Repetitions per sweep when ``extra`` of them are spread over the sweeps."""
    return [extra // sweeps + (1 if i < extra % sweeps else 0) for i in range(sweeps)]


def run_stages(lh, w: Workload, inputs, tag):
    """One round of the pipeline; returns its stage timings and outputs."""
    import numpy as np

    train, gallery, queries = inputs
    cfg = forest_config(lh, w)
    model_path = WORK / f"model-{tag}.fhsh"
    batch = w.encode_batch or max(gallery.n_samples, queries.n_samples)
    parts = {name: [([np.ascontiguousarray(ds.features[:, c[i:i + batch]])
                      for i in range(0, c.size, batch)], ds.labels[c])
                    for c in np.array_split(np.arange(ds.n_samples), w.encode_chunks)]
             for name, ds in (("gallery", gallery), ("queries", queries))}
    t = {"encode": [], "query_p50": [], "query_p99": []}
    t["fit"], forest = timed(lh.train_forest, train, w.trees, DEPTH, cfg, MASTER_SEED,
                             w.workers)

    def select():
        blocks = lh.encode_dataset(forest, train.features)
        return blocks, lh.greedy_semisupervised(lh.BlockSet.from_blocks(blocks),
                                                train.labels, w.bits // 2)

    t["select"], (train_blocks, selection) = timed(select)
    lh.save_model(forest, selection, model_path)

    def encode(part):
        loaded, loaded_sel = lh.load_model(model_path)
        served = {}
        for name, chunks in parts.items():
            batches, labels = chunks[part]
            path = WORK / f"{name}-{tag}.fhcd"
            per_batch = [lh.encode_dataset(loaded, x) for x in batches]
            blocks = [np.concatenate(b, axis=1) for b in zip(*per_batch)]
            lh.save_codes(lh.pack_codes(blocks, loaded_sel.chosen), labels, path)
            served[name] = (blocks,) + lh.load_codes(path)
        return served

    encodings = []  # (part, served) per encode operation

    def do_encode():
        part = len(encodings) % w.encode_chunks
        dt, served = timed(encode, part)
        t["encode"].append((parts["gallery"][part][1].size
                            + parts["queries"][part][1].size) / dt)
        encodings.append((part, served))

    for _ in range(w.encode_chunks):
        do_encode()
    first = [served for _, served in encodings]
    g_codes = lh.PackedCodes(np.concatenate([s["gallery"][1].words for s in first]),
                             first[0]["gallery"][1].length)
    q_codes = lh.PackedCodes(np.concatenate([s["queries"][1].words for s in first]),
                             first[0]["queries"][1].length)
    g_labels = np.concatenate([s["gallery"][2] for s in first])
    q_labels = np.concatenate([s["queries"][2] for s in first])
    index = lh.HammingIndex(codes=g_codes, labels=g_labels)
    query_list = [q_codes.code(i) for i in range(len(q_codes))]

    for n_encode in spread(w.encode_reps - w.encode_chunks, w.sweeps):
        lat = np.empty(QUERY_SAMPLES)
        for i in range(QUERY_SAMPLES):
            q = query_list[i % len(query_list)]
            start = time.perf_counter()
            lh.rank_query(index, q)
            lat[i] = time.perf_counter() - start
        t["query_p50"].append(float(np.quantile(lat, 0.5)) * 1e3)
        t["query_p99"].append(float(np.quantile(lat, 0.99)) * 1e3)
        for _ in range(n_encode):
            do_encode()

    def evaluate():
        return (lh.mean_average_precision(index, q_codes, q_labels),
                lh.precision_recall_at_radius(index, q_codes, q_labels, RADIUS))

    t["eval"], scores = timed(evaluate)
    return t, {
        "forest": forest, "train_blocks": train_blocks, "selection": selection,
        "model_bytes": model_path.stat().st_size, "encodings": encodings,
        "served": {"gallery": (g_codes, g_labels), "queries": (q_codes, q_labels)},
        "index": index, "scores": scores,
    }


class Checks:
    """Output checks of one round; a failed check fails its stage's operation."""

    def __init__(self):
        self.failed = {}

    def expect(self, op, ok, what):
        if not ok:
            self.failed.setdefault(op, []).append(what)


def check_round(lh, w: Workload, inputs, out, checks: Checks):
    import numpy as np

    import reference as ref

    train, gallery, queries = inputs
    forest, selection, k = out["forest"], out["selection"], w.bits // 2

    for tree in forest.trees:
        for per_mod in tree.nodes:
            node = per_mod[0]
            if node.degenerate:
                continue
            # the package's own tests allow rises of rounding size (1e-12)
            trace = (node.net if node.net is not None else node.transform).loss_trace
            rise = 1e-12 * max(1.0, abs(float(trace[0])))
            checks.expect("fit", bool(np.all(np.diff(trace) <= rise)),
                          f"tree {tree.tree_seed}: loss trace increases")
    if w.workers > 1:
        for i in (0, w.trees - 1):
            serial = lh.train_tree(train, DEPTH, forest_config(lh, w),
                                   lh.forest.tree_seed_for(MASTER_SEED, i))
            checks.expect("fit", same_tree(forest.trees[i], serial),
                          f"pooled tree {i} differs from its serial retrain")

    chosen = selection.chosen
    checks.expect("select", len(chosen) == k and len(set(chosen)) == k,
                  f"selection {chosen} is not {k} distinct blocks")
    gains, mi = ref.first_step_scores(out["train_blocks"], train.labels)
    lam = ref.estimate_lambda(gains, mi)
    checks.expect("select", abs(selection.lam - lam) <= 1e-6 * max(1.0, lam),
                  f"lambda {selection.lam} vs reference {lam}")
    score = gains + selection.lam * mi
    checks.expect("select", score[chosen[0]] >= score.max() - 1e-6 * max(1.0, abs(score.max())),
                  f"first pick {chosen[0]} is not the reference argmax {int(score.argmax())}")

    first = dict(out["encodings"][:w.encode_chunks])
    for part, served in out["encodings"]:
        for name in ("gallery", "queries"):
            checks.expect("encode", np.array_equal(served[name][1].words,
                                                   first[part][name][1].words),
                          f"{name} codes differ between repetitions")
    (g_codes, g_labels), (q_codes, q_labels) = out["served"].values()
    sample = np.arange(min(gallery.n_samples, 500))
    memory_codes = lh.pack_codes(lh.encode_dataset(forest, gallery.features[:, sample]),
                                 chosen)
    checks.expect("encode", np.array_equal(memory_codes.words, g_codes.words[sample]),
                  "reloaded model encodes differently")
    g_blocks = [np.concatenate([first[p]["gallery"][0][t] for p in sorted(first)], axis=1)
                for t in range(w.trees)]
    for name, ds, codes, labels in (("gallery", gallery, g_codes, g_labels),
                                    ("queries", queries, q_codes, q_labels)):
        checks.expect("encode", all(bool(np.all(b.sum(axis=0) == 1))
                                    for p in first for b in first[p][name][0]),
                      f"{name}: a code column is not 1-sparse")
        checks.expect("encode", bool(np.all(np.bitwise_count(codes.words).sum(axis=1) == k)),
                      f"{name}: a packed code does not have {k} set bits")
        checks.expect("encode", np.array_equal(labels, ds.labels), f"{name}: labels changed")
    pick = np.linspace(0, gallery.n_samples - 1, 200).astype(np.int64)
    for t, tree in enumerate(forest.trees):
        leaves, margin = ref.route_leaves(tree, gallery.features[:, pick])
        clear = margin > 1e-9
        got = g_blocks[t][:, pick].argmax(axis=0)
        checks.expect("encode", np.array_equal(leaves[clear], got[clear]),
                      f"tree {t}: leaves differ from the reference routing")

    index = out["index"]
    g_bits = ref.unpack_bits(g_codes.words, g_codes.length)
    q_bits = ref.unpack_bits(q_codes.words, q_codes.length)
    dist = np.concatenate([ref.hamming_distances(q_bits[i:i + 100], g_bits)
                           for i in range(0, len(q_codes), 100)])
    for i in range(0, len(q_codes), max(1, len(q_codes) // 20)):
        q = q_codes.code(i)
        checks.expect("query", np.array_equal(index.distances(q), dist[i]),
                      f"query {i}: distances differ")
        checks.expect("query", np.array_equal(lh.rank_query(index, q), ref.ranking(dist[i])),
                      f"query {i}: ranking differs")

    m_ap, (prec, rec) = out["scores"]
    ref_map = float(np.mean(ref.average_precisions(dist, gallery.labels, queries.labels)))
    ref_prec, ref_rec = ref.precision_recall(dist, gallery.labels, queries.labels, RADIUS)
    checks.expect("eval", abs(m_ap - ref_map) <= 1e-12, f"mAP {m_ap} vs reference {ref_map}")
    checks.expect("eval", abs(prec - ref_prec) <= 1e-12 and abs(rec - ref_rec) <= 1e-12,
                  f"P/R {prec}, {rec} vs reference {ref_prec}, {ref_rec}")
    checks.expect("eval", m_ap >= w.map_floor, f"mAP {m_ap} below {w.map_floor}")


def same_tree(a, b):
    import numpy as np

    def arrays(tree):
        out = [kc.anchors for kc in tree.kernels if kc is not None]
        for per_mod in tree.nodes:
            for node in per_mod:
                if node.degenerate:
                    continue
                out += [node.proj_pos, node.proj_neg]
                if node.net is not None:
                    out += [x for layer in node.net.layers for x in (layer.weight, layer.bias)]
        return out

    xa, xb = arrays(a), arrays(b)
    return len(xa) == len(xb) and all(np.array_equal(x, y) for x, y in zip(xa, xb))


def ops_per_round(w: Workload):
    return {"fit": 1, "select": 1, "save": 1, "encode": w.encode_reps,
            "query": w.sweeps * QUERY_SAMPLES, "eval": 1}


def codes_of(out):
    return [out["selection"].chosen] + [codes.words for codes, _ in out["served"].values()]


def setup_probe(name, seed):
    """Time a fresh import of the package plus building the inputs."""
    start = time.perf_counter()
    lh = import_leafhash()
    make_inputs(lh, WORKLOADS[name], seed)
    print(time.perf_counter() - start)


def setup_seconds(name, seed):
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def environment(lh, w):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}, "
            f"nproc {os.cpu_count()}, workers {w.workers}, leafhash {lh.__version__}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return

    w = WORKLOADS[args.workload]
    lh = import_leafhash()
    sys.path.insert(0, str(HERE))
    import numpy as np

    from spans import Tracer

    print(f"{args.workload}: {environment(lh, w)}", file=sys.stderr)
    WORK.mkdir(exist_ok=True)
    inputs = make_inputs(lh, w, args.seed)
    tag = str(os.getpid())
    rounds, checks, attempted, failed = [], Checks(), 0, 0
    start = time.perf_counter()
    try:
        while True:
            tracer = Tracer(lh) if args.trace and rounds else None
            if tracer is None:
                wall, (t, out) = timed(run_stages, lh, w, inputs, tag)
            else:
                with tracer:
                    wall, (t, out) = timed(run_stages, lh, w, inputs, tag)
            round_checks = Checks()
            check_round(lh, w, inputs, out, round_checks)
            if tracer is not None:
                round_checks.expect("encode", all(np.array_equal(a, b) for a, b in
                                                  zip(codes_of(out), rounds[0]["codes"])),
                                    "traced codes differ from untraced codes")
            attempted += sum(ops_per_round(w).values())
            failed += len(round_checks.failed)
            for op, what in round_checks.failed.items():
                checks.failed.setdefault(op, []).extend(what)
            rounds.append({"t": t, "wall": wall, "codes": codes_of(out),
                           "model_bytes": out["model_bytes"], "map": out["scores"][0]})
            print(f"round {len(rounds)}: {wall:.2f}s, fit {t['fit']:.2f}s, "
                  f"select {t['select']:.3f}s, "
                  f"encode {statistics.median(t['encode']):.0f}/s, "
                  f"query p50 {statistics.median(t['query_p50']):.4f}ms "
                  f"p99 {statistics.median(t['query_p99']):.4f}ms, "
                  f"eval {t['eval']:.3f}s, mAP {out['scores'][0]:.4f}",
                  file=sys.stderr)
            print("encode rates: " + " ".join(f"{r:.0f}" for r in t["encode"]), file=sys.stderr)
            done = len(rounds) == 2 if args.trace else time.perf_counter() - start >= args.seconds
            if done:
                break
    finally:
        for f in WORK.glob(f"*-{tag}.*"):
            f.unlink()
    for op, what in checks.failed.items():
        print(f"FAILED {op}: {'; '.join(what[:5])}", file=sys.stderr)

    if args.trace:
        metrics = tracer.layer_metrics(w.workers)
        untraced, traced = rounds[0]["wall"], rounds[1]["wall"]
        metrics["trace.untraced_round_s"] = (untraced, "s")
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        with open(WORK / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump([{"name": s[0], "start": s[1] - tracer.spans[0][1],
                        "end": s[2] - tracer.spans[0][1], "parent": s[3], "counts": s[4]}
                       for s in tracer.spans], fh)
    else:
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

        def med(key):
            return statistics.median(
                statistics.median(r["t"][key]) if isinstance(r["t"][key], list) else r["t"][key]
                for r in rounds)

        metrics = {
            "setup_s": (setup_seconds(args.workload, args.seed), "s"),
            "fit_s": (med("fit"), "s"),
            "model_bytes": (rounds[0]["model_bytes"], "B"),
            "encode_pts_per_s": (med("encode"), "1/s"),
            "map": (rounds[0]["map"], "ratio"),
            "peak_rss_mb": (usage / 1024.0, "MB"),
        }
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
