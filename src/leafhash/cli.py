"""Command-line surface: train, encode, eval.

Every option can come from (highest precedence first) a command-line flag, a
LEAFHASH_<NAME> environment variable, or a key=value config file passed with
--config.  Reports are printed as key=value lines with floats at 6 significant
digits, in a fixed order, so runs can be diffed.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import data as dio
from .aggregation import BlockSet, select_blocks
from .dictionaries import SplitConfig
from .errors import DataFormatError, InvalidInputError, NumericError
from .forest import ForestConfig, LabeledDataset, encode_dataset, train_forest
from .lowrank import OptimizerConfig
from .retrieval import (
    HammingIndex,
    mean_average_precision,
    pack_codes,
    precision_recall_at_radius,
    radius_query,
)

ENV_PREFIX = "LEAFHASH_"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _emit(key, value):
    print(f"{key}={_fmt(value)}")


def _load_config_file(path):
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for i, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{i}: expected key=value")
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    return out


def _resolve(args, file_cfg, name, cast, default, attr=None):
    """flag > environment > config file > default."""
    flag = getattr(args, attr or name.replace("-", "_"), None)
    if flag is not None:
        return flag
    env = os.environ.get(ENV_PREFIX + name.replace("-", "_").upper())
    source = env if env is not None else file_cfg.get(name)
    if source is None:
        return default
    try:
        return cast(source)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad value for {name}: {source!r} ({exc})") from exc


def _load_features(path, fmt):
    if fmt == "idx":
        matrix = dio.load_idx(path)
        if matrix.ndim != 2:
            raise DataFormatError(f"{path} is an IDX label file, not images")
        return matrix
    return dio.load_matrix(path, fmt)


def _add_common(sub):
    sub.add_argument("--config", type=str, default=None,
                     help="config file of key=value lines")


def build_parser() -> _Parser:
    parser = _Parser(prog="leafhash", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("train", help="train a forest, aggregate, write a model")
    _add_common(tr)
    tr.add_argument("--seed", type=int, default=None, help="master RNG seed")
    tr.add_argument("--workers", type=int, default=None,
                    help="worker processes for tree training")
    tr.add_argument("--features", type=str, default=None, help="training feature file")
    tr.add_argument("--labels", type=str, default=None, help="training label file")
    tr.add_argument("--format", type=str, default=None, choices=["idx", "csv", "raw-f64"])
    tr.add_argument("--trees", type=int, default=None, help="forest size M")
    tr.add_argument("--depth", type=int, default=None, help="tree depth")
    tr.add_argument("--learner", type=str, default=None,
                    choices=["linear", "kernel", "neural"])
    tr.add_argument("--kernel", type=str, default=None, choices=["rbf", "polynomial"])
    tr.add_argument("--anchors", type=int, default=None, help="kernel anchor count")
    tr.add_argument("--sigma", type=float, default=None, help="RBF bandwidth")
    tr.add_argument("--bits", type=int, default=None, help="target code length L")
    tr.add_argument("--mode", type=str, default=None, choices=["unsup", "sup", "semi"])
    tr.add_argument("--lambda", dest="lam", type=float, default=None,
                    help="semi-supervised mixing weight (default: estimated)")
    tr.add_argument("--atoms", type=int, default=None, help="dictionary atoms per group")
    tr.add_argument("--sparsity", type=int, default=None, help="k-SVD sparsity bound")
    tr.add_argument("--model-out", type=str, default=None, help="output model path")

    en = sub.add_parser("encode", help="encode a dataset with a trained model")
    _add_common(en)
    en.add_argument("--model", type=str, default=None, help="model file")
    en.add_argument("--features", type=str, default=None, help="feature file")
    en.add_argument("--labels", type=str, default=None,
                    help="optional labels to embed in the codes file")
    en.add_argument("--format", type=str, default=None, choices=["idx", "csv", "raw-f64"])
    en.add_argument("--codes-out", type=str, default=None, help="output codes path")

    ev = sub.add_parser("eval", help="retrieval metrics for gallery/query codes")
    _add_common(ev)
    ev.add_argument("--model", type=str, default=None,
                    help="optional model file (validates code length)")
    ev.add_argument("--gallery", type=str, default=None, help="gallery codes file")
    ev.add_argument("--queries", type=str, default=None, help="query codes file")
    ev.add_argument("--radii", type=str, default=None, help="comma list, e.g. 0,2")
    ev.add_argument("--metrics", type=str, default=None, help="comma list: pr,map")
    ev.add_argument("--query-index", type=int, default=None,
                    help="report the retrieved ids for one query instead")
    return parser


def _require(value, name):
    if value is None:
        raise UsageError(f"--{name} is required")
    return value


def cmd_train(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else {}
    get = lambda name, cast, default: _resolve(args, file_cfg, name, cast, default)

    features_path = _require(get("features", str, None), "features")
    labels_path = _require(get("labels", str, None), "labels")
    fmt = get("format", str, "csv")
    n_trees = get("trees", int, 128)
    depth = get("depth", int, 2)
    learner = get("learner", str, "kernel")
    kernel = get("kernel", str, "rbf")
    anchors = get("anchors", int, 256)
    sigma = get("sigma", float, None)
    bits = get("bits", int, 36)
    mode = get("mode", str, "semi")
    lam = _resolve(args, file_cfg, "lambda", float, None, attr="lam")
    atoms = get("atoms", int, 16)
    sparsity = get("sparsity", int, 4)
    seed = get("seed", int, 0)
    workers = get("workers", int, 1)
    model_out = _require(get("model-out", str, None), "model-out")

    leaf_count = 2 ** (depth - 1)
    if bits % leaf_count != 0:
        raise UsageError(
            f"bits={bits} not divisible by the per-tree code width {leaf_count}"
        )
    k = bits // leaf_count
    if k > n_trees // 2 and mode in ("unsup", "semi"):
        raise UsageError(
            f"{mode} aggregation needs at least 2*k = {2 * k} trees, got {n_trees}"
        )

    features = _load_features(features_path, fmt)
    labels = dio.load_labels(labels_path)
    ds = LabeledDataset(features=features, labels=labels)
    cfg = ForestConfig(
        split=SplitConfig(
            learner=learner,
            atoms=atoms,
            sparsity=sparsity,
            optimizer=OptimizerConfig(),
        ),
        kernel_kind=kernel,
        anchor_count=anchors,
        sigma=sigma,
    )

    forest = train_forest(ds, n_trees, depth, cfg, master_seed=seed, workers=workers)
    blocks = encode_dataset(forest, ds.features)
    bs = BlockSet.from_blocks(blocks)
    selection = select_blocks(bs, ds.labels, k, mode, lam)
    dio.save_model(forest, selection, model_out)

    _emit("trees", n_trees)
    _emit("depth", depth)
    _emit("learner", learner)
    _emit("bits", bits)
    _emit("blocks", k)
    _emit("mode", mode)
    if selection.lam is not None:
        _emit("lambda", selection.lam)
    for i, tree in enumerate(forest.trees):
        # a neural node keeps its trace on its net, the others on the transform
        fitted = [node.net if node.net is not None else node.transform
                  for per_mod in tree.nodes for node in per_mod]
        traces = [f.loss_trace for f in fitted if f is not None]
        initial = float(np.mean([t[0] for t in traces])) if traces else 0.0
        final = float(np.mean([t[-1] for t in traces])) if traces else 0.0
        _emit(f"tree_{i:03d}_initial_loss", initial)
        _emit(f"tree_{i:03d}_final_loss", final)
    _emit("selected_blocks", ",".join(str(i) for i in selection.chosen))
    _emit("selection_gains", ",".join(_fmt(g) for g in selection.gains))
    _emit("model", model_out)
    return 0


def cmd_encode(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else {}
    get = lambda name, cast, default: _resolve(args, file_cfg, name, cast, default)

    model_path = _require(get("model", str, None), "model")
    features_path = _require(get("features", str, None), "features")
    fmt = get("format", str, "csv")
    labels_path = get("labels", str, None)
    codes_out = _require(get("codes-out", str, None), "codes-out")

    forest, selection = dio.load_model(model_path)
    if selection is None:
        raise InvalidInputError("model carries no block selection; retrain")
    features = _load_features(features_path, fmt)
    if features.shape[0] != forest.feature_dims[0]:
        raise InvalidInputError(
            f"feature dimension mismatch: model expects {forest.feature_dims[0]}, "
            f"data has {features.shape[0]}"
        )
    labels = dio.load_labels(labels_path) if labels_path else None
    codes = pack_codes(encode_dataset(forest, features), selection.chosen)
    dio.save_codes(codes, labels, codes_out)
    _emit("count", len(codes))
    _emit("bits", codes.length)
    _emit("codes", codes_out)
    return 0


def cmd_eval(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else {}
    get = lambda name, cast, default: _resolve(args, file_cfg, name, cast, default)

    gallery_path = _require(get("gallery", str, None), "gallery")
    queries_path = _require(get("queries", str, None), "queries")
    radii_text = get("radii", str, "0,2")
    metrics_text = get("metrics", str, "pr,map")
    model_path = get("model", str, None)
    query_index = get("query-index", int, None)

    try:
        radii = [int(tok) for tok in radii_text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad radii list {radii_text!r}") from exc
    metrics = [tok.strip() for tok in metrics_text.split(",") if tok.strip()]
    for m in metrics:
        if m not in ("pr", "map"):
            raise UsageError(f"unknown metric {m!r}")

    gallery_codes, gallery_labels = dio.load_codes(gallery_path)
    query_codes, query_labels = dio.load_codes(queries_path)
    if len(query_codes) == 0:
        raise InvalidInputError("query set is empty")
    if gallery_codes.length != query_codes.length:
        raise InvalidInputError(
            f"code lengths differ: gallery {gallery_codes.length}, "
            f"queries {query_codes.length}"
        )
    if model_path:
        forest, selection = dio.load_model(model_path)
        if selection is None:
            raise InvalidInputError("model carries no block selection; retrain")
        bits = len(selection.chosen) * forest.leaf_count
        if bits != gallery_codes.length:
            raise InvalidInputError(
                f"model codes are {bits} bits, the codes files' {gallery_codes.length}"
            )

    idx = HammingIndex(codes=gallery_codes, labels=gallery_labels)
    _emit("gallery", len(gallery_codes))
    _emit("queries", len(query_codes))

    if query_index is not None:
        if not 0 <= query_index < len(query_codes):
            raise InvalidInputError(f"query index {query_index} out of range")
        q = query_codes.code(query_index)
        for r in radii:
            ids = radius_query(idx, q, r)
            _emit(f"retrieved@{r}", ",".join(str(i) for i in ids))
        return 0

    if gallery_labels is None or query_labels is None:
        raise InvalidInputError("metrics need labels embedded in both codes files")
    if "pr" in metrics:
        for r in radii:
            p, rec = precision_recall_at_radius(idx, query_codes, query_labels, r)
            _emit(f"precision@{r}", p)
            _emit(f"recall@{r}", rec)
    if "map" in metrics:
        _emit("map", mean_average_precision(idx, query_codes, query_labels))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "train":
            return cmd_train(args)
        if args.command == "encode":
            return cmd_encode(args)
        return cmd_eval(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except InvalidInputError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
