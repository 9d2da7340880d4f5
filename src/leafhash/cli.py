"""Command-line surface: train, encode, eval.

Each subcommand's options are declared once, in ``OPTIONS``.  An option's
value comes from (highest precedence first) its command-line flag, a
LEAFHASH_<NAME> environment variable, a ``name=value`` line of the config file
passed with --config, or its default.  A value from any of these sources is
cast and checked against the option's choices alike, so a bad value is a
usage error wherever it comes from.  Reports are printed as key=value lines
with floats at 6 significant digits, in a fixed order, so runs can be diffed.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import data as dio
from .aggregation import BlockSet, _check_lambda, select_blocks
from .dictionaries import SplitConfig
from .errors import DataFormatError, InvalidInputError, NumericError
from .forest import ForestConfig, LabeledDataset, encode_dataset, train_forest
from .retrieval import (
    HammingIndex,
    PackedCodes,
    mean_average_precision,
    pack_codes,
    precision_recall_at_radius,
    radius_query,
)

ENV_PREFIX = "LEAFHASH_"
# columns `encode` passes to encode_dataset at a time
_ENCODE_SLICE = 1000
REQUIRED = object()  # the default of an option that has none


class Option(NamedTuple):
    """``--name`` on the command line, LEAFHASH_<NAME> in the environment
    (``-`` read as ``_``) and ``name=`` in a config file."""

    name: str
    cast: Callable[[str], object]
    default: object = None
    choices: tuple = ()
    help: str | None = None


_FORMAT = Option("format", str, "csv", ("idx", "csv", "raw-f64"))

OPTIONS = {
    "train": (
        Option("seed", int, 0, help="master RNG seed"),
        Option("workers", int, 1, help="worker processes for tree training"),
        Option("features", str, REQUIRED, help="training feature file"),
        Option("labels", str, REQUIRED, help="training label file"),
        _FORMAT,
        Option("trees", int, 128, help="forest size M"),
        Option("depth", int, 2, help="tree depth"),
        Option("learner", str, "kernel", ("linear", "kernel", "neural")),
        Option("kernel", str, "rbf", ("rbf", "polynomial")),
        Option("anchors", int, 256, help="kernel anchor count"),
        Option("sigma", float, help="RBF bandwidth"),
        Option("bits", int, 36, help="target code length L"),
        Option("mode", str, "semi", ("unsup", "sup", "semi")),
        Option("lambda", float, help="semi-supervised mixing weight (default: estimated)"),
        Option("atoms", int, 16, help="dictionary atoms per group"),
        Option("sparsity", int, 4, help="k-SVD sparsity bound"),
        Option("model-out", str, REQUIRED, help="output model path"),
    ),
    "encode": (
        Option("model", str, REQUIRED, help="model file"),
        Option("features", str, REQUIRED, help="feature file"),
        Option("labels", str, help="optional labels to embed in the codes file"),
        _FORMAT,
        Option("codes-out", str, REQUIRED, help="output codes path"),
    ),
    "eval": (
        Option("model", str, help="optional model file (validates code length)"),
        Option("gallery", str, REQUIRED, help="gallery codes file"),
        Option("queries", str, REQUIRED, help="query codes file"),
        Option("radii", str, "0,2", help="comma list, e.g. 0,2"),
        Option("metrics", str, "pr,map", help="comma list: pr,map"),
        Option("query-index", int, help="report the retrieved ids for one query instead"),
    ),
}


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


def _option_values(args) -> dict:
    """Every option of ``args.command`` by name: its flag, else its environment
    variable, else its key in the --config file, else its default.  A given
    value is cast and checked against the choices whatever its source."""
    flags = vars(args)
    file_cfg = _load_config_file(args.config) if args.config else {}
    values = {}
    for opt in OPTIONS[args.command]:
        key = opt.name.replace("-", "_")
        text = flags[key]
        if text is None:
            text = os.environ.get(ENV_PREFIX + key.upper(), file_cfg.get(opt.name))
        if text is None:
            if opt.default is REQUIRED:
                raise UsageError(f"--{opt.name} is required")
            values[opt.name] = opt.default
            continue
        try:
            value = opt.cast(text)
            if opt.choices and value not in opt.choices:
                raise ValueError(f"choose from {', '.join(opt.choices)}")
        except ValueError as exc:
            raise UsageError(f"bad value for {opt.name}: {text!r} ({exc})") from exc
        values[opt.name] = value
    return values


def _load_features(path, fmt):
    if fmt == "idx":
        matrix = dio.load_idx(path)
        if matrix.ndim != 2:
            raise DataFormatError(f"{path} is an IDX label file, not images")
        return matrix
    return dio.load_matrix(path, fmt)


def cmd_train(opts) -> int:
    """train a forest, aggregate, write a model"""
    n_trees, depth, bits, mode = opts["trees"], opts["depth"], opts["bits"], opts["mode"]
    leaf_count = 2 ** (depth - 1)
    if bits <= 0 or bits % leaf_count != 0:
        raise UsageError(
            f"bits={bits} is not a positive multiple of the per-tree code width {leaf_count}"
        )
    k = bits // leaf_count
    need = k if mode == "sup" else 2 * k
    if need > n_trees:
        raise UsageError(f"{mode} aggregation needs at least {need} trees, got {n_trees}")
    try:
        cfg = ForestConfig(
            split=SplitConfig(
                learner=opts["learner"],
                atoms=opts["atoms"],
                sparsity=opts["sparsity"],
            ),
            kernel_kind=opts["kernel"],
            anchor_count=opts["anchors"],
            sigma=opts["sigma"],
        )
        _check_lambda(opts["lambda"])
    except InvalidInputError as exc:
        raise UsageError(exc) from exc

    features = _load_features(opts["features"], opts["format"])
    labels = dio.load_labels(opts["labels"])
    ds = LabeledDataset(features=features, labels=labels)
    forest = train_forest(ds, n_trees, depth, cfg, master_seed=opts["seed"],
                          workers=opts["workers"])
    blocks = encode_dataset(forest, ds.features)
    bs = BlockSet.from_blocks(blocks)
    selection = select_blocks(bs, ds.labels, k, mode, opts["lambda"])
    dio.save_model(forest, selection, opts["model-out"])

    _emit("trees", n_trees)
    _emit("depth", depth)
    _emit("learner", opts["learner"])
    _emit("bits", bits)
    _emit("blocks", k)
    _emit("mode", mode)
    if selection.lam is not None:
        _emit("lambda", selection.lam)
    nonconverged = degenerate = 0
    for i, tree in enumerate(forest.trees):
        nodes = [node for per_mod in tree.nodes for node in per_mod]
        # a neural node keeps its trace on its net, the others on the transform
        fitted = [node.net if node.net is not None else node.transform for node in nodes]
        traces = [f.loss_trace for f in fitted if f is not None]
        initial = float(np.mean([t[0] for t in traces])) if traces else 0.0
        final = float(np.mean([t[-1] for t in traces])) if traces else 0.0
        _emit(f"tree_{i:03d}_initial_loss", initial)
        _emit(f"tree_{i:03d}_final_loss", final)
        degenerate += sum(node.degenerate for node in nodes)
        nonconverged += sum(not node.degenerate and f is not None and not f.converged
                            for node, f in zip(nodes, fitted))
    _emit("nonconverged_nodes", nonconverged)
    _emit("degenerate_nodes", degenerate)
    _emit("selected_blocks", ",".join(str(i) for i in selection.chosen))
    _emit("selection_gains", ",".join(_fmt(g) for g in selection.gains))
    _emit("model", opts["model-out"])
    return 0


def cmd_encode(opts) -> int:
    """encode a dataset with a trained model"""
    forest, selection = dio.load_model(opts["model"])
    if selection is None:
        raise InvalidInputError("model carries no block selection; retrain")
    features = _load_features(opts["features"], opts["format"])
    labels = dio.load_labels(opts["labels"]) if opts["labels"] else None
    # slices keep encode_dataset's temporaries, which grow with the batch, small
    parts = [pack_codes(encode_dataset(forest, features[:, i:i + _ENCODE_SLICE]),
                        selection.chosen)
             for i in range(0, max(features.shape[1], 1), _ENCODE_SLICE)]
    codes = PackedCodes(np.concatenate([part.words for part in parts]), parts[0].length)
    dio.save_codes(codes, labels, opts["codes-out"])
    _emit("count", len(codes))
    _emit("bits", codes.length)
    _emit("codes", opts["codes-out"])
    return 0


def cmd_eval(opts) -> int:
    """retrieval metrics for gallery/query codes"""
    radii_text, metrics_text = opts["radii"], opts["metrics"]
    try:
        radii = [int(tok) for tok in radii_text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad radii list {radii_text!r}") from exc
    if any(r < 0 for r in radii):
        raise UsageError(f"radii must be >= 0, got {radii_text!r}")
    metrics = [tok.strip() for tok in metrics_text.split(",") if tok.strip()]
    for m in metrics:
        if m not in ("pr", "map"):
            raise UsageError(f"unknown metric {m!r}")

    gallery_codes, gallery_labels = dio.load_codes(opts["gallery"])
    query_codes, query_labels = dio.load_codes(opts["queries"])
    if gallery_codes.length != query_codes.length:
        raise InvalidInputError(
            f"code lengths differ: gallery {gallery_codes.length}, "
            f"queries {query_codes.length}"
        )
    if opts["model"]:
        forest, selection = dio.load_model(opts["model"])
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

    query_index = opts["query-index"]
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


def build_parser() -> _Parser:
    """One subparser per command, with a flag for each of its ``OPTIONS``.
    A flag keeps its text: :func:`_option_values` casts and checks it."""
    parser = _Parser(prog="leafhash", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for run in (cmd_train, cmd_encode, cmd_eval):
        name = run.__name__.removeprefix("cmd_")
        cmd = sub.add_parser(name, help=run.__doc__)
        cmd.set_defaults(run=run)
        cmd.add_argument("--config", help="config file of key=value lines")
        for opt in OPTIONS[name]:
            metavar = "{" + ",".join(opt.choices) + "}" if opt.choices else None
            cmd.add_argument(f"--{opt.name}", metavar=metavar, help=opt.help)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(_option_values(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, InvalidInputError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
