"""Spans around leafhash's public functions, installed from outside the package.

A :class:`Tracer` replaces every binding of each traced function in the
package's modules with a wrapper that records a span (name, start, end,
parent, counts) and restores the originals when it is closed.  While a span is
open, calls to ``np.linalg.svd``, ``lstsq`` and ``solve`` are counted in it and
in every span enclosing it.

Pool workers are forked from the traced process, so they inherit the wrappers.
A worker records the spans of each ``train_tree`` call on its own and returns
them on the tree; the ``train_forest`` wrapper collects them in the parent and
removes them from the trees, so the forest it returns is the untraced one.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter

import numpy as np

LINALG = ("svd", "lstsq", "solve")
MODULES = ("lowrank", "dictionaries", "network", "forest", "aggregation",
           "retrieval", "data", "cli")
# the traced functions, named after the module that defines them
TARGETS = (
    "forest.train_forest", "forest.train_tree", "forest.encode_dataset",
    "lowrank.fit_transform", "lowrank.kernel_featurize", "network.net_fit",
    "dictionaries.train_split_node", "dictionaries.ksvd_fit", "dictionaries.omp",
    "dictionaries.residual_projector", "dictionaries.node_route_many",
    "aggregation.block_covariance", "aggregation.estimate_lambda",
    "aggregation.greedy_semisupervised",
    "retrieval.pack_codes", "retrieval.rank_query", "retrieval.radius_query",
    "retrieval.mean_average_precision", "retrieval.precision_recall_at_radius",
    "data.save_model", "data.load_model", "data.save_codes", "data.load_codes",
)
_SPAN_KEY = "_bench_spans"

# span fields
NAME, START, END, PARENT, COUNTS = range(5)


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self, lh):
        self.lh = lh
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.totals: Counter = Counter()  # counts read from return values
        self._undo: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def __enter__(self):
        mods = [self.lh] + [importlib.import_module(f"{self.lh.__name__}.{m}")
                            for m in MODULES]
        posts = {
            "forest.train_forest": self._post_train_forest,
            "forest.encode_dataset": self._post_encode,
            "lowrank.fit_transform": self._post_fit_transform,
            "network.net_fit": self._post_net_fit,
            "retrieval.pack_codes": self._post_pack,
        }
        for target in TARGETS:
            module, attr = target.split(".")
            orig = getattr(importlib.import_module(f"{self.lh.__name__}.{module}"), attr)
            wrapped = self._span(target, orig, posts.get(target))
            if target == "forest.train_tree":
                wrapped = self._pool_aware(wrapped)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapped)
        block_set = self.lh.aggregation.BlockSet
        from_blocks = block_set.__dict__["from_blocks"].__func__
        self._set(block_set, "from_blocks",
                  classmethod(self._span("aggregation.from_blocks", from_blocks, None)))
        for kind in LINALG:
            self._set(np.linalg, kind, self._counting(kind, getattr(np.linalg, kind)))
        return self

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()
        return False

    def _set(self, owner, key, value):
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, post):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self.stack[-1] if self.stack else None,
                               dict.fromkeys(LINALG, 0)])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    post(idx, result, args)
            finally:
                self.stack.pop()
                self.spans[idx][END] = time.perf_counter()
            return result
        return wrapper

    def _pool_aware(self, traced):
        @functools.wraps(traced)
        def wrapper(*args, **kwargs):
            if os.getpid() == self.pid:
                return traced(*args, **kwargs)
            # a forked pool worker: keep only this tree's spans and return them
            self.spans, self.stack = [], []
            tree = traced(*args, **kwargs)
            setattr(tree, _SPAN_KEY, self.spans)
            return tree
        return wrapper

    def _counting(self, kind, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for idx in self.stack:
                self.spans[idx][COUNTS][kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- reading return values ----------------------------------------------

    def _post_train_forest(self, idx, forest, args):
        for tree in forest.trees:
            spans = vars(tree).pop(_SPAN_KEY, None)
            if not spans:
                continue
            base = len(self.spans)
            for span in spans:
                parent = span[PARENT]
                span[PARENT] = idx if parent is None else parent + base
                self.spans.append(span)

    def _post_fit_transform(self, idx, transform, args):
        self.spans[idx][COUNTS]["iters"] = len(transform.loss_trace) - 1
        self.spans[idx][COUNTS]["nonconverged"] = int(not transform.converged)

    def _post_net_fit(self, idx, net, args):
        self.spans[idx][COUNTS]["epochs"] = len(net.loss_trace) - 1

    def _post_encode(self, idx, blocks, args):
        self.totals["tree_encodes"] += len(blocks) * (blocks[0].shape[1] if blocks else 0)

    def _post_pack(self, idx, codes, args):
        # every packed block comes from encode_dataset, perhaps in batches
        self.totals["tree_encodes_kept"] += len(list(args[1])) * len(codes)

    # -- reading spans ------------------------------------------------------

    def _under(self, idx, ancestor):
        parent = self.spans[idx][PARENT]
        while parent is not None:
            if self.spans[parent][NAME] == ancestor:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def seconds(self, name, under=None):
        return sum(s[END] - s[START] for i, s in enumerate(self.spans)
                   if s[NAME] == name and (under is None or self._under(i, under)))

    def count(self, name, key):
        return sum(s[COUNTS].get(key, 0) for s in self.spans if s[NAME] == name)

    def calls(self, name):
        return sum(1 for s in self.spans if s[NAME] == name)

    def layer_metrics(self, workers):
        """Per-layer numbers of everything recorded, as name -> (value, unit)."""
        sec, cnt = self.seconds, self.count
        fit = sec("forest.train_forest")
        tree_s = sec("forest.train_tree")
        enc = "forest.encode_dataset"
        m = {
            "forest.train_forest_s": (fit, "s"),
            "forest.train_tree_s": (tree_s, "s"),
            "forest.train_tree_calls": (self.calls("forest.train_tree"), "count"),
            "forest.pool_busy_ratio": (tree_s / (workers * fit) if fit else 0.0, "ratio"),
            "lowrank.fit_transform_s": (sec("lowrank.fit_transform"), "s"),
            "lowrank.fit_transform_iters": (cnt("lowrank.fit_transform", "iters"), "count"),
            "lowrank.svd_calls": (cnt("lowrank.fit_transform", "svd"), "count"),
            "lowrank.nonconverged_nodes": (cnt("lowrank.fit_transform", "nonconverged"), "count"),
            "network.net_fit_s": (sec("network.net_fit"), "s"),
            "network.net_fit_epochs": (cnt("network.net_fit", "epochs"), "count"),
            "network.svd_calls": (cnt("network.net_fit", "svd"), "count"),
            "dictionaries.train_split_node_s": (sec("dictionaries.train_split_node"), "s"),
            "dictionaries.ksvd_fit_s": (sec("dictionaries.ksvd_fit"), "s"),
            "dictionaries.omp_s": (sec("dictionaries.omp"), "s"),
            "dictionaries.omp_calls": (self.calls("dictionaries.omp"), "count"),
            "dictionaries.lstsq_calls": (cnt("dictionaries.omp", "lstsq"), "count"),
            "dictionaries.residual_projector_s": (sec("dictionaries.residual_projector"), "s"),
            "aggregation.from_blocks_s": (sec("aggregation.from_blocks"), "s"),
            "aggregation.block_covariance_s": (sec("aggregation.block_covariance"), "s"),
            "aggregation.estimate_lambda_s": (sec("aggregation.estimate_lambda"), "s"),
            "aggregation.greedy_semisupervised_s": (sec("aggregation.greedy_semisupervised"), "s"),
            "aggregation.solve_calls": (cnt("aggregation.greedy_semisupervised", "solve"), "count"),
            "forest.encode_dataset_s": (sec(enc), "s"),
            "forest.kernel_featurize_s": (sec("lowrank.kernel_featurize", under=enc), "s"),
            "forest.node_route_many_s": (sec("dictionaries.node_route_many", under=enc), "s"),
            "forest.tree_encodes": (self.totals["tree_encodes"], "count"),
            "forest.tree_encodes_kept": (self.totals["tree_encodes_kept"], "count"),
        }
        for name in ("retrieval.pack_codes", "retrieval.rank_query", "retrieval.radius_query",
                     "retrieval.mean_average_precision",
                     "retrieval.precision_recall_at_radius", "data.save_model",
                     "data.load_model", "data.save_codes", "data.load_codes"):
            m[f"{name}_s"] = (sec(name), "s")
        return m
