"""Encoding: the leaf every tree of a forest sends each column of a batch to.

Every kernel tree of a forest draws its anchors from the same training
columns, so each modality keeps its distinct anchors once, in an
:class:`AnchorPool`.  Runs of consecutive trees that share a kernel kind and
their shapes encode together as one stacked group (:func:`_tree_groups`):
the batch is mapped through the whole pool once, and each group routes all
its roots with one product per side.  Other trees encode alone.
:func:`_leaf_rows` gives every tree's leaf of every column, on threads when
the batch is large enough to pay for them (``THREAD_MULADDS``), and always on
one OpenBLAS thread.  A ``Forest`` builds its pools and groups here when it
is made, and ``forest.encode_dataset`` turns the leaves into one-hot blocks.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from ._blas import _single_blas_thread
from .errors import InvalidInputError, NumericError
from .lowrank import (
    _as_matrix,
    _column_sq_norms,
    _kernel_map,
    _poly_of_products,
    _rbf_distances,
    _rbf_of_distances,
)
from .dictionaries import _column_norms, _go_left, _route_many
from .retrieval import _as_int


@dataclass(frozen=True)
class AnchorPool:
    """The distinct kernel anchors of one modality of a forest.

    Every kernel tree draws its anchors from the same training columns, so a
    forest's anchors repeat.  ``rows`` (P, d) holds each distinct anchor
    (by exact bytes) once, as a row, in order of first occurrence over the
    trees.  ``indices[t]`` gives tree ``t``'s anchors, in order, as rows of
    it (None for a tree without a kernel).  ``sq_norms`` holds each row's
    squared norm.
    """

    rows: np.ndarray
    indices: tuple
    sq_norms: np.ndarray

    @classmethod
    def of(cls, columns, indices) -> "AnchorPool":
        """The pool of the anchors ``columns``, a C-ordered (d, P) array as a
        model file stores it, with ``indices`` (one per tree).

        The squared norms are summed down the columns of ``columns``, which
        rounds as a tree's own ``anchor_sq_norms`` of a (d, a) array with
        a >= 2 does, so a pooled RBF map adds the same norms as the tree's
        own map.  A tree of one anchor sums its norm pairwise, and is
        encoded alone (:func:`_stack_key`)."""
        # huge anchors square to inf here, silently: their maps are checked
        # when a batch is encoded
        with np.errstate(over="ignore"):
            sq_norms = np.sum(columns**2, axis=0)
        return cls(rows=np.ascontiguousarray(columns.T), indices=tuple(indices),
                   sq_norms=sq_norms)


def anchor_pool(trees, modality: int) -> AnchorPool | None:
    """The pool of the trees' kernel anchors for ``modality``, or None when
    no tree has a kernel there.  Both ``save_model`` and encoding use it."""
    seen, rows, indices = {}, [], []
    for tree in trees:
        kc = tree.kernels[modality]
        if kc is None:
            indices.append(None)
            continue
        idx = np.empty(kc.n_anchors, dtype=np.intp)
        for j, row in enumerate(np.ascontiguousarray(kc.anchors.T)):
            idx[j] = seen.setdefault(row.tobytes(), len(seen))
            if idx[j] == len(rows):
                rows.append(row)
        indices.append(idx)
    if not rows:
        return None
    return AnchorPool.of(np.stack(rows, axis=1), indices)


def _pool_maps(pool: AnchorPool, x, x_sq, rbf: bool):
    """``(products, distances)`` of a validated batch against every row of
    the pool: ``a'x`` (P x N) and, for RBF maps, the clipped squared
    distances (else None).  Each stacked group takes its rows of them."""
    products = pool.rows @ x
    distances = _rbf_distances(pool.sq_norms, x_sq, 2.0 * products) if rbf else None
    return products, distances


@dataclass(frozen=True)
class _TreeGroup:
    """Trees ``start:stop`` of a list, encoded together (see :func:`_tree_groups`).

    A group of one tree has no stacks: its tree maps the batch through its own
    kernel (if any) and routes it alone, and ``muladds`` is what that costs
    per column (:func:`_root_muladds`).  A larger group takes its trees'
    maps from the pool's (:func:`_pool_maps`): rows ``take`` of the pool,
    tree by tree, then ``neg_denom`` (an RBF group's ``-2 sigma^2`` per row,
    a column) or ``poly`` (a polynomial group's ``p`` and ``q``).  It routes
    every root with one matmul per side over the roots' stacked projectors
    (``proj_neg``/``proj_pos``, trees x r x anchors).  Its ``muladds`` are
    what its thread pays per column once the pool's maps are made: one per
    map row, and its root projectors' (see ``THREAD_MULADDS``).
    """

    start: int
    stop: int
    take: np.ndarray | None = None
    neg_denom: np.ndarray | None = None
    poly: tuple[float, float] | None = None
    proj_neg: np.ndarray | None = None
    proj_pos: np.ndarray | None = None
    muladds: int = 0

    def kernel_map(self, products, distances) -> np.ndarray:
        """The group's trees' maps, one row per anchor, from the pool's
        :func:`_pool_maps` of the batch: :func:`_kernel_map`'s steps in its
        order.  Each row equals its tree's own map up to the rounding of the
        pool's product, which is blocked differently."""
        if self.poly is None:
            return _rbf_of_distances(distances[self.take], self.neg_denom)
        return _poly_of_products(products[self.take], *self.poly)

    def root_residuals(self, f):
        """(e_neg, e_pos), each trees x N, of every root for the group map
        ``f``: per tree, the arithmetic of ``dictionaries._residuals`` on its
        rows."""
        f = f.reshape(self.stop - self.start, -1, f.shape[1])
        return (_column_norms(np.matmul(self.proj_neg, f), axis=1),
                _column_norms(np.matmul(self.proj_pos, f), axis=1))


# most anchors one group stacks.  16 of serve-784's 16-anchor trees fill a
# group; on a 2-core machine groups of 16 encoded as fast as groups of 32 or
# 49 trees.
GROUP_ANCHORS = 256


def _stack_key(tree, modality):
    """What a tree must share with its neighbours to be stacked with them, or
    None when it is encoded alone: no kernel, a kernel of one anchor (whose
    own ``anchor_sq_norms`` numpy sums pairwise, not in order as the pool's
    are summed), a degenerate root, or projectors whose shapes do not fit the
    map (which the tree alone rejects).  A kernel tree has no net
    (``forest._learner_misfit``), so its root routes the map itself."""
    kc, root = tree.kernels[modality], tree.nodes[0][modality]
    if kc is None or kc.n_anchors == 1 or root.degenerate:
        return None
    shapes = (kc._shape, root.proj_neg.shape, root.proj_pos.shape)
    if any(s[1:] != (kc.n_anchors,) for s in shapes[1:]):
        return None
    poly = (kc.p, kc.q) if kc.kind == "polynomial" else None
    return kc.kind, poly, shapes


def _root_muladds(tree, modality: int) -> int:
    """Multiply-adds per column of a tree's map and root: its kernel's
    anchor product, its root net's layers and its root projectors (none for
    a degenerate root).  Deeper nodes share the columns, so they are left out."""
    kc, root = tree.kernels[modality], tree.nodes[0][modality]
    muladds = 0 if kc is None else kc._shape[0] * kc.n_anchors
    if not root.degenerate:
        if root.net is not None:
            muladds += sum(layer.weight.size for layer in root.net.layers)
        muladds += root.proj_neg.size + root.proj_pos.size
    return muladds


def _tree_groups(trees, modality: int, indices) -> list[_TreeGroup]:
    """Split ``trees`` into runs of consecutive trees that encode together.

    A run shares its kernel kind (and ``p``, ``q``), anchor shape and root
    projector shapes.  A run of more than one tree holds at most
    min(d, ``GROUP_ANCHORS``) anchors, so its map is no larger than the
    batch.  ``indices`` are the trees' rows in their forest's pool
    (``AnchorPool.indices``, aligned with ``trees``; None without a pool).
    """
    runs, start = [], 0
    while start < len(trees):
        key = _stack_key(trees[start], modality)
        stop = start + 1
        if key is not None:
            per_tree = trees[start].kernels[modality].n_anchors
            cap = min(trees[start].feature_dims[modality], GROUP_ANCHORS)
            while (stop < len(trees) and (stop - start + 1) * per_tree <= cap
                   and _stack_key(trees[stop], modality) == key):
                stop += 1
        runs.append((start, stop))
        start = stop

    groups = []
    for start, stop in runs:
        if stop - start == 1:
            groups.append(_TreeGroup(start, stop, muladds=_root_muladds(trees[start], modality)))
            continue
        kernels = [t.kernels[modality] for t in trees[start:stop]]
        roots = [t.nodes[0][modality] for t in trees[start:stop]]
        rbf = kernels[0].kind == "rbf"
        neg_denom = np.repeat([-2.0 * kc.sigma**2 for kc in kernels],
                              [kc.n_anchors for kc in kernels])
        take = np.concatenate(indices[start:stop])
        proj_neg = np.stack([r.proj_neg for r in roots])
        proj_pos = np.stack([r.proj_pos for r in roots])
        groups.append(_TreeGroup(
            start, stop, take=take,
            neg_denom=neg_denom[:, None] if rbf else None,
            poly=None if rbf else (kernels[0].p, kernels[0].q),
            proj_neg=proj_neg, proj_pos=proj_pos,
            muladds=take.size + proj_neg.size + proj_pos.size))
    return groups


def _checked_batch(feature_dims, x, modality) -> np.ndarray:
    """``x`` as a finite matrix, maybe of no columns (:func:`lowrank._as_matrix`),
    of ``feature_dims[modality]`` rows, for an integer ``modality`` in range."""
    modality = _as_int(modality, "modality")
    if not 0 <= modality < len(feature_dims):
        raise InvalidInputError(f"modality {modality} out of range")
    x = _as_matrix(x, "x", allow_empty=True)
    if x.shape[0] != feature_dims[modality]:
        raise InvalidInputError(
            f"feature dimension {x.shape[0]} does not match tree "
            f"({feature_dims[modality]})"
        )
    return x


def _descend(tree, f, modality: int, pos, level: int) -> np.ndarray:
    """Leaf of every column of ``f``, the tree's feature map of a validated
    batch, from its nodes ``pos`` at ``level`` (0 at the root) down.  Each
    level routes the columns of each of its nodes that some column reaches."""
    for level in range(level, tree.depth - 1):
        next_pos = np.empty_like(pos)
        for p in range(2**level - 1, 2 ** (level + 1) - 1):
            mask = pos == p
            if not mask.any():
                continue
            # a node that takes the whole batch routes it uncopied
            whole = mask.all() and f.flags.c_contiguous
            go_left = _route_many(tree.nodes[p][modality], f if whole else f[:, mask])
            next_pos[mask] = np.where(go_left, 2 * p + 1, 2 * p + 2)
        pos = next_pos
    return pos - tree.internal_count


# fewest multiply-adds (a group's ``muladds`` times columns) a batch must
# cost each group, on average over the groups, to be encoded on threads.
# Each numpy call hands the interpreter lock from thread to thread, so a batch
# must make each call long enough to pay for that.  On a 2-core machine
# threads broke even at about 2.5M (linear, 16-d, 5000 columns), 2.8M (neural,
# 16-32-16, 1800) and 3.7M multiply-adds (RBF, 64 anchors over 16-d, 400
# columns), and encoded 3000 columns of the neural and RBF forests about 1.3x
# and 1.6-1.9x faster.  serve-784's stacked groups (256 map rows and 8192
# projector entries each) broke even between about 300 and 600 columns in
# sustained runs, and encoded 750 and 1000 columns about 1.2x faster; a map
# row counted as one multiply-add puts their threshold at 497 columns.
THREAD_MULADDS = 2**22


def _quiet():
    """The error state every encode step runs in.  An overflow, or an RBF map
    divided by a 2 sigma^2 that underflowed to 0, raises NumericError at the
    residuals, so numpy need not warn of it.  numpy keeps the state per
    thread, so each encode thread enters it itself."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _encode_groups(trees, x, x_sq, modality: int, groups, pool_maps, leaves) -> None:
    """Encode the trees of ``groups``, a run of consecutive groups of
    ``trees``, into their rows of ``leaves`` (see :func:`_leaf_rows`).
    ``pool_maps`` are the pool's :func:`_pool_maps` of the batch when a group
    stacks trees; they are only read.  The first tree that cannot be encoded
    stops the run with a NumericError that names it.  The run holds
    :func:`_single_blas_thread` itself, so an encode thread keeps one
    OpenBLAS thread whoever else leaves the guard."""
    with _single_blas_thread(), _quiet():
        for group in groups:
            t = group.start
            try:
                if group.take is None:
                    tree = trees[t]
                    kc = tree.kernels[modality]
                    f = _kernel_map(x, x_sq, kc) if kc is not None else x
                    leaves[t] = _descend(tree, f, modality, np.zeros(f.shape[1], np.int64), 0)
                    continue
                members = trees[group.start:group.stop]
                f = group.kernel_map(*pool_maps)
                roots_left = _go_left(*group.root_residuals(f))
                if members[0].depth == 2:
                    # the roots are the only nodes: leaf 0 left, leaf 1 right
                    np.logical_not(roots_left, out=leaves[group.start:group.stop])
                    continue
                maps = f.reshape(len(members), -1, f.shape[1])
                for t, tree, f_tree, go_left in zip(range(group.start, group.stop), members,
                                                    maps, roots_left):
                    leaves[t] = _descend(tree, f_tree, modality, np.where(go_left, 1, 2), 1)
            except NumericError as exc:
                raise NumericError(f"tree {t}: {exc}") from exc


def _leaf_rows(trees, x, modality: int, groups, pool=None) -> np.ndarray:
    """Leaf index (breadth-first, 0-based) of every column of ``x`` for each
    of ``trees``, a (trees, N) int64 array, encoded in their ``groups``
    (:func:`_tree_groups`).

    ``x`` is checked (:func:`_checked_batch`), and for RBF maps its squared
    column norms are taken, once per call; no node validates it again.
    A batch of no columns has no leaves.  When a group stacks
    trees, the batch is mapped through the whole anchor ``pool`` of the
    trees' forest once, by the caller (:func:`_pool_maps`): one pool-by-N
    product, and for RBF maps the clipped squared distances.
    The trees are then encoded one group at a time, so only one group's
    feature map is held at a time per thread.  A one-tree group maps the
    batch through its tree's kernel (if any) and routes it.  A larger group
    takes its rows of the pool's maps, finishes its trees' maps, and routes
    its roots with one matmul per side; deeper levels route per tree, and a
    depth-2 tree's leaf is its root's side.
    When the batch costs each group at least ``THREAD_MULADDS``
    multiply-adds on average (its ``muladds`` per column), the groups are
    split into as many contiguous runs of whole groups as this process may
    use CPUs (at most one run per group).  Each run but the last is encoded
    on a thread started for this call, the last by the caller, and the call
    returns only when every thread has ended, so none outlives it.  The runs
    share the pool's maps, read-only.  Every thread makes the calls the
    serial path makes, on the same arrays, so the leaves are the same.  All
    of it runs on one OpenBLAS thread: the caller and every encode thread
    hold :func:`_single_blas_thread`.
    A batch that overflows the arithmetic (a squared norm of an RBF map, a
    polynomial map, or a split residual that is not finite) raises
    NumericError naming the first tree (of a stacked group, the group's
    first) it could not encode, threads or not; a map is not validated, so
    one that is not finite raises it at the residuals.
    """
    kinds = {t.kernels[modality].kind for t in trees if t.kernels[modality] is not None}
    leaves = np.empty((len(trees), x.shape[1]), dtype=np.int64)
    if x.shape[1] == 0:
        return leaves
    stacked = [g for g in groups if g.take is not None]
    threads = 1
    if x.shape[1] * sum(g.muladds for g in groups) >= THREAD_MULADDS * len(groups):
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        threads = min(cpus, len(groups))

    with _single_blas_thread():
        with _quiet():
            x_sq = _column_sq_norms(x) if "rbf" in kinds else None
            pool_maps = None
            if stacked:
                pool_maps = _pool_maps(pool, x, x_sq, any(g.poly is None for g in stacked))
        cuts = [len(groups) * k // threads for k in range(threads + 1)]
        runs = [groups[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
        if len(runs) == 1:
            _encode_groups(trees, x, x_sq, modality, groups, pool_maps, leaves)
            return leaves
        failed = [None] * len(runs)  # the error that stopped each run, if any

        def encode(i):
            try:
                _encode_groups(trees, x, x_sq, modality, runs[i], pool_maps, leaves)
            except Exception as exc:
                failed[i] = exc

        # the caller encodes the last run itself
        helpers = [threading.Thread(target=encode, args=(i,)) for i in range(len(runs) - 1)]
        for helper in helpers:
            helper.start()
        try:
            encode(len(runs) - 1)
        finally:
            for helper in helpers:
                helper.join()
    # in tree order: the first failing run, which stopped at its first
    # failing tree, names the lowest one
    for exc in failed:
        if exc is not None:
            raise exc
    return leaves
