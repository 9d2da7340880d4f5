"""Tree and forest construction with random class grouping.

Each tree trains on its own bootstrap subset; at every internal node the
classes present are randomly split into two pooled groups and a low-rank split
node is trained to separate them.  Encoding pushes a point to a leaf and emits
a one-hot vector over the tree's 2^(depth-1) breadth-first-indexed leaves.

Trees are fully independent: per-tree seeds derive from the master seed and
the tree index, and every tree trains on one OpenBLAS thread, whether in the
calling process or in a pool worker, so training is reproducible bit-for-bit
regardless of worker count or scheduling.

A :class:`Forest` is made once: its constructor checks the trees and builds
each modality's anchor pool and encode groups from them, and encoding and
``save_model`` read them.  To change a forest, make a new one.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
import warnings
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import InvalidInputError, NumericError
from .lowrank import (
    KernelConfig,
    _as_matrix,
    _column_sq_norms,
    _kernel_map,
    _poly_of_products,
    _rbf_distances,
    _rbf_of_distances,
    check_kernel_constants,
    kernel_featurize,
    median_bandwidth,
)
from .dictionaries import (
    SplitConfig,
    SplitNode,
    _column_norms,
    _go_left,
    _route_many,
    node_route_many,
    train_split_node,
)
from .retrieval import _as_int

_MAX_SUPPORTED_DEPTH = 6
# share of the training samples each tree draws, without replacement
BOOTSTRAP_FRACTION = 0.5


@dataclass
class LabeledDataset:
    """Feature matrix (columns are samples) with integer class labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise InvalidInputError("features must be a 2-D matrix")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[1]:
            raise InvalidInputError(
                "labels must be one integer per feature column"
            )
        self.labels = self.labels.astype(np.int64)

    @property
    def n_samples(self) -> int:
        return self.features.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[0]

    @property
    def classes(self) -> np.ndarray:
        return np.unique(self.labels)


@dataclass(frozen=True)
class ForestConfig:
    """Forest-level training settings.

    ``sigma=None`` selects the per-tree median-distance bandwidth heuristic.
    ``anchor_count`` is clamped to each tree's bootstrap size, which is
    ``BOOTSTRAP_FRACTION`` of the training samples, rounded up.
    """

    split: SplitConfig = SplitConfig()
    kernel_kind: str = "rbf"
    anchor_count: int = 256
    sigma: float | None = None
    poly_p: float = 1.0
    poly_q: float = 2.0

    def __post_init__(self):
        if self.anchor_count < 1:
            raise InvalidInputError("anchor_count must be >= 1")
        if self.sigma is not None:
            # a given bandwidth is checked whatever the kernel kind
            check_kernel_constants("rbf", sigma=self.sigma)
        check_kernel_constants(self.kernel_kind, p=self.poly_p, q=self.poly_q)

    @property
    def learner(self) -> str:
        return self.split.learner


@dataclass
class HashTree:
    """One trained hash tree.

    ``nodes[p][m]`` is the split node at breadth-first internal position ``p``
    for modality ``m``; ``kernels[m]`` is that modality's per-tree feature map
    (None for linear/neural learners).
    """

    depth: int
    nodes: list[list[SplitNode]]
    tree_seed: int
    kernels: tuple[KernelConfig | None, ...]
    feature_dims: tuple[int, ...]

    @property
    def leaf_count(self) -> int:
        return 2 ** (self.depth - 1)

    @property
    def internal_count(self) -> int:
        return 2 ** (self.depth - 1) - 1

    @property
    def n_modalities(self) -> int:
        return len(self.feature_dims)


@dataclass(frozen=True)
class Forest:
    """A tuple of independently trained trees plus training metadata.

    The learner is stated once, in ``config``; the ``learner`` property reads
    it there.  ``trees`` may be given as a list; it is stored as a tuple.  The
    constructor rejects a tree whose depth or feature dimensions are not the
    forest's, or whose kernel anchors do not have ``feature_dims[m]`` rows, so
    encoding checks a batch against ``feature_dims`` alone.  It also rejects
    a tree that does not fit the learner (:func:`_learner_misfit`).  It then builds,
    for every modality ``m``, the trees' anchor pool ``pools[m]``
    (:func:`anchor_pool`; None without a kernel tree) and their encode groups
    ``_groups[m]`` (:func:`_tree_groups`).  Both are derived from the trees, so
    neither is compared nor shown.  Only ``load_model`` hands in
    ``read_pools``, the pools it read with the trees; a forest made by
    ``dataclasses.replace`` builds its own.
    """

    trees: tuple[HashTree, ...]
    master_seed: int
    depth: int
    feature_dims: tuple[int, ...]
    config: ForestConfig
    read_pools: InitVar[tuple | None] = None

    def __post_init__(self, read_pools):
        trees = tuple(self.trees)
        for t, tree in enumerate(trees):
            if (tree.depth, tree.feature_dims) != (self.depth, self.feature_dims):
                raise InvalidInputError(f"tree {t} differs from the forest in depth or dimensions")
            for m, kc in enumerate(tree.kernels):
                if kc is not None and kc._shape[0] != self.feature_dims[m]:
                    raise InvalidInputError(f"kernel anchors of modality {m} differ in dimension")
            misfit = _learner_misfit(tree, self.learner)
            if misfit:
                raise InvalidInputError(f"tree {t} does not fit the {self.learner} learner: "
                                        f"{misfit}")
        pools = read_pools or [anchor_pool(trees, m) for m in range(len(self.feature_dims))]
        object.__setattr__(self, "trees", trees)
        object.__setattr__(self, "pools", tuple(pools))
        object.__setattr__(self, "_groups", tuple(
            _tree_groups(trees, m, None if pool is None else pool.indices)
            for m, pool in enumerate(self.pools)))

    @property
    def learner(self) -> str:
        return self.config.learner

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def leaf_count(self) -> int:
        return 2 ** (self.depth - 1)


def _learner_misfit(tree, learner: str) -> str | None:
    """Why ``tree`` cannot be a tree of a ``learner`` forest, or None: a
    linear tree has no kernel and no net; a kernel tree has a kernel on
    every modality and no net; a neural tree has no kernel, and a net on
    every node that is not degenerate."""
    if learner == "kernel":
        if any(kc is None for kc in tree.kernels):
            return "a modality has no kernel"
    elif any(kc is not None for kc in tree.kernels):
        return "a modality has a kernel"
    nodes = [node for per_mod in tree.nodes for node in per_mod if not node.degenerate]
    if learner == "neural":
        if any(node.net is None for node in nodes):
            return "a node has no net"
    elif any(node.net is not None for node in nodes):
        return "a node has a net"
    return None


def partition_classes(classes, rng):
    """Randomly split a class set into two balanced groups.

    Returns ``(group_a, group_b)`` as sets whose sizes differ by at most one;
    deterministic given the generator state.  Returns None for fewer than two
    classes (the caller builds a degenerate passthrough node).
    """
    ordered = sorted(set(int(c) for c in np.asarray(list(classes)).ravel()))
    if len(ordered) < 2:
        return None
    perm = rng.permutation(len(ordered))
    half = len(ordered) // 2
    group_a = {ordered[i] for i in perm[:half]}
    group_b = {ordered[i] for i in perm[half:]}
    return group_a, group_b


def _check_depth(depth):
    if depth < 2:
        raise InvalidInputError("tree depth must be >= 2")
    if depth >= 8:
        raise InvalidInputError(
            f"depth {depth} rejected: deep trees lose the robustness gained "
            "from randomness and slow retrieval; use depth <= 6"
        )
    if depth > _MAX_SUPPORTED_DEPTH:
        warnings.warn(
            f"depth {depth} exceeds the supported range (2..6); proceeding",
            RuntimeWarning,
            stacklevel=3,
        )


def tree_seed_for(master_seed: int, index: int) -> int:
    """Derived per-tree seed; stable hash of (master_seed, index).

    Masked to 63 bits so seeds survive a signed-integer round trip.
    """
    ss = np.random.SeedSequence([int(master_seed) & (2**63 - 1), int(index)])
    return int(ss.generate_state(1, np.uint64)[0]) & (2**63 - 1)


@functools.cache
def _openblas_threads():
    """(getter, setter) of numpy's bundled OpenBLAS thread count, or None.

    None when numpy bundles no OpenBLAS or the library lacks either symbol.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_-*.so")):
        try:
            lib = ctypes.CDLL(path)
            getter = lib.scipy_openblas_get_num_threads64_
            setter = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter.argtypes, setter.restype = [ctypes.c_int], None
        return getter, setter
    return None


# holders of _single_blas_thread, and the OpenBLAS count the first of them
# found; _BLAS_LOCK guards both while they change, never across a block, and
# is taken across a fork, so a pool worker starts with it free
_BLAS_LOCK = threading.Lock()
_blas_holders = 0
_blas_count_before = 1
os.register_at_fork(before=_BLAS_LOCK.acquire, after_in_parent=_BLAS_LOCK.release,
                    after_in_child=_BLAS_LOCK.release)


@contextlib.contextmanager
def _single_blas_thread():
    """Run the block with one OpenBLAS thread, then restore the caller's count.

    An encode's products are small (a few anchors or node features by one
    batch), yet OpenBLAS splits each over all its threads, which spin while
    they wait for the slowest, so another process on any core stalls every
    product.  On a 2-core machine beside one busy loop, a 16-d, 24-tree
    forest encoded about 3x slower with OpenBLAS's two threads and no slower
    with one.  That finding is about OpenBLAS's own threads: Python threads
    that each run one-thread BLAS calls on trees of their own
    (:func:`_leaf_rows`) encode large 16-d batches about 1.3-1.9x faster.
    Two OpenBLAS threads do encode 784-d batches about a quarter faster on a
    quiet machine.  Training runs under it too, serial or pooled, so the
    thread count cannot change a tree.

    The count is process-wide, so the guard counts its holders: the first
    records the count and sets 1, and the last restores it.  Threads that
    enter it at once, and entries nested in one thread, all run on one
    OpenBLAS thread until the last of them leaves; other threads' BLAS calls
    meanwhile run on one too.
    """
    global _blas_holders, _blas_count_before
    threads = _openblas_threads()
    with _BLAS_LOCK:
        if _blas_holders == 0 and threads is not None:
            _blas_count_before = threads[0]()
            threads[1](1)
        _blas_holders += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_holders -= 1
            if _blas_holders == 0 and threads is not None:
                threads[1](_blas_count_before)


def _tree_kernels(boot_features, cfg, rng):
    kernels = []
    for feats in boot_features:
        if cfg.learner != "kernel":
            kernels.append(None)
            continue
        n_take = min(cfg.anchor_count, feats.shape[1])
        idx = rng.choice(feats.shape[1], size=n_take, replace=False)
        anchors = feats[:, idx].copy()
        if cfg.kernel_kind == "rbf":
            sigma = cfg.sigma if cfg.sigma is not None else median_bandwidth(feats, rng)
            kernels.append(KernelConfig(anchors=anchors, kind="rbf", sigma=sigma))
        else:
            kernels.append(
                KernelConfig(anchors=anchors, kind="polynomial", p=cfg.poly_p, q=cfg.poly_q)
            )
    return tuple(kernels)


@_single_blas_thread()
def train_tree(
    ds,
    depth: int,
    cfg: ForestConfig | None = None,
    tree_seed: int = 0,
    dominant: int = 0,
) -> HashTree:
    """Train one hash tree on a bootstrap subset of the data.

    ``ds`` is a LabeledDataset or a list of aligned per-modality datasets; the
    dominant modality's split nodes route the training samples while growing
    the tree.  The tree trains on one OpenBLAS thread
    (:func:`_single_blas_thread`): at 784-d, a product split over threads
    rounds differently, so the caller's thread count would otherwise change
    the tree.
    """
    views = [ds] if isinstance(ds, LabeledDataset) else list(ds)
    cfg = cfg or ForestConfig()
    _check_depth(depth)
    _check_views(views)
    if not 0 <= dominant < len(views):
        raise InvalidInputError(f"dominant modality {dominant} out of range")
    rng = np.random.default_rng(tree_seed)

    n = views[0].n_samples
    take = int(np.ceil(BOOTSTRAP_FRACTION * n))
    boot = rng.choice(n, size=take, replace=False)
    boot_features = [v.features[:, boot] for v in views]
    labels = views[0].labels[boot]
    if np.unique(labels).size < 2:
        raise InvalidInputError("bootstrap sample contains fewer than 2 classes")

    kernels = _tree_kernels(boot_features, cfg, rng)
    feats = [
        kernel_featurize(f, k) if k is not None else f
        for f, k in zip(boot_features, kernels)
    ]

    internal = 2 ** (depth - 1) - 1
    nodes: list[list[SplitNode] | None] = [None] * internal
    min_samples = 2 * (cfg.split.sparsity + 1)

    def build(pos, sample_idx):
        arriving = labels[sample_idx]
        classes = np.unique(arriving)
        groups = None
        if classes.size >= 2 and sample_idx.size >= min_samples:
            groups = partition_classes(classes, rng)
        if groups is None:
            partition = {int(c): "neg" for c in classes}
            per_mod = [
                SplitNode(class_partition=dict(partition), degenerate=True)
                for _ in views
            ]
            nodes[pos] = per_mod
            left_idx, right_idx = sample_idx, sample_idx[:0]
        else:
            group_neg, group_pos = groups
            partition = {c: "neg" for c in group_neg}
            partition.update({c: "pos" for c in group_pos})
            neg_mask = np.isin(arriving, sorted(group_neg))
            per_mod = [
                train_split_node(
                    f[:, sample_idx[~neg_mask]],
                    f[:, sample_idx[neg_mask]],
                    partition,
                    cfg.split,
                    rng=int(rng.integers(0, 2**63 - 1)),
                )
                for f in feats
            ]
            nodes[pos] = per_mod
            go_left = node_route_many(per_mod[dominant], feats[dominant][:, sample_idx])
            left_idx, right_idx = sample_idx[go_left], sample_idx[~go_left]
        left_child = 2 * pos + 1
        if left_child < internal:
            build(left_child, left_idx)
            build(left_child + 1, right_idx)

    build(0, np.arange(take))
    return HashTree(
        depth=depth,
        nodes=nodes,
        tree_seed=int(tree_seed),
        kernels=kernels,
        feature_dims=tuple(v.feature_dim for v in views),
    )


def _check_views(views):
    if not views:
        raise InvalidInputError("at least one modality is required")
    n = views[0].n_samples
    for i, v in enumerate(views):
        if not isinstance(v, LabeledDataset):
            raise InvalidInputError("each modality must be a LabeledDataset")
        if v.n_samples != n:
            raise InvalidInputError(
                f"modality {i} has {v.n_samples} samples, expected {n}"
            )
        if not np.array_equal(v.labels, views[0].labels):
            raise InvalidInputError(f"modality {i} labels are misaligned")


# Process-pool plumbing: workers receive the shared inputs once through the
# initializer and then only tree indices per task.
_POOL_ARGS = None


def _train_one(args, index):
    """Tree ``index`` of the forest that ``train_multimodal_forest`` trains
    on ``args`` (its views, depth, config, master seed and dominant
    modality).  A failure propagates with a ``tree {index}`` note, which
    survives a pool's pickling."""
    views, depth, cfg, master_seed, dominant = args
    try:
        return train_tree(views, depth, cfg, tree_seed_for(master_seed, index), dominant)
    except Exception as exc:
        exc.add_note(f"tree {index}")
        raise


def _pool_init(args):
    global _POOL_ARGS
    _POOL_ARGS = args


def _pool_train(index):
    return _train_one(_POOL_ARGS, index)


def train_multimodal_forest(
    views,
    dominant: int,
    n_trees: int,
    depth: int = 2,
    cfg: ForestConfig | None = None,
    master_seed: int = 0,
    workers: int = 1,
) -> Forest:
    """Train a forest over aligned modality views of the same samples.

    Every node draws a single class partition shared by all modalities and
    trains one split node per modality on it; the ``dominant`` modality routes
    the training samples.  A per-tree failure propagates with a note naming
    the tree index.  Every tree trains through :func:`train_tree`, on one
    OpenBLAS thread, in this process or in a pool worker, so the trees are
    those :func:`train_tree` gives for the same seeds, whatever the worker
    count.
    """
    views = [views] if isinstance(views, LabeledDataset) else list(views)
    cfg = cfg or ForestConfig()
    _check_depth(depth)
    _check_views(views)
    if n_trees < 1:
        raise InvalidInputError("a forest needs at least one tree")
    if not 0 <= dominant < len(views):
        raise InvalidInputError(f"dominant modality {dominant} out of range")

    args = (views, depth, cfg, master_seed, dominant)
    if workers > 1:
        # imported here: multiprocessing would make every import of the
        # package slower
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, n_trees),
                                 initializer=_pool_init, initargs=(args,)) as pool:
            trees = list(pool.map(_pool_train, range(n_trees)))
    else:
        trees = [_train_one(args, index) for index in range(n_trees)]

    return Forest(
        trees=trees,
        master_seed=int(master_seed),
        depth=depth,
        feature_dims=tuple(v.feature_dim for v in views),
        config=cfg,
    )


def train_forest(
    ds: LabeledDataset,
    n_trees: int,
    depth: int = 2,
    cfg: ForestConfig | None = None,
    master_seed: int = 0,
    workers: int = 1,
) -> Forest:
    """Single-modality forest training (see :func:`train_multimodal_forest`)."""
    return train_multimodal_forest(
        [ds], 0, n_trees, depth, cfg, master_seed, workers
    )


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
    (:func:`_learner_misfit`), so its root routes the map itself."""
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


def encode_dataset(forest: Forest, x, modality: int = 0) -> list[np.ndarray]:
    """Code blocks for every sample: one (leaf_count, N) uint8 block per tree.

    Every column of every block is exactly 1-sparse; a batch of no columns
    gives (leaf_count, 0) blocks, whatever the learner.  The trees are encoded
    in the forest's groups through its anchor pool (see :func:`_leaf_rows`),
    both built when the forest was made.  The blocks are the slices, tree by
    tree, of one (trees, leaf_count, N) array: one compare of every leaf id
    against every leaf, viewed as uint8.
    """
    x = _checked_batch(forest.feature_dims, x, modality)
    leaves = _leaf_rows(forest.trees, x, modality, forest._groups[modality],
                        forest.pools[modality])
    leaf = np.arange(forest.leaf_count)[:, None]
    return list((leaves[:, None, :] == leaf).view(np.uint8))
