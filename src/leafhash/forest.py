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
import warnings
from concurrent.futures import ProcessPoolExecutor
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
    kernel_featurize,
    median_bandwidth,
)
from .dictionaries import (
    SplitConfig,
    SplitNode,
    _column_norms,
    _go_left,
    node_route_many,
    train_split_node,
)

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
        if self.sigma is not None and not self.sigma > 0:
            raise InvalidInputError("sigma must be > 0")
        if self.kernel_kind not in ("rbf", "polynomial"):
            raise InvalidInputError(f"unknown kernel kind {self.kernel_kind!r}")

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
    encoding checks a batch against ``feature_dims`` alone.  It then builds,
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
                if kc is not None and kc.anchors.shape[0] != self.feature_dims[m]:
                    raise InvalidInputError(f"kernel anchors of modality {m} differ in dimension")
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
                    kernel=None,  # features are already mapped
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


@contextlib.contextmanager
def _single_blas_thread():
    """Run the block with one OpenBLAS thread, then restore the caller's count.

    An encode's products are small (a few anchors or node features by one
    batch), yet OpenBLAS splits each over all its threads and waits for the
    slowest, so another process on any core stalls every product.  On a
    2-core machine beside one busy loop, a 16-d, 24-tree forest encoded
    about 3x slower with two threads and no slower with one.  Two threads
    do encode 784-d batches about a quarter faster on a quiet machine.
    Training runs under it too, serial or pooled, so the thread count cannot
    change a tree.  The count is process-wide: other threads' BLAS calls
    meanwhile run on one.
    """
    threads = _openblas_threads()
    before = threads[0]() if threads is not None else 1
    if before == 1:
        yield
        return
    threads[1](1)
    try:
        yield
    finally:
        threads[1](before)


def _train_one(args, index):
    """Tree ``index`` of the forest that ``train_multimodal_forest`` trains
    on ``args`` (its views, depth, config, master seed and dominant
    modality), trained on one OpenBLAS thread.  A failure propagates with a
    ``tree {index}`` note, which survives a pool's pickling."""
    views, depth, cfg, master_seed, dominant = args
    with _single_blas_thread():
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
    the tree index.  Every tree trains through :func:`_train_one`, on one
    OpenBLAS thread, in this process or in a pool worker: at 784-d, a
    product split over threads rounds differently, so the thread count
    would otherwise change the trees.
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
    kernel (if any) and routes it alone.  A larger group takes its trees'
    maps from the pool's (:func:`_pool_maps`): rows ``take`` of the pool,
    tree by tree, then ``denom`` (an RBF group's ``2 sigma^2`` per row, a
    column) or ``poly`` (a polynomial group's ``p`` and ``q``).  It routes
    every root with one matmul per side over the roots' stacked projectors
    (``proj_neg``/``proj_pos``, trees x r x anchors).
    """

    start: int
    stop: int
    take: np.ndarray | None = None
    denom: np.ndarray | None = None
    poly: tuple[float, float] | None = None
    proj_neg: np.ndarray | None = None
    proj_pos: np.ndarray | None = None

    def kernel_map(self, products, distances) -> np.ndarray:
        """The group's trees' maps, one row per anchor, from the pool's
        :func:`_pool_maps` of the batch: :func:`_kernel_map`'s steps in its
        order.  Each row equals its tree's own map up to the rounding of the
        pool's product, which is blocked differently."""
        if self.poly is None:
            return _rbf_of_distances(distances[self.take], self.denom)
        return _poly_of_products(products[self.take], *self.poly)

    def root_residuals(self, f):
        """(e_neg, e_pos), each trees x N, of every root for the group map
        ``f``: per tree, the arithmetic of ``node_residuals`` on its rows."""
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
    are summed), a degenerate root or one with a net (whose output, not the
    map, is what it routes), or projectors whose shapes do not fit the map
    (which the tree alone rejects)."""
    kc, root = tree.kernels[modality], tree.nodes[0][modality]
    if kc is None or kc.n_anchors == 1 or root.degenerate or root.net is not None:
        return None
    shapes = (kc.anchors.shape, root.proj_neg.shape, root.proj_pos.shape)
    if any(s[1:] != (kc.n_anchors,) for s in shapes[1:]):
        return None
    poly = (kc.p, kc.q) if kc.kind == "polynomial" else None
    return kc.kind, poly, shapes


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
            groups.append(_TreeGroup(start, stop))
            continue
        kernels = [t.kernels[modality] for t in trees[start:stop]]
        roots = [t.nodes[0][modality] for t in trees[start:stop]]
        rbf = kernels[0].kind == "rbf"
        denom = np.repeat([2.0 * kc.sigma**2 for kc in kernels],
                          [kc.n_anchors for kc in kernels])
        groups.append(_TreeGroup(
            start, stop,
            take=np.concatenate(indices[start:stop]),
            denom=denom[:, None] if rbf else None,
            poly=None if rbf else (kernels[0].p, kernels[0].q),
            proj_neg=np.stack([r.proj_neg for r in roots]),
            proj_pos=np.stack([r.proj_pos for r in roots])))
    return groups


def _check_batch(feature_dims, x, modality: int):
    if not 0 <= modality < len(feature_dims):
        raise InvalidInputError(f"modality {modality} out of range")
    if x.shape[0] != feature_dims[modality]:
        raise InvalidInputError(
            f"feature dimension {x.shape[0]} does not match tree "
            f"({feature_dims[modality]})"
        )


def _descend(tree, f, modality: int, pos, level: int) -> np.ndarray:
    """Leaf of every column of ``f``, the tree's feature map of the batch,
    from its node ``pos`` at ``level`` (0 at the root) down."""
    for _ in range(level, tree.depth - 1):
        next_pos = np.empty_like(pos)
        for p in np.unique(pos):
            mask = pos == p
            node = tree.nodes[p][modality]
            # a node that takes the whole batch routes it uncopied
            whole = mask.all() and f.flags.c_contiguous
            go_left = node_route_many(node, f if whole else f[:, mask])
            next_pos[mask] = np.where(go_left, 2 * p + 1, 2 * p + 2)
        pos = next_pos
    return pos - tree.internal_count


def _leaf_rows(trees, x, modality: int, groups, pool=None) -> list[np.ndarray]:
    """Leaf index (breadth-first, 0-based) of every column of ``x`` for each
    of ``trees``, encoded in their ``groups`` (:func:`_tree_groups`).

    ``x`` is already checked against the trees' dimensions (:func:`_check_batch`).
    The batch is validated, and for RBF maps its squared column norms taken,
    once per call; a batch of no columns has no leaves.  When a group stacks
    trees, the batch is mapped through the whole anchor ``pool`` of the
    trees' forest once (:func:`_pool_maps`): one pool-by-N product, and for
    RBF maps the clipped squared distances.
    The trees are then encoded one group at a time, so only one group's
    feature map is held at a time.  A one-tree group maps the batch through
    its tree's kernel (if any) and routes it.  A larger group takes its rows
    of the pool's map, finishes its trees' maps, and routes its roots with
    one matmul per side; deeper levels route per tree.  All of it runs on
    one OpenBLAS thread.
    A batch that overflows the arithmetic (a squared norm of an RBF map, a
    polynomial map, or a split residual that is not finite) raises
    NumericError naming the first tree it could not encode.
    """
    kinds = {t.kernels[modality].kind for t in trees if t.kernels[modality] is not None}
    if kinds:
        x = _as_matrix(x, "x", allow_empty=True)
    if x.shape[1] == 0:
        return [np.zeros(0, dtype=np.int64) for _ in trees]
    stacked = [g for g in groups if g.take is not None]

    rows = []
    # an overflow raises NumericError below, so numpy need not warn of it
    with _single_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        x_sq = _column_sq_norms(x) if "rbf" in kinds else None
        if stacked:
            products, distances = _pool_maps(pool, x, x_sq,
                                             any(g.poly is None for g in stacked))
        for group in groups:
            members = trees[group.start:group.stop]
            try:
                if group.take is None:
                    (tree,) = members
                    kc = tree.kernels[modality]
                    f = _kernel_map(x, x_sq, kc) if kc is not None else x
                    rows.append(_descend(tree, f, modality,
                                         np.zeros(f.shape[1], np.int64), 0))
                    continue
                f = group.kernel_map(products, distances)
                roots_left = _go_left(*group.root_residuals(f))
                maps = f.reshape(len(members), -1, f.shape[1])
                for tree, f_tree, go_left in zip(members, maps, roots_left):
                    rows.append(_descend(tree, f_tree, modality, np.where(go_left, 1, 2), 1))
            except NumericError as exc:
                raise NumericError(f"tree {len(rows)}: {exc}") from exc
    return rows


def _as_batch(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x[:, None] if x.ndim == 1 else x


def encode_tree(tree: HashTree, x, modality: int = 0) -> np.ndarray:
    """One-hot leaf code (length 2^(depth-1), uint8) for a single point."""
    x = _as_batch(x)
    _check_batch(tree.feature_dims, x, modality)
    (leaf,) = _leaf_rows([tree], x, modality, [_TreeGroup(0, 1)])
    if leaf.size != 1:
        raise InvalidInputError("encode_tree takes a single point; use encode_dataset")
    out = np.zeros(tree.leaf_count, dtype=np.uint8)
    out[leaf[0]] = 1
    return out


def encode_dataset(forest: Forest, x, modality: int = 0) -> list[np.ndarray]:
    """Code blocks for every sample: one (leaf_count, N) uint8 block per tree.

    Every column of every block is exactly 1-sparse; a batch of no columns
    gives (leaf_count, 0) blocks, whatever the learner.  The trees are encoded
    in the forest's groups through its anchor pool (see :func:`_leaf_rows`),
    both built when the forest was made.
    """
    x = _as_batch(x)
    n = x.shape[1]
    trees = forest.trees
    _check_batch(forest.feature_dims, x, modality)
    blocks = []
    for tree, leaves in zip(trees, _leaf_rows(trees, x, modality, forest._groups[modality],
                                              forest.pools[modality])):
        block = np.zeros((tree.leaf_count, n), dtype=np.uint8)
        block[leaves, np.arange(n)] = 1
        blocks.append(block)
    return blocks
