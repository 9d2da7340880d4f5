"""Trees and forests: training with random class grouping, and encode_dataset.

Each tree trains on its own bootstrap subset; at every internal node the
classes present are randomly split into two pooled groups and a low-rank split
node is trained to separate them.  Per-tree seeds derive from the master seed
and the tree index, and every tree trains on one OpenBLAS thread
(:mod:`._blas`), in this process or in a pool worker, so training is
reproducible bit-for-bit whatever the worker count.

A :class:`Forest` is made once, and builds its anchor pools and encode groups
then (:mod:`.encode`); to change a forest, make a new one.
:func:`encode_dataset` gives each tree's one-hot block over its
2^(depth-1) breadth-first-indexed leaves.
"""

from __future__ import annotations

import warnings
from dataclasses import InitVar, dataclass

import numpy as np

from ._blas import _single_blas_thread
from .encode import _checked_batch, _leaf_rows, _tree_groups, anchor_pool
from .errors import InvalidInputError
from .lowrank import (
    KernelConfig,
    check_kernel_constants,
    kernel_featurize,
    median_bandwidth,
)
from .dictionaries import (
    SplitConfig,
    SplitNode,
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


def _tree_kernels(boot_features, cfg, rng):
    kernels = []
    for feats in boot_features:
        if cfg.learner != "kernel":
            kernels.append(None)
            continue
        n_take = min(cfg.anchor_count, feats.shape[1])
        idx = rng.choice(feats.shape[1], size=n_take, replace=False)
        anchors = feats[:, idx]
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
