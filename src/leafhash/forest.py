"""Tree and forest construction with random class grouping.

Each tree trains on its own bootstrap subset; at every internal node the
classes present are randomly split into two pooled groups and a low-rank split
node is trained to separate them.  Encoding pushes a point to a leaf and emits
a one-hot vector over the tree's 2^(depth-1) breadth-first-indexed leaves.

Trees are fully independent: per-tree seeds derive from the master seed and
the tree index, so training is reproducible bit-for-bit regardless of worker
count or scheduling.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .lowrank import (
    KernelConfig,
    _as_matrix,
    _column_sq_norms,
    _kernel_map,
    kernel_featurize,
    median_bandwidth,
)
from .dictionaries import SplitConfig, SplitNode, node_route_many, train_split_node

_MAX_SUPPORTED_DEPTH = 6


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
    ``anchor_count`` is clamped to each tree's bootstrap size.
    """

    split: SplitConfig = SplitConfig()
    kernel_kind: str = "rbf"
    anchor_count: int = 256
    sigma: float | None = None
    poly_p: float = 1.0
    poly_q: float = 2.0
    bootstrap_fraction: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.bootstrap_fraction <= 1.0:
            raise InvalidInputError("bootstrap_fraction must be in (0, 1]")
        if self.anchor_count < 1:
            raise InvalidInputError("anchor_count must be >= 1")
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
    learner: str
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


@dataclass
class Forest:
    """A list of independently trained trees plus training metadata."""

    trees: list[HashTree]
    master_seed: int
    depth: int
    learner: str
    feature_dims: tuple[int, ...]
    config: ForestConfig

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


def _tree_kernels(views, boot_features, cfg, rng):
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
    take = int(np.ceil(cfg.bootstrap_fraction * n))
    boot = rng.choice(n, size=take, replace=False)
    boot_features = [v.features[:, boot] for v in views]
    labels = views[0].labels[boot]
    if np.unique(labels).size < 2:
        raise InvalidInputError("bootstrap sample contains fewer than 2 classes")

    kernels = _tree_kernels(views, boot_features, cfg, rng)
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
        learner=cfg.learner,
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
# initializer and then only tree indices (or index ranges) per task.
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


def _one_blas_thread():
    """Cap numpy's bundled OpenBLAS at one thread in this process.

    Pool workers already run one per core; OpenBLAS's own threads on top of
    them oversubscribe the cores.  Does nothing without a bundled OpenBLAS.
    """
    threads = _openblas_threads()
    if threads is not None:
        threads[1](1)


@contextlib.contextmanager
def _single_blas_thread():
    """Run the block with one OpenBLAS thread, then restore the caller's count.

    An encode's products are small (a few anchors or node features by one
    batch), yet OpenBLAS splits each over all its threads and waits for the
    slowest, so another process on any core stalls every product.  On a
    2-core machine beside one busy loop, a 16-d, 24-tree forest encoded
    about 3x slower with two threads and no slower with one.  Two threads
    do encode 784-d batches about a quarter faster on a quiet machine.  The
    count is process-wide: other threads' BLAS calls meanwhile run on one.
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


def _pool_init(views, depth, cfg, master_seed, dominant):
    global _POOL_ARGS
    _one_blas_thread()
    _POOL_ARGS = (views, depth, cfg, master_seed, dominant)


def _pool_train(index):
    views, depth, cfg, master_seed, dominant = _POOL_ARGS
    return index, train_tree(
        views, depth, cfg, tree_seed_for(master_seed, index), dominant
    )


_ENCODE_ARGS = None


def _encode_init(trees, x, modality):
    global _ENCODE_ARGS
    _ENCODE_ARGS = (trees, x, modality)


def _encode_slice(bounds):
    trees, x, modality = _ENCODE_ARGS
    start, stop = bounds
    return _leaf_rows(trees[start:stop], x, modality)


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
    the tree index.
    """
    views = [views] if isinstance(views, LabeledDataset) else list(views)
    cfg = cfg or ForestConfig()
    _check_depth(depth)
    _check_views(views)
    if n_trees < 1:
        raise InvalidInputError("a forest needs at least one tree")
    if not 0 <= dominant < len(views):
        raise InvalidInputError(f"dominant modality {dominant} out of range")

    trees: list[HashTree | None] = [None] * n_trees
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_pool_init,
            initargs=(views, depth, cfg, master_seed, dominant),
        ) as pool:
            futures = {pool.submit(_pool_train, i): i for i in range(n_trees)}
            for future, index in futures.items():
                try:
                    _, trees[index] = future.result()
                except Exception as exc:
                    exc.add_note(f"tree {index}")
                    raise
    else:
        for index in range(n_trees):
            try:
                trees[index] = train_tree(
                    views, depth, cfg, tree_seed_for(master_seed, index), dominant
                )
            except Exception as exc:
                exc.add_note(f"tree {index}")
                raise

    return Forest(
        trees=trees,
        master_seed=int(master_seed),
        depth=depth,
        learner=cfg.learner,
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


def _leaf_rows(trees, x, modality: int) -> list[np.ndarray]:
    """Leaf index (breadth-first, 0-based) of every column of ``x`` per tree.

    The batch is validated, and for RBF maps its squared column norms taken,
    once per call.  Each tree then maps the batch through its own kernel (if
    any) and routes it before the next tree starts, so only one tree's
    feature map is held at a time.  All of it runs on one OpenBLAS thread.
    """
    for tree in trees:
        if not 0 <= modality < tree.n_modalities:
            raise InvalidInputError(f"modality {modality} out of range")
        if x.shape[0] != tree.feature_dims[modality]:
            raise InvalidInputError(
                f"feature dimension {x.shape[0]} does not match tree "
                f"({tree.feature_dims[modality]})"
            )
    kinds = {t.kernels[modality].kind for t in trees if t.kernels[modality] is not None}
    if kinds:
        x = _as_matrix(x, "x")
    x_sq = _column_sq_norms(x) if "rbf" in kinds else None

    rows = []
    with _single_blas_thread():
        for tree in trees:
            kc = tree.kernels[modality]
            f = _kernel_map(x, x_sq, kc) if kc is not None else x
            pos = np.zeros(f.shape[1], dtype=np.int64)
            for _ in range(tree.depth - 1):
                next_pos = np.empty_like(pos)
                for p in np.unique(pos):
                    mask = pos == p
                    node = tree.nodes[p][modality]
                    # a node that takes the whole batch routes it uncopied
                    whole = mask.all() and f.flags.c_contiguous
                    go_left = node_route_many(node, f if whole else f[:, mask])
                    next_pos[mask] = np.where(go_left, 2 * p + 1, 2 * p + 2)
                pos = next_pos
            rows.append(pos - tree.internal_count)
    return rows


def _as_batch(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x[:, None] if x.ndim == 1 else x


def encode_tree(tree: HashTree, x, modality: int = 0) -> np.ndarray:
    """One-hot leaf code (length 2^(depth-1), uint8) for a single point."""
    (leaf,) = _leaf_rows([tree], _as_batch(x), modality)
    if leaf.size != 1:
        raise InvalidInputError("encode_tree takes a single point; use encode_dataset")
    out = np.zeros(tree.leaf_count, dtype=np.uint8)
    out[leaf[0]] = 1
    return out


def encode_dataset(forest: Forest, x, modality: int = 0, workers: int = 1) -> list[np.ndarray]:
    """Code blocks for every sample: one (leaf_count, N) uint8 block per tree.

    Every column of every block is exactly 1-sparse.  ``workers`` spreads
    contiguous slices of the trees over processes; results are identical for
    any worker count.
    """
    x = _as_batch(x)
    n = x.shape[1]
    trees = forest.trees
    if workers > 1 and len(trees) > 1:
        step = -(-len(trees) // workers)
        slices = [(start, start + step) for start in range(0, len(trees), step)]
        with ProcessPoolExecutor(
            max_workers=len(slices),
            initializer=_encode_init,
            initargs=(trees, x, modality),
        ) as pool:
            leaf_rows = [row for rows in pool.map(_encode_slice, slices) for row in rows]
    else:
        leaf_rows = _leaf_rows(trees, x, modality)
    blocks = []
    for tree, leaves in zip(trees, leaf_rows):
        block = np.zeros((tree.leaf_count, n), dtype=np.uint8)
        block[leaves, np.arange(n)] = 1
        blocks.append(block)
    return blocks
