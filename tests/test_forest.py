import concurrent.futures
import ctypes
import dataclasses
import glob
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leafhash import (
    Forest,
    ForestConfig,
    InvalidInputError,
    KernelConfig,
    LabeledDataset,
    NetConfig,
    NumericError,
    OptimizerConfig,
    SplitConfig,
    SplitNode,
    SyntheticSpec,
    encode_dataset,
    gen_synthetic,
    kernel_featurize,
    load_model,
    partition_classes,
    save_model,
    train_forest,
    train_multimodal_forest,
    train_tree,
)
from leafhash import _blas as blas_module
from leafhash import encode as encode_module
from leafhash import forest as forest_module
from leafhash.dictionaries import _residuals, _route_many, node_route_many
from leafhash.network import DenseLayer, DenseNet
from leafhash.forest import HashTree, tree_seed_for

FAST_CFG = ForestConfig(split=SplitConfig(learner="linear", atoms=4, sparsity=2))


def small_dataset(seed=1, classes=4):
    return gen_synthetic(SyntheticSpec(kind="subspaces", class_count=classes,
                                       ambient_dim=12, intrinsic_dim=2, noise=0.02,
                                       samples_per_class=40, seed=seed))


def tree_arrays(tree):
    """Every array and constant a tree holds, in a fixed order."""
    nodes = [n for per_mod in tree.nodes for n in per_mod]
    out = [np.array([n.degenerate for n in nodes])]
    out += [np.array([kc.sigma, kc.p, kc.q]) for kc in tree.kernels if kc is not None]
    out += [kc.anchors for kc in tree.kernels if kc is not None]
    for node in nodes:
        if node.degenerate:
            continue
        out += [node.proj_pos, node.proj_neg]
        if node.transform is not None:
            out += [node.transform.w, node.transform.loss_trace]
        if node.net is not None:
            out += [a for layer in node.net.layers for a in (layer.weight, layer.bias)]
            out.append(node.net.loss_trace)
    return out


def forests_equal(f1, f2):
    a, b = ([x for t in f.trees for x in tree_arrays(t)] for f in (f1, f2))
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


class TestPartitionClasses:
    def test_reproducible(self):
        a = partition_classes({0, 1, 2, 3}, np.random.default_rng(7))
        b = partition_classes({0, 1, 2, 3}, np.random.default_rng(7))
        assert a == b
        assert len(a[0]) == len(a[1]) == 2

    def test_two_classes(self):
        groups = partition_classes({0, 1}, np.random.default_rng(0))
        assert sorted(len(g) for g in groups) == [1, 1]
        assert groups[0] | groups[1] == {0, 1}

    def test_single_class_degenerate(self):
        assert partition_classes({5}, np.random.default_rng(0)) is None

    @given(st.sets(st.integers(0, 50), min_size=2, max_size=12), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_balanced_disjoint_cover(self, classes, seed):
        group_a, group_b = partition_classes(classes, np.random.default_rng(seed))
        assert group_a | group_b == classes
        assert not group_a & group_b
        assert abs(len(group_a) - len(group_b)) <= 1


class TestTrainTree:
    def test_depth2_structure(self):
        tree = train_tree(small_dataset(), 2, FAST_CFG, tree_seed_for(0, 0))
        assert len(tree.nodes) == 1
        assert tree.leaf_count == 2

    def test_depth3_structure(self):
        tree = train_tree(small_dataset(), 3, FAST_CFG, tree_seed_for(0, 0))
        assert len(tree.nodes) == 3
        assert tree.leaf_count == 4

    def test_classes_concentrate_in_leaves(self):
        ds = gen_synthetic(SyntheticSpec(kind="subspaces", class_count=2,
                                         ambient_dim=10, intrinsic_dim=2,
                                         noise=0.01, samples_per_class=100, seed=4))
        tree = train_tree(ds, 2, FAST_CFG, tree_seed_for(3, 0))
        forest = Forest(trees=[tree], master_seed=3, depth=2,
                        feature_dims=(10,), config=FAST_CFG)
        block = encode_dataset(forest, ds.features)[0]
        for c in (0, 1):
            occupancy = block[:, ds.labels == c].mean(axis=1)
            assert occupancy.max() >= 0.95

    def test_node_partition_covers_arriving_classes(self):
        tree = train_tree(small_dataset(), 2, FAST_CFG, tree_seed_for(1, 0))
        root = tree.nodes[0][0]
        assert set(root.class_partition.values()) == {"neg", "pos"}
        assert len(root.class_partition) >= 2

    def test_depth_bounds(self):
        ds = small_dataset()
        with pytest.raises(InvalidInputError):
            train_tree(ds, 1, FAST_CFG, 0)
        with pytest.raises(InvalidInputError):
            train_tree(ds, 8, FAST_CFG, 0)

    def test_depth_seven_warns_but_trains(self):
        ds = small_dataset()
        with pytest.warns(RuntimeWarning, match="depth 7"):
            tree = train_tree(ds, 7, FAST_CFG, tree_seed_for(0, 0))
        assert tree.leaf_count == 64

    def test_784_dimensional_kernel_tree_trains_in_little_memory(self):
        # 300 points of 784-d in 10 classes, 16 RBF anchors and a capped
        # optimizer: one tree as the serve-784 benchmark trains it.  Its
        # bandwidth sample once made 6 MB temporaries, about 19 MB at the peak
        geometry = np.random.default_rng(7)
        bases = [np.linalg.qr(geometry.normal(size=(784, 12)))[0] for _ in range(10)]
        x = np.concatenate([b @ geometry.normal(size=(12, 30))
                            + 0.1 * geometry.normal(size=(784, 30)) for b in bases], axis=1)
        ds = LabeledDataset(x, np.repeat(np.arange(10), 30))
        cfg = ForestConfig(split=SplitConfig(learner="kernel", ksvd_iters=2,
                                             optimizer=OptimizerConfig(max_iters=20,
                                                                       geometry_iters=20)),
                           kernel_kind="rbf", anchor_count=16)
        train_tree(ds, 2, cfg, tree_seed_for(0, 0))  # first calls allocate caches
        tracemalloc.start()
        try:
            train_tree(ds, 2, cfg, tree_seed_for(0, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestTrainForest:
    def test_forest_size(self):
        forest = train_forest(small_dataset(), 5, 2, FAST_CFG, master_seed=0)
        assert forest.n_trees == 5

    def test_single_tree_forest(self):
        ds = small_dataset()
        forest = train_forest(ds, 1, 2, FAST_CFG, master_seed=1)
        blocks = encode_dataset(forest, ds.features)
        assert len(blocks) == 1

    def test_deterministic_given_master_seed(self):
        ds = small_dataset()
        f1 = train_forest(ds, 4, 3, FAST_CFG, master_seed=11)
        f2 = train_forest(ds, 4, 3, FAST_CFG, master_seed=11)
        assert forests_equal(f1, f2)

    def test_worker_count_invariance(self):
        ds = small_dataset()
        f1 = train_forest(ds, 4, 2, FAST_CFG, master_seed=5, workers=1)
        f2 = train_forest(ds, 4, 2, FAST_CFG, master_seed=5, workers=2)
        assert forests_equal(f1, f2)

    def test_worker_count_invariance_at_784_dimensions(self):
        # serve-784's shape, where a product split over OpenBLAS threads
        # rounds differently from one on a single thread
        rng = np.random.default_rng(23)
        bases = [np.linalg.qr(rng.normal(size=(784, 12)))[0] for _ in range(10)]
        ds = LabeledDataset(
            np.concatenate([b @ rng.normal(size=(12, 30)) + 0.1 * rng.normal(size=(784, 30))
                            for b in bases], axis=1),
            np.repeat(np.arange(10), 30))
        cfg = ForestConfig(split=SplitConfig(
            learner="kernel", ksvd_iters=2,
            optimizer=OptimizerConfig(max_iters=20, geometry_iters=20)), anchor_count=16)
        serial = train_forest(ds, 8, 2, cfg, master_seed=0, workers=1)
        pooled = train_forest(ds, 8, 2, cfg, master_seed=0, workers=2)
        assert forests_equal(serial, pooled)

    def test_pool_starts_no_more_workers_than_trees(self, monkeypatch):
        asked = []

        class NoPool:
            def __init__(self, max_workers, **kwargs):
                asked.append(max_workers)
                raise RuntimeError("no process is started")

        # train_multimodal_forest imports the pool when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        with pytest.raises(RuntimeError, match="no process"):
            train_forest(small_dataset(), 2, 2, FAST_CFG, master_seed=5, workers=64)
        assert asked == [2]

    def test_needs_two_classes(self):
        ds = LabeledDataset(features=np.random.default_rng(0).normal(size=(4, 20)),
                            labels=np.zeros(20, dtype=int))
        with pytest.raises(InvalidInputError):
            train_forest(ds, 2, 2, FAST_CFG, master_seed=0)


def forced_node(direction):
    """A split node that routes every point the given way."""
    if direction == "left":
        return SplitNode(proj_pos=np.eye(2), proj_neg=np.zeros((2, 2)),
                         class_partition={0: "neg", 1: "pos"})
    return SplitNode(proj_pos=np.zeros((2, 2)), proj_neg=np.eye(2),
                     class_partition={0: "neg", 1: "pos"})


def one_tree_forest(tree):
    return Forest(trees=[tree], master_seed=0, depth=tree.depth,
                  feature_dims=tree.feature_dims, config=ForestConfig())


class TestEncodeTree:
    """One point through one tree: its one-column block."""

    def test_depth2_left(self):
        tree = HashTree(depth=2, nodes=[[forced_node("left")]],
                        tree_seed=0, kernels=(None,), feature_dims=(2,))
        (block,) = encode_dataset(one_tree_forest(tree), np.array([[1.0], [0.0]]))
        np.testing.assert_array_equal(block[:, 0], [1, 0])

    def test_depth3_right_then_left(self):
        nodes = [[forced_node("right")], [forced_node("left")], [forced_node("left")]]
        tree = HashTree(depth=3, nodes=nodes, tree_seed=0,
                        kernels=(None,), feature_dims=(2,))
        (block,) = encode_dataset(one_tree_forest(tree), np.array([[1.0], [0.0]]))
        np.testing.assert_array_equal(block[:, 0], [0, 0, 1, 0])

    def test_dimension_mismatch(self):
        tree = HashTree(depth=2, nodes=[[forced_node("left")]],
                        tree_seed=0, kernels=(None,), feature_dims=(2,))
        with pytest.raises(InvalidInputError):
            encode_dataset(one_tree_forest(tree), np.array([[1.0], [0.0], [0.0]]))

    @pytest.mark.parametrize("x, message", [
        (np.float64(1.0), r"^x must be 2-D, got shape \(\)$"),
        (np.ones((2, 1, 1)), r"^x must be 2-D, got shape \(2, 1, 1\)$"),
        ([["a"], ["b"]], r"^x is not numeric: "),
        (np.ones((2, 1), dtype=np.complex128), r"^x has complex entries$")])
    def test_batch_that_is_not_a_real_matrix_rejected(self, x, message):
        # a 0-d batch once raised IndexError, text ValueError, and complex
        # entries lost their imaginary parts
        tree = HashTree(depth=2, nodes=[[forced_node("left")]],
                        tree_seed=0, kernels=(None,), feature_dims=(2,))
        with pytest.raises(InvalidInputError, match=message):
            encode_dataset(one_tree_forest(tree), x)

    @pytest.mark.parametrize("modality, message", [
        (0.0, r"^modality must be an integer, got 0\.0$"),
        ("0", r"^modality must be an integer, got '0'$"),
        (None, r"^modality must be an integer, got None$"),
        (1, r"^modality 1 out of range$"), (-1, r"^modality -1 out of range$")])
    def test_modality_that_is_not_an_integer_in_range_rejected(self, modality, message):
        # 0.0 and "0" once raised TypeError
        tree = HashTree(depth=2, nodes=[[forced_node("left")]],
                        tree_seed=0, kernels=(None,), feature_dims=(2,))
        with pytest.raises(InvalidInputError, match=message):
            encode_dataset(one_tree_forest(tree), np.ones((2, 3)), modality=modality)
        (block,) = encode_dataset(one_tree_forest(tree), [1.0, 0.0], modality=np.int64(0))
        np.testing.assert_array_equal(block, [[1], [0]])

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_always_one_hot(self, seed):
        ds = small_dataset(seed=2)
        forest = train_forest(ds, 2, 3, FAST_CFG, master_seed=9)
        x = np.random.default_rng(seed).normal(size=12)
        code = encode_dataset(forest, x[:, None])[seed % 2][:, 0]
        assert code.sum() == 1
        assert code.shape == (4,)


class TestEncodeDataset:
    def test_shapes_and_sparsity(self):
        ds = small_dataset()
        forest = train_forest(ds, 2, 2, FAST_CFG, master_seed=3)
        blocks = encode_dataset(forest, ds.features[:, :3])
        assert len(blocks) == 2
        for block in blocks:
            assert block.shape == (2, 3)
            assert np.all(block.sum(axis=0) == 1)

    def test_duplicate_columns_identical_codes(self):
        ds = small_dataset()
        forest = train_forest(ds, 3, 2, FAST_CFG, master_seed=3)
        x = ds.features[:, [5, 5, 5]]
        for block in encode_dataset(forest, x):
            assert np.all(block[:, 0] == block[:, 1])
            assert np.all(block[:, 0] == block[:, 2])

    def test_depth3_retrieval_semantics(self):
        from leafhash import (BlockSet, HammingIndex, greedy_semisupervised,
                              mean_average_precision, pack_codes)
        full = gen_synthetic(SyntheticSpec(kind="subspaces", class_count=8,
                                           ambient_dim=16, intrinsic_dim=2,
                                           noise=0.02, samples_per_class=100,
                                           seed=5))
        mask = (np.arange(full.n_samples) % 100) < 50
        train = LabeledDataset(features=full.features[:, mask],
                               labels=full.labels[mask])
        holdout = LabeledDataset(features=full.features[:, ~mask],
                                 labels=full.labels[~mask])
        forest = train_forest(train, 16, 3, FAST_CFG, master_seed=2)
        blocks = encode_dataset(forest, train.features)
        selection = greedy_semisupervised(BlockSet.from_blocks(blocks),
                                          train.labels, 6)
        gallery = pack_codes(blocks, selection.chosen)
        queries = pack_codes(encode_dataset(forest, holdout.features),
                             selection.chosen)
        idx = HammingIndex(codes=gallery, labels=train.labels)
        assert mean_average_precision(idx, queries, holdout.labels) >= 0.9


class TestOtherLearners:
    def test_neural_forest_end_to_end(self):
        from leafhash import NetConfig, SplitConfig as SC
        ds = gen_synthetic(SyntheticSpec(kind="subspaces", class_count=3,
                                         ambient_dim=8, intrinsic_dim=2,
                                         noise=0.02, samples_per_class=40,
                                         seed=9))
        cfg = ForestConfig(split=SC(learner="neural", net_hidden=(16,),
                                    net_output_dim=8, atoms=3, sparsity=2,
                                    net=NetConfig(epochs=60)))
        forest = train_forest(ds, 4, 2, cfg, master_seed=4)
        blocks = encode_dataset(forest, ds.features)
        assert all(np.all(b.sum(axis=0) == 1) for b in blocks)
        # same-class samples should mostly share leaves in most trees
        agreement = np.mean([
            (b[:, ds.labels == 0].mean(axis=1).max() > 0.8) for b in blocks
        ])
        assert agreement >= 0.5

    def test_neural_group_mapped_to_zero_becomes_degenerate(self):
        # three classes on random lines in the plane; a 6-unit ReLU net
        # trained for 5 epochs maps one group at some node to all zeros
        rng = np.random.default_rng(8)
        lines = []
        for _ in range(3):
            v = rng.normal(size=(2, 1))
            lines.append(v / np.linalg.norm(v) * rng.normal(size=(1, 12)))
        ds = LabeledDataset(np.concatenate(lines, axis=1), np.repeat(np.arange(3), 12))
        cfg = ForestConfig(split=SplitConfig(learner="neural", atoms=3, sparsity=1,
                                             net_hidden=(6,), net_output_dim=4,
                                             net=NetConfig(epochs=5)))
        forest = train_forest(ds, 3, 4, cfg, 8, 1)
        # a degenerate node with both groups in its partition was trained
        assert any(node.degenerate and set(node.class_partition.values()) == {"neg", "pos"}
                   for tree in forest.trees for per_mod in tree.nodes for node in per_mod)
        blocks = encode_dataset(forest, ds.features)
        assert all(np.all(b.sum(axis=0) == 1) for b in blocks)

    def test_polynomial_kernel_forest(self):
        ds = small_dataset(seed=3)
        cfg = ForestConfig(split=SplitConfig(learner="kernel", atoms=4,
                                             sparsity=2),
                           kernel_kind="polynomial", anchor_count=24,
                           poly_p=1.0, poly_q=2.0)
        forest = train_forest(ds, 3, 2, cfg, master_seed=8)
        blocks = encode_dataset(forest, ds.features)
        assert all(np.all(b.sum(axis=0) == 1) for b in blocks)
        f2 = train_forest(ds, 3, 2, cfg, master_seed=8)
        assert forests_equal(forest, f2)


class TestMultimodal:
    def _views(self):
        view_a = gen_synthetic(SyntheticSpec(kind="subspaces", class_count=4,
                                             ambient_dim=10, intrinsic_dim=2,
                                             noise=0.01, samples_per_class=60, seed=21))
        view_b = gen_synthetic(SyntheticSpec(kind="subspaces", class_count=4,
                                             ambient_dim=14, intrinsic_dim=2,
                                             noise=0.01, samples_per_class=60, seed=77))
        return view_a, view_b

    def test_single_modality_reduces_to_train_forest(self):
        ds = small_dataset()
        f_multi = train_multimodal_forest([ds], 0, 3, 2, FAST_CFG, master_seed=5)
        f_plain = train_forest(ds, 3, 2, FAST_CFG, master_seed=5)
        assert forests_equal(f_multi, f_plain)

    def test_mismatched_sample_counts_rejected(self):
        view_a, view_b = self._views()
        short = LabeledDataset(features=view_b.features[:, :-1],
                               labels=view_b.labels[:-1])
        with pytest.raises(InvalidInputError):
            train_multimodal_forest([view_a, short], 0, 2, 2, FAST_CFG)

    def test_shared_partition_across_modalities(self):
        view_a, view_b = self._views()
        forest = train_multimodal_forest([view_a, view_b], 0, 2, 2, FAST_CFG,
                                         master_seed=9)
        for tree in forest.trees:
            for per_mod in tree.nodes:
                assert per_mod[0].class_partition == per_mod[1].class_partition

    def test_each_modality_routes_with_its_own_nodes(self):
        view_a, view_b = self._views()
        forest = train_multimodal_forest([view_a, view_b], 0, 4, 2, FAST_CFG,
                                         master_seed=9)
        blocks_a = encode_dataset(forest, view_a.features, modality=0)
        blocks_b = encode_dataset(forest, view_b.features, modality=1)
        assert blocks_a[0].shape == blocks_b[0].shape
        with pytest.raises(InvalidInputError):
            encode_dataset(forest, view_a.features, modality=1)


class TwoArgError(Exception):
    """An exception whose constructor does not take a single message."""

    def __init__(self, code, detail):
        super().__init__(code, detail)


class TestTreeFailure:
    def test_original_exception_gets_tree_note(self, monkeypatch):
        failing = tree_seed_for(5, 2)
        real_train_tree = forest_module.train_tree

        def train_tree_or_fail(views, depth, cfg, tree_seed, dominant):
            if tree_seed == failing:
                raise TwoArgError(17, "bad node")
            return real_train_tree(views, depth, cfg, tree_seed, dominant)

        monkeypatch.setattr(forest_module, "train_tree", train_tree_or_fail)
        with pytest.raises(TwoArgError) as info:
            train_forest(small_dataset(), 4, 2, FAST_CFG, master_seed=5)
        assert info.value.args == (17, "bad node")
        assert info.value.__notes__ == ["tree 2"]


# Small budgets: these forests exist to exercise encoding, not to hash well.
TINY_SPLIT = dict(atoms=3, sparsity=1, ksvd_iters=1,
                  optimizer=OptimizerConfig(max_iters=4, geometry_iters=2))
ENCODE_CONFIGS = {
    "rbf": ForestConfig(split=SplitConfig(learner="kernel", **TINY_SPLIT),
                        anchor_count=10),
    "polynomial": ForestConfig(split=SplitConfig(learner="kernel", **TINY_SPLIT),
                               kernel_kind="polynomial", anchor_count=10,
                               poly_p=1.0, poly_q=2.0),
    "linear": ForestConfig(split=SplitConfig(learner="linear", **TINY_SPLIT)),
    "neural": ForestConfig(split=SplitConfig(learner="neural", net_hidden=(16,),
                                             net_output_dim=8, net=NetConfig(epochs=5),
                                             **TINY_SPLIT)),
}


def encode_views(seed, dims):
    return [gen_synthetic(SyntheticSpec(kind="subspaces", class_count=3, ambient_dim=d,
                                        intrinsic_dim=1, noise=0.05,
                                        samples_per_class=12, seed=seed + i))
            for i, d in enumerate(dims)]


def per_tree_leaves(tree, x, modality):
    """Leaf of every column, one tree at a time: map the batch, then route it."""
    kc = tree.kernels[modality]
    f = kernel_featurize(x, kc) if kc is not None else x
    pos = np.zeros(f.shape[1], dtype=np.int64)
    for _ in range(tree.depth - 1):
        next_pos = np.empty_like(pos)
        for p in np.unique(pos):
            mask = pos == p
            go_left = node_route_many(tree.nodes[p][modality], f[:, mask])
            next_pos[mask] = np.where(go_left, 2 * p + 1, 2 * p + 2)
        pos = next_pos
    return pos - tree.internal_count


def assert_split_batch_encodes_alike(forest, x, modality, blocks, data):
    """Encoding ``x`` gives ``blocks`` when it is passed as two batches cut at
    a drawn column, exactly, on every column that each tree routes with a
    relative split margin above 1e-9 (:func:`per_tree_leaves_and_margins`).
    The matrix products round differently at different batch widths, so a
    column within that of a tie may take the other side in either batch."""
    if x.shape[1] < 2:
        return
    j = data.draw(st.integers(1, x.shape[1] - 1), label="split column")
    parts = (encode_dataset(forest, x[:, :j], modality=modality),
             encode_dataset(forest, x[:, j:], modality=modality))
    clear = np.all([per_tree_leaves_and_margins(tree, x, modality)[1] > 1e-9
                    for tree in forest.trees], axis=0)
    for block, head, tail in zip(blocks, *parts):
        np.testing.assert_array_equal(block[:, clear],
                                      np.concatenate([head, tail], axis=1)[:, clear])


class TestEncodeUnchanged:
    @given(kind=st.sampled_from(sorted(ENCODE_CONFIGS)), two_views=st.booleans(),
           depth=st.integers(2, 4), seed=st.integers(0, 10_000),
           dim=st.integers(2, 9), n=st.integers(1, 40), scale=st.sampled_from([0.1, 1.0, 5.0]),
           fortran=st.booleans(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_batched_encode_is_per_tree_composition(self, kind, two_views, depth, seed,
                                                    dim, n, scale, fortran, data):
        dims = (dim + 3, dim) if two_views else (dim,)
        modality = len(dims) - 1
        views = encode_views(seed, dims)
        forest = train_multimodal_forest(views, 0, 3, depth, ENCODE_CONFIGS[kind],
                                         master_seed=seed)
        rng = np.random.default_rng(seed)
        x = np.concatenate([views[modality].features[:, : n // 2],
                            scale * rng.normal(size=(dim, n - n // 2))], axis=1)
        if fortran:
            x = np.asfortranarray(x)

        blocks = encode_dataset(forest, x, modality=modality)
        for tree, block in zip(forest.trees, blocks):
            expected = np.zeros((tree.leaf_count, n), dtype=np.uint8)
            expected[per_tree_leaves(tree, x, modality), np.arange(n)] = 1
            np.testing.assert_array_equal(block, expected)
        assert_split_batch_encodes_alike(forest, x, modality, blocks, data)

        for tree in forest.trees:
            kc = tree.kernels[modality]
            if kc is None:
                continue
            a = kc.anchors
            if kc.kind == "rbf":
                a_sq, x_sq = np.sum(a**2, axis=0), np.sum(x**2, axis=0)
                inline = np.exp(-np.maximum(a_sq[:, None] + x_sq[None, :] - 2.0 * a.T @ x, 0)
                                / (2.0 * kc.sigma**2))
            else:
                inline = (a.T @ x + kc.p) ** kc.q
            np.testing.assert_array_equal(kernel_featurize(x, kc), inline)

    @pytest.mark.parametrize("kind", sorted(ENCODE_CONFIGS))
    @given(n=st.integers(1, 30), row=st.integers(0, 5), col=st.integers(0, 29),
           value=st.sampled_from([np.nan, np.inf, -np.inf]))
    @settings(max_examples=10, deadline=None)
    def test_non_finite_input_rejected(self, kind, n, row, col, value):
        forest = _nonfinite_forest(kind)
        x = np.random.default_rng(n).normal(size=(6, n))
        x[row, col % n] = value
        with pytest.raises(InvalidInputError):
            encode_dataset(forest, x)
        with pytest.raises(InvalidInputError):
            encode_dataset(forest, x[:, [col % n]])

    @pytest.mark.parametrize("kind, stacked", [("linear", False), ("neural", False),
                                               ("rbf", False), ("rbf", True),
                                               ("polynomial", True)])
    def test_empty_batch_gives_empty_blocks(self, kind, stacked):
        if stacked:
            (view,) = encode_views(5, (12,))
            forest = train_forest(view, 3, 2, grouped_config(kind, 4), master_seed=5)
        else:
            forest = _nonfinite_forest(kind)
        groups = forest._groups[0]
        assert any(g.take is not None for g in groups) == stacked
        blocks = encode_dataset(forest, np.zeros((forest.feature_dims[0], 0)))
        assert [b.shape for b in blocks] == [(forest.leaf_count, 0)] * forest.n_trees
        assert all(b.dtype == np.uint8 for b in blocks)


def hand_node(rng, dim, learner, left_only=False, width=None):
    """A split node with random projectors, on a random relu net for the
    neural learner.  A ``left_only`` node has a zero ``proj_neg``, so it
    sends every point whose projection is not zero left; projectors of
    another ``width`` do not fit the features, so routing through them fails."""
    net = None
    if learner == "neural":
        net = DenseNet([DenseLayer(rng.normal(size=(5, dim)), rng.normal(size=5)),
                        DenseLayer(rng.normal(size=(3, 5)), np.zeros(3), "identity")])
        dim = 3
    width = width or dim
    proj_neg = np.zeros((2, width)) if left_only else rng.normal(size=(2, width))
    return SplitNode(proj_pos=rng.normal(size=(2, width)), proj_neg=proj_neg, net=net,
                     class_partition={0: "neg", 1: "pos"})


class TestDescend:
    """Each level routes only the nodes that some column reaches."""

    @pytest.mark.parametrize("learner", ["linear", "neural"])
    @pytest.mark.parametrize("fortran", [False, True])
    def test_hand_built_depth3_trees_encode_as_routed_one_tree_at_a_time(self, learner,
                                                                         fortran):
        rng = np.random.default_rng(11)
        dim = 4
        degenerate = SplitNode(class_partition={0: "neg"}, degenerate=True)
        # node 1 is degenerate, so its columns all take leaf 0
        with_degenerate = [hand_node(rng, dim, learner), degenerate, hand_node(rng, dim, learner)]
        # the root sends every column left, so node 2, which would fail, is never routed
        with_unreached = [hand_node(rng, dim, learner, left_only=True),
                          hand_node(rng, dim, learner), hand_node(rng, dim, learner, width=7)]
        trees = [HashTree(depth=3, nodes=[[node] for node in nodes], tree_seed=0,
                          kernels=(None,), feature_dims=(dim,))
                 for nodes in (with_degenerate, with_unreached)]
        forest = Forest(trees=trees, master_seed=0, depth=3, feature_dims=(dim,),
                        config=ForestConfig(split=SplitConfig(learner=learner)))
        x = rng.normal(size=(dim, 40))
        if fortran:
            x = np.asfortranarray(x)

        blocks = encode_dataset(forest, x)
        for tree, block in zip(trees, blocks):
            leaves = per_tree_leaves(tree, x, 0)
            np.testing.assert_array_equal(block.argmax(axis=0), leaves)
            assert block.sum() == x.shape[1]
        first, second = (block.argmax(axis=0) for block in blocks)
        # both children of the first root are reached
        assert 0 in first and 1 not in first and {2, 3} & set(first)
        assert set(second) == {0, 1}

    def test_non_finite_batch_rejected_when_every_root_is_degenerate(self):
        degenerate = SplitNode(class_partition={0: "neg"}, degenerate=True)
        trees = [HashTree(depth=2, nodes=[[degenerate]], tree_seed=t, kernels=(None,),
                          feature_dims=(3,)) for t in range(2)]
        forest = Forest(trees=trees, master_seed=0, depth=2, feature_dims=(3,),
                        config=ForestConfig())
        x = np.ones((3, 5))
        x[1, 2] = np.nan
        with pytest.raises(InvalidInputError, match="^x contains non-finite entries$"):
            encode_dataset(forest, x)
        with pytest.raises(InvalidInputError, match="^x contains non-finite entries$"):
            encode_dataset(forest, x[:, [2]])


def hand_forest(learner, depth, n_trees, seed, dim=9):
    """A forest of untrained ``learner`` trees of random nodes (:func:`hand_node`)
    on ``dim``-d points.  Kernel trees map them through 4 RBF anchors each, so
    pairs of them encode in stacked groups."""
    rng = np.random.default_rng(seed)
    trees = []
    for t in range(n_trees):
        kc = (KernelConfig(anchors=rng.normal(size=(dim, 4)), sigma=2.0)
              if learner == "kernel" else None)
        nodes = [[hand_node(rng, dim if kc is None else kc.n_anchors, learner)]
                 for _ in range(2 ** (depth - 1) - 1)]
        trees.append(HashTree(depth=depth, nodes=nodes, tree_seed=t, kernels=(kc,),
                              feature_dims=(dim,)))
    return Forest(trees=trees, master_seed=seed, depth=depth, feature_dims=(dim,),
                  config=ForestConfig(split=SplitConfig(learner=learner)))


class TestOneHotBlocks:
    @given(learner=st.sampled_from(["linear", "neural", "kernel"]), depth=st.integers(2, 7),
           n_trees=st.integers(1, 5), n=st.integers(0, 300), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_blocks_are_the_one_hot_of_the_leaf_ids(self, learner, depth, n_trees, n, seed):
        forest = hand_forest(learner, depth, n_trees, seed)
        x = np.random.default_rng(seed).normal(size=(forest.feature_dims[0], n))
        blocks = encode_dataset(forest, x)
        leaves = encode_module._leaf_rows(forest.trees, x, 0, forest._groups[0],
                                          forest.pools[0])
        assert len(blocks) == n_trees
        for block, ids in zip(blocks, leaves):
            assert block.dtype == np.uint8 and block.shape == (forest.leaf_count, n)
            assert block.flags.c_contiguous and block.flags.writeable
            expected = np.zeros((forest.leaf_count, n), dtype=np.uint8)
            expected[ids, np.arange(n)] = 1
            np.testing.assert_array_equal(block, expected)


def per_tree_leaves_and_margins(tree, x, modality):
    """Leaf of every column, one tree at a time as in :func:`per_tree_leaves`,
    and the smallest relative margin |e_neg - e_pos| / max(e_neg, e_pos) met on
    its path (inf when only degenerate nodes routed it)."""
    kc = tree.kernels[modality]
    f = kernel_featurize(x, kc) if kc is not None else x
    pos = np.zeros(f.shape[1], dtype=np.int64)
    margin = np.full(f.shape[1], np.inf)
    for _ in range(tree.depth - 1):
        next_pos = np.empty_like(pos)
        for p in np.unique(pos):
            mask = pos == p
            node = tree.nodes[p][modality]
            go_left = node_route_many(node, f[:, mask])
            if not node.degenerate:
                e_neg, e_pos = _residuals(node, f[:, mask])
                scale = np.maximum(np.maximum(e_neg, e_pos), 1e-300)
                margin[mask] = np.minimum(margin[mask], np.abs(e_neg - e_pos) / scale)
            next_pos[mask] = np.where(go_left, 2 * p + 1, 2 * p + 2)
        pos = next_pos
    return pos - tree.internal_count, margin


def grouped_config(kind, anchors):
    return ForestConfig(split=SplitConfig(learner="kernel", **TINY_SPLIT), kernel_kind=kind,
                        anchor_count=anchors, poly_p=1.0, poly_q=2.0)


def fake_kernel_tree(dim, anchors, kind="rbf", q=2.0, degenerate_root=False,
                     net_root=False, anchor_rng=None):
    """An untrained depth-2 kernel tree: only its shapes and constants count,
    unless ``anchor_rng`` draws its anchors.  A ``net_root`` reverses the
    order of the map's rows, and its projectors keep the first half of the
    rows (``proj_neg``) or the rest; no kernel forest takes such a tree."""
    anchor_rows = (np.ones((dim, anchors)) if anchor_rng is None
                   else anchor_rng.normal(size=(dim, anchors)))
    kc = KernelConfig(anchors=anchor_rows, kind=kind, p=1.0, q=q)
    if degenerate_root:
        root = SplitNode(degenerate=True)
    elif net_root:
        keep = np.arange(anchors) < anchors // 2
        reverse = DenseLayer(np.eye(anchors)[::-1], np.zeros(anchors), "identity")
        root = SplitNode(proj_neg=np.diag(keep * 1.0), proj_pos=np.diag(~keep * 1.0),
                         net=DenseNet([reverse]))
    else:
        root = SplitNode(proj_pos=np.eye(anchors), proj_neg=np.eye(anchors))
    return HashTree(depth=2, nodes=[[root]], tree_seed=0,
                    kernels=(kc,), feature_dims=(dim,))


def group_sizes(trees):
    indices = encode_module.anchor_pool(trees, 0).indices
    return [g.stop - g.start for g in encode_module._tree_groups(trees, 0, indices)]


class TestGroupedEncode:
    """Kernel trees with d >= 2 x anchors are encoded in stacked groups."""

    def test_groups_depend_only_on_the_trees(self):
        # serve-784's shape: GROUP_ANCHORS = 256 anchors per group of
        # 16-anchor trees, 16 trees a group
        assert group_sizes([fake_kernel_tree(784, 16) for _ in range(128)]) == [16] * 8
        assert group_sizes([fake_kernel_tree(784, 16) for _ in range(40)]) == [16, 16, 8]
        # 64 anchors over 16 dimensions: one tree per group
        assert group_sizes([fake_kernel_tree(16, 64) for _ in range(24)]) == [1] * 24
        mixed = [fake_kernel_tree(8, 2), fake_kernel_tree(8, 2, kind="polynomial"),
                 fake_kernel_tree(8, 2, kind="polynomial"),
                 fake_kernel_tree(8, 2, kind="polynomial", q=3.0),
                 fake_kernel_tree(8, 2, degenerate_root=True),
                 fake_kernel_tree(8, 2), fake_kernel_tree(8, 2)]
        assert group_sizes(mixed) == [1, 2, 1, 1, 2]

    def test_kernel_tree_with_a_net_root_rejected(self):
        rng = np.random.default_rng(4)
        trees = [fake_kernel_tree(8, 4, net_root=net, anchor_rng=rng)
                 for net in (False, True, True, False)]
        with pytest.raises(InvalidInputError,
                           match="^tree 1 does not fit the kernel learner: a node has a net$"):
            Forest(trees=trees, master_seed=0, depth=2, feature_dims=(8,),
                   config=grouped_config("rbf", 4))

    @given(kind=st.sampled_from(["rbf", "polynomial"]), two_views=st.booleans(),
           depth=st.integers(2, 4), anchors=st.integers(2, 4), extra=st.integers(0, 6),
           n_trees=st.integers(2, 5), seed=st.integers(0, 10_000), n=st.integers(1, 40),
           scale=st.sampled_from([0.1, 1.0, 5.0]), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_grouped_encode_matches_per_tree_encode(self, kind, two_views, depth, anchors,
                                                    extra, n_trees, seed, n, scale, data):
        dim = 2 * anchors + extra
        dims = (dim + 1, dim) if two_views else (dim,)
        modality = len(dims) - 1
        views = encode_views(seed, dims)
        forest = train_multimodal_forest(views, 0, n_trees, depth,
                                         grouped_config(kind, anchors), master_seed=seed)
        rng = np.random.default_rng(seed)
        x = np.concatenate([views[modality].features[:, : n // 2],
                            scale * rng.normal(size=(dim, n - n // 2))], axis=1)

        pool = encode_module.anchor_pool(forest.trees, modality)
        groups = encode_module._tree_groups(forest.trees, modality, pool.indices)
        stacked = [g for g in groups if g.take is not None]
        if not any(t.nodes[0][modality].degenerate for t in forest.trees):
            assert stacked
        x_sq = np.sum(x**2, axis=0)
        pool_maps = encode_module._pool_maps(pool, x, x_sq, kind == "rbf")
        for group in stacked:
            members = forest.trees[group.start:group.stop]
            f = group.kernel_map(*pool_maps)
            maps = f.reshape(len(members), -1, n)
            e_neg, e_pos = group.root_residuals(f)
            for tree, f_tree, neg, pos in zip(members, maps, e_neg, e_pos):
                alone = kernel_featurize(x, tree.kernels[modality])
                assert np.max(np.abs(f_tree - alone)) <= 1e-12 * np.max(np.abs(alone))
                ref_neg, ref_pos = _residuals(tree.nodes[0][modality], f_tree)
                np.testing.assert_array_equal(neg, ref_neg)
                np.testing.assert_array_equal(pos, ref_pos)

        blocks = encode_dataset(forest, x, modality=modality)
        for tree, block in zip(forest.trees, blocks):
            leaves, margin = per_tree_leaves_and_margins(tree, x, modality)
            clear = margin > 1e-9
            np.testing.assert_array_equal(block.argmax(axis=0)[clear], leaves[clear])
        assert_split_batch_encodes_alike(forest, x, modality, blocks, data)

    def test_groups_are_built_when_the_forest_is_made(self):
        (view,) = encode_views(5, (12,))
        forest = train_forest(view, 5, 3, grouped_config("rbf", 4), master_seed=5)
        other = train_forest(view, 5, 3, grouped_config("rbf", 4), master_seed=6)
        x = view.features
        assert isinstance(forest.trees, tuple)
        assert [g.stop - g.start for g in forest._groups[0]] == [3, 2]
        assert pools_equal(forest.pools[0], encode_module.anchor_pool(forest.trees, 0))
        first = encode_dataset(forest, x)

        # a forest is not changed in place: a new one is made of the trees
        with pytest.raises(TypeError):
            forest.trees[1] = other.trees[1]
        with pytest.raises(AttributeError):
            forest.trees = other.trees
        trees = list(forest.trees)
        trees[1] = other.trees[1]
        replaced = encode_dataset(Forest(trees=trees, master_seed=5, depth=3,
                                         feature_dims=(12,), config=forest.config), x)
        np.testing.assert_array_equal(replaced[1], encode_dataset(other, x)[1])
        for i in (0, 2, 3, 4):
            np.testing.assert_array_equal(replaced[i], first[i])

    def test_replace_builds_pools_for_its_trees(self, tmp_path):
        # 4 anchors over 16 dimensions: groups of 4 trees, which read the pool
        (view,) = encode_views(5, (16,))
        forest = train_forest(view, 8, 2, grouped_config("rbf", 4), master_seed=5)
        assert [g.stop - g.start for g in forest._groups[0]] == [4, 4]
        trees = forest.trees[::-1]
        replaced = dataclasses.replace(forest, trees=trees)
        made = Forest(trees=trees, master_seed=5, depth=2,
                      feature_dims=(16,), config=forest.config)
        assert pools_equal(replaced.pools[0], made.pools[0])
        for a, b in zip(encode_dataset(replaced, view.features),
                        encode_dataset(made, view.features)):
            np.testing.assert_array_equal(a, b)
        save_model(replaced, None, tmp_path / "replaced.fhsh")
        save_model(made, None, tmp_path / "made.fhsh")
        assert (tmp_path / "replaced.fhsh").read_bytes() == (tmp_path / "made.fhsh").read_bytes()

    def test_trees_of_another_depth_or_dimension_rejected(self):
        forest = train_forest(small_dataset(), 2, 2, FAST_CFG, master_seed=3)
        deeper = train_forest(small_dataset(), 1, 3, FAST_CFG, master_seed=3).trees[0]
        wider = dataclasses.replace(forest.trees[1], feature_dims=(13,))
        for tree in (deeper, wider):
            with pytest.raises(InvalidInputError, match="tree 1 differs"):
                Forest(trees=[forest.trees[0], tree], master_seed=3, depth=2,
                       feature_dims=(12,), config=FAST_CFG)

    def test_overflowing_group_map_rejected(self):
        (view,) = encode_views(5, (12,))
        forest = train_forest(view, 3, 2, grouped_config("polynomial", 4), master_seed=5)
        assert group_sizes(forest.trees) == [3]
        with pytest.raises(NumericError, match="tree 0: the polynomial kernel map overflows"):
            encode_dataset(forest, np.full((12, 2), 1e200))


def shared_anchor_forest(seed, kind, n_views, depth, n_trees):
    """Kernel trees whose anchors are columns of one small point set per view.

    Each tree draws 2 (trees 0-2) or 3 anchors with replacement from 4
    points, and tree 0 repeats its first anchor, so the pool dedups within
    and across trees.  Runs of trees with equal anchor counts stack, up to
    d = 8 anchors; a degenerate root on the last tree makes a one-tree group."""
    rng = np.random.default_rng(seed)
    dims = (8, 9)[:n_views]
    points = [rng.normal(size=(d, 4)) for d in dims]
    internal = 2 ** (depth - 1) - 1
    trees = []
    for t in range(n_trees):
        a = 2 if t < 3 else 3
        kernels, nodes = [], [[] for _ in range(internal)]
        for d, pts in zip(dims, points):
            cols = rng.integers(0, 4, size=a)
            if t == 0:
                cols[1] = cols[0]
            consts = ({"sigma": float(rng.uniform(0.5, 3.0))} if kind == "rbf"
                      else {"p": 1.0, "q": 2.0})
            kernels.append(KernelConfig(anchors=pts[:, cols].copy(), kind=kind, **consts))
            for pos in range(internal):
                if pos == 0 and t == n_trees - 1:
                    nodes[pos].append(SplitNode(degenerate=True))
                    continue
                nodes[pos].append(SplitNode(proj_pos=rng.normal(size=(2, a)),
                                            proj_neg=rng.normal(size=(2, a)),
                                            class_partition={0: "neg", 1: "pos"}))
        trees.append(HashTree(depth=depth, nodes=nodes, tree_seed=t,
                              kernels=tuple(kernels), feature_dims=dims))
    forest = Forest(trees=trees, master_seed=seed, depth=depth, feature_dims=dims,
                    config=ForestConfig(split=SplitConfig(learner="kernel"), kernel_kind=kind))
    return forest, points


def pools_equal(a, b):
    return (np.array_equal(a.rows, b.rows) and np.array_equal(a.sq_norms, b.sq_norms)
            and len(a.indices) == len(b.indices)
            and all((i is None and j is None) or np.array_equal(i, j)
                    for i, j in zip(a.indices, b.indices)))


class TestAnchorPool:
    """Each modality's kernel anchors are stored, and mapped, once per forest."""

    def test_pool_dedups_in_order_of_first_occurrence(self):
        forest, points = shared_anchor_forest(7, "rbf", 1, 2, 5)
        pool = encode_module.anchor_pool(forest.trees, 0)
        seen = []
        for tree, idx in zip(forest.trees, pool.indices):
            anchors = tree.kernels[0].anchors
            np.testing.assert_array_equal(pool.rows[idx], anchors.T)
            np.testing.assert_array_equal(pool.sq_norms[idx], tree.kernels[0].anchor_sq_norms)
            for i in idx:
                if i not in seen:
                    seen.append(i)
        assert seen == list(range(pool.rows.shape[0])) and pool.rows.shape[0] <= 4
        first = pool.indices[0]
        assert first[0] == first[1]

    def test_anchors_of_two_dimensions_rejected(self):
        forest, _ = shared_anchor_forest(3, "rbf", 1, 2, 5)
        forest.trees[1].kernels = (KernelConfig(anchors=np.ones((7, 2)), kind="rbf"),)
        with pytest.raises(InvalidInputError, match="differ in dimension"):
            Forest(trees=forest.trees, master_seed=3, depth=2,
                   feature_dims=(8,), config=forest.config)

    def test_no_pool_without_a_kernel(self):
        forest = train_forest(small_dataset(), 2, 2, FAST_CFG, master_seed=3)
        assert encode_module.anchor_pool(forest.trees, 0) is None
        assert forest.pools == (None,)

    @given(seed=st.integers(0, 10_000), kind=st.sampled_from(["rbf", "polynomial"]),
           n_views=st.integers(1, 2), depth=st.integers(2, 3), n_trees=st.integers(5, 7),
           n=st.integers(1, 30), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_pooled_forest_round_trips_and_encodes_alike(self, tmp_path_factory, seed,
                                                          kind, n_views, depth, n_trees, n,
                                                          data):
        forest, points = shared_anchor_forest(seed, kind, n_views, depth, n_trees)
        rng = np.random.default_rng(seed)
        path = tmp_path_factory.mktemp("pool") / "model.fhsh"
        save_model(forest, None, path)
        loaded, _ = load_model(path)
        for modality, pts in enumerate(points):
            x = np.concatenate([pts, rng.normal(size=(pts.shape[0], n))], axis=1)
            for tree, other in zip(forest.trees, loaded.trees):
                a, b = tree.kernels[modality], other.kernels[modality]
                np.testing.assert_array_equal(a.anchors, b.anchors)
                assert (a.kind, a.sigma, a.p, a.q) == (b.kind, b.sigma, b.p, b.q)
            held = loaded.pools[modality]
            built = encode_module.anchor_pool(loaded.trees, modality)
            assert pools_equal(held, built)
            assert pools_equal(held, encode_module.anchor_pool(forest.trees, modality))

            blocks = encode_dataset(forest, x, modality=modality)
            for block, block_loaded in zip(blocks, encode_dataset(loaded, x, modality=modality)):
                np.testing.assert_array_equal(block, block_loaded)
            assert_split_batch_encodes_alike(forest, x, modality, blocks, data)
            assert_split_batch_encodes_alike(loaded, x, modality, blocks, data)

            pool, groups = forest.pools[modality], forest._groups[modality]
            stacked = [g for g in groups if g.take is not None]
            assert stacked and len(stacked) < len(groups)
            pool_maps = encode_module._pool_maps(pool, x, np.sum(x**2, axis=0), kind == "rbf")
            for group in stacked:
                f = group.kernel_map(*pool_maps)
                members = forest.trees[group.start:group.stop]
                for tree, f_tree in zip(members, f.reshape(len(members), -1, x.shape[1])):
                    alone = kernel_featurize(x, tree.kernels[modality])
                    assert np.max(np.abs(f_tree - alone)) <= 1e-12 * np.max(np.abs(alone))


_NONFINITE_FORESTS = {}


def _nonfinite_forest(kind):
    if kind not in _NONFINITE_FORESTS:
        (view,) = encode_views(3, (6,))
        _NONFINITE_FORESTS[kind] = train_forest(view, 2, 3, ENCODE_CONFIGS[kind],
                                                master_seed=3)
    return _NONFINITE_FORESTS[kind]


_OVERFLOW_FORESTS = {}


def overflow_forest(kind):
    """A small forest of one learner: ``_nonfinite_forest``'s (trees encoded
    one at a time), or a ``stacked-`` kernel forest encoded in one group."""
    if kind not in _OVERFLOW_FORESTS:
        if kind.startswith("stacked-"):
            (view,) = encode_views(5, (12,))
            forest = train_forest(view, 3, 3, grouped_config(kind[8:], 4), master_seed=5)
            assert group_sizes(forest.trees) == [3]
        else:
            forest = _nonfinite_forest(kind)
        _OVERFLOW_FORESTS[kind] = forest
    return _OVERFLOW_FORESTS[kind]


OVERFLOW_KINDS = sorted(ENCODE_CONFIGS) + ["stacked-polynomial", "stacked-rbf"]


def assert_routed_on_finite_residuals(tree, x, leaves):
    """Every column of ``x`` reached its leaf in ``leaves`` through finite
    maps and residuals that send it that way, recomputed here with plain
    numpy (``dictionaries._residuals`` does not check that they are finite)."""
    kc = tree.kernels[0]
    with np.errstate(over="ignore", invalid="ignore"):
        if kc is None:
            f = x
        elif kc.kind == "rbf":
            x_sq = np.sum(x**2, axis=0)
            assert np.all(np.isfinite(x_sq))
            f = np.exp(-np.maximum(np.sum(kc.anchors**2, axis=0)[:, None] + x_sq[None, :]
                                   - 2.0 * kc.anchors.T @ x, 0) / (2.0 * kc.sigma**2))
        else:
            f = (kc.anchors.T @ x + kc.p) ** kc.q
        assert np.all(np.isfinite(f))
        for j, leaf in enumerate(leaves):
            pos = leaf + tree.internal_count
            while pos > 0:
                parent = (pos - 1) // 2
                node = tree.nodes[parent][0]
                if not node.degenerate:
                    e_neg, e_pos = _residuals(node, f[:, [j]])
                    assert np.isfinite(e_neg[0]) and np.isfinite(e_pos[0])
                    assert (e_neg[0] < e_pos[0]) == (pos == 2 * parent + 1)
                pos = parent


class TestOverflowingBatch:
    """A finite batch whose arithmetic overflows is a numeric failure, never
    routed on residuals that are not finite."""

    @pytest.mark.parametrize("kind", OVERFLOW_KINDS)
    @given(exponent=st.floats(0, 300), n=st.integers(1, 12), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_encoding_routes_on_finite_residuals_or_raises(self, kind, exponent, n, seed):
        forest = overflow_forest(kind)
        x = np.random.default_rng(seed).normal(size=(forest.feature_dims[0], n))
        x *= 10.0**exponent
        try:
            blocks = encode_dataset(forest, x)
        except NumericError:
            return
        for tree, block in zip(forest.trees, blocks):
            assert_routed_on_finite_residuals(tree, x, block.argmax(axis=0))

    @pytest.mark.parametrize("kind", OVERFLOW_KINDS)
    def test_features_scaled_by_1e200_raise(self, kind):
        forest = overflow_forest(kind)
        x = 1e200 * np.random.default_rng(4).normal(size=(forest.feature_dims[0], 20))
        with pytest.raises(NumericError):
            encode_dataset(forest, x)
        with pytest.raises(NumericError):
            encode_dataset(forest, x[:, [0]])

    def test_error_names_the_tree(self):
        forest = overflow_forest("linear")
        tree = forest.trees[1]
        root = tree.nodes[0][0]
        # only tree 1's root overflows: its projectors are scaled up
        huge = dataclasses.replace(root, proj_neg=root.proj_neg * 1e300,
                                   proj_pos=root.proj_pos * 1e300)
        trees = [forest.trees[0], dataclasses.replace(tree, nodes=[[huge], *tree.nodes[1:]])]
        bad = dataclasses.replace(forest, trees=trees)
        with pytest.raises(NumericError, match="^tree 1: a split residual is not finite"):
            encode_dataset(bad, 1e10 * np.ones((forest.feature_dims[0], 3)))

    def test_rbf_map_that_is_not_finite_is_a_numeric_failure(self):
        # 2 sigma^2 underflows to 0, so tree 1 maps a point equal to one of its
        # anchors to 0/0: the batch is finite, the arithmetic is not.  The
        # constructor rejects such a sigma, so tree 1's kernel is made unchecked
        rng = np.random.default_rng(0)
        anchors = rng.normal(size=(4, 3))
        kernels = (KernelConfig(anchors=anchors, kind="rbf", sigma=1.0),
                   KernelConfig._pooled(anchors.T.copy(), np.arange(3), kind="rbf",
                                        sigma=1e-200))
        trees = [HashTree(depth=2, nodes=[[hand_node(rng, 3, "linear")]], tree_seed=t,
                          kernels=(kc,), feature_dims=(4,))
                 for t, kc in enumerate(kernels)]
        forest = Forest(trees=trees, master_seed=0, depth=2, feature_dims=(4,),
                        config=ForestConfig(split=SplitConfig(learner="kernel")))
        assert len(forest._groups[0]) == 2
        x = np.concatenate([anchors[:, :1], rng.normal(size=(4, 2))], axis=1)
        with pytest.raises(NumericError, match="^tree 1: a split residual is not finite"):
            encode_dataset(forest, x)


def force_threads(monkeypatch, cpus=3):
    """Encode every batch on threads, as if this process could use ``cpus``
    CPUs, and record each run of trees that :func:`encode._encode_groups`
    encodes: ``(thread id, first tree, tree count)``."""
    monkeypatch.setattr(encode_module, "THREAD_MULADDS", 0)
    monkeypatch.setattr(encode_module.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    runs = []
    encode_groups = encode_module._encode_groups

    def record(trees, x, x_sq, modality, groups, *args):
        runs.append((threading.get_ident(), groups[0].start, groups[-1].stop - groups[0].start))
        return encode_groups(trees, x, x_sq, modality, groups, *args)

    monkeypatch.setattr(encode_module, "_encode_groups", record)
    return runs


def serial_blocks(forest, x, modality):
    """``encode_dataset``'s blocks when no batch is large enough for threads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(encode_module, "THREAD_MULADDS", float("inf"))
        return encode_dataset(forest, x, modality=modality)


def assert_caller_took_the_last_run(runs, starts):
    """``runs`` (see :func:`force_threads`) began at ``starts``, and the
    caller encoded the last of them and no other.  (A helper that has ended
    may pass its thread id on to the next, so helpers' ids need not differ.)"""
    assert sorted(start for _, start, _ in runs) == starts
    on = {start: ident for ident, start, _ in runs}
    assert [on[start] == threading.get_ident() for start in starts] == (
        [False] * (len(starts) - 1) + [True])


def stacked_forest(kind="rbf", depth=2, dims=(12,), n_trees=8, seed=5):
    """A kernel forest whose trees stack 3 to a group over 12-d (4 anchors
    each): groups of 3, 3 and 2 trees of 8."""
    views = encode_views(seed, dims)
    return views, train_multimodal_forest(views, 0, n_trees, depth,
                                          grouped_config(kind, 4), master_seed=seed)


def overflow_trees(forest, bad):
    """``forest`` with the root projectors of the trees ``bad`` scaled by
    1e300, so a large batch overflows their split residuals."""
    trees = list(forest.trees)
    for t in bad:
        root = trees[t].nodes[0][0]
        huge = dataclasses.replace(root, proj_neg=root.proj_neg * 1e300,
                                   proj_pos=root.proj_pos * 1e300)
        trees[t] = dataclasses.replace(trees[t], nodes=[[huge]] + trees[t].nodes[1:])
    return dataclasses.replace(forest, trees=trees)


def delay_run(monkeypatch, start):
    """Make the run of trees that begins at tree ``start`` wait 50 ms before
    it is encoded, so the runs after it finish, or fail, first."""
    encode_groups = encode_module._encode_groups

    def late(trees, x, x_sq, modality, groups, *args):
        if groups[0].start == start:
            threading.Event().wait(0.05)
        return encode_groups(trees, x, x_sq, modality, groups, *args)

    monkeypatch.setattr(encode_module, "_encode_groups", late)


class TestThreadedEncode:
    """A large batch is encoded on threads, each taking a run of whole groups
    and the caller the last, with the serial path's leaves and errors."""

    @pytest.mark.parametrize("kind, dims", [("linear", (6,)), ("rbf", (6,)),
                                            ("polynomial", (6,)), ("neural", (6,)),
                                            ("rbf", (9, 6)), ("neural", (9, 6))])
    def test_threaded_leaves_equal_serial_leaves(self, monkeypatch, kind, dims):
        views = encode_views(8, dims)
        forest = train_multimodal_forest(views, 0, 5, 3, ENCODE_CONFIGS[kind], master_seed=8)
        rng = np.random.default_rng(8)
        for modality, view in enumerate(views):
            assert not any(g.take is not None for g in forest._groups[modality])
            x = np.concatenate([view.features, rng.normal(size=(dims[modality], 20))], axis=1)
            expected = serial_blocks(forest, x, modality)
            runs = force_threads(monkeypatch)
            blocks = encode_dataset(forest, x, modality=modality)
            monkeypatch.undo()
            # 5 trees over 3 threads: runs of 1, 2 and 2 trees, the last on this one
            assert sorted((start, count) for _, start, count in runs) == [(0, 1), (1, 2), (3, 2)]
            assert_caller_took_the_last_run(runs, [0, 1, 3])
            for block, want in zip(blocks, expected, strict=True):
                np.testing.assert_array_equal(block, want)

    @pytest.mark.parametrize("kind, depth, dims", [("rbf", 2, (12,)), ("rbf", 3, (12,)),
                                                   ("polynomial", 2, (12,)),
                                                   ("polynomial", 3, (12,)),
                                                   ("rbf", 2, (13, 12)), ("rbf", 3, (13, 12))])
    def test_threaded_stacked_leaves_equal_serial_leaves(self, monkeypatch, kind, depth, dims):
        views, forest = stacked_forest(kind, depth, dims)
        rng = np.random.default_rng(5)
        for modality, view in enumerate(views):
            assert [g.stop - g.start for g in forest._groups[modality]] == [3, 3, 2]
            x = np.concatenate([view.features, rng.normal(size=(dims[modality], 20))], axis=1)
            expected = serial_blocks(forest, x, modality)
            runs = force_threads(monkeypatch)
            blocks = encode_dataset(forest, x, modality=modality)
            monkeypatch.undo()
            # a run of one group per thread
            assert sorted((start, count) for _, start, count in runs) == [(0, 3), (3, 3), (6, 2)]
            assert_caller_took_the_last_run(runs, [0, 3, 6])
            for block, want in zip(blocks, expected, strict=True):
                np.testing.assert_array_equal(block, want)

    @pytest.mark.parametrize("depth", [2, 3])
    def test_depth_2_stacked_groups_descend_no_tree(self, monkeypatch, depth):
        # a depth-2 tree's leaf is its root's side; deeper trees descend
        (view,), forest = stacked_forest(depth=depth)
        descended = []
        descend = encode_module._descend
        index = {id(tree): t for t, tree in enumerate(forest.trees)}

        def record(tree, *args):
            descended.append(index[id(tree)])
            return descend(tree, *args)

        monkeypatch.setattr(encode_module, "_descend", record)
        blocks = encode_dataset(forest, view.features)
        assert descended == ([] if depth == 2 else list(range(8)))
        for tree, block in zip(forest.trees, blocks, strict=True):
            leaves, margin = per_tree_leaves_and_margins(tree, view.features, 0)
            clear = margin > 1e-9
            assert clear.mean() > 0.9
            np.testing.assert_array_equal(block.argmax(axis=0)[clear], leaves[clear])

    def test_more_cpus_than_trees_take_a_tree_each(self, monkeypatch):
        forest = _nonfinite_forest("neural")
        x = np.random.default_rng(1).normal(size=(6, 30))
        expected = serial_blocks(forest, x, 0)
        runs = force_threads(monkeypatch, cpus=8)
        blocks = encode_dataset(forest, x)
        assert sorted((start, count) for _, start, count in runs) == [(0, 1), (1, 1)]
        for block, want in zip(blocks, expected, strict=True):
            np.testing.assert_array_equal(block, want)

    def test_small_batches_stay_serial(self, monkeypatch):
        # below the threshold: THREAD_MULADDS is kept, only the CPUs are forced
        runs = force_threads(monkeypatch)
        monkeypatch.setattr(encode_module, "THREAD_MULADDS", 2**22)
        (view,), stacked = stacked_forest()
        encode_dataset(stacked, view.features)
        assert runs == [(threading.get_ident(), 0, 8)]
        runs.clear()
        encode_dataset(_nonfinite_forest("rbf"), np.ones((6, 30)))
        assert runs == [(threading.get_ident(), 0, 2)]

    def test_stacked_group_costs_its_map_rows_and_root_projectors(self, monkeypatch):
        # serve-784's shape: 16-anchor trees over 784-d, 16 trees a group
        rng = np.random.default_rng(0)
        trees = [fake_kernel_tree(784, 16, anchor_rng=rng) for _ in range(32)]
        forest = Forest(trees=trees, master_seed=0, depth=2, feature_dims=(784,),
                        config=grouped_config("rbf", 16))
        per_column = 256 + 2 * 16 * 16 * 16
        assert [g.muladds for g in forest._groups[0]] == [per_column] * 2
        # the smallest batch whose cost reaches THREAD_MULADDS per group threads
        fewest = -(-encode_module.THREAD_MULADDS // per_column)
        runs = force_threads(monkeypatch)
        monkeypatch.setattr(encode_module, "THREAD_MULADDS", 2**22)
        x = rng.normal(size=(784, fewest))
        encode_dataset(forest, x[:, 1:])
        assert runs == [(threading.get_ident(), 0, 32)]
        runs.clear()
        encode_dataset(forest, x)
        assert_caller_took_the_last_run(runs, [0, 16])

    @pytest.mark.parametrize("stacked", [False, True])
    def test_failure_names_the_lowest_failing_tree_and_warns_of_nothing(self, monkeypatch,
                                                                        stacked):
        # the lower failing run waits, so the caller's own run, the last,
        # fails first.  A stacked group's error names the group's first tree.
        if stacked:
            (view,), forest = stacked_forest()
            bad, lower, name = overflow_trees(forest, (4, 7)), 3, "tree 3"
            x = view.features
        else:
            (view,) = encode_views(3, (6,))
            forest = train_forest(view, 5, 2, ENCODE_CONFIGS["linear"], master_seed=3)
            bad, lower, name = overflow_trees(forest, (2, 4)), 1, "tree 2"
            x = 1e10 * np.ones((6, 4))
        runs = force_threads(monkeypatch)
        delay_run(monkeypatch, lower)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericError, match=f"^{name}: a split residual is not finite"):
                encode_dataset(bad, x)
        assert [w.message for w in caught] == []
        assert_caller_took_the_last_run(runs, [0, lower, 6 if stacked else 3])
        monkeypatch.undo()
        with pytest.raises(NumericError, match=f"^{name}: a split residual is not finite"):
            encode_dataset(bad, x)

    @pytest.mark.parametrize("fails", [False, True])
    def test_no_thread_outlives_a_call(self, monkeypatch, fails):
        (view,), forest = stacked_forest()
        if fails:
            forest = overflow_trees(forest, (0,))
        x = view.features
        before = threading.active_count()
        runs = force_threads(monkeypatch)
        if fails:
            with pytest.raises(NumericError, match="^tree 0: "):
                encode_dataset(forest, x)
        else:
            encode_dataset(forest, x)
        assert len(runs) == 3
        assert threading.active_count() == before

    def test_training_pool_forked_after_a_threaded_encode_gives_the_serial_forest(
            self, monkeypatch):
        (view,), forest = stacked_forest()
        runs = force_threads(monkeypatch)
        encode_dataset(forest, view.features)
        assert len(runs) == 3
        ds = small_dataset()
        pooled = train_forest(ds, 3, 2, FAST_CFG, master_seed=3, workers=2)
        monkeypatch.undo()
        assert forests_equal(pooled, train_forest(ds, 3, 2, FAST_CFG, master_seed=3))

    def test_two_callers_encoding_one_stacked_forest_get_the_serial_blocks(
            self, monkeypatch):
        (view,), forest = stacked_forest()
        x = np.concatenate([view.features, np.random.default_rng(5).normal(size=(12, 40))],
                           axis=1)
        expected = serial_blocks(forest, x, 0)
        runs = force_threads(monkeypatch)
        start = threading.Barrier(2, timeout=30)
        results = [None, None]

        def encode(i):
            start.wait()
            results[i] = [encode_dataset(forest, x) for _ in range(5)]

        callers = [threading.Thread(target=encode, args=(i,)) for i in range(2)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(60)
            assert not t.is_alive()
        assert len(runs) == 2 * 5 * 3
        for result in results:
            for blocks in result:
                for block, want in zip(blocks, expected, strict=True):
                    np.testing.assert_array_equal(block, want)


class TestForestConfig:
    # 2 sigma^2 of the last two underflows to 0 and overflows
    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), 1e-200, 1e200])
    def test_sigma_must_be_positive(self, sigma):
        with pytest.raises(InvalidInputError, match="sigma"):
            ForestConfig(sigma=sigma)

    def test_sigma_may_be_estimated_or_positive(self):
        assert ForestConfig().sigma is None
        assert ForestConfig(sigma=0.5).sigma == 0.5

    @pytest.mark.parametrize("learner, kernels, node, misfit", [
        ("linear", 0, "plain", None),
        ("linear", 1, "plain", "a modality has a kernel"),
        ("linear", 0, "net", "a node has a net"),
        ("kernel", 2, "plain", None),
        ("kernel", 1, "plain", "a modality has no kernel"),
        ("neural", 0, "net", None),
        ("neural", 0, "degenerate", None),
        ("neural", 1, "net", "a modality has a kernel"),
        ("neural", 0, "plain", "a node has no net"),
    ])
    def test_trees_must_fit_the_learner(self, learner, kernels, node, misfit):
        # a two-view tree whose first ``kernels`` views have a kernel; a
        # kernel tree with a net is TestGroupedEncode's
        rng = np.random.default_rng(0)
        kc = KernelConfig(anchors=rng.normal(size=(4, 4)), kind="rbf", sigma=1.0)
        nodes = {"plain": hand_node(rng, 4, "linear"), "net": hand_node(rng, 4, "neural"),
                 "degenerate": SplitNode(class_partition={0: "neg"}, degenerate=True)}
        trees = [HashTree(depth=2, nodes=[[nodes[node], nodes["degenerate"]]], tree_seed=0,
                          kernels=(kc, kc)[:kernels] + (None, None)[kernels:],
                          feature_dims=(4, 4))]
        config = ForestConfig(split=SplitConfig(learner=learner))

        def make():
            return Forest(trees=trees, master_seed=0, depth=2, feature_dims=(4, 4),
                          config=config)

        if misfit is None:
            assert make().learner == learner
        else:
            with pytest.raises(InvalidInputError,
                               match=f"^tree 0 does not fit the {learner} learner: {misfit}$"):
                make()

    def test_the_forest_learner_is_the_configs(self):
        forest = train_forest(small_dataset(), 2, 2, FAST_CFG, master_seed=3)
        assert forest.learner == forest.config.learner == "linear"
        # the config states it once, so no copy can disagree with it
        with pytest.raises(TypeError):
            dataclasses.replace(forest, learner="neural")


def bundled_openblas():
    """numpy's bundled OpenBLAS with its thread-count getter, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_-*.so")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            return lib
    return None


def blas_threads():
    return bundled_openblas().scipy_openblas_get_num_threads64_()


def record_blas_threads(monkeypatch):
    """Make every split node ``train_forest`` trains carry the OpenBLAS
    thread count it was trained on, as ``blas_threads``; pool workers are
    forked with the patch."""
    train = forest_module.train_split_node

    def train_and_record(*args, **kwargs):
        node = train(*args, **kwargs)
        node.blas_threads = blas_threads()
        return node

    monkeypatch.setattr(forest_module, "train_split_node", train_and_record)


def root_blas_threads(forest):
    return [tree.nodes[0][0].blas_threads for tree in forest.trees]


class TestPoolBlasThreads:
    def test_pool_worker_runs_one_blas_thread(self, monkeypatch):
        if bundled_openblas() is None:
            pytest.skip("numpy bundles no OpenBLAS with a thread-count getter")
        parent_threads = blas_threads()
        record_blas_threads(monkeypatch)
        forest = train_forest(small_dataset(), 3, 2, FAST_CFG, master_seed=3, workers=2)
        assert root_blas_threads(forest) == [1, 1, 1]
        assert blas_threads() == parent_threads

    def test_serial_training_runs_one_blas_thread_and_restores_the_count(self, monkeypatch):
        if bundled_openblas() is None:
            pytest.skip("numpy bundles no OpenBLAS with a thread-count getter")
        parent_threads = blas_threads()
        record_blas_threads(monkeypatch)
        forest = train_forest(small_dataset(), 2, 2, FAST_CFG, master_seed=3)
        assert root_blas_threads(forest) == [1, 1]
        assert blas_threads() == parent_threads

    def test_train_tree_on_two_blas_threads_gives_train_forests_trees(self):
        # at 784-d a product split over two OpenBLAS threads rounds otherwise
        # than on one, so a tree trained directly must hold the guard itself
        threads = blas_module._openblas_threads()
        if threads is None:
            pytest.skip("numpy bundles no OpenBLAS with a thread-count setter")
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("fewer than 2 CPUs are usable")
        get_threads, set_threads = threads
        ds = gen_synthetic(SyntheticSpec(kind="subspaces", class_count=10, ambient_dim=784,
                                         intrinsic_dim=8, samples_per_class=40, seed=7))
        cfg = ForestConfig(split=SplitConfig(learner="kernel", atoms=4, sparsity=2,
                                             optimizer=OptimizerConfig(max_iters=20)),
                           anchor_count=16)
        forest = train_forest(ds, 6, 2, cfg, master_seed=0)
        before = get_threads()
        set_threads(2)
        try:
            if get_threads() != 2:
                pytest.skip("OpenBLAS would not run two threads here")
            direct = [train_tree(ds, 2, cfg, tree_seed_for(0, t)) for t in range(6)]
            assert get_threads() == 2
        finally:
            set_threads(before)
        for tree, want in zip(direct, forest.trees, strict=True):
            got, expected = tree_arrays(tree), tree_arrays(want)
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                np.testing.assert_array_equal(a, b)

    def test_serial_encode_runs_one_blas_thread_and_restores_the_count(self, monkeypatch):
        if bundled_openblas() is None:
            pytest.skip("numpy bundles no OpenBLAS with a thread-count getter")
        parent_threads = blas_threads()
        ds = small_dataset()
        forest = train_forest(ds, 3, 2, FAST_CFG, master_seed=3)
        seen = []

        def route(node, x):
            seen.append((threading.get_ident(), blas_threads()))
            return _route_many(node, x)

        monkeypatch.setattr(encode_module, "_route_many", route)
        encode_dataset(forest, ds.features)
        assert seen == [(threading.get_ident(), 1)] * 3
        assert blas_threads() == parent_threads

        # a threaded batch: the caller and every helper route on one BLAS
        # thread, and the caller's count comes back only after the last of
        # them is done
        seen.clear()
        force_threads(monkeypatch)
        encode_dataset(forest, ds.features)
        assert len(seen) == 3 and {count for _, count in seen} == {1}
        assert [ident for ident, _ in seen].count(threading.get_ident()) == 1
        assert blas_threads() == parent_threads

    def test_concurrent_holders_keep_one_thread_until_the_last_leaves(self):
        lib = bundled_openblas()
        if lib is None:
            pytest.skip("numpy bundles no OpenBLAS with a thread-count getter")
        caller_threads = blas_threads()
        lib.scipy_openblas_set_num_threads64_(2)
        try:
            if blas_threads() != 2:
                pytest.skip("OpenBLAS would not run two threads here")
            a_in, b_in, a_out, checked = (threading.Event() for _ in range(4))
            seen = {}

            def thread_a():
                with blas_module._single_blas_thread():
                    a_in.set()
                    b_in.wait(30)
                a_out.set()

            def thread_b():
                a_in.wait(30)
                with blas_module._single_blas_thread():
                    b_in.set()
                    a_out.wait(30)
                    seen["b after a left"] = blas_threads()
                    checked.wait(30)

            threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
            for t in threads:
                t.start()
            assert a_out.wait(30)
            seen["caller while b holds"] = blas_threads()
            checked.set()
            for t in threads:
                t.join(30)
                assert not t.is_alive()
            assert seen == {"b after a left": 1, "caller while b holds": 1}
            assert blas_threads() == 2
        finally:
            lib.scipy_openblas_set_num_threads64_(caller_threads)

    def test_threads_that_train_and_encode_at_once_match_serial_runs(self):
        ds = small_dataset()
        cfg = ForestConfig(split=SplitConfig(learner="kernel", atoms=4, sparsity=2),
                           anchor_count=8)
        serial = train_forest(ds, 3, 2, cfg, master_seed=5)
        blocks = encode_dataset(serial, ds.features)
        start = threading.Barrier(2, timeout=30)
        results = {}

        def train():
            start.wait()
            results["train"] = train_forest(ds, 3, 2, cfg, master_seed=5)

        def encode():
            start.wait()
            results["encode"] = [encode_dataset(serial, ds.features) for _ in range(5)]

        threads = [threading.Thread(target=train), threading.Thread(target=encode)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
        assert forests_equal(results["train"], serial)
        assert all(np.array_equal(a, b) for run in results["encode"]
                   for a, b in zip(run, blocks, strict=True))

    def test_many_threads_entering_at_once_lose_no_holder(self):
        lib = bundled_openblas()
        if lib is None:
            pytest.skip("numpy bundles no OpenBLAS with a thread-count getter")
        caller_threads = blas_threads()
        lib.scipy_openblas_set_num_threads64_(2)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            counts = set()

            def enter_and_leave():
                for _ in range(200):
                    with blas_module._single_blas_thread():
                        with blas_module._single_blas_thread():
                            counts.add(blas_threads())

            threads = [threading.Thread(target=enter_and_leave) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
                assert not t.is_alive()
            assert counts == {1}
            assert blas_module._blas_holders == 0 and blas_threads() == 2
        finally:
            sys.setswitchinterval(switch)
            lib.scipy_openblas_set_num_threads64_(caller_threads)

    def test_nested_entries_and_encode_threads_are_holders(self, monkeypatch):
        if bundled_openblas() is None:
            pytest.skip("numpy bundles no OpenBLAS with a thread-count getter")
        parent_threads = blas_threads()
        with blas_module._single_blas_thread():
            with blas_module._single_blas_thread():
                assert blas_module._blas_holders == 2
            assert blas_threads() == 1
        assert blas_module._blas_holders == 0 and blas_threads() == parent_threads

        ds = small_dataset()
        forest = train_forest(ds, 3, 2, FAST_CFG, master_seed=3)
        holders = []

        def route(node, x):
            holders.append(blas_module._blas_holders)
            return _route_many(node, x)

        monkeypatch.setattr(encode_module, "_route_many", route)
        force_threads(monkeypatch)
        encode_dataset(forest, ds.features)
        # the caller and each thread hold the guard; a thread may run alone
        assert len(holders) == 3 and min(holders) >= 2
        assert blas_module._blas_holders == 0 and blas_threads() == parent_threads

    def test_missing_library_or_setter_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(blas_module.glob, "glob",
                            lambda pattern: ["/nonexistent/libscipy_openblas64_-x.so",
                                             "libc.so.6"])
        blas_module._openblas_threads.cache_clear()
        try:
            assert blas_module._openblas_threads() is None
            with blas_module._single_blas_thread():
                pass
        finally:
            blas_module._openblas_threads.cache_clear()
