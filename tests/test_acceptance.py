"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one summary line per
criterion.  The two full-MNIST criteria read IDX files from the directory
named by $LEAFHASH_MNIST_DIR (train-images-idx3-ubyte, train-labels-idx1-ubyte,
t10k-images-idx3-ubyte, t10k-labels-idx1-ubyte, optionally .gz) and skip with
an explicit reason when the files are absent, since the package itself never
downloads datasets.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import leafhash as lh
from leafhash.aggregation import unsupervised_gain
from leafhash.dictionaries import node_route_many

from conftest import random_blockset, treelike_blockset
from oracles import exhaustive_select, grad_check, hamming, label_mi, set_mutual_information

WORKERS = min(os.cpu_count() or 1, 8)


def report(criterion, message):
    print(f"\n[criterion {criterion}] {message}: PASS")


# ---------------------------------------------------------------------------
# criterion 1: transform quality on noisy random subspaces

def test_criterion_1_transform_quality():
    spec = lh.SyntheticSpec(kind="subspaces", class_count=2, ambient_dim=10,
                            intrinsic_dim=2, noise=0.01, samples_per_class=100,
                            seed=0)
    ds = lh.gen_synthetic(spec)
    x_pos = ds.features[:, ds.labels == 0]
    x_neg = ds.features[:, ds.labels == 1]
    start = time.perf_counter()
    fit = lh.fit_transform(x_pos, x_neg)
    elapsed = time.perf_counter() - start
    ratio = fit.loss_trace[-1] / fit.loss_trace[0]
    angle = np.degrees(
        lh.principal_angles(fit.w @ x_pos, fit.w @ x_neg, rank=2)[0]
    )
    assert ratio <= 0.05, f"loss ratio {ratio:.4f} > 0.05"
    assert angle >= 80.0, f"smallest principal angle {angle:.1f} deg < 80"
    assert elapsed <= 30.0, f"runtime {elapsed:.1f}s > 30s"
    report(1, f"loss ratio {ratio:.2e}, angle {angle:.1f} deg, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: subgradient and backprop correctness

def test_criterion_2_subgradient_correctness():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        rows = int(rng.integers(3, 8))
        cols = int(rng.integers(3, 8))
        k = min(rows, cols)
        u = np.linalg.qr(rng.normal(size=(rows, rows)))[0]
        v = np.linalg.qr(rng.normal(size=(cols, cols)))[0]
        # distinct singular values, all far above the threshold
        sv = np.sort(rng.uniform(1.0, 6.0, size=k))[::-1]
        sv += np.arange(k)[::-1] * 0.2
        a = u[:, :k] @ np.diag(sv) @ v[:, :k].T
        tau = 1e-3 * sv[0]
        sub = lh.nuclear_subgradient(a, tau)
        delta = rng.normal(size=a.shape)
        h = 1e-6
        numeric = (lh.nuclear_norm(a + h * delta)
                   - lh.nuclear_norm(a - h * delta)) / (2 * h)
        analytic = float(np.sum(sub * delta))
        worst = max(worst, abs(numeric - analytic) / max(abs(numeric), 1e-8))
    assert worst <= 1e-4, f"worst directional-derivative error {worst:.2e} > 1e-4"

    net = lh.build_net(4, (8,), 4, seed=1)
    err = grad_check(net, rng.normal(size=(4, 6)), rng.normal(size=(4, 6)))
    assert err <= 1e-3, f"backprop grad check {err:.2e} > 1e-3"
    report(2, f"directional-derivative err {worst:.2e}, grad check {err:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: kernelized nonlinearity on the two-circle geometry

def test_criterion_3_two_circles_rbf():
    ds = lh.gen_synthetic(lh.SyntheticSpec(kind="circles2d", ambient_dim=2,
                                           noise=0.05, samples_per_class=120,
                                           seed=7))
    train = np.r_[0:80, 120:200]
    test = np.r_[80:120, 200:240]
    f_train, l_train = ds.features[:, train], ds.labels[train]
    f_test, l_test = ds.features[:, test], ds.labels[test]
    kc = lh.KernelConfig(anchors=f_train[:, ::2], kind="rbf",
                         sigma=lh.median_bandwidth(f_train, np.random.default_rng(0)))
    node = lh.train_split_node(lh.kernel_featurize(f_train[:, l_train == 1], kc),
                               lh.kernel_featurize(f_train[:, l_train == 0], kc),
                               {0: "neg", 1: "pos"},
                               lh.SplitConfig(learner="kernel"), rng=0)
    left = node_route_many(node, lh.kernel_featurize(f_test, kc))
    accuracy = ((left & (l_test == 0)) | (~left & (l_test == 1))).mean()
    assert accuracy >= 0.90, f"held-out routing accuracy {accuracy:.3f} < 0.90"
    report(3, f"held-out routing accuracy {accuracy:.3f}")


# ---------------------------------------------------------------------------
# criterion 4: greedy near-optimality and diminishing returns

def test_criterion_4_greedy_near_optimality():
    bound = 1 - 1 / math.e
    rng = np.random.default_rng(2024)
    near_unsup = near_sup = 0
    for _ in range(50):
        n = int(rng.integers(100, 200))
        bs, labels = treelike_blockset(8, n, 4, 0.1, rng)
        cov = lh.block_covariance(bs)
        value = set_mutual_information(cov, lh.select_blocks(bs, None, 3, "unsup").chosen)
        best = exhaustive_select(bs, None, 3, "unsup").gains[0]
        assert value >= bound * best - 1e-9, f"unsup bound violated: {value} < {bound * best}"
        near_unsup += value >= 0.95 * best
        value = label_mi(lh.select_blocks(bs, labels, 3, "sup").chosen, bs, labels)
        best = exhaustive_select(bs, labels, 3, "sup").gains[0]
        assert value >= bound * best - 1e-9, f"sup bound violated: {value} < {bound * best}"
        near_sup += value >= 0.95 * best
    assert near_unsup >= 45, f"unsup >=0.95*opt in only {near_unsup}/50 trials"
    assert near_sup >= 45, f"sup >=0.95*opt in only {near_sup}/50 trials"

    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(5, 9))
        bs = random_blockset(m, int(rng.integers(20, 60)), rng=rng)
        cov = lh.block_covariance(bs)
        perm = rng.permutation(m)
        y = int(perm[0])
        rest = [int(i) for i in perm[1:]]
        b_size = int(rng.integers(1, max(2, m - 2)))
        a_size = int(rng.integers(0, b_size + 1))
        larger, smaller = rest[:b_size], rest[:a_size]
        gain_small = unsupervised_gain(cov, y, smaller)
        gain_large = unsupervised_gain(cov, y, larger)
        assert gain_small >= gain_large - 1e-6, "diminishing returns violated"
    report(4, f"bound held in 100/100 selections; >=0.95*opt in "
              f"{near_unsup}/50 unsup and {near_sup}/50 sup; 200 triples ok")


# ---------------------------------------------------------------------------
# criteria 5 and 6: full MNIST protocols (skipped without local data)

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def load_mnist():
    root = os.environ.get("LEAFHASH_MNIST_DIR")
    if not root:
        pytest.skip("LEAFHASH_MNIST_DIR not set; MNIST IDX files required and "
                    "the package does not download datasets")
    root = Path(root)
    loaded = {}
    for key, name in MNIST_FILES.items():
        path = root / name
        if not path.exists():
            path = root / (name + ".gz")
        if not path.exists():
            pytest.skip(f"missing {name}[.gz] under {root}")
        loaded[key] = lh.load_idx(path)
    return loaded


def per_class_subset(labels, per_class, rng):
    picks = []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        picks.append(rng.choice(idx, size=per_class, replace=False))
    return np.sort(np.concatenate(picks))


def mnist_forest(features, labels, n_trees, bits, rng_seed):
    ds = lh.LabeledDataset(features=features, labels=labels)
    cfg = lh.ForestConfig(split=lh.SplitConfig(learner="kernel"),
                          kernel_kind="rbf", anchor_count=256)
    forest = lh.train_forest(ds, n_trees, 2, cfg, master_seed=rng_seed,
                             workers=WORKERS)
    blocks = lh.encode_dataset(forest, ds.features)
    bs = lh.BlockSet.from_blocks(blocks)
    selection = lh.greedy_semisupervised(bs, ds.labels, bits // 2)
    return forest, selection


def test_criterion_5_mnist_reduced_training():
    data = load_mnist()
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    train_idx = per_class_subset(data["train_labels"], 30, rng)
    forest, selection = mnist_forest(data["train_images"][:, train_idx],
                                     data["train_labels"][train_idx],
                                     n_trees=128, bits=36, rng_seed=0)
    gallery_codes = lh.pack_codes(
        lh.encode_dataset(forest, data["train_images"]),
        selection.chosen)
    query_codes = lh.pack_codes(
        lh.encode_dataset(forest, data["test_images"]),
        selection.chosen)
    idx = lh.HammingIndex(codes=gallery_codes, labels=data["train_labels"])
    precision, recall = lh.precision_recall_at_radius(
        idx, query_codes, data["test_labels"], 0)
    elapsed = time.perf_counter() - start
    assert precision >= 0.65, f"radius-0 precision {precision:.4f} < 0.65"
    assert recall >= 0.25, f"radius-0 recall {recall:.4f} < 0.25"
    assert elapsed <= 900.0, f"runtime {elapsed:.0f}s > 15 min"
    report(5, f"precision@0 {precision:.4f}, recall@0 {recall:.4f}, "
              f"{elapsed:.0f}s with {WORKERS} workers")


def test_criterion_6_mnist_ranking_map():
    data = load_mnist()
    rng = np.random.default_rng(1)
    train_idx = per_class_subset(data["train_labels"], 100, rng)
    forest, selection = mnist_forest(data["train_images"][:, train_idx],
                                     data["train_labels"][train_idx],
                                     n_trees=128, bits=48, rng_seed=1)
    gallery_idx = rng.choice(data["train_labels"].size, size=10_000, replace=False)
    query_idx = rng.choice(data["test_labels"].size, size=1_000, replace=False)
    gallery_codes = lh.pack_codes(
        lh.encode_dataset(forest, data["train_images"][:, gallery_idx]),
        selection.chosen)
    query_codes = lh.pack_codes(
        lh.encode_dataset(forest, data["test_images"][:, query_idx]),
        selection.chosen)
    idx = lh.HammingIndex(codes=gallery_codes,
                          labels=data["train_labels"][gallery_idx])
    value = lh.mean_average_precision(idx, query_codes,
                                      data["test_labels"][query_idx])
    assert value >= 0.70, f"Hamming-ranking mAP {value:.4f} < 0.70"
    report(6, f"48-bit mAP {value:.4f} on 10k gallery / 1k queries")


# ---------------------------------------------------------------------------
# criterion 7: structural invariants

def test_criterion_7_structural_invariants(tmp_path):
    ds = lh.gen_synthetic(lh.SyntheticSpec(kind="subspaces", class_count=4,
                                           ambient_dim=12, intrinsic_dim=2,
                                           noise=0.02, samples_per_class=40,
                                           seed=1))
    cfg = lh.ForestConfig(split=lh.SplitConfig(learner="linear", atoms=4,
                                               sparsity=2))
    forest = lh.train_forest(ds, 4, 3, cfg, master_seed=13)

    rng = np.random.default_rng(0)
    x = rng.normal(size=(12, 25_000))
    blocks = lh.encode_dataset(forest, x)  # 4 trees x 25k = 1e5 encodes
    total = 0
    for block in blocks:
        sums = block.sum(axis=0)
        assert np.all(sums == 1), "a code column is not 1-sparse"
        total += sums.size
    assert total == 100_000

    f_serial = lh.train_forest(ds, 4, 3, cfg, master_seed=13, workers=1)
    f_pool = lh.train_forest(ds, 4, 3, cfg, master_seed=13, workers=2)
    for fa, fb in ((forest, f_serial), (f_serial, f_pool)):
        for ta, tb in zip(fa.trees, fb.trees):
            for ma, mb in zip(ta.nodes, tb.nodes):
                for na, nb in zip(ma, mb):
                    assert na.degenerate == nb.degenerate
                    if not na.degenerate:
                        assert np.array_equal(na.proj_pos, nb.proj_pos)
                        assert np.array_equal(na.proj_neg, nb.proj_neg)

    selection = lh.select_blocks(lh.BlockSet.from_blocks(
        lh.encode_dataset(forest, ds.features)), None, 2, "unsup")
    model_path = tmp_path / "model.fhsh"
    lh.save_model(forest, selection, model_path)
    loaded, loaded_sel = lh.load_model(model_path)
    original = lh.pack_codes(lh.encode_dataset(forest, x), selection.chosen)
    reloaded = lh.pack_codes(lh.encode_dataset(loaded, x), loaded_sel.chosen)
    assert np.array_equal(original.words, reloaded.words)

    codes_path = tmp_path / "codes.fhcd"
    lh.save_codes(original, None, codes_path)
    round_tripped, _ = lh.load_codes(codes_path)
    assert np.array_equal(round_tripped.words, original.words)
    report(7, "1e5 one-hot encodes, worker-count invariance, "
              "bit-exact model and codes round trips")


# ---------------------------------------------------------------------------
# criterion 8: metric oracles on hand-constructed galleries

def test_criterion_8_metric_oracles():
    # ten items, distances to the zero query = number of set bits
    values = [0b0, 0b1, 0b11, 0b111, 0b1111, 0b0, 0b1, 0b11, 0b111, 0b1111]
    words = np.array(values, dtype=np.uint64)[:, None]
    gallery = lh.PackedCodes(words=words, length=4)
    labels = np.array([1, 1, 0, 0, 0, 1, 0, 0, 0, 0])
    idx = lh.HammingIndex(codes=gallery, labels=labels)
    queries = lh.PackedCodes(words=np.array([[0b0]], dtype=np.uint64), length=4)
    q_labels = np.array([1])

    # radius 0 retrieves ids {0, 5}, both relevant; 3 relevant total
    precision, recall = lh.precision_recall_at_radius(idx, queries, q_labels, 0)
    assert precision == pytest.approx(1.0, abs=1e-12)
    assert recall == pytest.approx(2.0 / 3.0, abs=1e-12)

    # radius 1 adds ids {1, 6}: 3 of 4 relevant
    precision, recall = lh.precision_recall_at_radius(idx, queries, q_labels, 1)
    assert precision == pytest.approx(3.0 / 4.0, abs=1e-12)
    assert recall == pytest.approx(1.0, abs=1e-12)

    # ranking: distances [0,1,2,3,4,0,1,2,3,4] -> ids [0,5,1,6,2,7,3,8,4,9]
    # relevant at ranks 1, 2, 3 -> AP = (1/1 + 2/2 + 3/3) / 3 = 1
    assert lh.mean_average_precision(idx, queries, q_labels) == pytest.approx(1.0, abs=1e-12)

    # ranking order is [0, 5, 1, 6, 2, 7, 3, 8, 4, 9]; with relevant ids
    # {0, 1, 9} the relevant ranks are 1, 3, 10
    labels_hard = np.array([1, 1, 0, 0, 0, 0, 0, 0, 0, 1])
    idx_hard = lh.HammingIndex(codes=gallery, labels=labels_hard)
    expected = (1.0 / 1.0 + 2.0 / 3.0 + 3.0 / 10.0) / 3.0
    assert lh.mean_average_precision(idx_hard, queries, q_labels) == pytest.approx(expected, abs=1e-12)

    rng = np.random.default_rng(3)
    big = lh.PackedCodes(words=rng.integers(0, 2**24, size=(1000, 1),
                                            dtype=np.uint64), length=24)
    big_idx = lh.HammingIndex(codes=big)
    for r in (0, 2, 6):
        for qi in range(0, 1000, 137):
            q = big.code(qi)
            naive = [i for i in range(1000) if hamming(big.code(i), q) <= r]
            np.testing.assert_array_equal(lh.radius_query(big_idx, q, r), naive)
    report(8, "hand-computed P/R/mAP values exact; radius query matches "
              "naive scan on 1000 random codes")


# ---------------------------------------------------------------------------
# criterion 9: multimodal mechanism on synthetic paired modalities

def test_criterion_9_multimodal_cross_retrieval():
    view_a = lh.gen_synthetic(lh.SyntheticSpec(kind="subspaces", class_count=4,
                                               ambient_dim=10, intrinsic_dim=2,
                                               noise=0.01, samples_per_class=60,
                                               seed=21))
    view_b = lh.gen_synthetic(lh.SyntheticSpec(kind="subspaces", class_count=4,
                                               ambient_dim=14, intrinsic_dim=2,
                                               noise=0.01, samples_per_class=60,
                                               seed=77))
    cfg = lh.ForestConfig(split=lh.SplitConfig(learner="linear", atoms=4,
                                               sparsity=2))
    forest = lh.train_forest([view_a, view_b], n_trees=32, depth=2, cfg=cfg,
                             master_seed=9)
    blocks_a = lh.encode_dataset(forest, view_a.features, modality=0)
    blocks_b = lh.encode_dataset(forest, view_b.features, modality=1)
    selection = lh.greedy_semisupervised(
        lh.BlockSet.from_blocks(blocks_b), view_b.labels, 8)
    codes_a = lh.pack_codes(blocks_a, selection.chosen)
    codes_b = lh.pack_codes(blocks_b, selection.chosen)
    idx = lh.HammingIndex(codes=codes_b, labels=view_b.labels)
    precision, _ = lh.precision_recall_at_radius(idx, codes_a, view_a.labels, 2)
    chance = 1.0 / 4.0
    assert precision >= 3 * chance, (
        f"cross-modal precision@2 {precision:.3f} < 3x chance {3 * chance:.3f}"
    )
    report(9, f"cross-modal precision@2 {precision:.3f} vs chance {chance:.2f}")


# ---------------------------------------------------------------------------
# pipeline smoke test: the criterion-5/6 code path on synthetic data

def test_pipeline_end_to_end_synthetic(tmp_path):
    # fresh samples from the same class subspaces serve as queries
    full = lh.gen_synthetic(lh.SyntheticSpec(kind="subspaces", class_count=5,
                                             ambient_dim=16, intrinsic_dim=2,
                                             noise=0.02, samples_per_class=120,
                                             seed=17))
    per_class = 120
    train_mask = (np.arange(full.n_samples) % per_class) < 60
    ds = lh.LabeledDataset(features=full.features[:, train_mask],
                           labels=full.labels[train_mask])
    holdout = lh.LabeledDataset(features=full.features[:, ~train_mask],
                                labels=full.labels[~train_mask])
    cfg = lh.ForestConfig(split=lh.SplitConfig(learner="kernel"),
                          kernel_kind="rbf", anchor_count=64)
    forest = lh.train_forest(ds, 32, 2, cfg, master_seed=3, workers=WORKERS)
    blocks = lh.encode_dataset(forest, ds.features)
    bs = lh.BlockSet.from_blocks(blocks)
    selection = lh.greedy_semisupervised(bs, ds.labels, 12)
    gallery = lh.pack_codes(blocks, selection.chosen)
    queries = lh.pack_codes(lh.encode_dataset(forest, holdout.features),
                            selection.chosen)
    idx = lh.HammingIndex(codes=gallery, labels=ds.labels)
    precision, recall = lh.precision_recall_at_radius(idx, queries,
                                                      holdout.labels, 2)
    value = lh.mean_average_precision(idx, queries, holdout.labels)
    assert precision >= 0.8
    assert value >= 0.8
    print(f"\n[pipeline] synthetic 24-bit semi-supervised: precision@2 "
          f"{precision:.3f}, recall@2 {recall:.3f}, mAP {value:.3f}")
