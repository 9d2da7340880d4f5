import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leafhash import _blas as blas_module
from leafhash import (
    BlockSet,
    ForestConfig,
    HammingIndex,
    InvalidInputError,
    LabeledDataset,
    OptimizerConfig,
    SplitConfig,
    SyntheticSpec,
    block_covariance,
    conditional_variance,
    encode_dataset,
    estimate_lambda,
    gen_synthetic,
    greedy_semisupervised,
    mean_average_precision,
    pack_codes,
    select_blocks,
    train_forest,
    unsupervised_gain,
)

from conftest import one_hot_block, random_blockset, treelike_blockset
from oracles import exhaustive_select, label_mi, set_mutual_information


class TestCovarianceMatrix:
    def test_identical_blocks(self):
        b = one_hot_block([0, 1, 0], 2)
        cov = block_covariance(BlockSet.from_blocks([b, b.copy()]))
        assert cov[0, 1] == pytest.approx(1.0)

    def test_fully_flipped_depth2(self):
        b = one_hot_block([0, 1, 0, 1], 2)
        flipped = one_hot_block([1, 0, 1, 0], 2)
        cov = block_covariance(BlockSet.from_blocks([b, flipped]))
        assert cov[0, 1] == pytest.approx(math.exp(-2.0))

    def test_unit_diagonal(self, rng):
        cov = block_covariance(random_blockset(5, 30, rng=rng))
        np.testing.assert_allclose(np.diag(cov), 1.0)

    def test_depth2_entry_range(self, rng):
        cov = block_covariance(random_blockset(6, 40, rng=rng))
        assert np.all(cov >= math.exp(-2.0) - 1e-12)
        assert np.all(cov <= 1.0 + 1e-12)

    def test_rejects_non_onehot(self):
        bad = np.array([[1, 1], [1, 0]], dtype=np.uint8)
        with pytest.raises(InvalidInputError):
            BlockSet.from_blocks([bad, bad])


class TestFromBlocks:
    # leaf counts on both sides of 256, where a leaf id no longer fits a byte
    @given(leaf_count=st.integers(1, 64) | st.integers(250, 300), n=st.integers(0, 300),
           m=st.integers(1, 6), dtype=st.sampled_from([np.uint8, bool, np.int64, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_leaf_ids_are_each_blocks_argmax(self, leaf_count, n, m, dtype, seed):
        rng = np.random.default_rng(seed)
        # the highest leaf is taken whenever there are columns to take it
        ids = [rng.integers(0, leaf_count, n) for _ in range(m)]
        if n:
            ids[0][0] = leaf_count - 1
        blocks = [one_hot_block(i, leaf_count).astype(dtype) for i in ids]
        # any iterable of blocks
        bs = BlockSet.from_blocks(iter(blocks))
        assert bs.leaf_count == leaf_count and bs.leaf_ids.dtype == np.int32
        np.testing.assert_array_equal(bs.leaf_ids,
                                      np.array([b.argmax(axis=0) for b in blocks],
                                               dtype=np.int32).reshape(m, n))

    @pytest.mark.parametrize("fault, message", [
        ([[1, 0, 1, 0], [1, 1, 0, 1]], "is not one-hot (binary, one 1 in every column)"),
        ([[0, 0, 1, 0], [0, 1, 0, 1]], "is not one-hot (binary, one 1 in every column)"),
        ([[2, 0, 0, 1], [0, 1, 1, 0]], "is not one-hot (binary, one 1 in every column)"),
        ([[0.5, 1, 0, 1], [0.5, 0, 1, 0]], "is not one-hot (binary, one 1 in every column)"),
        ([[1, 0, 0, -1], [0, 1, 1, 2]], "is not one-hot (binary, one 1 in every column)"),
        ([["1", "0", "0", "1"], ["0", "1", "1", "0"]],
         "is a <U1 array of shape (2, 4), expected 2-D numbers of shape (2, 4)"),
        (np.ones((3, 4)),
         "is a float64 array of shape (3, 4), expected 2-D numbers of shape (2, 4)"),
        (np.ones(4), "is a float64 array of shape (4,), expected 2-D numbers of shape (2, 4)")])
    @given(m=st.integers(2, 6), data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_malformed_block_is_named_by_its_index(self, fault, message, m, data):
        # the first block sets the shape, so a block of another shape comes later
        first = 0 if np.shape(fault) == (2, 4) else 1
        i = data.draw(st.integers(first, m - 1), label="malformed block")
        blocks = [one_hot_block([0, 1, 1, 0], 2) for _ in range(m)]
        blocks[i] = fault
        with pytest.raises(InvalidInputError, match=f"^block {i} {re.escape(message)}$"):
            BlockSet.from_blocks(blocks)

    def test_no_blocks_rejected(self):
        with pytest.raises(InvalidInputError, match="^no code blocks given$"):
            BlockSet.from_blocks([])

    def test_blocks_of_no_rows_rejected(self):
        # no leaf to be 1 in: once numpy's ValueError from argmax
        with pytest.raises(InvalidInputError, match="^block 0 is not one-hot "):
            BlockSet.from_blocks([np.zeros((0, 0)), np.zeros((0, 0))])


class TestConditionalVariance:
    def test_empty_conditioning(self):
        cov = np.array([[1.0, 0.3], [0.3, 1.0]])
        assert conditional_variance(cov, 0, []) == pytest.approx(1.0)

    def test_two_by_two_closed_form(self):
        cov = np.array([[1.0, 0.6], [0.6, 1.0]])
        assert conditional_variance(cov, 0, [1]) == pytest.approx(1 - 0.36, abs=1e-6)

    def test_duplicate_information_near_zero(self):
        b = one_hot_block([0, 1, 1, 0], 2)
        cov = block_covariance(BlockSet.from_blocks([b, b.copy()]))
        assert conditional_variance(cov, 0, [1]) <= 1e-6

    def test_self_conditioning_rejected(self):
        cov = np.eye(3)
        with pytest.raises(InvalidInputError):
            conditional_variance(cov, 1, [1, 2])

    @given(st.integers(0, 3000))
    @settings(max_examples=50, deadline=None)
    def test_never_negative(self, seed):
        rng = np.random.default_rng(seed)
        bs = random_blockset(6, 25, rng=rng)
        cov = block_covariance(bs)
        y = int(rng.integers(0, 6))
        others = [i for i in range(6) if i != y]
        size = int(rng.integers(0, len(others) + 1))
        assert conditional_variance(cov, y, others[:size]) >= -1e-9


class TestGreedyUnsupervised:
    def test_duplicate_representative_selected_first(self, rng):
        base = one_hot_block(rng.integers(0, 2, 50), 2)
        other = one_hot_block(rng.integers(0, 2, 50), 2)
        bs = BlockSet.from_blocks([base, base.copy(), base.copy(), other])
        result = select_blocks(bs, None, 1, "unsup")
        assert result.chosen == [0]

    def test_k_beyond_half_rejected(self, rng):
        bs = random_blockset(8, 20, rng=rng)
        with pytest.raises(InvalidInputError):
            select_blocks(bs, None, 7, "unsup")

    def test_deterministic(self, rng):
        bs = random_blockset(8, 40, rng=rng)
        first, again = (select_blocks(bs, None, 3, "unsup") for _ in range(2))
        assert first.chosen == again.chosen

    def test_near_optimality_small_instance(self):
        rng = np.random.default_rng(42)
        bs, _ = treelike_blockset(8, 120, 4, 0.1, rng)
        cov = block_covariance(bs)
        greedy_value = set_mutual_information(cov, select_blocks(bs, None, 3, "unsup").chosen)
        best = exhaustive_select(bs, None, 3, "unsup").gains[0]
        assert greedy_value >= (1 - 1 / math.e) * best - 1e-9


class TestLabelMi:
    def test_perfect_block_reaches_class_entropy(self):
        labels = np.array([0] * 500 + [1] * 500)
        block = one_hot_block((labels == 1).astype(int), 2)
        bs = BlockSet.from_blocks([block, block.copy()])
        assert label_mi([0], bs, labels) == pytest.approx(math.log(2))

    def test_constant_block_zero(self):
        labels = np.array([0, 0, 1, 1])
        bs = BlockSet.from_blocks([one_hot_block([0, 0, 0, 0], 2),
                                   one_hot_block([0, 1, 0, 1], 2)])
        assert label_mi([0], bs, labels) == pytest.approx(0.0, abs=1e-12)

    def test_label_independent_block_small(self):
        rng = np.random.default_rng(0)
        labels = np.asarray(rng.integers(0, 2, 1000))
        block = one_hot_block(rng.integers(0, 2, 1000), 2)
        bs = BlockSet.from_blocks([block, block.copy()])
        assert label_mi([0], bs, labels) <= 0.05

    def test_empty_selection(self, rng):
        bs = random_blockset(3, 10, rng=rng)
        assert label_mi([], bs, np.zeros(10, dtype=int)) == 0.0

    @given(st.integers(0, 2000))
    @settings(max_examples=40, deadline=None)
    def test_bounded_and_monotone(self, seed):
        rng = np.random.default_rng(seed)
        bs = random_blockset(5, 40, rng=rng)
        labels = np.asarray(rng.integers(0, 3, 40))
        h_c = 0.0
        for c in np.unique(labels):
            p = np.mean(labels == c)
            h_c -= p * math.log(p)
        previous = 0.0
        for size in range(1, 5):
            mi = label_mi(list(range(size)), bs, labels)
            assert -1e-12 <= mi <= h_c + 1e-12
            assert mi >= previous - 1e-12
            previous = mi


class TestGreedySupervised:
    def test_label_matching_block_wins(self, rng):
        labels = np.asarray(rng.integers(0, 2, 200))
        perfect = one_hot_block(labels, 2)
        const = one_hot_block(np.zeros(200, dtype=int), 2)
        bs = BlockSet.from_blocks([const, perfect, const.copy()])
        assert select_blocks(bs, labels, 1, "sup").chosen == [1]

    def test_jointly_determining_pair(self, rng):
        labels = np.repeat([0, 1, 2, 3], 100)
        high = one_hot_block((labels >= 2).astype(int), 2)
        low = one_hot_block(labels % 2, 2)
        noise = one_hot_block(rng.integers(0, 2, 400), 2)
        bs = BlockSet.from_blocks([noise, high, low])
        assert sorted(select_blocks(bs, labels, 2, "sup").chosen) == [1, 2]

    def test_k_zero_empty(self, rng):
        bs = random_blockset(4, 20, rng=rng)
        result = select_blocks(bs, np.zeros(20, dtype=int), 0, "sup")
        assert result.chosen == [] and result.gains == []

    def test_missing_labels_rejected(self, rng):
        bs = random_blockset(4, 20, rng=rng)
        with pytest.raises(InvalidInputError):
            select_blocks(bs, None, 2, "sup")


class TestArgumentChecks:
    """Labels are checked as LabeledDataset checks them, one per block
    column, and k is an integer, in every selector and estimate_lambda."""

    SELECTORS = {
        "sup": lambda bs, labels, k: select_blocks(bs, labels, k, "sup"),
        "semi": lambda bs, labels, k: select_blocks(bs, labels, k, "semi"),
        "semi-lambda": lambda bs, labels, k: greedy_semisupervised(bs, labels, k, lam=1.0),
        "estimate_lambda": lambda bs, labels, k: estimate_lambda(bs, labels),
    }
    BAD_LABELS = {"0-d": 5, "2-D": [[0], [1]] * 10, "fractional": [0, 0.5] * 10,
                  "text": ["a", "b"] * 10}

    @pytest.mark.parametrize("select", SELECTORS.values(), ids=SELECTORS)
    @pytest.mark.parametrize("labels", BAD_LABELS.values(), ids=BAD_LABELS)
    def test_labels_that_are_not_integers_raise(self, rng, select, labels):
        bs = random_blockset(4, 20, rng=rng)
        with pytest.raises(InvalidInputError, match="one integer per block column, 20 in all"):
            select(bs, labels, 2)

    @pytest.mark.parametrize("mode", ["unsup", "sup", "semi"])
    @pytest.mark.parametrize("k", [2.5, "2", None])
    def test_k_that_is_not_an_integer_raises(self, rng, mode, k):
        bs = random_blockset(4, 20, rng=rng)
        with pytest.raises(InvalidInputError, match="^k must be an integer"):
            select_blocks(bs, np.arange(20) % 2, k, mode)

    @pytest.mark.parametrize("mode", ["unsup", "sup", "semi"])
    def test_k_of_any_integer_type_selects(self, rng, mode):
        bs = random_blockset(4, 20, rng=rng)
        labels = np.arange(20) % 2
        expected = select_blocks(bs, labels, 2, mode)
        for k in (np.int64(2), np.uint8(2)):
            assert select_blocks(bs, labels, k, mode) == expected


class TestEstimateLambda:
    def test_constant_blocks_fall_back_to_zero(self):
        labels = np.array([0, 0, 1, 1])
        const = one_hot_block([0, 0, 0, 0], 2)
        bs = BlockSet.from_blocks([const, const.copy()])
        assert estimate_lambda(bs, labels) == 0.0

    def test_equals_ratio_of_best_single_block_scores(self, rng):
        bs, labels = treelike_blockset(6, 150, 3, 0.1, rng)
        cov = block_covariance(bs)
        m = bs.n_blocks
        best_unsup = max(
            unsupervised_gain(cov, y, []) for y in range(m)
        )
        best_sup = max(label_mi([y], bs, labels) for y in range(m))
        lam = estimate_lambda(bs, labels)
        assert lam == pytest.approx(max(best_unsup, 0.0) / best_sup)

    def test_duplicate_heavy_weak_labels_large_lambda(self, rng):
        base = one_hot_block(rng.integers(0, 2, 300), 2)
        labels = np.asarray(rng.integers(0, 2, 300))  # independent of codes
        bs = BlockSet.from_blocks([base, base.copy(), base.copy(),
                                   one_hot_block(rng.integers(0, 2, 300), 2)])
        assert estimate_lambda(bs, labels) > 10.0


class TestGreedySemiSupervised:
    def test_lambda_zero_reduces_to_unsupervised(self, rng):
        bs, labels = treelike_blockset(8, 100, 4, 0.15, rng)
        semi = greedy_semisupervised(bs, labels, 3, lam=0.0)
        assert semi.chosen == select_blocks(bs, None, 3, "unsup").chosen

    def test_runs_on_one_blas_thread_and_restores_the_count(self, rng, monkeypatch):
        threads = blas_module._openblas_threads()
        if threads is None:
            pytest.skip("numpy bundles no OpenBLAS with a thread-count getter")
        get_threads, set_threads = threads
        solve, seen = np.linalg.solve, []

        def recording_solve(a, b):
            seen.append(get_threads())
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        bs, labels = treelike_blockset(8, 100, 4, 0.15, rng)
        before = get_threads()
        # two threads in the caller, whatever the machine's default
        set_threads(2)
        try:
            greedy_semisupervised(bs, labels, 3)
            assert seen and set(seen) == {1}
            assert get_threads() == 2
        finally:
            set_threads(before)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, -1.0, -1e-300, "1"])
    def test_lambda_that_is_not_finite_or_is_negative_rejected(self, rng, lam):
        bs, labels = treelike_blockset(8, 100, 4, 0.15, rng)
        with pytest.raises(InvalidInputError,
                           match=r"^lambda must be a finite number >= 0, got "):
            greedy_semisupervised(bs, labels, 3, lam=lam)
        with pytest.raises(InvalidInputError,
                           match=r"^lambda must be a finite number >= 0, got "):
            select_blocks(bs, labels, 3, "semi", lam)

    def test_huge_lambda_reduces_to_supervised(self, rng):
        bs, labels = treelike_blockset(8, 100, 4, 0.15, rng)
        semi = greedy_semisupervised(bs, labels, 3, lam=1e6)
        assert semi.chosen == select_blocks(bs, labels, 3, "sup").chosen

    @given(mode=st.sampled_from(["unsup", "sup", "semi", "semi-subsets"]),
           m=st.integers(4, 8), n=st.integers(30, 100), classes=st.integers(2, 4),
           flip=st.floats(0.0, 0.3), lam=st.floats(0.0, 4.0), seed=st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_matches_hand_computed_scores(self, mode, m, n, classes, flip, lam, seed):
        # every selector against a greedy loop rebuilt from the public scores
        bs, labels = treelike_blockset(m, n, classes, flip, np.random.default_rng(seed))
        k = m // 2
        unlabeled = labeled = None
        if mode == "semi-subsets":
            unlabeled, labeled = np.arange(n // 2), np.arange(n // 2, n)
            lam = estimate_lambda(bs, labels, unlabeled, labeled)
        cov = block_covariance(bs, unlabeled) if mode != "sup" else None
        lab_bs, lab = bs, labels
        if labeled is not None:
            lab_bs = BlockSet.from_blocks([one_hot_block(ids[labeled], bs.leaf_count)
                                           for ids in bs.leaf_ids])
            lab = labels[labeled]

        chosen, gains = [], []
        for _ in range(k):
            best_y, best_score = -1, -np.inf
            current_mi = label_mi(chosen, lab_bs, lab)
            for y in range(m):
                if y in chosen:
                    continue
                mi_gain = label_mi(chosen + [y], lab_bs, lab) - current_mi
                if mode == "unsup":
                    score = unsupervised_gain(cov, y, chosen)
                elif mode == "sup":
                    score = mi_gain
                else:
                    score = unsupervised_gain(cov, y, chosen) + lam * mi_gain
                if score > best_score:
                    best_y, best_score = y, score
            chosen.append(best_y)
            gains.append(best_score)

        if mode == "unsup":
            result = select_blocks(bs, None, k, "unsup")
        elif mode == "sup":
            result = select_blocks(bs, labels, k, "sup")
        elif mode == "semi":
            result = greedy_semisupervised(bs, labels, k, lam=lam)
        else:
            result = greedy_semisupervised(bs, labels, k, unlabeled=unlabeled,
                                           labeled=labeled)
            assert result.lam == lam
        assert result.chosen == chosen
        np.testing.assert_allclose(result.gains, gains, rtol=0, atol=1e-12)

    def test_records_lambda(self, rng):
        bs, labels = treelike_blockset(6, 80, 3, 0.1, rng)
        result = greedy_semisupervised(bs, labels, 2)
        assert result.lam is not None and result.lam >= 0.0

    def test_disjoint_labeled_and_unlabeled_samples(self, rng):
        # the two criteria may be estimated on different sample subsets
        bs, labels = treelike_blockset(6, 120, 3, 0.1, rng)
        unlabeled = np.arange(0, 80)
        labeled = np.arange(80, 120)
        result = greedy_semisupervised(bs, labels, 2,
                                       unlabeled=unlabeled, labeled=labeled)
        assert len(result.chosen) == 2
        assert len(set(result.chosen)) == 2
        again = greedy_semisupervised(bs, labels, 2,
                                      unlabeled=unlabeled, labeled=labeled)
        assert result.chosen == again.chosen


class TestColumnSubsets:
    """``samples``, ``unlabeled`` and ``labeled`` name columns: integers in
    0..N-1, whatever their integer type."""

    N = 40
    CALLS = {
        "block_covariance(samples=)": ("samples", lambda bs, y, v: block_covariance(bs, v)),
        "estimate_lambda(unlabeled=)": (
            "unlabeled", lambda bs, y, v: estimate_lambda(bs, y, unlabeled=v)),
        "estimate_lambda(labeled=)": (
            "labeled", lambda bs, y, v: estimate_lambda(bs, y, labeled=v)),
        "greedy_semisupervised(unlabeled=)": (
            "unlabeled", lambda bs, y, v: greedy_semisupervised(bs, y, 2, unlabeled=v)),
        "greedy_semisupervised(unlabeled=, lam=)": (
            "unlabeled", lambda bs, y, v: greedy_semisupervised(bs, y, 2, 1.0, unlabeled=v)),
        "greedy_semisupervised(labeled=)": (
            "labeled", lambda bs, y, v: greedy_semisupervised(bs, y, 2, labeled=v)),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("value", [[N], [0, N + 5], [1.5], np.array([2.0, 3.0]),
                                       [-1, 3], [[0, 1], [2, 3]], 3, ["1"], [None],
                                       [True, False] * (N // 2)],
                             ids=["N", "past N", "float", "float array", "negative", "2-D",
                                  "scalar", "text", "None", "mask"])
    def test_value_that_is_not_column_indices_is_named(self, rng, call, value):
        bs, labels = treelike_blockset(6, self.N, 3, 0.1, rng)
        name, fn = self.CALLS[call]
        with pytest.raises(InvalidInputError,
                           match=f"^{name} must be column indices in 0..{self.N - 1}$"):
            fn(bs, labels, value)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_integer_indices_of_any_type_select_the_same_columns(self, rng, call):
        bs, labels = treelike_blockset(6, self.N, 3, 0.1, rng)
        _, fn = self.CALLS[call]
        cols = list(range(0, self.N, 3)) + [self.N - 1]
        want = fn(bs, labels, np.array(cols))
        for value in (cols, np.array(cols, dtype=np.uint8), np.array(cols, dtype=np.int32),
                      [np.int64(c) for c in cols]):
            got = fn(bs, labels, value)
            if isinstance(want, np.ndarray):
                np.testing.assert_array_equal(got, want)
            else:
                assert got == want


class TestExhaustiveSelect:
    def test_enumerates_all_subsets(self, rng):
        bs = random_blockset(4, 30, rng=rng)
        result = exhaustive_select(bs, None, 2, "unsup")
        assert len(result.chosen) == 2
        assert math.comb(4, 2) == 6  # within the limit by construction

    def test_combinatorial_limit(self, rng):
        bs = random_blockset(40, 10, rng=rng)
        with pytest.raises(InvalidInputError):
            exhaustive_select(bs, None, 20, "unsup")

    def test_agrees_with_greedy_on_easy_instance(self, rng):
        labels = np.repeat([0, 1], 100)
        perfect = one_hot_block(np.repeat([0, 1], 100), 2)
        noise = [one_hot_block(rng.integers(0, 2, 200), 2) for _ in range(3)]
        bs = BlockSet.from_blocks([noise[0], perfect, noise[1], noise[2]])
        greedy = select_blocks(bs, labels, 1, "sup")
        exact = exhaustive_select(bs, labels, 1, "sup")
        assert greedy.chosen == exact.chosen == [1]


class TestSubmodularity:
    @given(st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_diminishing_returns(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(5, 9))
        bs = random_blockset(m, int(rng.integers(20, 60)), rng=rng)
        cov = block_covariance(bs)
        perm = rng.permutation(m)
        y = int(perm[0])
        rest = [int(i) for i in perm[1:]]
        b_size = int(rng.integers(1, max(2, m - 2)))
        a_size = int(rng.integers(0, b_size + 1))
        larger = rest[:b_size]
        smaller = larger[:a_size]
        assert unsupervised_gain(cov, y, smaller) >= unsupervised_gain(cov, y, larger) - 1e-6


class TestSelectionEarnsItsPlace:
    """The semi-supervised selection retrieves better than blocks drawn at
    random.  A selection that fell back to arbitrary blocks would pass every
    other check."""

    PER_CLASS, GALLERY, TREES, K, DRAWS = 40, 25, 32, 6, 20
    # On seeds 0-15 of this set, the mean mAP of 20 random draws of 6 blocks
    # was 0.24-0.31, and one draw spread about 0.02 (sd) around it.  The
    # selection beat that mean by 0.048-0.110, and blocks 0..5 by -0.025 to
    # 0.043; on seeds 0-3, by 0.059-0.096 and -0.016 to 0.004.
    MARGIN = 0.04

    @pytest.mark.parametrize("seed", range(4))
    def test_semi_supervised_selection_beats_random_blocks(self, seed):
        ds = gen_synthetic(SyntheticSpec(kind="subspaces", class_count=10, ambient_dim=12,
                                         intrinsic_dim=3, noise=0.2,
                                         samples_per_class=self.PER_CLASS, seed=seed))
        # per class, the first columns train the forest and are the gallery;
        # the rest are the queries
        in_gallery = np.arange(ds.n_samples) % self.PER_CLASS < self.GALLERY
        gallery, queries = (LabeledDataset(ds.features[:, cols], ds.labels[cols])
                            for cols in (in_gallery, ~in_gallery))
        cfg = ForestConfig(split=SplitConfig(
            learner="linear", atoms=4, sparsity=2,
            optimizer=OptimizerConfig(max_iters=30, geometry_iters=15)))
        forest = train_forest(gallery, self.TREES, depth=2, cfg=cfg, master_seed=seed)
        blocks = encode_dataset(forest, gallery.features)
        query_blocks = encode_dataset(forest, queries.features)

        def score(chosen):
            index = HammingIndex(pack_codes(blocks, chosen), gallery.labels)
            return mean_average_precision(index, pack_codes(query_blocks, chosen),
                                          queries.labels)

        selection = select_blocks(BlockSet.from_blocks(blocks), gallery.labels, self.K, "semi")
        rng = np.random.default_rng(seed)
        random_maps = [score(rng.choice(self.TREES, self.K, replace=False))
                       for _ in range(self.DRAWS)]
        assert score(selection.chosen) > np.mean(random_maps) + self.MARGIN
