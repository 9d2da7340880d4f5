import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leafhash import (
    HammingIndex,
    HashCode,
    InvalidInputError,
    PackedCodes,
    hamming,
    mean_average_precision,
    pack_codes,
    precision_recall_at_radius,
    radius_query,
    rank_query,
    unpack_codes,
)

from conftest import one_hot_block


def code(value, length=8):
    return HashCode(words=np.array([value], dtype=np.uint64), length=length)


def codes_from_values(values, length=8):
    words = np.array(values, dtype=np.uint64)[:, None]
    return PackedCodes(words=words, length=length)


def random_codes(n, length, rng):
    words = rng.integers(0, 2**length, size=(n, 1), dtype=np.uint64)
    return PackedCodes(words=words, length=length)


class TestPackCodes:
    def test_single_depth2_block_layout(self):
        block = np.array([[1], [0]], dtype=np.uint8)
        packed = pack_codes([block], [0])
        assert packed.length == 2
        assert packed.words[0, 0] == 0b01  # bit 0 = first leaf

    def test_two_blocks_concatenate(self):
        b1 = np.array([[1], [0]], dtype=np.uint8)
        b2 = np.array([[0], [1]], dtype=np.uint8)
        packed = pack_codes([b1, b2], [0, 1])
        assert packed.words[0, 0] == 0b1001

    def test_round_trip(self, rng):
        blocks = [one_hot_block(rng.integers(0, 4, 10), 4) for _ in range(3)]
        order = [2, 0]
        packed = pack_codes(blocks, order)
        np.testing.assert_array_equal(unpack_codes(packed),
                                      np.vstack([blocks[2], blocks[0]]))

    def test_empty_selection_rejected(self, rng):
        with pytest.raises(InvalidInputError):
            pack_codes([one_hot_block([0], 2)], [])

    def test_padding_is_zero(self, rng):
        blocks = [one_hot_block(rng.integers(0, 2, 5), 2) for _ in range(3)]
        packed = pack_codes(blocks, [0, 1, 2])  # L = 6
        assert np.all(packed.words >> np.uint64(6) == 0)

    def test_single_code_bit_view(self):
        c = HashCode(words=np.array([0b1011], dtype=np.uint64), length=4)
        np.testing.assert_array_equal(c.bits(), [1, 1, 0, 1])


class TestCodeWords:
    """A code copies its words: the caller's array is neither changed nor
    shared, and may be read-only."""

    def test_construction_leaves_the_callers_words_alone(self):
        words = np.full((2, 1), 2**64 - 1, dtype=np.uint64)
        codes = PackedCodes(words=words, length=10)
        one = HashCode(words=words[0], length=10)
        assert np.all(words == 2**64 - 1)
        words[:] = 0
        assert np.all(codes.words == 2**10 - 1) and np.all(one.words == 2**10 - 1)

    def test_read_only_words_build(self):
        raw = np.full(2, 2**64 - 1, dtype=np.uint64).tobytes()
        codes = PackedCodes(words=np.frombuffer(raw, np.uint64).reshape(2, 1), length=10)
        one = HashCode(words=np.frombuffer(raw, np.uint64, count=1), length=10)
        assert np.all(codes.words == 2**10 - 1) and np.all(one.words == 2**10 - 1)
        assert codes.code(1).words.tolist() == [2**10 - 1]


class TestHamming:
    def test_identical(self):
        assert hamming(code(0b1010), code(0b1010)) == 0

    def test_full_complement_36_bits(self):
        all_ones = HashCode(words=np.array([(1 << 36) - 1], dtype=np.uint64), length=36)
        zeros = HashCode(words=np.array([0], dtype=np.uint64), length=36)
        assert hamming(all_ones, zeros) == 36

    def test_two_bits_differ(self):
        assert hamming(code(0b1001, 4), code(0b0011, 4)) == 2

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            hamming(code(1, 4), code(1, 5))

    @given(st.integers(0, 2**20 - 1), st.integers(0, 2**20 - 1),
           st.integers(0, 2**20 - 1))
    @settings(max_examples=100, deadline=None)
    def test_metric_axioms(self, a, b, c):
        ca, cb, cc = code(a, 20), code(b, 20), code(c, 20)
        assert hamming(ca, cb) == hamming(cb, ca)
        assert (hamming(ca, cb) == 0) == (a == b)
        assert hamming(ca, cc) <= hamming(ca, cb) + hamming(cb, cc)


class TestQueries:
    def test_radius_zero_exact_matches(self):
        idx = HammingIndex(codes=codes_from_values([5, 9, 5, 7]))
        np.testing.assert_array_equal(radius_query(idx, code(5), 0), [0, 2])

    def test_radius_monotone(self, rng):
        idx = HammingIndex(codes=random_codes(50, 12, rng))
        q = HashCode(words=rng.integers(0, 2**12, size=1, dtype=np.uint64), length=12)
        r0 = set(radius_query(idx, q, 0).tolist())
        r2 = set(radius_query(idx, q, 2).tolist())
        assert r0 <= r2

    def test_empty_result_ok(self):
        idx = HammingIndex(codes=codes_from_values([0b1111], length=4))
        assert radius_query(idx, code(0, 4), 0).size == 0

    def test_rank_orders_by_distance_then_id(self):
        idx = HammingIndex(codes=codes_from_values([0b111, 0b000, 0b001], length=3))
        np.testing.assert_array_equal(rank_query(idx, code(0, 3)), [1, 2, 0])

    def test_rank_all_ties_identity_order(self):
        idx = HammingIndex(codes=codes_from_values([3, 3, 3], length=4))
        np.testing.assert_array_equal(rank_query(idx, code(3, 4)), [0, 1, 2])

    def test_rank_singleton(self):
        idx = HammingIndex(codes=codes_from_values([7]))
        np.testing.assert_array_equal(rank_query(idx, code(0)), [0])

    def test_matches_naive_scan(self, rng):
        gallery = random_codes(200, 16, rng)
        idx = HammingIndex(codes=gallery)
        q = gallery.code(3)
        for r in (0, 2, 5):
            naive = [i for i in range(len(gallery))
                     if hamming(gallery.code(i), q) <= r]
            np.testing.assert_array_equal(radius_query(idx, q, r), naive)


class TestCrossModuleIdentities:
    @given(st.integers(0, 3000))
    @settings(max_examples=30, deadline=None)
    def test_packed_hamming_counts_leaf_mismatches(self, seed):
        # packing one-hot blocks: two codes differ by exactly two bits per
        # tree whose leaves disagree
        rng = np.random.default_rng(seed)
        leaves = rng.integers(0, 4, size=(3, 12))
        blocks = [one_hot_block(leaves[t], 4) for t in range(3)]
        packed = pack_codes(blocks, [0, 1, 2])
        i, j = rng.integers(0, 12, size=2)
        mismatches = int((leaves[:, i] != leaves[:, j]).sum())
        assert hamming(packed.code(i), packed.code(j)) == 2 * mismatches

    def test_block_covariance_matches_code_distance(self, rng):
        # the aggregation covariance and the packed-code Hamming distance
        # are two routes to the same quantity
        from leafhash import BlockSet, block_covariance
        leaves = rng.integers(0, 2, size=(2, 40))
        blocks = [one_hot_block(leaves[t], 2) for t in range(2)]
        cov = block_covariance(BlockSet.from_blocks(blocks))
        a = pack_codes([blocks[0]], [0])
        b = pack_codes([blocks[1]], [0])
        d_h = sum(hamming(a.code(i), b.code(i)) for i in range(40))
        assert cov.sigma[0, 1] == pytest.approx(np.exp(-d_h / 40.0))


class TestPrecisionRecall:
    def test_half_right(self):
        # gallery: 4 items, 2 relevant; retrieval at r=1 catches one of each
        gallery = codes_from_values([0b0000, 0b0001, 0b0110, 0b1111], length=4)
        idx = HammingIndex(codes=gallery, labels=np.array([1, 0, 1, 0]))
        queries = codes_from_values([0b0000], length=4)
        p, r = precision_recall_at_radius(idx, queries, np.array([1]), 1)
        assert p == pytest.approx(0.5)
        assert r == pytest.approx(0.5)

    def test_empty_retrieval_zero(self):
        gallery = codes_from_values([0b1111], length=4)
        idx = HammingIndex(codes=gallery, labels=np.array([1]))
        queries = codes_from_values([0b0000], length=4)
        p, r = precision_recall_at_radius(idx, queries, np.array([1]), 0)
        assert (p, r) == (0.0, 0.0)

    def test_perfect_retrieval(self):
        gallery = codes_from_values([2, 2, 9], length=4)
        idx = HammingIndex(codes=gallery, labels=np.array([1, 1, 0]))
        queries = codes_from_values([2], length=4)
        p, r = precision_recall_at_radius(idx, queries, np.array([1]), 0)
        assert (p, r) == (1.0, 1.0)

    def test_query_without_relevant_skipped_in_recall(self):
        gallery = codes_from_values([2, 3], length=4)
        idx = HammingIndex(codes=gallery, labels=np.array([0, 0]))
        queries = codes_from_values([2, 2], length=4)
        p, r = precision_recall_at_radius(idx, queries, np.array([9, 0]), 0)
        assert p == pytest.approx(0.5)  # one query hits, one retrieves wrong class
        assert r == pytest.approx(0.5)  # only the second query has relevant items


class TestMeanAveragePrecision:
    def test_perfect_ranking(self):
        gallery = codes_from_values([0b0, 0b1, 0b11, 0b111], length=3)
        idx = HammingIndex(codes=gallery, labels=np.array([1, 1, 0, 0]))
        queries = codes_from_values([0b0], length=3)
        assert mean_average_precision(idx, queries, np.array([1])) == pytest.approx(1.0)

    def test_single_relevant_at_rank_two(self):
        gallery = codes_from_values([0b0, 0b1], length=3)
        idx = HammingIndex(codes=gallery, labels=np.array([0, 1]))
        queries = codes_from_values([0b0], length=3)
        assert mean_average_precision(idx, queries, np.array([1])) == pytest.approx(0.5)

    def test_relevant_at_ranks_one_and_three(self):
        gallery = codes_from_values([0b0, 0b1, 0b11, 0b111], length=3)
        idx = HammingIndex(codes=gallery, labels=np.array([1, 0, 1, 0]))
        queries = codes_from_values([0b0], length=3)
        expected = (1.0 + 2.0 / 3.0) / 2.0
        assert mean_average_precision(idx, queries, np.array([1])) == pytest.approx(expected)

    def test_no_relevant_rejected(self):
        gallery = codes_from_values([0b0], length=3)
        idx = HammingIndex(codes=gallery, labels=np.array([0]))
        queries = codes_from_values([0b0], length=3)
        with pytest.raises(InvalidInputError):
            mean_average_precision(idx, queries, np.array([5]))
