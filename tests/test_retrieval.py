import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leafhash import (
    HammingIndex,
    HashCode,
    InvalidInputError,
    PackedCodes,
    mean_average_precision,
    pack_codes,
    precision_recall_at_radius,
    radius_query,
    rank_query,
)

from conftest import one_hot_block
from oracles import hamming, unpack_codes


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

    @pytest.mark.parametrize("bad", [-1, 3, 5])
    def test_block_index_out_of_range_rejected(self, rng, bad):
        # a negative index would otherwise pack a block from the end
        blocks = [one_hot_block(rng.integers(0, 2, 5), 2) for _ in range(3)]
        with pytest.raises(InvalidInputError,
                           match=rf"^selection entry 1 is block {bad}, outside 0\.\.2$"):
            pack_codes(blocks, [0, bad])

    @pytest.mark.parametrize("bad", [1.0, np.float64(0.0), "1", None])
    def test_block_index_that_is_not_an_integer_rejected(self, rng, bad):
        # 1.0 is in range, but a list cannot be indexed by it
        blocks = [one_hot_block(rng.integers(0, 2, 5), 2) for _ in range(3)]
        with pytest.raises(InvalidInputError,
                           match=r"^selection entry 1 must be an integer, got "):
            pack_codes(blocks, [0, bad])

    def test_padding_is_zero(self, rng):
        blocks = [one_hot_block(rng.integers(0, 2, 5), 2) for _ in range(3)]
        packed = pack_codes(blocks, [0, 1, 2])  # L = 6
        assert np.all(packed.words >> np.uint64(6) == 0)

    @given(leaf_count=st.integers(1, 64), n=st.integers(0, 300), m=st.integers(1, 5),
           dtype=st.sampled_from([np.uint8, bool, np.int64, np.float64]),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_codes_are_the_selected_blocks_bits_end_to_end(self, leaf_count, n, m, dtype,
                                                          seed, data):
        # any leaf count, so bits straddle words, and selections that repeat blocks
        rng = np.random.default_rng(seed)
        blocks = [one_hot_block(rng.integers(0, leaf_count, n), leaf_count).astype(dtype)
                  for _ in range(m)]
        order = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=12),
                          label="selection")
        packed = pack_codes(blocks, order)
        assert packed.length == len(order) * leaf_count
        assert packed.words.shape == (n, (packed.length + 63) // 64)
        np.testing.assert_array_equal(unpack_codes(packed),
                                      np.vstack([blocks[b] for b in order]).astype(np.uint8))
        tail = packed.length % 64
        if tail:
            assert np.all(packed.words[:, -1] >> np.uint64(tail) == 0)

    @pytest.mark.parametrize("fault", [[[1, 0], [1, 1]], [[0, 0], [1, 0]],
                                       [[2, 0], [0, 1]], [[1, 0]]])
    def test_selected_block_that_is_not_one_hot_is_named_by_its_index(self, fault):
        # [[1, 0], [1, 1]] once packed as word 1, where its columns read 3
        blocks = [one_hot_block([0, 1], 2), one_hot_block([1, 1], 2), np.array(fault)]
        with pytest.raises(InvalidInputError, match=r"^block 2 "):
            pack_codes(blocks, [1, 0, 2, 1])
        # a block that is not selected is not read
        assert pack_codes(blocks, [1, 0]).length == 4

    @pytest.mark.parametrize("ones", [2, 257, 513])
    def test_column_whose_ones_would_wrap_a_byte_count_rejected(self, ones):
        # 257 ones counted in a uint8 would read 1
        block = np.zeros((600, 2), dtype=np.uint8)
        block[:ones, 0] = 1
        block[0, 1] = 1
        with pytest.raises(InvalidInputError, match="^block 0 is not one-hot "):
            pack_codes([block], [0])

    def test_blocks_of_no_rows_rejected(self):
        # no leaf to be 1 in: once numpy's ValueError from argmax
        with pytest.raises(InvalidInputError, match="^block 1 is not one-hot "):
            pack_codes([np.zeros((0, 0)), np.zeros((0, 0))], [1, 0])

    def test_single_code_bit_view(self):
        c = HashCode(words=np.array([0b1011], dtype=np.uint64), length=4)
        one = PackedCodes(words=c.words[None, :], length=c.length)
        np.testing.assert_array_equal(unpack_codes(one)[:, 0], [1, 1, 0, 1])


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


    @pytest.mark.parametrize("length", [-5, -64, -65])
    def test_negative_length_rejected(self, length):
        words = np.zeros(0, dtype=np.uint64)
        with pytest.raises(InvalidInputError, match=rf"^code length must be >= 0, got {length}$"):
            HashCode(words=words, length=length)
        with pytest.raises(InvalidInputError, match=rf"^code length must be >= 0, got {length}$"):
            PackedCodes(words=words.reshape(2, 0), length=length)

    @pytest.mark.parametrize("length", [1.5, 10.0, "10"])
    def test_length_that_is_not_an_integer_rejected(self, length):
        with pytest.raises(InvalidInputError, match=r"^code length must be an integer"):
            HashCode(words=np.zeros(1, dtype=np.uint64), length=length)
        with pytest.raises(InvalidInputError, match=r"^code length must be an integer"):
            PackedCodes(words=np.zeros((2, 1), dtype=np.uint64), length=length)

    @pytest.mark.parametrize("words", [[-1], np.array([-1], dtype=np.int64), [2**64],
                                       [2**70], [1.5], np.array([1.0]), ["1"], [None],
                                       np.array([1j]), [2**63, -1]])
    def test_words_that_are_not_integers_in_range_rejected(self, words):
        # once an OverflowError, ValueError or TypeError, or [1.5] read as 1
        with pytest.raises(InvalidInputError,
                           match=r"^code words must be integers in 0\.\.2\^64-1$"):
            HashCode(words=words, length=64)
        with pytest.raises(InvalidInputError,
                           match=r"^code words must be integers in 0\.\.2\^64-1$"):
            PackedCodes(words=words[None, :] if isinstance(words, np.ndarray) else [words],
                        length=64)

    @pytest.mark.parametrize("words", [[2**64 - 1], [2**63], np.array([5], dtype=np.int8),
                                       np.array([2**64 - 1], dtype=np.uint64), 7,
                                       np.uint64(7), [np.int64(7)], [True]])
    def test_integer_words_in_range_build(self, words):
        code = HashCode(words=words, length=64)
        assert code.words.dtype == np.uint64
        assert code.words.tolist() == [int(np.asarray(words, dtype=object).ravel()[0])]
        codes = PackedCodes(words=[[2**63, 5], [0, 2**64 - 1]], length=128)
        assert codes.words.tolist() == [[2**63, 5], [0, 2**64 - 1]]

    def test_zero_length_and_numpy_integer_lengths_build(self):
        assert len(PackedCodes(words=np.zeros((3, 0), dtype=np.uint64), length=0)) == 3
        code = HashCode(words=np.ones(1, dtype=np.uint64), length=np.uint32(1))
        assert code.length == 1 and code.words.tolist() == [1]


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

    @pytest.mark.parametrize("radius", ["2", None, 1.5, np.float64(1.0)])
    def test_radius_that_is_not_an_integer_rejected(self, radius):
        idx = HammingIndex(codes=codes_from_values([5, 9, 5, 7]))
        with pytest.raises(InvalidInputError, match="^radius must be an integer"):
            radius_query(idx, code(5), radius)

    def test_integer_radius_of_any_integer_type_queries(self):
        idx = HammingIndex(codes=codes_from_values([0b0000, 0b0001, 0b0011], length=4))
        for radius in (1, np.int64(1), np.uint8(1)):
            np.testing.assert_array_equal(radius_query(idx, code(0, 4), radius), [0, 1])

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

    @pytest.mark.parametrize("radius", ["2", None, 1.5])
    def test_radius_that_is_not_an_integer_rejected(self, radius):
        idx = HammingIndex(codes=codes_from_values([2, 3, 9], length=4),
                           labels=np.array([0, 1, 0]))
        with pytest.raises(InvalidInputError, match="^radius must be an integer"):
            precision_recall_at_radius(idx, codes_from_values([2], length=4), [0], radius)

    def test_empty_query_set_rejected(self):
        idx = HammingIndex(codes=codes_from_values([2, 3, 9], length=4),
                           labels=np.array([0, 1, 0]))
        with pytest.raises(InvalidInputError, match="query set is empty"):
            precision_recall_at_radius(idx, codes_from_values([], length=4),
                                       np.array([], dtype=np.int64), 1)


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

    def test_empty_query_set_rejected(self):
        idx = HammingIndex(codes=codes_from_values([0b0, 0b1, 0b11], length=3),
                           labels=np.array([0, 1, 0]))
        with pytest.raises(InvalidInputError, match="query set is empty"):
            mean_average_precision(idx, codes_from_values([], length=3),
                                   np.array([], dtype=np.int64))
