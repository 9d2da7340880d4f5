"""The benchmark's reference computations against hand-computed oracles.

    python3 -m pytest bench/test_reference.py

The galleries and expected values are those of acceptance criterion 8.
"""

import numpy as np
import pytest

import reference as ref

# ten 4-bit items; the distance to the zero query is the number of set bits
VALUES = [0b0, 0b1, 0b11, 0b111, 0b1111, 0b0, 0b1, 0b11, 0b111, 0b1111]
LABELS = np.array([1, 1, 0, 0, 0, 1, 0, 0, 0, 0])


def distances():
    gallery = ref.unpack_bits(np.array(VALUES, dtype=np.uint64)[:, None], 4)
    query = ref.unpack_bits(np.zeros((1, 1), dtype=np.uint64), 4)
    return ref.hamming_distances(query, gallery)


def test_unpack_bits_is_little_endian_across_words():
    words = np.array([[1 | (1 << 63), 0b101]], dtype=np.uint64)
    bits = ref.unpack_bits(words, 67)
    assert np.flatnonzero(bits[0]).tolist() == [0, 63, 64, 66]


def test_distances_and_ranking():
    dist = distances()
    assert dist[0].tolist() == [0, 1, 2, 3, 4, 0, 1, 2, 3, 4]
    assert ref.ranking(dist[0]).tolist() == [0, 5, 1, 6, 2, 7, 3, 8, 4, 9]


def test_precision_recall_at_radius():
    dist = distances()
    q = np.array([1])
    # radius 0 retrieves ids {0, 5}, both relevant, of 3 relevant in total
    assert ref.precision_recall(dist, LABELS, q, 0) == pytest.approx((1.0, 2 / 3), abs=1e-12)
    # radius 1 adds ids {1, 6}: 3 of 4 relevant
    assert ref.precision_recall(dist, LABELS, q, 1) == pytest.approx((3 / 4, 1.0), abs=1e-12)


def test_average_precision():
    dist = distances()
    q = np.array([1])
    assert ref.average_precisions(dist, LABELS, q)[0] == pytest.approx(1.0, abs=1e-12)
    # relevant ids {0, 1, 9} sit at ranks 1, 3 and 10
    hard = np.array([1, 1, 0, 0, 0, 0, 0, 0, 0, 1])
    expected = (1 / 1 + 2 / 3 + 3 / 10) / 3
    assert ref.average_precisions(dist, hard, q)[0] == pytest.approx(expected, abs=1e-12)


def test_label_mi_of_a_block_that_splits_two_balanced_classes():
    labels = np.array([0, 0, 1, 1])
    aligned = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=np.uint8)
    blind = np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.uint8)
    _, mi = ref.first_step_scores([aligned, blind], labels)
    assert mi == pytest.approx([np.log(2.0), 0.0], abs=1e-12)
