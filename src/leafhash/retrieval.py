"""Bit-packed Hamming codes, radius/rank queries, and retrieval metrics.

Codes are stored little-endian inside 64-bit words: bit i of a code lives in
word i // 64 at position i % 64, and bit 0 is the first leaf of the first
selected block.  Padding bits beyond the code length are always zero, so
popcounts over whole words need no masking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


def _words_for(length: int) -> int:
    return (length + 63) // 64


def _mask_padding(words, length):
    """Zero every bit at position >= length (in place); returns words."""
    tail = length % 64
    if tail:
        words[..., -1] &= np.uint64((1 << tail) - 1)
    return words


@dataclass(frozen=True)
class HashCode:
    """One L-bit code: uint64 word vector plus the bit length.  The words
    are copied, so the caller's array is neither changed nor shared."""

    words: np.ndarray
    length: int

    def __post_init__(self):
        words = np.array(self.words, dtype=np.uint64, order="C", ndmin=1)
        if words.ndim != 1 or words.shape[0] != _words_for(self.length):
            raise InvalidInputError(
                f"expected {_words_for(self.length)} words for {self.length} bits"
            )
        _mask_padding(words, self.length)
        object.__setattr__(self, "words", words)

    def bits(self) -> np.ndarray:
        """Unpacked bit vector, length L, uint8."""
        idx = np.arange(self.length, dtype=np.uint64)
        return ((self.words[idx >> 6] >> (idx & 63)) & 1).astype(np.uint8)


@dataclass
class PackedCodes:
    """A batch of equal-length codes: (n, words) uint64 matrix.  The words
    are copied, so the caller's array is neither changed nor shared."""

    words: np.ndarray
    length: int

    def __post_init__(self):
        self.words = np.array(self.words, dtype=np.uint64, order="C")
        if self.words.ndim != 2 or self.words.shape[1] != _words_for(self.length):
            raise InvalidInputError(
                f"expected (n, {_words_for(self.length)}) words for {self.length} bits"
            )
        _mask_padding(self.words, self.length)

    def __len__(self) -> int:
        return self.words.shape[0]

    def code(self, i: int) -> HashCode:
        return HashCode(words=self.words[i], length=self.length)


def pack_codes(blocks, order) -> PackedCodes:
    """Pack selected code blocks into L-bit codes, one per sample.

    ``blocks`` is the full list of (leaf_count, N) binary blocks and ``order``
    the selected block indices; sample j's code is the concatenation of the
    selected blocks' j-th columns in selection order.
    """
    order = list(order)
    if not order:
        raise InvalidInputError("selection is empty")
    blocks = [np.asarray(b, dtype=np.uint8) for b in blocks]
    leaf_count, n = blocks[order[0]].shape
    length = len(order) * leaf_count
    words = np.zeros((n, _words_for(length)), dtype=np.uint64)
    rows = np.arange(n)
    for t, b in enumerate(order):
        block = blocks[b]
        if block.shape != (leaf_count, n):
            raise InvalidInputError(f"block {b} shape {block.shape} is inconsistent")
        bitpos = t * leaf_count + block.argmax(axis=0).astype(np.uint64)
        np.bitwise_or.at(
            words, (rows, (bitpos >> 6).astype(np.int64)), np.uint64(1) << (bitpos & 63)
        )
    return PackedCodes(words=words, length=length)


def unpack_codes(codes: PackedCodes) -> np.ndarray:
    """Bit matrix (L, n) uint8; inverse of :func:`pack_codes`' layout."""
    idx = np.arange(codes.length, dtype=np.uint64)
    bits = (codes.words[:, (idx >> 6).astype(np.int64)] >> (idx & 63)) & 1
    return bits.astype(np.uint8).T


def hamming(a: HashCode, b: HashCode) -> int:
    """Number of differing bits between two equal-length codes."""
    if a.length != b.length:
        raise InvalidInputError(f"code lengths differ: {a.length} vs {b.length}")
    return int(np.bitwise_count(a.words ^ b.words).sum())


@dataclass
class HammingIndex:
    """Flat popcount-scan index over a gallery of codes; immutable."""

    codes: PackedCodes
    labels: np.ndarray | None = None

    def __post_init__(self):
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.shape[0] != len(self.codes):
                raise InvalidInputError("labels length does not match the gallery")

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def length(self) -> int:
        return self.codes.length

    def distances(self, q: HashCode) -> np.ndarray:
        if q.length != self.codes.length:
            raise InvalidInputError(
                f"query length {q.length} does not match index ({self.codes.length})"
            )
        return np.bitwise_count(self.codes.words ^ q.words[None, :]).sum(
            axis=1, dtype=np.int64
        )


def radius_query(idx: HammingIndex, q: HashCode, radius: int) -> np.ndarray:
    """Gallery ids within the Hamming radius, ascending id order."""
    if radius < 0:
        raise InvalidInputError("radius must be >= 0")
    return np.flatnonzero(idx.distances(q) <= radius)


def rank_query(idx: HammingIndex, q: HashCode) -> np.ndarray:
    """All gallery ids by ascending distance, ties by ascending id."""
    if len(idx) == 0:
        raise InvalidInputError("gallery is empty")
    return np.argsort(idx.distances(q), kind="stable")


def _require_labels(idx):
    if idx.labels is None:
        raise InvalidInputError("the index was built without labels")


def precision_recall_at_radius(idx: HammingIndex, queries: PackedCodes,
                               query_labels, radius: int):
    """Mean per-query precision and recall of radius-r lookup.

    Precision of an empty retrieval counts as 0.  Queries with no relevant
    gallery item are skipped in the recall mean but kept in the precision
    mean.
    """
    _require_labels(idx)
    query_labels = np.asarray(query_labels)
    if query_labels.shape[0] != len(queries):
        raise InvalidInputError("query labels length does not match the queries")
    precisions = []
    recalls = []
    for i in range(len(queries)):
        retrieved = radius_query(idx, queries.code(i), radius)
        relevant_total = int(np.sum(idx.labels == query_labels[i]))
        if retrieved.size == 0:
            hits = 0
            precisions.append(0.0)
        else:
            hits = int(np.sum(idx.labels[retrieved] == query_labels[i]))
            precisions.append(hits / retrieved.size)
        if relevant_total > 0:
            recalls.append(hits / relevant_total)
    mean_recall = float(np.mean(recalls)) if recalls else 0.0
    return float(np.mean(precisions)), mean_recall


def mean_average_precision(idx: HammingIndex, queries: PackedCodes, query_labels) -> float:
    """Mean over queries of average precision along the full Hamming ranking.

    Every query must have at least one relevant gallery item.
    """
    _require_labels(idx)
    query_labels = np.asarray(query_labels)
    if query_labels.shape[0] != len(queries):
        raise InvalidInputError("query labels length does not match the queries")
    aps = []
    for i in range(len(queries)):
        order = rank_query(idx, queries.code(i))
        rel = (idx.labels[order] == query_labels[i]).astype(np.float64)
        n_rel = rel.sum()
        if n_rel == 0:
            raise InvalidInputError(f"query {i} has no relevant gallery item")
        precision_at = np.cumsum(rel) / np.arange(1, rel.size + 1)
        aps.append(float((precision_at * rel).sum() / n_rel))
    return float(np.mean(aps))
