"""Bit-packed Hamming codes, radius/rank queries, and retrieval metrics.

Codes are stored little-endian inside 64-bit words: bit i of a code lives in
word i // 64 at position i % 64, and bit 0 is the first leaf of the first
selected block.  Padding bits beyond the code length are always zero, so
popcounts over whole words need no masking.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


def _words_for(length: int) -> int:
    return (length + 63) // 64


def _as_int(value, what: str) -> int:
    """``value`` as a Python int; InvalidInputError when it is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{what} must be an integer, got {value!r}") from None


def _code_words(words, length, ndim: int):
    """``(words, length)`` checked for codes of ``ndim`` dimensions: the words
    as a C-ordered uint64 copy with the padding bits cleared.  A word that is
    not an integer in ``0..2^64-1`` raises InvalidInputError."""
    length = _as_int(length, "code length")
    if length < 0:
        raise InvalidInputError(f"code length must be >= 0, got {length}")
    # numpy reads a list that holds 2^63 and a smaller int as floats, so a
    # list's words are judged one by one as the Python objects they are
    a = words if isinstance(words, np.ndarray) else np.array(words, dtype=object)
    if a.dtype == object:
        valid = all(isinstance(w, (int, np.integer)) and 0 <= w < 2**64 for w in a.flat)
    else:
        valid = a.dtype.kind == "u" or a.dtype.kind == "i" and not (a < 0).any()
    if not (valid or a.size == 0):
        raise InvalidInputError("code words must be integers in 0..2^64-1")
    words = np.array(a, dtype=np.uint64, order="C", ndmin=1)
    if words.ndim != ndim or words.shape[-1] != _words_for(length):
        raise InvalidInputError(f"expected {ndim}-D words, {_words_for(length)} per code "
                                f"for {length} bits")
    tail = length % 64
    if tail:
        words[..., -1] &= np.uint64((1 << tail) - 1)
    return words, length


@dataclass(frozen=True)
class HashCode:
    """One L-bit code: uint64 word vector plus the bit length.  The words
    are copied, so the caller's array is neither changed nor shared."""

    words: np.ndarray
    length: int

    def __post_init__(self):
        words, length = _code_words(self.words, self.length, 1)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "length", length)


@dataclass
class PackedCodes:
    """A batch of equal-length codes: (n, words) uint64 matrix.  The words
    are copied, so the caller's array is neither changed nor shared."""

    words: np.ndarray
    length: int

    def __post_init__(self):
        self.words, self.length = _code_words(self.words, self.length, 2)

    def __len__(self) -> int:
        return self.words.shape[0]

    def code(self, i: int) -> HashCode:
        return HashCode(words=self.words[i], length=self.length)


def _one_hot_blocks(blocks, names=None) -> np.ndarray:
    """``blocks`` as one (k, leaf_count, N) uint8 array, once each is a 2-D
    array of numbers of the first one's shape and one-hot (binary, one 1 in
    every column); else InvalidInputError names the first that is not by
    ``names`` (or position)."""
    blocks = [np.asarray(b) for b in blocks]
    names = range(len(blocks)) if names is None else names
    if not blocks:
        raise InvalidInputError("no code blocks given")
    shape = blocks[0].shape
    for name, b in zip(names, blocks):
        if b.ndim != 2 or b.shape != shape or b.dtype.kind not in "biuf":
            raise InvalidInputError(f"block {name} is a {b.dtype} array of shape {b.shape}, "
                                    f"expected 2-D numbers of shape {shape}")
    stack = np.stack(blocks)
    ones = (stack == 1).view(np.uint8)
    # each column's ones, counted in uint8 when no count can wrap
    counts = np.einsum("kln->kn", ones, dtype=np.uint8 if shape[0] < 256 else np.int64)
    one_hot = (stack == ones).all(axis=(1, 2)) & (counts == 1).all(axis=1)
    if not one_hot.all() or not shape[0]:
        raise InvalidInputError(f"block {names[np.argmin(one_hot)]} is not one-hot "
                                "(binary, one 1 in every column)")
    return ones


def pack_codes(blocks, order) -> PackedCodes:
    """Pack selected code blocks into L-bit codes, one per sample.

    ``blocks`` is the full list of (leaf_count, N) one-hot blocks and ``order``
    the selected block indices; sample j's code is the concatenation of the
    selected blocks' j-th columns in selection order.  An index outside
    ``0..len(blocks)-1``, or that is not an integer, raises
    InvalidInputError naming its entry, and a selected block that is not
    one-hot (:func:`_one_hot_blocks`) names its index.
    """
    order = [_as_int(b, f"selection entry {t}") for t, b in enumerate(order)]
    if not order:
        raise InvalidInputError("selection is empty")
    blocks = list(blocks)
    for t, b in enumerate(order):
        if not 0 <= b < len(blocks):
            raise InvalidInputError(
                f"selection entry {t} is block {b}, outside 0..{len(blocks) - 1}")
    stack = _one_hot_blocks([blocks[b] for b in order], order)
    length, n = stack.shape[0] * stack.shape[1], stack.shape[2]
    # one zero-padded row of bits per code: bit i lands at bit i % 64 of word i // 64
    bits = np.zeros((n, _words_for(length) * 64), dtype=np.uint8)
    bits[:, :length] = stack.reshape(length, n).T
    return PackedCodes(np.packbits(bits, axis=1, bitorder="little").view("<u8"), length)


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
    radius = _as_int(radius, "radius")
    if radius < 0:
        raise InvalidInputError("radius must be >= 0")
    return np.flatnonzero(idx.distances(q) <= radius)


def rank_query(idx: HammingIndex, q: HashCode) -> np.ndarray:
    """All gallery ids by ascending distance, ties by ascending id."""
    if len(idx) == 0:
        raise InvalidInputError("gallery is empty")
    return np.argsort(idx.distances(q), kind="stable")


def _check_queries(idx, queries, query_labels) -> np.ndarray:
    """``query_labels`` as an array, once the index has labels and the
    queries are neither empty nor of another count than their labels."""
    if idx.labels is None:
        raise InvalidInputError("the index was built without labels")
    if len(queries) == 0:
        raise InvalidInputError("query set is empty")
    query_labels = np.asarray(query_labels)
    if query_labels.shape[0] != len(queries):
        raise InvalidInputError("query labels length does not match the queries")
    return query_labels


def precision_recall_at_radius(idx: HammingIndex, queries: PackedCodes,
                               query_labels, radius: int):
    """Mean per-query precision and recall of radius-r lookup.

    Precision of an empty retrieval counts as 0.  Queries with no relevant
    gallery item are skipped in the recall mean but kept in the precision
    mean.  An empty query set has no mean: InvalidInputError.
    """
    query_labels = _check_queries(idx, queries, query_labels)
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

    Every query must have at least one relevant gallery item, and there
    must be at least one query.
    """
    query_labels = _check_queries(idx, queries, query_labels)
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
