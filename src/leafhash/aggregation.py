"""Greedy information-theoretic selection of code blocks.

Given the M per-tree code blocks of a training set, :func:`select_blocks`
selects k of them to form the final hash by one of three criteria:

- unsupervised: a Gaussian model over blocks, whose covariance exp(-d_H/N) is
  a plain (M, M) matrix, scores a candidate by how unpredictable it is from
  the already selected blocks and how predictable the remaining blocks are
  from it;
- supervised: plug-in mutual information between the concatenated selected
  codes and the class labels;
- semi-supervised: the unsupervised gain plus lambda times the supervised
  gain, with lambda estimated as the ratio of the best single-block scores.

All three run one greedy loop with two switchable gain terms, and all are
deterministic: score ties resolve to the lowest block index.  Like training,
the loop and the lambda estimate run on one OpenBLAS thread, on which their
``np.linalg.solve`` calls round the same whatever the caller's thread count,
on every machine of one platform key: the same numpy version and OpenBLAS
core.
The greedy objective has diminishing returns, which keeps the greedy choice
within (1 - 1/e) of the exhaustive optimum; the tests check it against an
exhaustive search over every k-subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from ._blas import _single_blas_thread
from .lowrank import _checked_labels
from .retrieval import _as_int, _one_hot_blocks

JITTER = 1e-8
_VAR_FLOOR = 1e-12


@dataclass
class BlockSet:
    """M code blocks over the same N samples, held as their leaf indices:
    ``leaf_ids[i, j]`` is the leaf of sample j in block i."""

    leaf_ids: np.ndarray  # (M, N) int32
    leaf_count: int

    @classmethod
    def from_blocks(cls, blocks) -> "BlockSet":
        stack = _one_hot_blocks(blocks)
        leaf_count = stack.shape[1]
        # each column's one 1 weighted by its leaf, in a dtype that holds
        # leaf_count - 1: argmax over so short an axis is far slower
        leaf = np.arange(leaf_count, dtype=np.min_scalar_type(leaf_count - 1))
        leaf_ids = np.einsum("kln,l->kn", stack, leaf).astype(np.int32)
        return cls(leaf_ids=leaf_ids, leaf_count=leaf_count)

    @property
    def n_blocks(self) -> int:
        return self.leaf_ids.shape[0]

    @property
    def n_samples(self) -> int:
        return self.leaf_ids.shape[1]


@dataclass
class SelectionResult:
    chosen: list[int]
    gains: list[float]
    mode: str
    lam: float | None = None


def block_covariance(bs: BlockSet, samples=None) -> np.ndarray:
    """The blocks' covariance, the symmetric (M, M) matrix exp(-d_H / N).

    ``samples`` optionally restricts the distance computation to a subset of
    columns (used by the semi-supervised split of labeled/unlabeled data).
    """
    if bs.n_blocks < 2:
        raise InvalidInputError("need at least two blocks")
    ids = bs.leaf_ids[:, _columns(bs, samples, "samples")]
    n = ids.shape[1]
    if n == 0:
        raise InvalidInputError("no samples selected")
    m = ids.shape[0]
    sigma = np.empty((m, m))
    for i in range(m):
        # one-hot columns differ in exactly two entries when leaves differ
        mismatches = (ids != ids[i]).sum(axis=1)
        sigma[i] = np.exp(-2.0 * mismatches / n)
    return 0.5 * (sigma + sigma.T)


def conditional_variance(sigma: np.ndarray, y: int, conditioning) -> float:
    """Gaussian conditional variance of block ``y`` given a set of blocks.

    ``JITTER`` on the conditioning submatrix keeps duplicate blocks finite;
    an empty conditioning set returns the prior variance.
    """
    s = list(conditioning)
    if y in s:
        raise InvalidInputError(f"block {y} cannot condition itself")
    if not s:
        return float(sigma[y, y])
    a = sigma[np.ix_(s, s)] + JITTER * np.eye(len(s))
    b = sigma[s, y]
    return float(sigma[y, y] - b @ np.linalg.solve(a, b))


def unsupervised_gain(sigma: np.ndarray, y: int, selected) -> float:
    """Greedy step score of candidate ``y``: the Gaussian entropy difference

        1/2 ln( var(y | selected) / var(y | remaining) )

    where remaining excludes both the selected blocks and ``y``."""
    m = sigma.shape[0]
    selected = list(selected)
    rest = [i for i in range(m) if i != y and i not in selected]
    v_sel = max(conditional_variance(sigma, y, selected), _VAR_FLOOR)
    v_rest = max(conditional_variance(sigma, y, rest), _VAR_FLOOR)
    return 0.5 * math.log(v_sel / v_rest)


def _check_k(k: int, high: int, m: int) -> int:
    """``k`` as an int, once it is an integer in 0..high."""
    k = _as_int(k, "k")
    if not 0 <= k <= high:
        raise InvalidInputError(f"k must be in [0, {high}] for {m} blocks, got {k}")
    return k


def _valid_lambda(lam) -> bool:
    try:
        return lam is None or math.isfinite(lam) and lam >= 0
    except TypeError:
        return False


def _check_lambda(lam):
    if not _valid_lambda(lam):
        raise InvalidInputError(f"lambda must be a finite number >= 0, got {lam!r}")


def _selection_misfit(selection: SelectionResult, n_blocks: int) -> str | None:
    """The first field of ``selection``, in file order, that no selector
    makes from ``n_blocks`` blocks, or None: modes are "unsup", "sup" and
    "semi", a lambda is None or finite and >= 0, blocks are distinct indices
    in 0..n_blocks-1, and gains are finite (maybe negative), one per block."""
    try:
        gains = np.asarray(selection.gains, dtype=np.float64)
    except (TypeError, ValueError):  # text, a ragged nesting
        gains = np.array(np.nan)
    fits = {"mode": selection.mode in ("unsup", "sup", "semi"),
            "lam": _valid_lambda(selection.lam),
            "chosen": len(set(selection.chosen)) == len(selection.chosen)
                      and all(0 <= b < n_blocks for b in selection.chosen),
            "gains": gains.shape == (len(selection.chosen),) and np.isfinite(gains).all()}
    return next((field for field, fit in fits.items() if not fit), None)


def _columns(bs: BlockSet, indices, name: str):
    """``indices`` as an index of columns of ``bs``, all of them for None;
    anything but integers in 0..N-1 raises InvalidInputError naming ``name``."""
    if indices is None:
        return slice(None)
    a, n = np.asarray(indices), bs.n_samples
    if a.ndim != 1 or a.size and not (a.dtype.kind in "iu" and 0 <= a.min() <= a.max() < n):
        raise InvalidInputError(f"{name} must be column indices in 0..{n - 1}")
    return a.astype(np.intp)


def _labeled(bs: BlockSet, labels, labeled=None):
    """Validated ``(leaf ids, labels)`` of the labeled columns (all by default)."""
    labels = _checked_labels(labels, bs.n_samples, "block column")
    labeled = _columns(bs, labeled, "labeled")
    return bs.leaf_ids[:, labeled], labels[labeled]


def _fold(joint, ids_row, leaf_count):
    """Joint code ids extended by one block's leaf ids, densely relabeled."""
    _, joint = np.unique(joint * leaf_count + ids_row, return_inverse=True)
    return joint


def _entropy(counts) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


def _mi_ids_labels(ids, labels) -> float:
    h_b = _entropy(np.bincount(ids))
    h_cond = 0.0
    n = labels.shape[0]
    for c in np.unique(labels):
        mask = labels == c
        h_cond += (mask.sum() / n) * _entropy(np.bincount(ids[mask]))
    return h_b - h_cond


@_single_blas_thread()
def _greedy(bs: BlockSet, k: int, sigma, ids, labels, lam):
    """The greedy loop behind every selector; returns ``(chosen, gains)``.

    A candidate scores ``unsupervised_gain`` under the covariance ``sigma``
    when it is given, plus ``lam`` times its label-information gain on the
    ``ids`` columns when ``labels`` are given.  Each step takes the best
    score, the lowest block index on ties, and records that score as its gain.
    """
    chosen: list[int] = []
    gains: list[float] = []
    joint = None if labels is None else np.zeros(ids.shape[1], dtype=np.int64)
    current_mi = 0.0
    for _ in range(k):
        best_y, best_score, best_joint, best_mi = -1, -np.inf, None, 0.0
        for y in range(bs.n_blocks):
            if y in chosen:
                continue
            score = unsupervised_gain(sigma, y, chosen) if sigma is not None else None
            cand, mi_gain = None, 0.0
            if labels is not None:
                cand = _fold(joint, ids[y], bs.leaf_count)
                mi_gain = _mi_ids_labels(cand, labels) - current_mi
                # not 0.0 + ...: that would turn a -0.0 label gain into +0.0
                score = lam * mi_gain if score is None else score + lam * mi_gain
            if score > best_score:
                best_y, best_score, best_joint, best_mi = y, score, cand, mi_gain
        chosen.append(best_y)
        gains.append(best_score)
        joint = best_joint
        current_mi += best_mi
    return chosen, gains


@_single_blas_thread()
def estimate_lambda(bs: BlockSet, labels, unlabeled=None, labeled=None) -> float:
    """Mixing weight for the semi-supervised score: the ratio of the best
    single-block unsupervised information to the best single-block label
    information.  Falls back to 0 (pure unsupervised) when no block carries
    label information."""
    ids, lab = _labeled(bs, labels, labeled)
    _columns(bs, unlabeled, "unlabeled")
    sigma = block_covariance(bs, unlabeled)
    m = bs.n_blocks
    best_unsup = max(unsupervised_gain(sigma, y, []) for y in range(m))
    best_sup = max(_mi_ids_labels(ids[y], lab) for y in range(m))
    if best_sup <= 1e-12:
        return 0.0
    return max(best_unsup, 0.0) / best_sup


def greedy_semisupervised(
    bs: BlockSet,
    labels,
    k: int,
    lam: float | None = None,
    unlabeled=None,
    labeled=None,
) -> SelectionResult:
    """Blend of both criteria: per step, unsupervised gain + lambda x label
    gain.  The two terms may be evaluated on different sample subsets
    (``unlabeled``/``labeled`` column indices); both default to all samples.
    A given ``lam`` must be finite and at least 0.
    """
    k = _check_k(k, bs.n_blocks // 2, bs.n_blocks)
    _check_lambda(lam)
    ids, lab = _labeled(bs, labels, labeled)
    _columns(bs, unlabeled, "unlabeled")
    if lam is None:
        lam = estimate_lambda(bs, labels, unlabeled, labeled)
    chosen, gains = _greedy(bs, k, block_covariance(bs, unlabeled), ids, lab, lam)
    return SelectionResult(chosen=chosen, gains=gains, mode="semi", lam=float(lam))


def select_blocks(bs: BlockSet, labels, k: int, mode: str, lam=None) -> SelectionResult:
    """Pick k blocks by ``mode``: "unsup" (the Gaussian score; ignores
    ``labels``), "sup" (label information) or "semi"
    (:func:`greedy_semisupervised` with ``lam``).  Near-optimality needs the
    pool comfortably larger than the selection, hence k <= M/2 but for "sup".
    """
    if mode == "semi":
        return greedy_semisupervised(bs, labels, k, lam)
    if mode == "unsup":
        k = _check_k(k, bs.n_blocks // 2, bs.n_blocks)
        chosen, gains = _greedy(bs, k, block_covariance(bs), None, None, None)
    elif mode == "sup":
        ids, labels = _labeled(bs, labels)
        k = _check_k(k, bs.n_blocks, bs.n_blocks)
        chosen, gains = _greedy(bs, k, None, ids, labels, 1.0)
    else:
        raise InvalidInputError(f"unknown aggregation mode {mode!r}")
    return SelectionResult(chosen=chosen, gains=gains, mode=mode)
