"""Test oracles: slow, plain reference implementations that the test suite
and the acceptance criteria check the pipeline against.  No pipeline code
calls them, so they live with the tests; they may use the package's private
helpers, which the pipeline calls.

- :func:`exhaustive_select`, with :func:`set_mutual_information` and
  :func:`label_mi`: the exact optimum the greedy selectors are held to;
- :func:`grad_check` and :func:`lowrank_loss_layer`: finite differences and
  the split loss's subgradients for the neural learner;
- :func:`hamming` and :func:`unpack_codes`: one code pair's distance and the
  bit layout of packed codes.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from leafhash.aggregation import (
    BlockCovariance,
    BlockSet,
    SelectionResult,
    _check_k,
    _fold,
    _labeled,
    _mi_ids_labels,
    block_covariance,
)
from leafhash.errors import InvalidInputError
from leafhash.lowrank import _as_matrix, _split_loss
from leafhash.network import (
    DenseNet,
    _evaluate,
    _feature_grads,
    _forward_trace,
    _param_grads,
)
from leafhash.retrieval import HashCode, PackedCodes

_EXHAUSTIVE_LIMIT = 100_000


def set_mutual_information(cov: BlockCovariance, subset) -> float:
    """Gaussian mutual information between a block subset and its complement.

    Evaluated as 1/2 (logdet Sigma_BB + logdet Sigma_RR - logdet Sigma) on the
    jittered covariance; the exhaustive objective for the unsupervised mode.
    """
    m = cov.sigma.shape[0]
    subset = sorted(set(int(i) for i in subset))
    rest = [i for i in range(m) if i not in subset]
    sigma = cov.sigma + cov.jitter * np.eye(m)

    def logdet(idx):
        if not idx:
            return 0.0
        sign, val = np.linalg.slogdet(sigma[np.ix_(idx, idx)])
        if sign <= 0:
            raise InvalidInputError("covariance submatrix is not positive definite")
        return float(val)

    return 0.5 * (logdet(subset) + logdet(rest) - logdet(list(range(m))))


def label_mi(blocks_subset, bs: BlockSet, labels) -> float:
    """Plug-in mutual information (nats) between the concatenated codes of the
    selected blocks and the class labels; empty selection gives 0."""
    ids, labels = _labeled(bs, labels)
    subset = list(blocks_subset)
    if not subset:
        return 0.0
    joint = np.zeros(bs.n_samples, dtype=np.int64)
    for y in subset:
        joint = _fold(joint, ids[y], bs.leaf_count)
    return _mi_ids_labels(joint, labels)


def exhaustive_select(bs: BlockSet, labels, k: int, mode: str) -> SelectionResult:
    """Exact argmax over all k-subsets; the test oracle for the greedy modes.

    mode "unsup" maximizes the Gaussian subset/complement mutual information,
    mode "sup" the label mutual information.  Refuses instances with more than
    100k subsets.
    """
    m = bs.n_blocks
    if mode not in ("unsup", "sup"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    _check_k(k, m, m)
    n_subsets = math.comb(m, k)
    if n_subsets > _EXHAUSTIVE_LIMIT:
        raise InvalidInputError(
            f"{n_subsets} subsets exceed the exhaustive limit of {_EXHAUSTIVE_LIMIT}"
        )
    cov = block_covariance(bs) if mode == "unsup" else None
    best_subset, best_value = (), -np.inf
    for subset in itertools.combinations(range(m), k):
        if mode == "unsup":
            value = set_mutual_information(cov, subset)
        else:
            value = label_mi(subset, bs, labels)
        if value > best_value:
            best_subset, best_value = subset, value
    return SelectionResult(chosen=list(best_subset), gains=[best_value], mode=mode)


def lowrank_loss_layer(f_pos, f_neg):
    """Split loss on two feature blocks plus its subgradients.

    Returns ``(loss, grad_f_pos, grad_f_neg)``.  Each term's subgradient
    keeps the singular directions above ``SV_THRESHOLD`` times its largest
    singular value; the concatenated term's is split column-wise and enters
    with sign -1.  The loss value is exactly
    :func:`leafhash.lowrank.lowrank_loss` with the identity transform.
    """
    f_pos = _as_matrix(f_pos, "f_pos")
    f_neg = _as_matrix(f_neg, "f_neg")
    if f_pos.shape[0] != f_neg.shape[0]:
        raise InvalidInputError("feature blocks must share their row dimension")
    both = np.concatenate([f_pos, f_neg], axis=1)
    # the loss value goes through the same SVD path as the plain loss
    # evaluation, so the two agree bit-for-bit
    return _split_loss(f_pos, f_neg, both), *_feature_grads(f_pos, f_neg, both)


def grad_check(net: DenseNet, x_pos, x_neg, eps: float = 1e-5) -> float:
    """Max relative error of backprop against central finite differences.

    Perturbs every weight and bias entry; intended for small nets.
    """
    if eps is None or eps <= 0:
        raise InvalidInputError("eps must be positive")
    x_pos = _as_matrix(x_pos, "x_pos")
    x_neg = _as_matrix(x_neg, "x_neg")
    x_both = np.concatenate([x_pos, x_neg], axis=1)
    n_pos = x_pos.shape[1]

    def total_loss():
        _, feats = _forward_trace(net, x_both)
        return _split_loss(feats[:, :n_pos], feats[:, n_pos:], feats)

    grads = _param_grads(net, _evaluate(net, x_both, n_pos)[1])
    worst = 0.0
    for layer, (gw, gb) in zip(net.layers, grads):
        for arr, grad in ((layer.weight, gw), (layer.bias, gb)):
            flat = arr.ravel()
            gflat = grad.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = total_loss()
                flat[i] = orig - eps
                down = total_loss()
                flat[i] = orig
                numeric = (up - down) / (2.0 * eps)
                denom = max(abs(numeric), abs(gflat[i]), 1e-8)
                worst = max(worst, abs(numeric - gflat[i]) / denom)
    return worst


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
