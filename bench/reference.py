"""Reference computations the benchmark checks leafhash's outputs against.

Each one is written from the definitions in the package README, not from the
package's code: bits are unpacked through bytes, distances come from bit
inner products, rankings from unique sort keys, and kernel responses from
explicit point-anchor differences.
"""

from __future__ import annotations

import numpy as np


def unpack_bits(words, length):
    """(n, length) 0/1 matrix of little-endian codes stored in uint64 words."""
    words = np.ascontiguousarray(words, dtype="<u8")
    as_bytes = words.view(np.uint8).reshape(words.shape[0], -1)
    return np.unpackbits(as_bytes, axis=1, bitorder="little")[:, :length]


def hamming_distances(q_bits, g_bits):
    """(nq, ng) Hamming distances from inner products of the bit matrices."""
    q = q_bits.astype(np.float64)
    g = g_bits.astype(np.float64)
    return np.rint(q @ (1.0 - g).T + (1.0 - q) @ g.T).astype(np.int64)


def ranking(dist_row):
    """Gallery ids by ascending distance, ties by ascending id."""
    n = dist_row.shape[0]
    return np.argsort(dist_row * n + np.arange(n))


def average_precisions(dist, g_labels, q_labels):
    """Average precision of every query along its full ranking."""
    aps = np.empty(dist.shape[0])
    ranks = np.arange(1, dist.shape[1] + 1)
    for i, row in enumerate(dist):
        rel = g_labels[ranking(row)] == q_labels[i]
        hit_ranks = ranks[rel]
        aps[i] = np.mean(np.arange(1, hit_ranks.size + 1) / hit_ranks)
    return aps


def precision_recall(dist, g_labels, q_labels, radius):
    """Mean precision (0 for an empty retrieval) and mean recall (over queries
    with a relevant item) of radius lookup."""
    precisions, recalls = [], []
    for i, row in enumerate(dist):
        retrieved = row <= radius
        relevant = g_labels == q_labels[i]
        hits = int(np.count_nonzero(retrieved & relevant))
        n_ret = int(np.count_nonzero(retrieved))
        precisions.append(hits / n_ret if n_ret else 0.0)
        if relevant.any():
            recalls.append(hits / int(np.count_nonzero(relevant)))
    return float(np.mean(precisions)), float(np.mean(recalls)) if recalls else 0.0


def kernel_features(x, kc):
    """Responses of every column of ``x`` to every anchor of ``kc``."""
    out = np.empty((kc.anchors.shape[1], x.shape[1]))
    for i, anchor in enumerate(kc.anchors.T):
        if kc.kind == "rbf":
            sq = np.sum((x - anchor[:, None]) ** 2, axis=0)
            out[i] = np.exp(-sq / (2.0 * kc.sigma ** 2))
        else:
            out[i] = (anchor @ x + kc.p) ** kc.q
    return out


def net_features(net, f):
    for layer in net.layers:
        f = layer.weight @ f + layer.bias[:, None]
        if layer.activation == "relu":
            f = np.where(f > 0.0, f, 0.0)
    return f


def route_leaves(tree, x, modality=0):
    """Leaf index of every column of ``x`` and the smallest relative margin
    |e_neg - e_pos| / max(e_neg, e_pos) met on its path (0 for a tie)."""
    kc = tree.kernels[modality]
    f = kernel_features(x, kc) if kc is not None else x
    n = x.shape[1]
    pos = np.zeros(n, dtype=np.int64)
    margin = np.full(n, np.inf)
    for _ in range(tree.depth - 1):
        nxt = np.empty(n, dtype=np.int64)
        for p in set(pos.tolist()):
            at = pos == p
            node = tree.nodes[p][modality]
            if node.degenerate:
                nxt[at] = 2 * p + 1
                continue
            g = f[:, at] if node.net is None else net_features(node.net, f[:, at])
            e_neg = np.sqrt(np.sum((node.proj_neg @ g) ** 2, axis=0))
            e_pos = np.sqrt(np.sum((node.proj_pos @ g) ** 2, axis=0))
            scale = np.maximum(np.maximum(e_neg, e_pos), 1e-300)
            margin[at] = np.minimum(margin[at], np.abs(e_neg - e_pos) / scale)
            nxt[at] = np.where(e_neg < e_pos, 2 * p + 1, 2 * p + 2)
        pos = nxt
    return pos - (2 ** (tree.depth - 1) - 1), margin


def first_step_scores(blocks, labels, jitter=1e-8, var_floor=1e-12):
    """First greedy step of semi-supervised selection, for every block:
    the Gaussian entropy difference 1/2 ln(var(y) / var(y | other blocks))
    under the covariance exp(-d_H / N), with only the conditioning blocks
    jittered, and the plug-in mutual information (nats) between the block's
    leaves and the labels."""
    b = np.stack([np.asarray(blk, dtype=np.float64).ravel() for blk in blocks])
    n = np.asarray(blocks[0]).shape[1]
    m = b.shape[0]
    d_h = np.sum(b, axis=1)[:, None] + np.sum(b, axis=1)[None, :] - 2.0 * (b @ b.T)
    sigma = np.exp(-d_h / n)
    gains = np.empty(m)
    for y in range(m):
        s = sigma + jitter * np.eye(m)
        s[y, y] = sigma[y, y]
        v_rest = 1.0 / np.linalg.inv(s)[y, y]
        gains[y] = 0.5 * np.log(max(sigma[y, y], var_floor) / max(v_rest, var_floor))

    _, lab = np.unique(np.asarray(labels), return_inverse=True)
    n_cls = lab.max() + 1
    mi = np.empty(m)
    for y, blk in enumerate(blocks):
        leaves = np.argmax(np.asarray(blk), axis=0)
        joint = np.bincount(leaves * n_cls + lab, minlength=np.asarray(blk).shape[0] * n_cls)
        p = joint.reshape(-1, n_cls) / n
        outer = p.sum(axis=1)[:, None] * p.sum(axis=0)[None, :]
        nz = p > 0
        mi[y] = float(np.sum(p[nz] * np.log(p[nz] / outer[nz])))
    return gains, mi


def estimate_lambda(gains, mi):
    """Ratio of the best first-step Gaussian score to the best label MI."""
    if mi.max() <= 1e-12:
        return 0.0
    return max(float(gains.max()), 0.0) / float(mi.max())
