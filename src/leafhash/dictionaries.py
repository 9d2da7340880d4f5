"""Per-node weak learners: class dictionaries, residual projectors, routing.

A trained split node holds one dictionary per pooled class group, fit with
k-SVD on the transformed samples.  A point is routed by comparing its
least-squares residuals against the two dictionary spans; the residuals are
evaluated through precomputed projector matrices so routing is two mat-vecs
and two norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, NumericError
from .lowrank import OptimizerConfig, Transform, _as_matrix, fit_transform
from .network import DenseNet, NetConfig, _forward, net_fit, net_forward

# ridge on the Gram inversion; keeps rank-deficient dictionaries usable
RIDGE = 1e-8
# residual norm, relative to the column's, at which OMP stops coding a column
OMP_TOL = 1e-12


@dataclass
class Dictionary:
    """k-SVD dictionary: unit-norm atoms plus the training sparsity bound."""

    atoms: np.ndarray  # (r, m)
    sparsity: int
    error_trace: np.ndarray | None = None

    def __array__(self, dtype=None, copy=None):
        a = np.asarray(self.atoms, dtype=dtype)
        return a.copy() if copy else a


def _lstsq_stack(a, y):
    """Minimum-norm least-squares solutions of a stack of systems.

    ``a`` is (n, r, k) and ``y`` is (r, n); returns the (n, k) solutions.
    Singular values at or below ``eps * max(r, k)`` times the largest one
    are dropped, the cutoff ``np.linalg.lstsq(rcond=None)`` applies, so a
    rank-deficient system gets its minimum-norm solution.
    """
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    cutoff = np.finfo(np.float64).eps * max(a.shape[1:]) * s[:, :1]
    keep = s > cutoff
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    uty = np.matmul(y.T[:, None, :], u)[:, 0, :]
    return np.matmul((inv_s * uty)[:, None, :], vt)[:, 0, :]


def omp(atoms, x, sparsity: int) -> np.ndarray:
    """Orthogonal matching pursuit codes, all columns advancing together.

    Each code uses at most ``sparsity`` atoms; a column stops early once its
    residual falls to ``OMP_TOL`` relative to its norm, and zero columns get
    zero codes.  Every step scores the atoms against all unfinished residuals
    in one product, adds each column's best atom to its support, and refits
    all supports in one batched least-squares solve.  Ties in atom selection
    resolve to the lowest index; they are ties of the computed scores, so
    exactly duplicated atoms may be picked in either order.
    """
    d = np.asarray(atoms, dtype=np.float64)
    x = _as_matrix(x, "x")
    m = d.shape[1]
    if sparsity < 1:
        raise InvalidInputError("sparsity must be >= 1")
    z = np.zeros((m, x.shape[1]))
    ynorm = np.linalg.norm(x, axis=0)
    cols = np.flatnonzero(ynorm > 0.0)
    y = x[:, cols]
    resid = y
    ynorm = ynorm[cols]
    support = np.empty((cols.size, 0), dtype=np.intp)
    for _ in range(min(sparsity, m)):
        live = np.linalg.norm(resid, axis=0) > OMP_TOL * ynorm
        if not live.all():
            cols, y, resid, ynorm, support = (
                cols[live], y[:, live], resid[:, live], ynorm[live], support[live])
        if cols.size == 0:
            break
        scores = np.abs(d.T @ resid)
        np.put_along_axis(scores, support.T, -1.0, axis=0)
        support = np.column_stack([support, np.argmax(scores, axis=0)])
        sub = d.T[support].transpose(0, 2, 1)  # (columns, r, k)
        coef = _lstsq_stack(sub, y)
        resid = y - np.matmul(sub, coef[:, :, None])[:, :, 0].T
        z[support, cols[:, None]] = coef
    return z


def ksvd_fit(x, atom_count: int, sparsity: int, iters: int = 10, rng=None) -> Dictionary:
    """Fit a dictionary by alternating OMP coding and atom-wise SVD updates.

    ``atom_count`` is clamped to the number of samples.  The recorded
    reconstruction error is non-increasing: an iteration that would raise it
    (OMP re-coding carries no guarantee) is rolled back and fitting stops.
    Atoms that fall out of use are re-seeded with the worst-reconstructed
    sample.
    """
    x = _as_matrix(x, "x")
    if atom_count < 1:
        raise InvalidInputError("atom_count must be >= 1")
    if sparsity < 1:
        raise InvalidInputError("sparsity must be >= 1")
    if iters < 1:
        raise InvalidInputError("iters must be >= 1")
    col_norms = np.linalg.norm(x, axis=0)
    nonzero_cols = np.flatnonzero(col_norms > 0)
    if nonzero_cols.size == 0:
        raise InvalidInputError("all sample columns are zero")
    rng = np.random.default_rng(rng)

    m = min(atom_count, x.shape[1])
    l = min(sparsity, m)
    picks = rng.choice(nonzero_cols, size=min(m, nonzero_cols.size), replace=False)
    d = x[:, picks].copy()
    while d.shape[1] < m:  # fewer nonzero samples than atoms: pad randomly
        extra = rng.normal(size=(x.shape[0], m - d.shape[1]))
        d = np.concatenate([d, extra], axis=1)
    d /= np.linalg.norm(d, axis=0, keepdims=True)

    z = omp(d, x, l)
    err = float(np.linalg.norm(x - d @ z))
    trace = [err]
    for _ in range(iters):
        d_new, z_new = d.copy(), z.copy()
        for j in range(m):
            used = np.flatnonzero(z_new[j, :])
            if used.size == 0:
                resid_norms = np.linalg.norm(x - d_new @ z_new, axis=0)
                worst = int(np.argmax(resid_norms))
                if resid_norms[worst] > 0:
                    d_new[:, j] = x[:, worst] / np.linalg.norm(x[:, worst])
                continue
            e = x[:, used] - d_new @ z_new[:, used] + np.outer(d_new[:, j], z_new[j, used])
            u, s, vt = np.linalg.svd(e, full_matrices=False)
            d_new[:, j] = u[:, 0]
            z_new[j, used] = s[0] * vt[0, :]
        z_new = omp(d_new, x, l)
        err_new = float(np.linalg.norm(x - d_new @ z_new))
        if err_new > err + 1e-9:
            break  # keep the previous (better) iterate
        d, z, err = d_new, z_new, err_new
        trace.append(err)
        if err <= 1e-12:
            break
    return Dictionary(atoms=d, sparsity=l, error_trace=np.asarray(trace))


def residual_projector(dictionary, w) -> np.ndarray:
    """Matrix P with ||P x|| = least-squares residual of fitting Wx in the
    dictionary span: P = (I - D (D'D + ridge I)^(-1) D') W."""
    d = np.asarray(dictionary, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if d.ndim != 2 or d.size == 0:
        raise InvalidInputError("dictionary must be a nonempty matrix")
    gram = d.T @ d + RIDGE * np.eye(d.shape[1])
    return w - d @ np.linalg.solve(gram, d.T @ w)


@dataclass
class SplitNode:
    """One trained routing node.

    ``proj_pos``/``proj_neg`` are the residual projectors of the two class
    groups (they already contain the learned transform); ``net`` is set
    instead of ``transform`` for neural nodes, where the projectors act on the
    net's output features.  A degenerate node routes everything left.
    """

    proj_pos: np.ndarray | None = None
    proj_neg: np.ndarray | None = None
    transform: Transform | None = None
    net: DenseNet | None = None
    class_partition: dict[int, str] = field(default_factory=dict)
    degenerate: bool = False


@dataclass(frozen=True)
class SplitConfig:
    """Weak-learner settings shared by every node of a tree."""

    learner: str = "linear"  # "linear" | "kernel" | "neural"
    atoms: int = 16
    sparsity: int = 4
    ksvd_iters: int = 10
    optimizer: OptimizerConfig = OptimizerConfig()
    net_hidden: tuple[int, ...] = (32,)
    net_output_dim: int | None = None
    net: NetConfig = NetConfig()

    def __post_init__(self):
        if self.learner not in ("linear", "kernel", "neural"):
            raise InvalidInputError(f"unknown learner {self.learner!r}")
        if self.atoms < 1 or self.sparsity < 1 or self.ksvd_iters < 1:
            raise InvalidInputError("atoms, sparsity and ksvd_iters must be >= 1")


def _residuals(node: SplitNode, f):
    """(e_neg, e_pos) for every column of the already validated ``f``."""
    if node.net is not None:
        f = _forward(node.net, f)
    return _column_norms(node.proj_neg @ f), _column_norms(node.proj_pos @ f)


def _column_norms(a, axis=0):
    """``np.linalg.norm(a, axis=axis)``, the same arithmetic, with ``a``
    squared in place instead of into a second temporary of its size."""
    np.multiply(a, a, out=a)
    return np.sqrt(np.add.reduce(a, axis=axis))


def node_route_many(node: SplitNode, x) -> np.ndarray:
    """Boolean go-left mask for every column of ``x``.

    Left iff e_neg < e_pos; exact ties go right; degenerate nodes send
    everything left.  Raises NumericError when a residual is not finite.
    """
    return _route_many(node, _as_matrix(x, "x"))


def _route_many(node: SplitNode, f) -> np.ndarray:
    """:func:`node_route_many` of the already validated ``f``."""
    if node.degenerate:
        return np.ones(f.shape[1], dtype=bool)
    return _go_left(*_residuals(node, f))


def _go_left(e_neg, e_pos) -> np.ndarray:
    """``e_neg < e_pos`` for the residuals of one node, or of stacked nodes
    (a row each).  Raises NumericError when a residual is not finite: the
    batch overflowed the node's arithmetic, so the comparison means nothing."""
    if not (np.isfinite(e_neg).all() and np.isfinite(e_pos).all()):
        raise NumericError("a split residual is not finite: the batch overflows")
    return e_neg < e_pos


def train_split_node(
    x_pos,
    x_neg,
    partition: dict[int, str],
    cfg: SplitConfig | None = None,
    rng=None,
) -> SplitNode:
    """Train one routing node on the pooled class groups.

    Pipeline: transform fitting (or net training for the neural learner), one
    k-SVD dictionary per group, residual projectors.  A kernel learner's node
    takes its samples already mapped through the tree's kernel
    (:func:`leafhash.lowrank.kernel_featurize`), and routes mapped points.  An
    empty group, or one whose features are all zero after the transform or
    net, yields a degenerate node.
    """
    cfg = cfg or SplitConfig()
    rng = np.random.default_rng(rng)

    def _ncols(a):
        if a is None:
            return 0
        arr = np.asarray(a)
        if arr.size == 0:
            return 0
        return 1 if arr.ndim == 1 else arr.shape[1]

    n_pos, n_neg = _ncols(x_pos), _ncols(x_neg)
    if n_pos + n_neg == 0:
        raise InvalidInputError("no samples arrived at the node")
    if n_pos == 0 or n_neg == 0:
        return SplitNode(class_partition=dict(partition), degenerate=True)

    x_pos = _as_matrix(x_pos, "x_pos")
    x_neg = _as_matrix(x_neg, "x_neg")

    net = None
    if cfg.learner == "neural":
        net = net_fit(
            x_pos,
            x_neg,
            hidden=cfg.net_hidden,
            output_dim=cfg.net_output_dim,
            cfg=cfg.net,
            seed=int(rng.integers(0, 2**63 - 1)),
        )
        f_pos, f_neg = net_forward(net, x_pos), net_forward(net, x_neg)
        w = np.eye(net.output_dim)
        transform = None
    else:
        transform = fit_transform(x_pos, x_neg, cfg.optimizer)
        w = transform.w
        f_pos, f_neg = w @ x_pos, w @ x_neg
    if not f_pos.any() or not f_neg.any():
        # a group mapped entirely to zero leaves nothing to fit a dictionary to
        return SplitNode(class_partition=dict(partition), degenerate=True)

    seed_pos = int(rng.integers(0, 2**63 - 1))
    seed_neg = int(rng.integers(0, 2**63 - 1))
    # a dictionary wider than the feature space spans it entirely and kills
    # the residual signal, so clamp to the transformed dimension as well
    m_cap = max(1, f_pos.shape[0] // 2)
    m_pos = min(cfg.atoms, f_pos.shape[1], m_cap)
    m_neg = min(cfg.atoms, f_neg.shape[1], m_cap)
    d_pos = ksvd_fit(f_pos, m_pos, min(cfg.sparsity, m_pos), cfg.ksvd_iters, seed_pos)
    d_neg = ksvd_fit(f_neg, m_neg, min(cfg.sparsity, m_neg), cfg.ksvd_iters, seed_neg)

    return SplitNode(
        proj_pos=residual_projector(d_pos, w),
        proj_neg=residual_projector(d_neg, w),
        transform=transform,
        net=net,
        class_partition=dict(partition),
    )
