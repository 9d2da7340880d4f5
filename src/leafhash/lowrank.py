"""Nuclear-norm machinery for learning class-separating linear transforms.

The split loss of a two-class sample pair is

    ||W X+||_* + ||W X-||_* - ||W [X+, X-]||_*

which is nonnegative and vanishes exactly when the transformed column spaces
of the two classes are orthogonal.  This module evaluates that loss, its
subgradient, fits W by monotone subgradient descent, and provides the kernel
feature map and subspace-angle diagnostics used around it.

All feature matrices follow the columns-are-samples convention: shape (s, N),
one point per column.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError

# step below which backtracking gives up and declares a stationary point
_MIN_STEP = 1e-14


def _as_matrix(a, name="matrix", allow_empty=False):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got shape {a.shape}")
    if a.size == 0 and not allow_empty:
        raise InvalidInputError(f"{name} is empty")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


@dataclass
class Transform:
    """A learned weight matrix together with its fitting diagnostics.

    ``loss_trace`` holds the accepted loss value per iteration (entry 0 is the
    loss at initialization) and is non-increasing.  ``converged`` is False only
    when the iteration budget ran out while the loss was still moving.
    """

    w: np.ndarray
    loss_trace: np.ndarray | None = None
    converged: bool = True

    def __array__(self, dtype=None, copy=None):
        w = np.asarray(self.w, dtype=dtype)
        return w.copy() if copy else w


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the subgradient descent in :func:`fit_transform`.

    ``sv_threshold`` is relative to the largest singular value of each matrix
    whose subgradient is taken (scale-robust cutoff for the retained singular
    vectors).  The first ``geometry_iters`` iterations keep W on the fixed
    Frobenius sphere of the identity, so the loss can only fall by rotating
    the class subspaces apart; the remaining budget descends freely (the loss
    is 1-homogeneous in W, so free descent also sheds the residual scale).
    """

    max_iters: int = 500
    step_size: float = 0.5
    sv_threshold: float = 1e-3
    rel_tol: float = 1e-6
    geometry_iters: int = 300

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidInputError("max_iters must be >= 1")
        if self.step_size <= 0:
            raise InvalidInputError("step_size must be positive")
        if self.sv_threshold <= 0:
            raise InvalidInputError("sv_threshold must be positive")
        if self.rel_tol <= 0:
            raise InvalidInputError("rel_tol must be positive")
        if self.geometry_iters < 0:
            raise InvalidInputError("geometry_iters must be >= 0")


def nuclear_norm(a) -> float:
    """Sum of the singular values of ``a``."""
    a = _as_matrix(a)
    return float(np.linalg.svd(a, compute_uv=False).sum())


def nuclear_subgradient(a, threshold: float) -> np.ndarray:
    """Simplified nuclear-norm subgradient: U_t V_t' over the singular
    directions whose singular value exceeds ``threshold`` (absolute cutoff)."""
    a = _as_matrix(a)
    if threshold <= 0:
        raise InvalidInputError("threshold must be positive")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > threshold
    return u[:, keep] @ vt[keep, :]


def _norm_and_subgrad(a, rel_threshold):
    """One SVD giving both the nuclear norm and its thresholded subgradient."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return 0.0, np.zeros_like(a)
    keep = s > rel_threshold * s[0]
    return float(s.sum()), u[:, keep] @ vt[keep, :]


def _split_loss(a_pos, a_neg, a_both) -> float:
    """The split loss of already transformed class matrices and their
    concatenation, from singular values alone."""
    return (
        float(np.linalg.svd(a_pos, compute_uv=False).sum())
        + float(np.linalg.svd(a_neg, compute_uv=False).sum())
        - float(np.linalg.svd(a_both, compute_uv=False).sum())
    )


def _split_subgrads(a_pos, a_neg, a_both, rel_threshold):
    """``(loss, g_pos, g_neg, g_both)``: the nuclear-norm subgradient of each
    term of the split loss, one full SVD each.  The loss sums those SVDs'
    singular values, so it may differ from :func:`_split_loss` at rounding
    level."""
    lp, gp = _norm_and_subgrad(a_pos, rel_threshold)
    ln, gn = _norm_and_subgrad(a_neg, rel_threshold)
    lc, gc = _norm_and_subgrad(a_both, rel_threshold)
    return lp + ln - lc, gp, gn, gc


def lowrank_loss(w, x_pos, x_neg) -> float:
    """Split loss of transform ``w`` on the two class matrices.

    Nonnegative; zero exactly when the transformed class column spaces are
    orthogonal.
    """
    w = _as_matrix(w, "transform")
    x_pos = _as_matrix(x_pos, "x_pos")
    x_neg = _as_matrix(x_neg, "x_neg")
    if x_pos.shape[0] != w.shape[1] or x_neg.shape[0] != w.shape[1]:
        raise InvalidInputError(
            f"class matrices must have {w.shape[1]} rows, "
            f"got {x_pos.shape[0]} and {x_neg.shape[0]}"
        )
    both = np.concatenate([x_pos, x_neg], axis=1)
    return _split_loss(*(_as_matrix(w @ x, "transformed class matrix")
                         for x in (x_pos, x_neg, both)))


def fit_transform(x_pos, x_neg, cfg: OptimizerConfig | None = None) -> Transform:
    """Fit W minimizing the split loss by monotone subgradient descent.

    W starts at the identity.  Each iteration steps along the normalized
    subgradient; a step that would increase the loss is rejected and the step
    size halved, so the recorded trace never increases.  During the geometry
    phase W is renormalized to the identity's Frobenius norm after every
    accepted step; afterwards descent is unconstrained, with the radial
    direction (pure shrinkage, always a strict descent direction for positive
    loss) as fallback when the subgradient stalls at a nonsmooth point.

    Stops on relative loss change below ``cfg.rel_tol`` after the geometry
    phase, a vanishing subgradient, or an exhausted step size; if
    ``cfg.max_iters`` runs out while the loss is still moving the last (best)
    iterate is returned with ``converged=False``.
    """
    cfg = cfg or OptimizerConfig()
    x_pos = _as_matrix(x_pos, "x_pos")
    x_neg = _as_matrix(x_neg, "x_neg")
    if x_pos.shape[0] != x_neg.shape[0]:
        raise InvalidInputError("class matrices must share their row dimension")
    s_dim = x_pos.shape[0]
    both = np.concatenate([x_pos, x_neg], axis=1)
    radius = np.sqrt(s_dim)  # Frobenius norm of the identity

    def grad_of(w):
        loss, gp, gn, gc = _split_subgrads(
            w @ x_pos, w @ x_neg, w @ both, cfg.sv_threshold
        )
        return loss, gp @ x_pos.T + gn @ x_neg.T - gc @ both.T

    w = np.eye(s_dim)
    loss, grad = grad_of(w)
    trace = [loss]
    scale = max(abs(loss), 1.0)

    def line_search(w, loss, direction, step, project):
        while step > _MIN_STEP:
            w_new = w - step * direction
            if project:
                w_new *= radius / np.linalg.norm(w_new)
            loss_new = _split_loss(w_new @ x_pos, w_new @ x_neg, w_new @ both)
            if loss_new <= loss:
                return w_new, loss_new, step
            step *= 0.5
        return None, loss, step

    loss_floor = 1e-9 * max(abs(loss), 1.0)
    iters_used = 0
    stalled = False
    for project in (True, False):
        if project:
            budget = min(cfg.geometry_iters, cfg.max_iters)
        else:
            budget = cfg.max_iters - iters_used
        step = cfg.step_size
        stalled = False
        for _ in range(budget):
            if loss <= loss_floor:
                stalled = True
                break
            iters_used += 1
            gnorm = float(np.linalg.norm(grad))
            if gnorm <= 1e-12 * scale:
                stalled = True
                break
            step = min(2.0 * step, cfg.step_size)
            w_new, loss_new, step = line_search(w, loss, grad / gnorm, step, project)
            if not project and loss > 0:
                # radial shrinkage is a strict descent direction by the
                # 1-homogeneity of the loss in W; take it when it wins.  The
                # step is capped at half the current norm so W can only decay
                # geometrically (never jump to exactly zero past the floor).
                w_norm = float(np.linalg.norm(w))
                w_rad, loss_rad, _ = line_search(
                    w, loss, w / w_norm, min(cfg.step_size, 0.5 * w_norm), project
                )
                if w_rad is not None and (w_new is None or loss_rad < loss_new):
                    w_new, loss_new = w_rad, loss_rad
            if w_new is None:
                stalled = True
                break
            drop = loss - loss_new
            w = w_new
            loss, grad = grad_of(w)
            trace.append(loss)
            if not project and drop <= cfg.rel_tol * max(abs(loss), 1e-12):
                stalled = True
                break

    # not converged only when the budget ran out while still descending
    converged = stalled or iters_used < cfg.max_iters
    return Transform(w=w, loss_trace=np.asarray(trace), converged=converged)


@dataclass(frozen=True)
class KernelConfig:
    """A fixed-anchor kernel feature map.

    ``anchors`` has one anchor point per column (drawn from training data);
    ``kind`` is "rbf" (bandwidth ``sigma``) or "polynomial" (constants ``p``,
    ``q``).
    """

    anchors: np.ndarray
    kind: str = "rbf"
    sigma: float = 1.0
    p: float = 0.0
    q: float = 1.0

    def __post_init__(self):
        anchors = _as_matrix(self.anchors, "anchors")
        object.__setattr__(self, "anchors", anchors)
        if self.kind not in ("rbf", "polynomial"):
            raise InvalidInputError(f"unknown kernel kind {self.kind!r}")
        if not np.all(np.isfinite([self.sigma, self.p, self.q])):
            raise InvalidInputError("kernel constants sigma, p and q must be finite")
        if self.kind == "rbf" and self.sigma <= 0:
            raise InvalidInputError("rbf bandwidth sigma must be positive")

    @property
    def n_anchors(self) -> int:
        return self.anchors.shape[1]

    @cached_property
    def anchor_sq_norms(self) -> np.ndarray:
        """Squared norm of every anchor, the per-tree part of the RBF map."""
        return np.sum(self.anchors**2, axis=0)


def kernel_featurize(x, kc: KernelConfig) -> np.ndarray:
    """Map each column of ``x`` to its kernel responses against the anchors.

    Output is (n_anchors, N): column j holds kappa(x_j, anchor_i) for all i.
    """
    x = _as_matrix(x, "x")
    return _kernel_map(x, _column_sq_norms(x) if kc.kind == "rbf" else None, kc)


def _column_sq_norms(x) -> np.ndarray:
    """Squared norm of every column of ``x``, the per-point part of the RBF map."""
    return np.sum(x**2, axis=0)


def _kernel_map(x, x_sq, kc: KernelConfig) -> np.ndarray:
    """:func:`kernel_featurize` of an already validated ``x``.

    ``x_sq`` is ``_column_sq_norms(x)`` for an RBF map (unused otherwise), so
    one batch can be mapped through many kernels while its per-point work is
    done once.  The map is built in place in one buffer; the only other
    temporary is the anchors-by-points product.
    """
    if x.shape[0] != kc.anchors.shape[0]:
        raise InvalidInputError(
            f"feature dimension {x.shape[0]} does not match anchors "
            f"({kc.anchors.shape[0]})"
        )
    if kc.kind == "rbf":
        # (a_sq + x_sq) - (2a)'x, clip at 0, negate, divide by 2 sigma^2, exp:
        # this exact order keeps maps, and so codes, bit-identical across
        # releases; do not fold or reorder the steps
        sq = np.add(kc.anchor_sq_norms[:, None], x_sq[None, :])
        np.subtract(sq, 2.0 * kc.anchors.T @ x, out=sq)
        np.maximum(sq, 0.0, out=sq)
        np.negative(sq, out=sq)
        np.divide(sq, 2.0 * kc.sigma**2, out=sq)
        return np.exp(sq, out=sq)
    out = kc.anchors.T @ x
    out += kc.p
    out **= kc.q
    return out


def median_bandwidth(x, rng, max_pairs: int = 1000) -> float:
    """Median pairwise distance over sampled point pairs (RBF sigma default).

    Deterministic given ``rng``; falls back to 1.0 when the sampled points are
    all coincident.
    """
    x = _as_matrix(x, "x")
    n = x.shape[1]
    if n < 2:
        return 1.0
    i = rng.integers(0, n, size=max_pairs)
    j = rng.integers(0, n, size=max_pairs)
    ok = i != j
    if not np.any(ok):
        return 1.0
    d = np.linalg.norm(x[:, i[ok]] - x[:, j[ok]], axis=0)
    med = float(np.median(d))
    return med if med > 0 else 1.0


def _orthonormal_basis(a, rank=None, rank_rtol=None):
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        raise InvalidInputError("matrix is zero; no column space")
    if rank_rtol is None:
        rank_rtol = max(a.shape) * np.finfo(np.float64).eps
    r = int(np.count_nonzero(s > rank_rtol * s[0]))
    if rank is not None:
        r = min(r, int(rank))
    return u[:, : max(r, 1)]


def principal_angles(a, b, rank=None, rank_rtol=None) -> np.ndarray:
    """Principal angles (radians, ascending) between two column spaces.

    ``rank`` caps the subspace dimensions; ``rank_rtol`` sets the relative
    singular-value cutoff used to decide each matrix's numerical rank (default
    is the strict machine-level cutoff).  Use one of them when the inputs are
    noisy and you care about the dominant subspaces only.
    """
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape[0] != b.shape[0]:
        raise InvalidInputError("subspaces must live in the same ambient space")
    qa = _orthonormal_basis(a, rank, rank_rtol)
    qb = _orthonormal_basis(b, rank, rank_rtol)
    cosines = np.linalg.svd(qa.T @ qb, compute_uv=False)
    angles = np.arccos(np.clip(cosines, -1.0, 1.0))
    return np.sort(angles)
