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

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, NumericError

# step below which backtracking gives up and declares a stationary point
_MIN_STEP = 1e-14
# longest step of the descent in fit_transform, on the normalized subgradient
STEP_SIZE = 0.5
# subgradient cutoff relative to each matrix's largest singular value, so it
# does not depend on scale; the network's split loss layer uses it too
SV_THRESHOLD = 1e-3
# free descent stops once an accepted step lowers the loss by less than this,
# relative to the loss
REL_TOL = 1e-6
# point pairs median_bandwidth samples
BANDWIDTH_PAIRS = 1000
# pairs median_bandwidth takes the distances of at a time
_BANDWIDTH_BLOCK = 64


def _as_matrix(a, name="matrix", allow_empty=False):
    """``a`` as a finite float64 matrix (a vector is one column); any input
    that is not one raises InvalidInputError."""
    try:
        a = np.asarray(a)
        if a.dtype.kind != "c":  # a cast would drop the imaginary parts
            a = a.astype(np.float64, copy=False)
    except (TypeError, ValueError) as exc:  # text, objects, a ragged nesting
        raise InvalidInputError(f"{name} is not numeric: {exc}") from None
    if a.dtype.kind == "c":
        raise InvalidInputError(f"{name} has complex entries")
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got shape {a.shape}")
    if a.size == 0 and not allow_empty:
        raise InvalidInputError(f"{name} is empty")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def _checked_labels(labels, n: int, per: str) -> np.ndarray:
    """``labels`` as int64, one per ``per`` of ``n``.  Anything but a 1-D
    array of ``n`` finite integers in int64 range raises InvalidInputError;
    integer-valued floats are integers."""
    try:
        a = np.asarray(labels)
    except ValueError:  # a ragged nesting
        a = np.empty((0, 0))
    valid = a.ndim == 1 and a.shape[0] == n and a.dtype.kind in "iuf"
    if valid and a.size and a.dtype.kind == "u":
        valid = a.max() <= np.iinfo(np.int64).max
    if valid and a.size and a.dtype.kind == "f":
        valid = bool(np.isfinite(a).all() and (a == np.floor(a)).all()
                     and -2.0**63 <= a.min() and a.max() < 2.0**63)
    if not valid:
        raise InvalidInputError(f"labels must be one integer per {per}, {n} in all")
    return a.astype(np.int64)


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


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the subgradient descent in :func:`fit_transform`.

    The first ``geometry_iters`` of the ``max_iters`` iterations keep W on
    the fixed Frobenius sphere of the identity, so the loss can only fall by
    rotating the class subspaces apart; the remaining budget descends freely
    (the loss is 1-homogeneous in W, so free descent also sheds the residual
    scale, and its radial step ``W <- cW`` takes its loss ``c L(W)``
    analytically).  The step length, the subgradient's singular-value cutoff
    and the stopping tolerance are the module constants ``STEP_SIZE``,
    ``SV_THRESHOLD`` and ``REL_TOL``.
    """

    max_iters: int = 500
    geometry_iters: int = 300

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidInputError("max_iters must be >= 1")
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


def _reduced(x):
    """``R'`` from a thin QR ``X' = QR`` when ``x`` has more columns than rows,
    else ``x`` itself.  ``||W R'||_* = ||W X||_*`` for every W, and a
    subgradient ``G_R`` of the former maps back as ``G_R R = G X'``."""
    if x.shape[1] <= x.shape[0]:
        return x
    return np.linalg.qr(x.T, mode="r").T


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
    size halved.  During the geometry phase W is renormalized to the
    identity's Frobenius norm after every accepted step; afterwards descent is
    unconstrained, with the radial direction (pure shrinkage, always a strict
    descent direction for positive loss) taken when it wins.  The loss is
    1-homogeneous in W, so a radial step ``W <- cW`` scales the loss by ``c``
    exactly and costs no SVD.  The trace records each accepted loss, the one
    the next step is compared against, so it never increases.

    The descent runs on reduced factors: each class matrix with more columns
    than rows is replaced once by its s x s factor ``R'`` from a thin QR
    ``X' = QR`` (:func:`_reduced`).  That keeps the loss and maps the
    subgradient back exactly, so every SVD is at most s x s.

    Stops on relative loss change below ``REL_TOL`` after the geometry
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
    x_pos, x_neg, both = _reduced(x_pos), _reduced(x_neg), _reduced(both)
    radius = np.sqrt(s_dim)  # Frobenius norm of the identity

    def grad_of(w):
        loss, gp, gn, gc = _split_subgrads(w @ x_pos, w @ x_neg, w @ both, SV_THRESHOLD)
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
        step = STEP_SIZE
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
            step = min(2.0 * step, STEP_SIZE)
            w_new, loss_new, step = line_search(w, loss, grad / gnorm, step, project)
            if not project and loss > 0:
                # radial shrinkage is a strict descent direction by the
                # 1-homogeneity of the loss in W, L(cW) = c L(W), which also
                # gives its loss without an SVD; take it when it wins.  The
                # step is capped at half the current norm so W can only decay
                # geometrically (never jump to exactly zero past the floor).
                w_norm = float(np.linalg.norm(w))
                rad_step = min(STEP_SIZE, 0.5 * w_norm)
                c = 1.0 - rad_step / w_norm
                if rad_step > _MIN_STEP and (w_new is None or c * loss < loss_new):
                    w_new, loss_new = c * w, c * loss
            if w_new is None:
                stalled = True
                break
            drop = loss - loss_new
            w, loss = w_new, loss_new
            _, grad = grad_of(w)
            trace.append(loss)
            if not project and drop <= REL_TOL * max(abs(loss), 1e-12):
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

    A model file's reader makes its kernels with :meth:`_pooled`: such a
    kernel gathers its anchors from its modality's pool when they are first
    read, and keeps them, while ``n_anchors`` is known without that read.  A
    forest whose trees are encoded in stacked groups maps a batch through
    the pool and never reads them.
    """

    anchors: np.ndarray
    kind: str = "rbf"
    sigma: float = 1.0
    p: float = 0.0
    q: float = 1.0

    def __post_init__(self):
        # an own copy, which the caller's array cannot change, in C order:
        # numpy sums an F-ordered array's columns pairwise, so its
        # ``anchor_sq_norms`` would differ in the last bit from the pool's
        anchors = np.array(_as_matrix(self.anchors, "anchors"), order="C")
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "_shape", anchors.shape)
        check_kernel_constants(self.kind, self.sigma, self.p, self.q)

    @classmethod
    def _pooled(cls, rows: np.ndarray, take: np.ndarray, **constants) -> "KernelConfig":
        """The kernel whose anchors are rows ``take`` of ``rows``, as columns,
        for arguments already checked, without checking them again:
        ``rows`` a (P, d) float64 array of finite entries, ``take`` a
        non-empty array of indices into it, and constants that pass
        :func:`check_kernel_constants`.  ``anchors`` is gathered on its
        first read (see :meth:`__getattr__`); until then the kernel keeps
        all of ``rows`` alive, and a copy or pickle of it holds only its own
        anchors."""
        kc = object.__new__(cls)
        # a frozen dataclass keeps its fields in the instance dict
        vars(kc).update(_KERNEL_DEFAULTS, **constants, _source=(rows, take),
                        _shape=(rows.shape[1], take.size))
        return kc

    def __getattr__(self, name):
        # called only for a name the instance dict lacks: a pooled kernel's
        # anchors before their first read.  They are a new C-ordered (d, a)
        # array, as a trained kernel's are, so its ``anchor_sq_norms`` round
        # as the saved kernel's did.  setdefault keeps one array when threads
        # make the first read at once; the source goes only after it.
        state = vars(self)
        if name == "anchors":
            source = state.get("_source")
            if source is not None:
                rows, take = source
                anchors = state.setdefault("anchors", np.ascontiguousarray(rows[take].T))
                state.pop("_source", None)
                return anchors
            if "anchors" in state:  # gathered by another thread meanwhile
                return state["anchors"]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def __getstate__(self):
        # a pooled kernel is copied or pickled with its own anchors, not its pool
        state = {**vars(self), "anchors": self.anchors}
        state.pop("_source", None)
        return state

    @property
    def n_anchors(self) -> int:
        return self._shape[1]

    @cached_property
    def anchor_sq_norms(self) -> np.ndarray:
        """Squared norm of every anchor, the per-tree part of the RBF map."""
        return np.sum(self.anchors**2, axis=0)


_KERNEL_DEFAULTS = {f.name: f.default for f in fields(KernelConfig) if f.name != "anchors"}


def check_kernel_constants(kind: str, sigma: float = KernelConfig.sigma,
                           p: float = KernelConfig.p, q: float = KernelConfig.q):
    """Raise InvalidInputError unless ``kind`` and the constants make a
    valid :class:`KernelConfig`."""
    if kind not in ("rbf", "polynomial"):
        raise InvalidInputError(f"unknown kernel kind {kind!r}")
    if not all(math.isfinite(v) for v in (sigma, p, q)):
        raise InvalidInputError("kernel constants sigma, p and q must be finite")
    if kind != "rbf":
        return
    if sigma <= 0:
        raise InvalidInputError("rbf bandwidth sigma must be positive")
    try:
        with np.errstate(over="ignore"):
            denom = 2.0 * sigma**2  # the map's divisor, which it divides by negated
    except OverflowError:  # a Python float's ** raises where numpy's gives inf
        denom = math.inf
    if not 0.0 < denom < math.inf:
        raise InvalidInputError(
            f"rbf bandwidth sigma {sigma:g} is out of range: 2 sigma^2 underflows "
            "to 0 or overflows")


def kernel_featurize(x, kc: KernelConfig) -> np.ndarray:
    """Map each column of ``x`` to its kernel responses against the anchors.

    Output is (n_anchors, N): column j holds kappa(x_j, anchor_i) for all i.
    """
    x = _as_matrix(x, "x")
    return _kernel_map(x, _column_sq_norms(x) if kc.kind == "rbf" else None, kc)


def _column_sq_norms(x) -> np.ndarray:
    """Squared norm of every column of ``x``, the per-point part of the RBF map.
    Raises NumericError when one overflows: the map would then read the point
    as infinitely far from every anchor."""
    sq = np.sum(x**2, axis=0)
    if not np.isfinite(sq).all():
        raise NumericError("a point's squared norm overflows the RBF map")
    return sq


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
        sq = _rbf_distances(kc.anchor_sq_norms, x_sq, 2.0 * kc.anchors.T @ x)
        return _rbf_of_distances(sq, -2.0 * kc.sigma**2)
    return _poly_of_products(kc.anchors.T @ x, kc.p, kc.q)


# The RBF map is (a_sq + x_sq) - (2a)'x, clip at 0, negate, divide by
# 2 sigma^2, exp.  This exact order keeps maps, and so codes, bit-identical
# across releases; do not fold or reorder the steps.  The one fold made is
# exact: negating and dividing by 2 sigma^2 is one division by -2 sigma^2,
# which rounds to the same value (round-to-nearest is symmetric in sign).
# The first half (_rbf_distances) depends only on the anchors, so a pool of
# anchors shared by many kernels takes it once for all of them.

def _rbf_distances(anchor_sq, x_sq, doubled_products) -> np.ndarray:
    """Squared distances of every anchor (row) to every point (column), from
    the anchors' squared norms, the points' and the ``(2a)'x`` products:
    ``(a_sq + x_sq) - (2a)'x``, clipped at 0.  A new array."""
    sq = np.add(anchor_sq[:, None], x_sq[None, :])
    np.subtract(sq, doubled_products, out=sq)
    return np.maximum(sq, 0.0, out=sq)


def _rbf_of_distances(sq, neg_denom) -> np.ndarray:
    """``exp(-sq / (2 sigma^2))`` in place in ``sq``, where ``neg_denom`` is
    ``-2 sigma^2`` (a scalar, or a column of one per row)."""
    np.divide(sq, neg_denom, out=sq)
    return np.exp(sq, out=sq)


def _poly_of_products(out, p, q) -> np.ndarray:
    """``(a'x + p)^q`` in place in ``out``, the products ``a'x``.  Raises
    NumericError when the map is not finite (it overflows)."""
    out += p
    out **= q
    if not np.isfinite(out).all():
        raise NumericError("the polynomial kernel map overflows")
    return out


def median_bandwidth(x, rng) -> float:
    """Median pairwise distance over ``BANDWIDTH_PAIRS`` sampled point pairs
    (RBF sigma default).

    Deterministic given ``rng``; falls back to 1.0 when the sampled points are
    all coincident.  Raises NumericError when the median distance overflows.
    """
    x = _as_matrix(x, "x")
    n = x.shape[1]
    if n < 2:
        return 1.0
    i = rng.integers(0, n, size=BANDWIDTH_PAIRS)
    j = rng.integers(0, n, size=BANDWIDTH_PAIRS)
    ok = i != j
    if not np.any(ok):
        return 1.0
    i, j = i[ok], j[ok]
    # Points as rows, and the pairs a block at a time through two small
    # buffers: sample-sized temporaries would be faulted in afresh for every
    # tree.  Each distance sums its squares along one contiguous row, by
    # numpy's pairwise summation, as np.linalg.norm sums the columns of the
    # Fortran-ordered ``x[:, i] - x[:, j]``, so the distances are the same
    # bit for bit; a Gram formula, einsum or a strided sum rounds otherwise.
    # The indices are in range, and take's default mode="raise" would copy
    # through a temporary instead of writing to ``out``.
    points = np.ascontiguousarray(x.T)
    a = np.empty((_BANDWIDTH_BLOCK, points.shape[1]))
    b = np.empty_like(a)
    d = np.empty(i.size)
    # an overflow raises NumericError below, so numpy need not warn of it
    with np.errstate(over="ignore"):
        for lo in range(0, i.size, _BANDWIDTH_BLOCK):
            hi = min(lo + _BANDWIDTH_BLOCK, i.size)
            ab, bb = a[: hi - lo], b[: hi - lo]
            np.take(points, i[lo:hi], axis=0, out=ab, mode="clip")
            np.take(points, j[lo:hi], axis=0, out=bb, mode="clip")
            np.subtract(ab, bb, out=ab)
            np.square(ab, out=ab)
            np.add.reduce(ab, axis=1, out=d[lo:hi])
        med = float(np.median(np.sqrt(d, out=d)))
    if not math.isfinite(med):
        raise NumericError("the median distance between points overflows")
    return med if med > 0 else 1.0


def _orthonormal_basis(a, rank=None):
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        raise InvalidInputError("matrix is zero; no column space")
    r = int(np.count_nonzero(s > max(a.shape) * np.finfo(np.float64).eps * s[0]))
    if rank is not None:
        r = min(r, int(rank))
    return u[:, : max(r, 1)]


def principal_angles(a, b, rank=None) -> np.ndarray:
    """Principal angles (radians, ascending) between two column spaces.

    Each matrix's numerical rank counts its singular values above
    ``max(shape) * eps`` times its largest, the strict machine-level cutoff.
    ``rank`` caps the subspace dimensions: use it when the inputs are noisy
    and you care about the dominant subspaces only.
    """
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape[0] != b.shape[0]:
        raise InvalidInputError("subspaces must live in the same ambient space")
    qa = _orthonormal_basis(a, rank)
    qb = _orthonormal_basis(b, rank)
    cosines = np.linalg.svd(qa.T @ qb, compute_uv=False)
    angles = np.arccos(np.clip(cosines, -1.0, 1.0))
    return np.sort(angles)
