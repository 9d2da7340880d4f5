"""Small dense feature networks trained with the nuclear-norm split loss.

The final loss layer evaluates

    ||F+||_* + ||F-||_* - ||[F+, F-]||_*

on the network outputs of the two classes and backpropagates its subgradient,
so a fitted net maps the classes toward orthogonal feature subspaces.  These
nets are the drop-in nonlinear alternative to the kernel feature map inside a
split node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericError
from .lowrank import SV_THRESHOLD, _as_matrix, _split_loss, _split_subgrads

_MIN_STEP = 1e-14
# longest step of the descent in net_fit, on the normalized gradient
STEP_SIZE = 0.5
# an accepted step that lowers the loss by less than this, relative to the
# loss, hands over to shrinking the final layer
REL_TOL = 1e-10
# relu-layer biases of a new net draw from U(-BIAS_INIT, BIAS_INIT)
BIAS_INIT = 1.0
_ACTIVATIONS = ("relu", "identity")


@dataclass
class DenseLayer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str = "relu"

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise InvalidInputError("layer weight/bias shapes are inconsistent")
        if self.activation not in _ACTIVATIONS:
            raise InvalidInputError(f"unknown activation {self.activation!r}")


@dataclass
class DenseNet:
    """Sequence of affine+activation layers; the last activation is identity."""

    layers: list[DenseLayer]
    loss_trace: np.ndarray | None = None
    converged: bool = True

    def __post_init__(self):
        if not self.layers:
            raise InvalidInputError("net needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.weight.shape[1] != prev.weight.shape[0]:
                raise InvalidInputError("consecutive layer dimensions do not chain")
        if self.layers[-1].activation != "identity":
            raise InvalidInputError("final activation must be identity")

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[0]


def net_forward(net: DenseNet, x) -> np.ndarray:
    """Apply the net to every column of ``x``; returns (output_dim, N)."""
    return _forward(net, _as_matrix(x, "x"))


def _layer_output(layer, h):
    """``W h + b``, rectified for a relu layer, in one new array: the IEEE
    operations of ``np.maximum(W @ h + b[:, None], 0.0)`` without its two
    temporaries.  ``h`` is left as it is."""
    z = layer.weight @ h
    z += layer.bias[:, None]
    if layer.activation == "relu":
        np.maximum(z, 0.0, out=z)
    return z


def _forward(net, h):
    """:func:`net_forward` of an already validated ``h``, keeping no layer's
    input.  Raises InvalidInputError when ``h`` does not fit the net."""
    if h.shape[0] != net.input_dim:
        raise InvalidInputError(
            f"input dimension {h.shape[0]} does not match net ({net.input_dim})"
        )
    for layer in net.layers:
        h = _layer_output(layer, h)
    return h


def _forward_trace(net, x):
    """Forward pass keeping the inputs of every layer for backprop."""
    inputs = []
    h = x
    for layer in net.layers:
        inputs.append(h)
        h = _layer_output(layer, h)
    return inputs, h


def _feature_grads(f_pos, f_neg, both):
    """The split loss's subgradients in ``f_pos`` and ``f_neg``, given
    ``both``, their concatenation: one full SVD per term."""
    _, gp, gn, gc = _split_subgrads(f_pos, f_neg, both, SV_THRESHOLD)
    n_pos = f_pos.shape[1]
    return gp - gc[:, :n_pos], gn - gc[:, n_pos:]


def _evaluate(net, x_both, n_pos):
    """``(loss, kept)``: the split loss of ``net`` on ``x_both``, whose first
    ``n_pos`` columns are the positive class, from singular values alone, and
    the forward trace :func:`_param_grads` backpropagates through."""
    inputs, feats = _forward_trace(net, x_both)
    if not np.all(np.isfinite(feats)):
        raise NumericError(
            "network features are non-finite; inputs or steps are ill-scaled"
        )
    f_pos, f_neg = feats[:, :n_pos], feats[:, n_pos:]
    both = np.concatenate([f_pos, f_neg], axis=1)
    return _split_loss(f_pos, f_neg, both), (inputs, f_pos, f_neg, both)


def _param_grads(net, kept):
    """Every layer's ``(weight, bias)`` gradient of the split loss, by
    backprop through ``kept``, what :func:`_evaluate` returned for ``net``
    with its present weights."""
    inputs, f_pos, f_neg, both = kept
    delta = np.concatenate(_feature_grads(f_pos, f_neg, both), axis=1)
    grads = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if layer.activation == "relu":
            # a relu layer is never the last, so its output is the next
            # layer's input, and relu(z) > 0 exactly where z > 0
            delta = delta * (inputs[i + 1] > 0)
        grads[i] = (delta @ inputs[i].T, delta.sum(axis=1))
        delta = layer.weight.T @ delta
    return grads


@dataclass(frozen=True)
class NetConfig:
    """Full-batch gradient descent settings for :func:`net_fit`: the epoch
    budget.  The step length, the tolerance and the bias range of a new net
    are the module constants ``STEP_SIZE``, ``REL_TOL`` and ``BIAS_INIT``;
    the split loss's singular-value cutoff is ``lowrank.SV_THRESHOLD``."""

    epochs: int = 300

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidInputError("epochs must be >= 1")


def build_net(input_dim, hidden, output_dim, seed=0) -> DenseNet:
    """He-initialized relu net with the given hidden widths.

    Relu-layer biases draw from U(-BIAS_INIT, BIAS_INIT): hinges away from the
    origin are what let the split loss carve radially symmetric data; all-zero
    biases leave every unit linear along rays through the origin.
    """
    rng = np.random.default_rng(seed)
    dims = [input_dim, *hidden, output_dim]
    layers = []
    for i in range(len(dims) - 1):
        fan_in = dims[i]
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(dims[i + 1], fan_in))
        if i == len(dims) - 2:
            layers.append(DenseLayer(w, np.zeros(dims[i + 1]), "identity"))
        else:
            b = rng.uniform(-BIAS_INIT, BIAS_INIT, size=dims[i + 1])
            layers.append(DenseLayer(w, b, "relu"))
    return DenseNet(layers)


def net_fit(
    x_pos,
    x_neg,
    hidden=(32,),
    output_dim=None,
    cfg: NetConfig | None = None,
    seed=0,
) -> DenseNet:
    """Train a dense net on the split loss by full-batch gradient descent.

    Full batch is required: the nuclear norm couples every sample in a class
    block.  Fixed-step descent with step halving on any loss increase, so the
    recorded trace is non-increasing and the final loss never exceeds the
    initial one.  A trial step, and a trial shrink of the final layer, is
    judged by its loss alone; the gradients are taken only where the descent
    continues, once per epoch at the point it steps from, by backprop through
    that point's kept forward trace.  Deterministic given ``seed``.
    """
    cfg = cfg or NetConfig()
    x_pos = _as_matrix(x_pos, "x_pos")
    x_neg = _as_matrix(x_neg, "x_neg")
    if x_pos.shape[0] != x_neg.shape[0]:
        raise InvalidInputError("class matrices must share their row dimension")
    s_dim = x_pos.shape[0]
    net = build_net(s_dim, tuple(hidden), output_dim or s_dim, seed)
    x_both = np.concatenate([x_pos, x_neg], axis=1)
    n_pos = x_pos.shape[1]

    loss, kept = _evaluate(net, x_both, n_pos)
    if not np.isfinite(loss):
        raise NumericError(f"non-finite split loss at initialization: {loss}")
    trace = [loss]
    step = STEP_SIZE
    converged = False
    loss_floor = 1e-9 * max(abs(loss), 1.0)
    last = net.layers[-1]

    def try_step(scale):
        for layer, (gw, gb) in zip(net.layers, grads):
            layer.weight -= scale * gw
            layer.bias -= scale * gb

    def check(loss_new):
        if not np.isfinite(loss_new):
            raise NumericError(
                f"split loss diverged to {loss_new}; inputs may be ill-scaled"
            )

    def radial_shrink(loss):
        """Shrink the final layer; the features are linear in it, so this is
        a strict descent direction whenever the loss is positive."""
        shrink = 0.5
        while shrink > 1e-8:
            saved = (last.weight.copy(), last.bias.copy())
            last.weight *= 1.0 - shrink
            last.bias *= 1.0 - shrink
            loss_new, kept_new = _evaluate(net, x_both, n_pos)
            check(loss_new)
            if loss_new < loss:
                return loss_new, kept_new
            last.weight, last.bias = saved
            shrink *= 0.5
        return None, None

    for _ in range(cfg.epochs):
        if loss <= loss_floor:
            converged = True
            break
        grads = _param_grads(net, kept)
        gnorm = np.sqrt(
            sum(float(np.sum(gw**2)) + float(np.sum(gb**2)) for gw, gb in grads)
        )
        if gnorm <= 1e-15 * max(abs(loss), 1.0):
            converged = True
            break
        step = min(2.0 * step, STEP_SIZE)
        accepted = False
        while step > _MIN_STEP:
            try_step(step / gnorm)  # fixed step length along the gradient
            loss_new, kept_new = _evaluate(net, x_both, n_pos)
            check(loss_new)
            if loss_new <= loss:
                accepted = True
                break
            try_step(-step / gnorm)  # undo
            step *= 0.5
        stalled = not accepted or loss - loss_new <= REL_TOL * max(abs(loss), 1e-12)
        if accepted:
            loss, kept = loss_new, kept_new
            trace.append(loss)
        if stalled:
            # gradient progress exhausted; shed scale instead
            loss_new, kept_new = radial_shrink(loss)
            if loss_new is None:
                converged = True
                break
            loss, kept = loss_new, kept_new
            trace.append(loss)

    net.loss_trace = np.asarray(trace)
    net.converged = converged
    return net
