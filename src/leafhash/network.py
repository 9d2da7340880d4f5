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
    h = _as_matrix(x, "x")
    if h.shape[0] != net.input_dim:
        raise InvalidInputError(
            f"input dimension {h.shape[0]} does not match net ({net.input_dim})"
        )
    return _forward_trace(net, h)[1]


def _forward_trace(net, x):
    """Forward pass keeping the inputs of every layer for backprop."""
    inputs = []
    h = x
    for layer in net.layers:
        inputs.append(h)
        z = layer.weight @ h + layer.bias[:, None]
        h = np.maximum(z, 0.0) if layer.activation == "relu" else z
    return inputs, h


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
    n_pos = f_pos.shape[1]
    both = np.concatenate([f_pos, f_neg], axis=1)
    _, gp, gn, gc = _split_subgrads(f_pos, f_neg, both, SV_THRESHOLD)
    # the loss value goes through the same SVD path as the plain loss
    # evaluation, so the two agree bit-for-bit
    loss = _split_loss(f_pos, f_neg, both)
    return loss, gp - gc[:, :n_pos], gn - gc[:, n_pos:]


def _loss_and_param_grads(net, x_both, n_pos):
    inputs, feats = _forward_trace(net, x_both)
    if not np.all(np.isfinite(feats)):
        raise NumericError(
            "network features are non-finite; inputs or steps are ill-scaled"
        )
    loss, gp, gn = lowrank_loss_layer(feats[:, :n_pos], feats[:, n_pos:])
    delta = np.concatenate([gp, gn], axis=1)
    grads = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if layer.activation == "relu":
            # a relu layer is never the last, so its output is the next
            # layer's input, and relu(z) > 0 exactly where z > 0
            delta = delta * (inputs[i + 1] > 0)
        grads[i] = (delta @ inputs[i].T, delta.sum(axis=1))
        delta = layer.weight.T @ delta
    return loss, grads


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
    initial one.  Deterministic given ``seed``.
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

    loss, grads = _loss_and_param_grads(net, x_both, n_pos)
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
            loss_new, grads_new = _loss_and_param_grads(net, x_both, n_pos)
            check(loss_new)
            if loss_new < loss:
                return loss_new, grads_new
            last.weight, last.bias = saved
            shrink *= 0.5
        return None, None

    for _ in range(cfg.epochs):
        if loss <= loss_floor:
            converged = True
            break
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
            loss_new, grads_new = _loss_and_param_grads(net, x_both, n_pos)
            check(loss_new)
            if loss_new <= loss:
                accepted = True
                break
            try_step(-step / gnorm)  # undo
            step *= 0.5
        stalled = not accepted or loss - loss_new <= REL_TOL * max(abs(loss), 1e-12)
        if accepted:
            loss, grads = loss_new, grads_new
            trace.append(loss)
        if stalled:
            # gradient progress exhausted; shed scale instead
            loss_new, grads_new = radial_shrink(loss)
            if loss_new is None:
                converged = True
                break
            loss, grads = loss_new, grads_new
            trace.append(loss)

    net.loss_trace = np.asarray(trace)
    net.converged = converged
    return net


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

    _, grads = _loss_and_param_grads(net, x_both, n_pos)
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
