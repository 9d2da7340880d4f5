import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from leafhash import (
    DenseLayer,
    DenseNet,
    InvalidInputError,
    NumericError,
    SyntheticSpec,
    build_net,
    gen_synthetic,
    lowrank_loss,
    net_fit,
    net_forward,
    principal_angles,
)
from leafhash import lowrank, network
from leafhash.network import NetConfig, _forward_trace

from oracles import grad_check, lowrank_loss_layer

E1 = np.array([[1.0], [0.0]])


def identity_net(dim):
    return DenseNet([DenseLayer(np.eye(dim), np.zeros(dim), "identity")])


class TestForward:
    def test_identity_layer(self, rng):
        x = rng.normal(size=(3, 5))
        np.testing.assert_array_equal(net_forward(identity_net(3), x), x)

    def test_zero_net(self, rng):
        net = DenseNet([DenseLayer(np.zeros((4, 3)), np.zeros(4), "identity")])
        assert np.all(net_forward(net, rng.normal(size=(3, 6))) == 0)

    def test_output_shape(self, rng):
        net = build_net(5, (7,), 3, seed=0)
        assert net_forward(net, rng.normal(size=(5, 11))).shape == (3, 11)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(InvalidInputError):
            net_forward(identity_net(3), rng.normal(size=(4, 2)))

    def test_final_activation_must_be_identity(self):
        with pytest.raises(InvalidInputError):
            DenseNet([DenseLayer(np.eye(2), np.zeros(2), "relu")])

    @given(widths=st.lists(st.integers(1, 6), min_size=2, max_size=5),
           relu=st.lists(st.booleans(), min_size=4, max_size=4),
           n=st.integers(1, 50), layout=st.sampled_from(["c", "fortran", "strided", "offset"]),
           integral=st.booleans(), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_forward_equals_the_traced_forward_bit_for_bit(self, widths, relu, n, layout,
                                                           integral, seed):
        # integral weights, biases and inputs make many pre-activations
        # exactly 0, and about half of them negative
        rng = np.random.default_rng(seed)

        def draw(*shape):
            if integral:
                return rng.integers(-2, 3, size=shape).astype(np.float64)
            return rng.normal(size=shape)

        layers = [DenseLayer(draw(out, inp), draw(out), "relu" if r else "identity")
                  for inp, out, r in zip(widths, widths[1:-1], relu)]
        layers.append(DenseLayer(draw(widths[-1], widths[-2]), draw(widths[-1]), "identity"))
        net = DenseNet(layers)
        wide = draw(widths[0], 2 * n + 1)
        x = {"c": np.ascontiguousarray(wide[:, :n]), "fortran": np.asfortranarray(wide[:, :n]),
             "strided": wide[:, ::2][:, :n], "offset": wide[:, 1:n + 1]}[layout]
        before = x.copy()

        out = net_forward(net, x)
        traced = _forward_trace(net, x)[1]
        expected = x
        for layer in net.layers:
            expected = layer.weight @ expected + layer.bias[:, None]
            if layer.activation == "relu":
                expected = np.maximum(expected, 0.0)
        assert out.shape == (widths[-1], n)
        for other in (traced, expected):
            assert np.ascontiguousarray(out).tobytes() == np.ascontiguousarray(other).tobytes()
        assert x.tobytes() == before.tobytes()


class TestLossLayer:
    def test_orthogonal_blocks(self, rng):
        f_pos = np.vstack([rng.normal(size=(2, 4)), np.zeros((2, 4))])
        f_neg = np.vstack([np.zeros((2, 4)), rng.normal(size=(2, 4))])
        loss, _, _ = lowrank_loss_layer(f_pos, f_neg)
        assert abs(loss) <= 1e-9

    def test_identical_singletons(self):
        loss, _, _ = lowrank_loss_layer(E1, E1)
        assert loss == pytest.approx(2 - np.sqrt(2))

    def test_equals_plain_loss_with_identity_exactly(self, rng):
        f_pos = rng.normal(size=(6, 4))
        f_neg = rng.normal(size=(6, 5))
        layer_loss, _, _ = lowrank_loss_layer(f_pos, f_neg)
        assert layer_loss == lowrank_loss(np.eye(6), f_pos, f_neg)

    def test_gradient_matches_finite_differences(self, rng):
        f_pos = rng.normal(size=(8, 5))
        f_neg = rng.normal(size=(8, 5))
        _, g_pos, g_neg = lowrank_loss_layer(f_pos, f_neg)
        eps = 1e-6
        worst = 0.0
        for arr, grad in ((f_pos, g_pos), (f_neg, g_neg)):
            for i in range(arr.shape[0]):
                for j in range(arr.shape[1]):
                    orig = arr[i, j]
                    arr[i, j] = orig + eps
                    up = lowrank_loss_layer(f_pos, f_neg)[0]
                    arr[i, j] = orig - eps
                    down = lowrank_loss_layer(f_pos, f_neg)[0]
                    arr[i, j] = orig
                    numeric = (up - down) / (2 * eps)
                    denom = max(abs(numeric), abs(grad[i, j]), 1e-8)
                    worst = max(worst, abs(numeric - grad[i, j]) / denom)
        assert worst <= 1e-3


class TestNetFit:
    def test_separable_linear_layer(self, rng):
        x_pos = np.vstack([rng.normal(size=(2, 20)), np.zeros((2, 20))])
        x_neg = np.vstack([np.zeros((2, 20)), rng.normal(size=(2, 20))])
        net = net_fit(x_pos, x_neg, hidden=(), output_dim=4, seed=0)
        assert net.loss_trace[-1] <= 0.1 * net.loss_trace[0]

    def test_two_circles_open_dominant_directions(self):
        ds = gen_synthetic(SyntheticSpec(kind="circles2d", ambient_dim=2,
                                         noise=0.05, samples_per_class=100, seed=7))
        x_pos = ds.features[:, ds.labels == 1]
        x_neg = ds.features[:, ds.labels == 0]
        net = net_fit(x_pos, x_neg, hidden=(32,), output_dim=8, seed=0)
        f_pos = net_forward(net, x_pos)
        f_neg = net_forward(net, x_neg)
        angle = np.degrees(principal_angles(f_pos, f_neg, rank=1)[0])
        assert angle >= 75.0

    def test_empty_class_rejected(self, rng):
        with pytest.raises(InvalidInputError):
            net_fit(rng.normal(size=(3, 5)), np.zeros((3, 0)))

    def test_trace_non_increasing_and_bounded(self, rng):
        net = net_fit(rng.normal(size=(4, 15)), rng.normal(size=(4, 15)), seed=2)
        assert np.all(np.diff(net.loss_trace) <= 1e-12)
        assert net.loss_trace[-1] <= net.loss_trace[0]

    def test_deterministic_given_seed(self, rng):
        x_pos = rng.normal(size=(3, 10))
        x_neg = rng.normal(size=(3, 10))
        n1 = net_fit(x_pos, x_neg, seed=5)
        n2 = net_fit(x_pos, x_neg, seed=5)
        for a, b in zip(n1.layers, n2.layers):
            np.testing.assert_array_equal(a.weight, b.weight)
            np.testing.assert_array_equal(a.bias, b.bias)

    def test_divergent_inputs_raise(self):
        huge = np.full((2, 4), 1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                net_fit(huge, -huge, hidden=(8, 8, 8, 8, 8), seed=0)

    def test_svd_budget_of_a_descent(self, monkeypatch):
        # a case with rejected steps, exhausted steps and radial shrinks
        case = (3628, 3, 5, 7, (), 3, 45, 1.0)
        assert "steps exhausted" in BRANCH_EXAMPLES[case]
        full_svds, events = [], []
        svd, split_loss, split_subgrads = (
            np.linalg.svd, network._split_loss, network._split_subgrads)

        def counting_svd(a, *args, **kwargs):
            full_svds.append(kwargs.get("compute_uv", True))
            return svd(a, *args, **kwargs)

        def counting_loss(a_pos, a_neg, a_both):
            events.append(("loss", a_pos.tobytes()))
            return split_loss(a_pos, a_neg, a_both)

        def counting_subgrads(a_pos, *args):
            events.append(("grads", a_pos.tobytes()))
            return split_subgrads(a_pos, *args)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(network, "_split_loss", counting_loss)
        monkeypatch.setattr(network, "_split_subgrads", counting_subgrads)
        net = fit_case(present_net_fit, *case)

        kinds = [kind for kind, _ in events]
        n_loss, n_grads = kinds.count("loss"), kinds.count("grads")
        assert len(full_svds) == 3 * (n_loss + n_grads)
        assert sum(full_svds) == 3 * n_grads
        # each gradient point is the point just evaluated, with no second
        # evaluation, and the descent steps from it: a trial at another point
        for i, (kind, point) in enumerate(events):
            if kind == "grads":
                assert i > 0 and events[i - 1] == ("loss", point)
                assert events[i + 1][0] == "loss" and events[i + 1][1] != point
        # rejected trials and the last point took no gradients
        assert n_grads < len(net.loss_trace) < n_loss


class TestGradCheck:
    def test_small_net_backprop(self, rng):
        net = build_net(4, (8,), 4, seed=1)
        err = grad_check(net, rng.normal(size=(4, 6)), rng.normal(size=(4, 6)))
        assert err <= 1e-3

    def test_zero_input_finite(self):
        net = build_net(3, (5,), 3, seed=0)
        err = grad_check(net, np.zeros((3, 4)), np.zeros((3, 4)))
        assert np.isfinite(err)

    def test_zero_eps_rejected(self, rng):
        net = build_net(2, (), 2, seed=0)
        with pytest.raises(InvalidInputError):
            grad_check(net, rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), eps=0.0)


def reference_net_fit(x_pos, x_neg, hidden, output_dim, epochs, seed, reached):
    """:func:`net_fit` as it was when every trial point took the loss and the
    gradients, kept as the reference the present descent must equal bit for
    bit.  Adds to ``reached`` each branch the descent takes."""

    def loss_and_param_grads(net, x_both, n_pos):
        inputs, feats = _forward_trace(net, x_both)
        if not np.all(np.isfinite(feats)):
            raise NumericError(
                "network features are non-finite; inputs or steps are ill-scaled"
            )
        f_pos, f_neg = feats[:, :n_pos], feats[:, n_pos:]
        both = np.concatenate([f_pos, f_neg], axis=1)
        _, gp, gn, gc = lowrank._split_subgrads(f_pos, f_neg, both, lowrank.SV_THRESHOLD)
        loss = lowrank._split_loss(f_pos, f_neg, both)
        delta = np.concatenate([gp - gc[:, :n_pos], gn - gc[:, n_pos:]], axis=1)
        grads = [None] * len(net.layers)
        for i in range(len(net.layers) - 1, -1, -1):
            layer = net.layers[i]
            if layer.activation == "relu":
                delta = delta * (inputs[i + 1] > 0)
            grads[i] = (delta @ inputs[i].T, delta.sum(axis=1))
            delta = layer.weight.T @ delta
        return loss, grads

    s_dim = x_pos.shape[0]
    net = build_net(s_dim, tuple(hidden), output_dim or s_dim, seed)
    x_both = np.concatenate([x_pos, x_neg], axis=1)
    n_pos = x_pos.shape[1]

    loss, grads = loss_and_param_grads(net, x_both, n_pos)
    if not np.isfinite(loss):
        raise NumericError(f"non-finite split loss at initialization: {loss}")
    trace = [loss]
    step = network.STEP_SIZE
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
        shrink = 0.5
        while shrink > 1e-8:
            saved = (last.weight.copy(), last.bias.copy())
            last.weight *= 1.0 - shrink
            last.bias *= 1.0 - shrink
            loss_new, grads_new = loss_and_param_grads(net, x_both, n_pos)
            check(loss_new)
            if loss_new < loss:
                return loss_new, grads_new
            last.weight, last.bias = saved
            shrink *= 0.5
        return None, None

    for _ in range(epochs):
        if loss <= loss_floor:
            reached.add("loss floor")
            converged = True
            break
        gnorm = np.sqrt(
            sum(float(np.sum(gw**2)) + float(np.sum(gb**2)) for gw, gb in grads)
        )
        if gnorm <= 1e-15 * max(abs(loss), 1.0):
            reached.add("zero gradient")
            converged = True
            break
        step = min(2.0 * step, network.STEP_SIZE)
        accepted = False
        while step > network._MIN_STEP:
            try_step(step / gnorm)
            loss_new, grads_new = loss_and_param_grads(net, x_both, n_pos)
            check(loss_new)
            if loss_new <= loss:
                accepted = True
                break
            reached.add("rejected step")
            try_step(-step / gnorm)
            step *= 0.5
        stalled = not accepted or loss - loss_new <= network.REL_TOL * max(abs(loss), 1e-12)
        if accepted:
            loss, grads = loss_new, grads_new
            trace.append(loss)
        else:
            reached.add("steps exhausted")
        if stalled:
            loss_new, grads_new = radial_shrink(loss)
            if loss_new is None:
                reached.add("shrink exhausted")
                converged = True
                break
            reached.add("radial shrink")
            loss, grads = loss_new, grads_new
            trace.append(loss)

    net.loss_trace = np.asarray(trace)
    net.converged = converged
    return net


def fit_case(fit, seed, dim, n_pos, n_neg, hidden, output_dim, epochs, scale):
    """``fit`` (called as :func:`reference_net_fit` is, less ``reached``) on
    two normal class matrices scaled by ``scale``: the net, or the message of
    the NumericError it raised."""
    rng = np.random.default_rng(seed)
    x_pos = scale * rng.normal(size=(dim, n_pos))
    x_neg = scale * rng.normal(size=(dim, n_neg))
    with np.errstate(all="ignore"):
        try:
            return fit(x_pos, x_neg, hidden, output_dim, epochs, seed)
        except NumericError as exc:
            return str(exc)


def present_net_fit(x_pos, x_neg, hidden, output_dim, epochs, seed):
    return net_fit(x_pos, x_neg, hidden=hidden, output_dim=output_dim,
                   cfg=NetConfig(epochs=epochs), seed=seed)


# (seed, dim, n_pos, n_neg, hidden, output_dim, epochs, scale) and what the
# reference descent reaches on it
BRANCH_EXAMPLES = {
    (5929, 4, 3, 4, (4, 4), 4, 61, 1.0):
        {"loss floor", "radial shrink", "rejected step", "steps exhausted"},
    (3628, 3, 5, 7, (), 3, 45, 1.0): {"radial shrink", "rejected step", "steps exhausted"},
    (8265, 4, 9, 8, (1, 5), 4, 58, 1e307): "non-finite split loss at initialization",
    (3049, 2, 9, 9, (2,), 3, 33, 1e307): "network features are non-finite",
}



def with_branch_examples(test):
    """``test`` with every case of ``BRANCH_EXAMPLES`` as a Hypothesis example."""
    fields = ("seed", "dim", "n_pos", "n_neg", "hidden", "output_dim", "epochs", "scale")
    for case in BRANCH_EXAMPLES:
        test = example(**dict(zip(fields, case)))(test)
    return test


class TestNetFitMatchesTheReference:
    @pytest.mark.parametrize("case", list(BRANCH_EXAMPLES))
    def test_examples_reach_their_branches(self, case):
        reached = set()
        out = fit_case(lambda *args: reference_net_fit(*args, reached), *case)
        expected = BRANCH_EXAMPLES[case]
        if isinstance(expected, str):
            assert out.startswith(expected)
        else:
            assert reached == expected

    @given(seed=st.integers(0, 10_000), dim=st.integers(1, 4), n_pos=st.integers(1, 9),
           n_neg=st.integers(1, 9),
           hidden=st.lists(st.integers(1, 6), max_size=2).map(tuple),
           output_dim=st.none() | st.integers(1, 4), epochs=st.integers(1, 80),
           scale=st.sampled_from([1.0, 1e-3, 1e150, 1e300, 1e307]))
    @settings(max_examples=60, deadline=None)
    @with_branch_examples
    def test_net_fit_equals_the_reference_byte_for_byte(self, seed, dim, n_pos, n_neg,
                                                        hidden, output_dim, epochs, scale):
        case = (seed, dim, n_pos, n_neg, hidden, output_dim, epochs, scale)
        expected = fit_case(lambda *args: reference_net_fit(*args, set()), *case)
        got = fit_case(present_net_fit, *case)
        if isinstance(expected, str):
            assert got == expected
            return
        assert len(got.layers) == len(expected.layers)
        for a, b in zip(got.layers, expected.layers):
            assert a.weight.tobytes() == b.weight.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()
        assert got.loss_trace.tobytes() == expected.loss_trace.tobytes()
        assert got.converged == expected.converged
