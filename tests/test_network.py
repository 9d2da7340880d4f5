import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leafhash import (
    DenseLayer,
    DenseNet,
    InvalidInputError,
    NumericError,
    SyntheticSpec,
    build_net,
    gen_synthetic,
    grad_check,
    lowrank_loss,
    lowrank_loss_layer,
    net_fit,
    net_forward,
    principal_angles,
)
from leafhash.network import _forward_trace

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
