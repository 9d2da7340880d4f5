import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leafhash import lowrank
from leafhash import (
    InvalidInputError,
    KernelConfig,
    NumericError,
    OptimizerConfig,
    SyntheticSpec,
    fit_transform,
    gen_synthetic,
    kernel_featurize,
    lowrank_loss,
    median_bandwidth,
    nuclear_norm,
    nuclear_subgradient,
    principal_angles,
)

E1 = np.array([[1.0], [0.0]])
E2 = np.array([[0.0], [1.0]])


def column_norm_distances(x, rng):
    """The distances ``median_bandwidth`` samples, as it once took them: the
    norms of the columns of one sample-sized difference."""
    i = rng.integers(0, x.shape[1], size=lowrank.BANDWIDTH_PAIRS)
    j = rng.integers(0, x.shape[1], size=lowrank.BANDWIDTH_PAIRS)
    ok = i != j
    return np.linalg.norm(x[:, i[ok]] - x[:, j[ok]], axis=0)


def small_matrices(max_dim=6):
    return st.builds(
        lambda seed, r, c: np.random.default_rng(seed).normal(size=(r, c)),
        st.integers(0, 10_000),
        st.integers(1, max_dim),
        st.integers(1, max_dim),
    )


def class_matrix(rng, s, n, rank, zero_cols=0, duplicate=False):
    """An s x n class matrix of the given rank, optionally with zero columns
    and an exact duplicate column."""
    x = rng.normal(size=(s, rank)) @ rng.normal(size=(rank, n))
    x[:, :zero_cols] = 0.0
    if duplicate and n > 1:
        x[:, -1] = x[:, 0]
    return x


@st.composite
def class_pairs(draw, min_cols=1):
    """Two class matrices, wide (N > s) or narrow (N <= s), possibly
    rank-deficient, with zero and duplicate columns."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = draw(st.integers(2, 6))
    return tuple(
        class_matrix(rng, s, n, draw(st.integers(1, s)),
                     zero_cols=draw(st.integers(0, n // 3)),
                     duplicate=draw(st.booleans()))
        for n in (draw(st.integers(min_cols, 14)), draw(st.integers(min_cols, 14)))
    )


class TestMatrixInput:
    """Every matrix the package takes passes ``lowrank._as_matrix``, which
    raises InvalidInputError for any input that is not a finite real matrix."""

    @pytest.mark.parametrize("a", [[["a", "1"]], np.array([["x"]], dtype=object),
                                   [[{}, 1.0]], [[1.0, 2.0], [3.0]]])
    def test_input_that_does_not_convert_rejected(self, a):
        # once numpy's ValueError or TypeError
        with pytest.raises(InvalidInputError, match=r"^m is not numeric: "):
            lowrank._as_matrix(a, "m")

    @pytest.mark.parametrize("a", [[[1 + 2j]], np.array([[1.0, 2.0]], dtype=np.complex128),
                                   np.ones((2, 2), dtype=np.complex64)])
    def test_complex_input_rejected(self, a):
        # once a ComplexWarning, and the imaginary parts dropped
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=r"^m has complex entries$"):
                lowrank._as_matrix(a, "m")

    def test_numbers_as_text_objects_and_integers_convert(self):
        expected = np.array([[1.5, 2.0]])
        for a in ([["1.5", "2"]], np.array([[1.5, 2]], dtype=object), [[1.5, 2]],
                  np.array([[1.5, 2.0]], dtype=np.float32)):
            m = lowrank._as_matrix(a, "m")
            assert m.dtype == np.float64
            np.testing.assert_array_equal(m, expected)


class TestNuclearNorm:
    def test_identity(self):
        assert nuclear_norm(np.eye(2)) == pytest.approx(2.0)

    def test_diagonal(self):
        assert nuclear_norm([[3.0, 0.0], [0.0, 4.0]]) == pytest.approx(7.0)

    def test_rank_one(self):
        assert nuclear_norm(np.ones((2, 2))) == pytest.approx(2.0)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            nuclear_norm([[np.nan, 0.0], [0.0, 1.0]])

    @given(small_matrices(), small_matrices())
    @settings(max_examples=50, deadline=None)
    def test_subadditive_on_concatenation(self, a, b):
        if a.shape[0] != b.shape[0]:
            b = np.resize(b, (a.shape[0], b.shape[1]))
        both = np.concatenate([a, b], axis=1)
        assert nuclear_norm(both) <= nuclear_norm(a) + nuclear_norm(b) + 1e-9

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_equality_for_orthogonal_column_spaces(self, seed):
        rng = np.random.default_rng(seed)
        a = np.vstack([rng.normal(size=(3, 4)), np.zeros((3, 4))])
        b = np.vstack([np.zeros((3, 4)), rng.normal(size=(3, 4))])
        both = np.concatenate([a, b], axis=1)
        assert nuclear_norm(both) == pytest.approx(
            nuclear_norm(a) + nuclear_norm(b), abs=1e-9
        )


class TestNuclearSubgradient:
    def test_all_above_threshold(self):
        np.testing.assert_allclose(
            nuclear_subgradient(np.diag([3.0, 0.5]), 0.1), np.eye(2), atol=1e-12
        )

    def test_small_singular_value_cut(self):
        np.testing.assert_allclose(
            nuclear_subgradient(np.diag([3.0, 0.05]), 0.1),
            np.diag([1.0, 0.0]),
            atol=1e-12,
        )

    def test_inner_product_recovers_retained_mass(self, rng):
        a = rng.normal(size=(5, 4))
        sub = nuclear_subgradient(a, 1e-6)
        retained = np.linalg.svd(a, compute_uv=False)
        retained = retained[retained > 1e-6].sum()
        assert np.sum(sub * a) == pytest.approx(retained, abs=1e-8)

    def test_rejects_bad_threshold(self):
        with pytest.raises(InvalidInputError):
            nuclear_subgradient(np.eye(2), 0.0)

    @given(st.integers(0, 2000))
    @settings(max_examples=30, deadline=None)
    def test_matches_directional_derivative(self, seed):
        # generic matrix: well-separated singular values far above threshold
        rng = np.random.default_rng(seed)
        u = np.linalg.qr(rng.normal(size=(5, 5)))[0]
        v = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        sv = np.array([5.0, 3.5, 2.0, 1.0])
        a = u[:, :4] @ np.diag(sv) @ v.T
        tau = 1e-3 * sv[0]
        sub = nuclear_subgradient(a, tau)
        delta = rng.normal(size=a.shape)
        h = 1e-6
        numeric = (nuclear_norm(a + h * delta) - nuclear_norm(a - h * delta)) / (2 * h)
        analytic = float(np.sum(sub * delta))
        assert abs(numeric - analytic) <= 1e-4 * max(abs(numeric), 1.0)


class TestLowRankLoss:
    def test_orthogonal_columns_zero(self):
        assert lowrank_loss(np.eye(2), E1, E2) == pytest.approx(0.0, abs=1e-12)

    def test_zero_transform(self):
        assert lowrank_loss(np.zeros((2, 2)), E1, E2) == pytest.approx(0.0)

    def test_identical_singletons(self):
        assert lowrank_loss(np.eye(2), E1, E1) == pytest.approx(2 - math.sqrt(2))

    def test_empty_class_rejected(self):
        with pytest.raises(InvalidInputError):
            lowrank_loss(np.eye(2), E1, np.zeros((2, 0)))

    @given(st.integers(0, 5000))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(4, 4))
        assert lowrank_loss(w, rng.normal(size=(4, 6)), rng.normal(size=(4, 5))) >= -1e-9


class TestFitTransform:
    def test_orthogonal_subspaces_stay_put(self, rng):
        x_pos = np.vstack([rng.normal(size=(2, 30)), np.zeros((2, 30))])
        x_neg = np.vstack([np.zeros((2, 30)), rng.normal(size=(2, 30))])
        fit = fit_transform(x_pos, x_neg)
        assert fit.loss_trace[-1] <= 1e-6
        np.testing.assert_allclose(fit.w, np.eye(4))

    def test_two_lines_at_45_degrees(self, rng):
        d1 = np.array([1.0, 0.0])
        d2 = np.array([1.0, 1.0]) / math.sqrt(2)
        x_pos = np.outer(d1, rng.uniform(0.2, 1.0, 30))
        x_neg = np.outer(d2, rng.uniform(0.2, 1.0, 30))
        fit = fit_transform(x_pos, x_neg)
        assert fit.loss_trace[-1] <= 0.05 * fit.loss_trace[0]

    def test_empty_class_rejected(self, rng):
        with pytest.raises(InvalidInputError):
            fit_transform(rng.normal(size=(3, 5)), np.zeros((3, 0)))

    def test_trace_non_increasing(self):
        ds = gen_synthetic(SyntheticSpec(kind="subspaces", seed=5))
        fit = fit_transform(ds.features[:, ds.labels == 0], ds.features[:, ds.labels == 1])
        assert np.all(np.diff(fit.loss_trace) <= 1e-12)

    def test_opens_up_noisy_subspaces(self):
        ds = gen_synthetic(SyntheticSpec(kind="subspaces", noise=0.01, seed=3))
        x_pos = ds.features[:, ds.labels == 0]
        x_neg = ds.features[:, ds.labels == 1]
        fit = fit_transform(x_pos, x_neg)
        angle = principal_angles(fit.w @ x_pos, fit.w @ x_neg, rank=2)[0]
        assert np.degrees(angle) >= 80.0
        assert fit.loss_trace[-1] <= 0.05 * fit.loss_trace[0]

    @given(class_pairs(), st.integers(0, 40))
    @settings(max_examples=200, deadline=None)
    def test_trace_never_rises(self, pair, geometry_iters):
        # the trace holds the losses the descent compared, so it falls exactly
        fit = fit_transform(*pair, OptimizerConfig(max_iters=60,
                                                   geometry_iters=geometry_iters))
        assert np.all(np.diff(fit.loss_trace) <= 0)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            OptimizerConfig(max_iters=0)
        with pytest.raises(InvalidInputError):
            OptimizerConfig(geometry_iters=-1)


def _parallel(a, b):
    """Whether ``a`` is a multiple of ``b`` up to rounding."""
    coef = np.sum(a * b) / np.sum(b * b)
    return np.linalg.norm(a - coef * b) <= 1e-12 * np.linalg.norm(a)


class TestFitTransformReduction:
    """The descent runs on QR-reduced factors of the class matrices."""

    @given(class_pairs(min_cols=7), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_reduced_loss_and_subgradients_match_full(self, pair, seed):
        x_pos, x_neg = pair
        s = x_pos.shape[0]
        w = np.random.default_rng(seed).normal(size=(s, s))
        full = [x_pos, x_neg, np.concatenate(pair, axis=1)]
        reduced = [lowrank._reduced(x) for x in full]
        assert all(r.shape == (s, s) for r in reduced)

        loss = lowrank._split_loss(*(w @ x for x in full))
        loss_r = lowrank._split_loss(*(w @ r for r in reduced))
        scale = sum(nuclear_norm(w @ x) for x in full)
        assert abs(loss - loss_r) <= 1e-12 * scale

        _, *grads = lowrank._split_subgrads(*(w @ x for x in full), 1e-3)
        _, *grads_r = lowrank._split_subgrads(*(w @ r for r in reduced), 1e-3)
        for x, r, g, g_r in zip(full, reduced, grads, grads_r):
            np.testing.assert_allclose(
                g_r @ r.T, g @ x.T, rtol=0, atol=1e-10 * max(1.0, np.linalg.norm(x))
            )

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(0, 20))
    @settings(max_examples=25, deadline=None)
    def test_narrow_inputs_are_not_reduced(self, seed, s, geometry_iters):
        rng = np.random.default_rng(seed)
        n_pos = int(rng.integers(1, s))
        x_pos = rng.normal(size=(s, n_pos))
        x_neg = rng.normal(size=(s, int(rng.integers(1, s - n_pos + 1))))
        cfg = OptimizerConfig(max_iters=30, geometry_iters=geometry_iters)
        fit = fit_transform(x_pos, x_neg, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lowrank, "_reduced", lambda x: x)
            unreduced = fit_transform(x_pos, x_neg, cfg)
        assert np.array_equal(fit.w, unreduced.w)
        assert np.array_equal(fit.loss_trace, unreduced.loss_trace)

    def test_svd_budget_of_a_free_descent(self, rng, monkeypatch):
        # the class spans overlap, so the descent ends by shrinking W
        s = 6
        x_pos = class_matrix(rng, s, 40, 4, zero_cols=3)
        x_neg = class_matrix(rng, s, 30, 4, duplicate=True)
        svd_shapes, iterates, evaluated = [], [], []
        svd, split_loss, split_subgrads = (
            np.linalg.svd, lowrank._split_loss, lowrank._split_subgrads)

        def counting_svd(a, *args, **kwargs):
            svd_shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        def counting_loss(a_pos, a_neg, a_both):
            evaluated.append((a_pos, iterates[-1]))
            return split_loss(a_pos, a_neg, a_both)

        def counting_subgrads(a_pos, *args):
            iterates.append(a_pos)
            return split_subgrads(a_pos, *args)

        monkeypatch.setattr(lowrank.np.linalg, "svd", counting_svd)
        monkeypatch.setattr(lowrank, "_split_loss", counting_loss)
        monkeypatch.setattr(lowrank, "_split_subgrads", counting_subgrads)
        fit = fit_transform(x_pos, x_neg,
                            OptimizerConfig(max_iters=40, geometry_iters=0))

        assert all(r <= s and c <= s for r, c in svd_shapes)
        assert len(iterates) == len(fit.loss_trace)
        assert len(svd_shapes) == 3 * (len(iterates) + len(evaluated))
        # radial steps were taken, and no line search evaluated one
        assert any(_parallel(b, a) for a, b in zip(iterates, iterates[1:]))
        assert not any(_parallel(a, current) for a, current in evaluated)


class TestKernelFeaturize:
    def test_rbf_self_anchor_is_one(self, rng):
        anchors = rng.normal(size=(3, 4))
        kc = KernelConfig(anchors=anchors, kind="rbf", sigma=0.7)
        feats = kernel_featurize(anchors[:, [2]], kc)
        assert feats[2, 0] == pytest.approx(1.0)

    def test_rbf_flat_at_huge_bandwidth(self, rng):
        kc = KernelConfig(anchors=rng.normal(size=(3, 5)), kind="rbf", sigma=1e9)
        feats = kernel_featurize(rng.normal(size=(3, 4)), kc)
        np.testing.assert_allclose(feats, 1.0, atol=1e-12)

    def test_polynomial_linear_case(self, rng):
        anchors = rng.normal(size=(3, 5))
        x = rng.normal(size=(3, 4))
        kc = KernelConfig(anchors=anchors, kind="polynomial", p=0.0, q=1.0)
        np.testing.assert_allclose(kernel_featurize(x, kc), anchors.T @ x)

    def test_dimension_mismatch(self, rng):
        kc = KernelConfig(anchors=rng.normal(size=(3, 5)))
        with pytest.raises(InvalidInputError):
            kernel_featurize(rng.normal(size=(4, 2)), kc)

    def test_median_bandwidth_deterministic(self, rng):
        x = rng.normal(size=(4, 50))
        s1 = median_bandwidth(x, np.random.default_rng(9))
        s2 = median_bandwidth(x, np.random.default_rng(9))
        assert s1 == s2 > 0

    def test_median_bandwidth_that_overflows_is_numeric_error(self, rng):
        x = rng.normal(size=(4, 50)) * 1e200
        with pytest.raises(NumericError, match="median distance"):
            median_bandwidth(x, np.random.default_rng(9))

    def test_median_bandwidth_of_one_point_is_one(self):
        assert median_bandwidth(np.ones((3, 1)), np.random.default_rng(9)) == 1.0

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 800), n=st.integers(2, 300),
           log_scale=st.floats(-3, 150), distinct=st.integers(1, 6),
           coincident=st.booleans(),
           pairs=st.sampled_from([1, 2, 63, 64, 65, 127, 128, 129, 1000]),
           fortran=st.booleans())
    def test_median_bandwidth_distances_equal_the_column_norms_bit_for_bit(
            self, seed, d, n, log_scale, distinct, coincident, pairs, fortran):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(d, n)) * 10.0**log_scale
        if coincident:  # few distinct points, so many pairs are 0 apart
            x = x[:, rng.integers(0, min(distinct, n), size=n)]
        if fortran:
            x = np.asfortranarray(x)
        seen = []
        real_median = np.median

        def median(a, *args, **kwargs):
            seen.append(a.copy())
            return real_median(a, *args, **kwargs)

        with mock.patch.object(lowrank, "BANDWIDTH_PAIRS", pairs), \
                mock.patch.object(np, "median", median):
            sigma = median_bandwidth(x, np.random.default_rng(seed))
            want = column_norm_distances(np.ascontiguousarray(x), np.random.default_rng(seed))
        if want.size == 0:
            assert sigma == 1.0 and seen == []
            return
        (got,) = seen
        assert got.tobytes() == want.tobytes()
        med = float(real_median(want))
        assert sigma == (med if med > 0 else 1.0)

    def test_rbf_needs_positive_sigma(self, rng):
        with pytest.raises(InvalidInputError):
            KernelConfig(anchors=rng.normal(size=(2, 3)), kind="rbf", sigma=0.0)

    @pytest.mark.parametrize("sigma", [1e-200, np.float64(1e-200), 1e200, np.float64(1e200)])
    def test_rbf_sigma_whose_square_underflows_or_overflows_rejected(self, rng, sigma):
        # the map divides by 2 sigma^2, which would be 0 or inf
        with pytest.raises(InvalidInputError, match="2 sigma\\^2"):
            KernelConfig(anchors=rng.normal(size=(2, 3)), kind="rbf", sigma=sigma)

    @pytest.mark.parametrize("constants", [
        {"sigma": np.inf}, {"sigma": np.nan}, {"p": np.nan}, {"q": -np.inf},
    ])
    def test_non_finite_constants_rejected(self, rng, constants):
        with pytest.raises(InvalidInputError, match="finite"):
            KernelConfig(anchors=rng.normal(size=(2, 3)), **constants)


class TestPrincipalAngles:
    def test_orthogonal_lines(self):
        np.testing.assert_allclose(principal_angles(E1, E2), [np.pi / 2])

    def test_identical_subspaces(self, rng):
        a = rng.normal(size=(5, 2))
        np.testing.assert_allclose(principal_angles(a, a), [0.0, 0.0], atol=1e-7)

    def test_45_degrees(self):
        mix = np.array([[1.0], [1.0]]) / math.sqrt(2)
        np.testing.assert_allclose(principal_angles(E1, mix), [np.pi / 4])

    def test_zero_matrix_rejected(self):
        with pytest.raises(InvalidInputError):
            principal_angles(np.zeros((2, 2)), E1)

    @given(st.integers(0, 5000))
    @settings(max_examples=50, deadline=None)
    def test_sorted_and_in_range(self, seed):
        rng = np.random.default_rng(seed)
        angles = principal_angles(rng.normal(size=(6, 3)), rng.normal(size=(6, 4)))
        assert np.all(np.diff(angles) >= -1e-12)
        assert np.all(angles >= -1e-9)
        assert np.all(angles <= np.pi / 2 + 1e-9)
