import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leafhash import (
    InvalidInputError,
    KernelConfig,
    SplitConfig,
    SplitNode,
    SyntheticSpec,
    gen_synthetic,
    ksvd_fit,
    median_bandwidth,
    node_route,
    omp,
    residual_projector,
    train_split_node,
)
from leafhash import dictionaries
from leafhash.dictionaries import node_route_many


def routing_consistency(node, x_pos, x_neg, kernel=None):
    left_neg = node_route_many(node, x_neg, kernel)
    left_pos = node_route_many(node, x_pos, kernel)
    return (left_neg.mean() + (1.0 - left_pos.mean())) / 2.0


def reference_omp(atoms, x, sparsity, tol=1e-12):
    """Column-by-column OMP with one ``lstsq`` per support step."""
    d = np.asarray(atoms, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    m = d.shape[1]
    z = np.zeros((m, x.shape[1]))
    for col in range(x.shape[1]):
        y = x[:, col]
        ynorm = np.linalg.norm(y)
        if ynorm == 0.0:
            continue
        resid = y.copy()
        support = []
        coef = None
        for _ in range(min(sparsity, m)):
            if np.linalg.norm(resid) <= tol * ynorm:
                break
            scores = np.abs(d.T @ resid)
            scores[support] = -1.0
            j = int(np.argmax(scores))
            support.append(j)
            coef, *_ = np.linalg.lstsq(d[:, support], y, rcond=None)
            resid = y - d[:, support] @ coef
        if coef is not None:
            z[support, col] = coef
    return z


def omp_inputs(rng, r, m, n, n_atom_cols, n_zero_cols):
    """Unit-norm atoms and samples; the first columns are scaled atoms,
    the last ones are zero."""
    atoms = rng.normal(size=(r, m))
    atoms /= np.linalg.norm(atoms, axis=0)
    x = rng.normal(size=(r, n))
    k = min(n_atom_cols, n)
    x[:, :k] = atoms[:, rng.integers(0, m, k)] * rng.uniform(0.5, 3.0, k)
    x[:, n - min(n_zero_cols, n - k):] = 0.0
    return atoms, x, k


class TestOmp:
    @given(st.integers(2, 64), st.integers(1, 16), st.integers(1, 200), st.integers(1, 6),
           st.integers(0, 10), st.integers(0, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_column_by_column_reference(self, r, m, n, sparsity, n_atom_cols,
                                                n_zero_cols, seed):
        atoms, x, k = omp_inputs(np.random.default_rng(seed), r, m, n, n_atom_cols,
                                 n_zero_cols)
        want = reference_omp(atoms, x, sparsity)
        got = omp(atoms, x, sparsity)
        np.testing.assert_array_equal(got != 0, want != 0)
        np.testing.assert_allclose(got, want, rtol=1e-10,
                                   atol=1e-10 * max(np.abs(want).max(), 1e-300))
        assert np.all((got[:, :k] != 0).sum(axis=0) == 1)  # an atom stops at itself
        assert not got[:, np.linalg.norm(x, axis=0) == 0].any()

    @pytest.mark.parametrize("sparsity", [1, 3, 7])
    def test_duplicated_atom_gives_reference_residuals(self, sparsity):
        rng = np.random.default_rng(11)
        atoms, x, _ = omp_inputs(rng, 8, 7, 60, 10, 2)
        atoms[:, 6] = atoms[:, 0]
        x[:, :5] = atoms[:, :1] * rng.uniform(0.5, 3.0, 5)
        # either copy of the atom may be picked first, so compare residuals
        want = np.linalg.norm(x - atoms @ reference_omp(atoms, x, sparsity), axis=0)
        got = np.linalg.norm(x - atoms @ omp(atoms, x, sparsity), axis=0)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.linalg.norm(x, axis=0).max())

    @given(st.integers(0, 3000), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_sparsity_bound(self, seed, sparsity):
        rng = np.random.default_rng(seed)
        atoms = rng.normal(size=(6, 5))
        atoms /= np.linalg.norm(atoms, axis=0)
        codes = omp(atoms, rng.normal(size=(6, 7)), sparsity)
        assert np.all((codes != 0).sum(axis=0) <= sparsity)

    def test_exact_recovery_in_span(self, rng):
        atoms = np.eye(4)
        x = np.array([[2.0], [0.0], [0.0], [0.0]])
        codes = omp(atoms, x, 1)
        np.testing.assert_allclose(atoms @ codes, x, atol=1e-12)


class TestKsvd:
    def test_repeated_unit_vector(self):
        v = np.array([3.0, 4.0, 0.0]) / 5.0
        x = np.tile(v[:, None], (1, 10))
        d = ksvd_fit(x, 1, 1, rng=0)
        np.testing.assert_allclose(np.abs(d.atoms[:, 0]), np.abs(v), atol=1e-9)
        resid = np.linalg.norm(x - d.atoms @ omp(d.atoms, x, 1))
        assert resid <= 1e-9

    def test_orthonormal_columns_recovered(self):
        x = np.eye(5)
        d = ksvd_fit(x, 5, 1, rng=0)
        resid = np.linalg.norm(x - d.atoms @ omp(d.atoms, x, 1))
        assert resid <= 1e-6

    def test_zero_atom_count_rejected(self):
        with pytest.raises(InvalidInputError):
            ksvd_fit(np.eye(3), 0, 1)

    def test_all_zero_columns_rejected(self):
        with pytest.raises(InvalidInputError):
            ksvd_fit(np.zeros((3, 4)), 2, 1)

    def test_unit_norm_atoms(self, rng):
        d = ksvd_fit(rng.normal(size=(6, 30)), 4, 2, rng=1)
        np.testing.assert_allclose(np.linalg.norm(d.atoms, axis=0), 1.0, atol=1e-9)

    def test_same_fit_as_with_reference_omp(self, monkeypatch):
        x = np.random.default_rng(4).normal(size=(12, 80))
        got = ksvd_fit(x, 6, 3, iters=10, rng=7)
        monkeypatch.setattr(dictionaries, "omp", reference_omp)
        want = ksvd_fit(x, 6, 3, iters=10, rng=7)
        assert len(got.error_trace) == len(want.error_trace)
        np.testing.assert_allclose(got.error_trace, want.error_trace, rtol=1e-10)
        np.testing.assert_allclose(got.atoms, want.atoms, rtol=0, atol=1e-10)

    @given(st.integers(0, 3000))
    @settings(max_examples=20, deadline=None)
    def test_error_trace_non_increasing(self, seed):
        rng = np.random.default_rng(seed)
        d = ksvd_fit(rng.normal(size=(5, 25)), 3, 2, iters=8, rng=seed)
        assert np.all(np.diff(d.error_trace) <= 1e-9)


class TestResidualProjector:
    def test_full_basis_annihilates(self, rng):
        basis = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        p = residual_projector(basis, np.eye(4))
        assert np.abs(p).max() <= 1e-6

    def test_unit_residual_off_span(self):
        p = residual_projector(np.array([[1.0], [0.0]]), np.eye(2))
        assert np.linalg.norm(p @ np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_idempotent_with_identity_transform(self, rng):
        atoms = rng.normal(size=(5, 2))
        atoms /= np.linalg.norm(atoms, axis=0)
        p = residual_projector(atoms, np.eye(5))
        np.testing.assert_allclose(p @ p, p, atol=1e-8)

    @given(st.integers(0, 3000))
    @settings(max_examples=40, deadline=None)
    def test_matches_least_squares_residual(self, seed):
        rng = np.random.default_rng(seed)
        atoms = rng.normal(size=(6, 3))
        atoms /= np.linalg.norm(atoms, axis=0)
        w = rng.normal(size=(6, 6))
        x = rng.normal(size=6)
        p = residual_projector(atoms, w)
        coef, *_ = np.linalg.lstsq(atoms, w @ x, rcond=None)
        direct = np.linalg.norm(atoms @ coef - w @ x)
        assert np.linalg.norm(p @ x) == pytest.approx(direct, abs=1e-6)


class TestNodeRoute:
    def _node(self, proj_pos, proj_neg):
        return SplitNode(proj_pos=proj_pos, proj_neg=proj_neg,
                         class_partition={0: "neg", 1: "pos"})

    def test_zero_neg_residual_goes_left(self):
        node = self._node(np.eye(2), np.zeros((2, 2)))
        assert node_route(node, np.array([1.0, 0.0])) == "left"

    def test_in_pos_span_goes_right(self):
        node = self._node(np.zeros((2, 2)), np.eye(2))
        assert node_route(node, np.array([1.0, 0.0])) == "right"

    def test_exact_tie_goes_right(self):
        node = self._node(np.eye(2), np.eye(2))
        assert node_route(node, np.array([1.0, 0.0])) == "right"

    def test_degenerate_goes_left(self):
        node = SplitNode(class_partition={0: "neg"}, degenerate=True)
        assert node_route(node, np.array([1.0, 0.0])) == "left"

    def test_deterministic(self, rng):
        node = self._node(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
        x = rng.normal(size=3)
        assert node_route(node, x) == node_route(node, x)

    @given(seed=st.integers(0, 10_000), rows=st.integers(1, 40), n=st.integers(1, 300))
    @settings(max_examples=40, deadline=None)
    def test_residuals_are_norms_of_projections(self, seed, rows, n):
        # the in-place column norms must match np.linalg.norm bit for bit
        rng = np.random.default_rng(seed)
        node = self._node(rng.normal(size=(rows, 5)), rng.normal(size=(rows, 5)))
        x = rng.normal(size=(5, n)) * 10.0 ** rng.integers(-3, 4)
        e_neg, e_pos = dictionaries.node_residuals(node, x)
        np.testing.assert_array_equal(e_neg, np.linalg.norm(node.proj_neg @ x, axis=0))
        np.testing.assert_array_equal(e_pos, np.linalg.norm(node.proj_pos @ x, axis=0))


class TestTrainSplitNode:
    def test_orthogonal_subspace_consistency(self):
        rng = np.random.default_rng(5)
        n = 80
        x_neg = np.zeros((8, n))
        x_neg[:2] = rng.normal(size=(2, n))
        x_pos = np.zeros((8, n))
        x_pos[2:4] = rng.normal(size=(2, n))
        x_neg += 0.01 * rng.normal(size=x_neg.shape)
        x_pos += 0.01 * rng.normal(size=x_pos.shape)
        node = train_split_node(x_pos, x_neg, {0: "neg", 1: "pos"},
                                SplitConfig(learner="linear"), rng=0)
        assert routing_consistency(node, x_pos, x_neg) >= 0.95

    def test_empty_group_degenerate(self, rng):
        node = train_split_node(None, rng.normal(size=(4, 10)), {0: "neg"},
                                SplitConfig(learner="linear"), rng=0)
        assert node.degenerate
        assert np.all(node_route_many(node, rng.normal(size=(4, 5))))

    def test_no_samples_rejected(self):
        with pytest.raises(InvalidInputError):
            train_split_node(None, None, {}, SplitConfig())

    def test_two_circles_with_rbf(self):
        ds = gen_synthetic(SyntheticSpec(kind="circles2d", ambient_dim=2,
                                         noise=0.05, samples_per_class=120, seed=7))
        train = np.r_[0:80, 120:200]
        ftr, ltr = ds.features[:, train], ds.labels[train]
        kc = KernelConfig(anchors=ftr[:, ::2], kind="rbf",
                          sigma=median_bandwidth(ftr, np.random.default_rng(0)))
        node = train_split_node(ftr[:, ltr == 1], ftr[:, ltr == 0],
                                {0: "neg", 1: "pos"},
                                SplitConfig(learner="kernel"), kernel=kc, rng=0)
        left = node_route_many(node, ftr, kernel=kc)
        train_acc = ((left & (ltr == 0)) | (~left & (ltr == 1))).mean()
        assert train_acc >= 0.90

    def test_partition_stored(self, rng):
        node = train_split_node(rng.normal(size=(4, 12)), rng.normal(size=(4, 12)),
                                {3: "neg", 7: "pos"}, SplitConfig(learner="linear"),
                                rng=0)
        assert node.class_partition == {3: "neg", 7: "pos"}
