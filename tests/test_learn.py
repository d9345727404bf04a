import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from eof import learn
from eof.design import enumerate_sparse_grid
from eof.embedding import SCALE_PLAIN, SCALE_SQRT, embed_batch
from eof.errors import ConvergenceError, DimError, InvalidData
from eof.kernels import KernelSpec
from eof.learn import (CLASSIFICATION, MODEL_FORMAT, REGRESSION, Model,
                       _features, default_lambda, load_model,
                       logistic_fit, predict, ridge_fit, save_model)
from eof.learn import test_error as error_of


def eof_problem(N, level, scale=SCALE_SQRT, seed=0):
    """Sparse D=2 Laplace features of N uniform points, a smooth target and
    its sign as labels."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, (N, 2))
    spec = KernelSpec("laplace", omega=1.0, dim=2)
    F = embed_batch(spec, enumerate_sparse_grid(2, level), X, scale=scale)
    y = np.sin(6.0 * X[:, 0]) * np.cos(3.0 * X[:, 1])
    y += 0.2 * rng.uniform(-1.0, 1.0, N)
    return F, y, np.where(y > 0.0, 1.0, -1.0)


class TestRidgeFit:
    def test_identity_features_interpolate_as_lambda_vanishes(self):
        y = np.array([1.0, -2.0, 3.0])
        w = ridge_fit(np.eye(3), y, 1e-12).weights
        np.testing.assert_allclose(w, y, atol=1e-9)

    def test_hand_solved_one_feature(self):
        # column of ones, y = ones, lambda = 1, N = 4: (4 + 4) w = 4
        F = np.ones((4, 1))
        y = np.ones(4)
        assert ridge_fit(F, y, 1.0).weights[0] == pytest.approx(0.5)

    def test_huge_lambda_shrinks_to_zero(self):
        rng = np.random.default_rng(0)
        F = rng.standard_normal((50, 5))
        y = rng.standard_normal(50)
        w = ridge_fit(F, y, 1e12).weights
        assert np.linalg.norm(w) <= np.linalg.norm(F.T @ y) / (1e12 * 50)

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(InvalidData):
            ridge_fit(np.eye(2), np.ones(2), 0.0)

    def test_nonfinite_targets_rejected(self):
        with pytest.raises(InvalidData):
            ridge_fit(np.eye(2), np.array([1.0, np.inf]), 0.1)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_matches_generic_dense_solve(self, seed):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(5, 501))
        M = int(rng.integers(1, 101))
        lam = float(rng.uniform(1e-3, 1.0))
        F = rng.standard_normal((N, M))
        y = rng.standard_normal(N)
        got = ridge_fit(F, y, lam).weights
        want = np.linalg.solve(F.T @ F + lam * N * np.eye(M), F.T @ y)
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-10)

    def test_sparse_and_dense_paths_agree(self):
        rng = np.random.default_rng(7)
        F = rng.standard_normal((40, 8))
        F[F < 0.5] = 0.0
        y = rng.standard_normal(40)
        wd = ridge_fit(F, y, 0.1).weights
        ws = ridge_fit(sp.csr_matrix(F), y, 0.1).weights
        np.testing.assert_allclose(wd, ws, atol=1e-10)

    def test_residual_of_normal_equations(self):
        rng = np.random.default_rng(1)
        F = rng.standard_normal((300, 200))
        y = rng.standard_normal(300)
        lam = 0.05
        w = ridge_fit(F, y, lam).weights
        lhs = (F.T @ F + lam * 300 * np.eye(200)) @ w
        rhs = F.T @ y
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)


class TestLogisticFit:
    def test_zero_features_zero_weights(self):
        F = np.zeros((10, 3))
        y = np.array([1.0, -1.0] * 5)
        w = logistic_fit(F, y, 0.1).weights
        np.testing.assert_array_equal(w, 0.0)

    def test_separable_scalar_matches_grid_search(self):
        X = np.array([[-1.0], [-0.5], [0.5], [1.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        lam = 0.1
        model = logistic_fit(X, y, lam)

        def obj(w):
            return np.mean(np.logaddexp(0.0, -y * (X[:, 0] * w))) + lam * w * w

        grid = np.linspace(-10, 10, 200001)
        w_star = grid[np.argmin([obj(w) for w in grid])]
        assert model.weights[0] == pytest.approx(w_star, abs=1e-4)
        assert model.weights[0] > 0.0

    def test_gradient_norm_below_tol_at_return(self):
        rng = np.random.default_rng(3)
        F = rng.standard_normal((100, 6))
        y = np.sign(rng.standard_normal(100))
        lam = 0.05
        model = logistic_fit(F, y, lam, tol=1e-6)
        m = y * (F @ model.weights)
        grad = -F.T @ (y * expit(-m)) / 100 + 2 * lam * model.weights
        assert np.linalg.norm(grad) < 1e-6

    def test_huge_lambda_shrinks_to_zero(self):
        rng = np.random.default_rng(4)
        F = rng.standard_normal((50, 4))
        y = np.sign(rng.standard_normal(50))
        w = logistic_fit(F, y, 1e9).weights
        assert np.linalg.norm(w) < 1e-6

    def test_bad_labels_rejected(self):
        with pytest.raises(InvalidData):
            logistic_fit(np.eye(3), np.array([0.0, 1.0, -1.0]), 0.1)

    def test_nonconvergence_raises_with_grad_norm(self):
        rng = np.random.default_rng(5)
        F = rng.standard_normal((60, 5))
        y = np.sign(rng.standard_normal(60))
        with pytest.raises(ConvergenceError) as err:
            logistic_fit(F, y, 0.01, max_iter=1, tol=1e-14)
        assert err.value.grad_norm > 0.0

    def test_sparse_and_dense_paths_agree(self):
        rng = np.random.default_rng(6)
        F = rng.standard_normal((80, 5))
        F[np.abs(F) < 0.7] = 0.0
        y = np.sign(rng.standard_normal(80))
        wd = logistic_fit(F, y, 0.1).weights
        ws = logistic_fit(sp.csr_matrix(F), y, 0.1).weights
        np.testing.assert_allclose(wd, ws, atol=1e-8)


class TestSparseSolve:
    def test_no_M_by_M_array_at_level_9(self):
        F, y, labels = eof_problem(3000, 9)
        M = F.shape[1]
        assert M == 4097
        lam = default_lambda(3000)
        for fit, target in ((ridge_fit, y), (logistic_fit, labels)):
            tracemalloc.start()
            try:
                fit(F, target, lam)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # one M x M float64 array would be 134 MB
            assert peak < M * M * 8 / 20, (fit.__name__, peak)

    @pytest.mark.parametrize("scale", [SCALE_PLAIN, SCALE_SQRT])
    def test_sparse_features_match_densified(self, scale):
        F, y, labels = eof_problem(600, 5, scale, seed=1)
        lam = default_lambda(600)
        for fit, target in ((ridge_fit, y), (logistic_fit, labels)):
            ws = fit(F, target, lam).weights
            wd = fit(F.toarray(), target, lam).weights
            np.testing.assert_allclose(ws, wd, rtol=1e-8)

    def test_iteration_cap_raises_with_relative_residual(self, monkeypatch):
        F, y, _ = eof_problem(100, 3)
        monkeypatch.setattr(learn, "CG_MAX_ITER", 0)
        with pytest.raises(ConvergenceError, match="relative residual") as err:
            ridge_fit(F, y, 0.1)
        assert err.value.grad_norm == 1.0

    def test_zero_right_hand_side_gives_zero_weights(self):
        F, y, _ = eof_problem(50, 3)
        w = ridge_fit(F, np.zeros_like(y), 0.1).weights
        np.testing.assert_array_equal(w, 0.0)


class TestFeatureTypes:
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_integer_features_fit_like_float(self, sparse):
        rng = np.random.default_rng(4)
        F = (rng.uniform(size=(60, 8)) < 0.3).astype(np.int64)
        y = rng.standard_normal(60)
        labels = np.where(y > 0.0, 1.0, -1.0)
        as_input = sp.csr_matrix if sparse else np.asarray
        for fit, target in ((ridge_fit, y), (logistic_fit, labels)):
            want = fit(as_input(F.astype(np.float64)), target, 0.1).weights
            got = fit(as_input(F), target, 0.1).weights
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_non_finite_features_rejected(self, sparse, bad):
        rng = np.random.default_rng(7)
        F = (rng.uniform(size=(40, 6)) < 0.5) * rng.standard_normal((40, 6))
        F[3, 2] = bad
        y = rng.standard_normal(40)
        labels = np.where(y > 0.0, 1.0, -1.0)
        as_input = sp.csr_matrix if sparse else np.asarray
        for fit, target in ((ridge_fit, y), (logistic_fit, labels)):
            with pytest.raises(InvalidData, match="features"):
                fit(as_input(F), target, 0.1)

    def test_float64_features_are_not_copied(self):
        F = np.random.default_rng(0).uniform(size=(5, 3))
        assert _features(F) is F
        Fs = sp.csr_matrix(F)
        assert _features(Fs) is Fs


class TestPredictAndError:
    def test_perfect_predictions_zero_error(self):
        Z = np.eye(4)
        y = np.array([1.0, 2.0, 3.0, 4.0])
        model = Model(y, task=REGRESSION)
        assert error_of(model, Z, y) == 0.0

    def test_sign_zero_breaks_toward_plus_one(self):
        model = Model(np.zeros(2), task=CLASSIFICATION)
        Z = np.zeros((4, 2))
        y = np.array([1.0, 1.0, -1.0, -1.0])
        assert error_of(model, Z, y) == 0.5

    def test_hand_three_point_mse(self):
        # predictions (1, 2, 3) vs targets (0, 2, 6): mean of (1, 0, 9)
        model = Model(np.array([1.0]), task=REGRESSION)
        Z = np.array([[1.0], [2.0], [3.0]])
        y = np.array([0.0, 2.0, 6.0])
        assert error_of(model, Z, y) == pytest.approx(10.0 / 3.0)

    def test_dim_mismatch(self):
        model = Model(np.ones(3))
        with pytest.raises(DimError):
            predict(model, np.ones((2, 2)))
        with pytest.raises(DimError, match="2-D"):
            error_of(model, np.ones(3), np.ones(1))

    def test_nested_list_features_predict(self):
        model = Model(np.array([0.5, -1.0]))
        np.testing.assert_array_equal(predict(model, [[1.0, 2.0]]), [-1.5])
        assert error_of(model, [[1.0, 2.0], [2.0, 0.0]], [0.0, 1.0]) == 1.125
        with pytest.raises(DimError):
            predict(model, [[1.0, 2.0, 3.0]])

    def test_classification_labels_outside_plus_minus_one_rejected(self):
        # predictions (1, -2): labels (1, 0) scored as {-1, +1} would give
        # an error rate of 0.5 without complaint
        model = Model(np.ones(2), task=CLASSIFICATION)
        Z = np.array([[1.0, 0.0], [0.0, -2.0]])
        with pytest.raises(InvalidData, match="-1 or \\+1"):
            error_of(model, Z, [1.0, 0.0])
        assert error_of(model, Z, [1.0, -1.0]) == 0.0

    def test_default_lambda_schedule(self):
        assert default_lambda(4) == 0.5
        assert default_lambda(2000) == pytest.approx(2000 ** -0.5)


class TestModelSerialization:
    def test_round_trip(self, tmp_path):
        model = Model(np.array([1.5, -2.25, 0.0]), lam=0.3,
                      task=CLASSIFICATION, nnz_F=42)
        path = tmp_path / "model.txt"
        save_model(model, path, {"kernel": "laplace"})
        back = load_model(path)
        np.testing.assert_array_equal(back.weights, model.weights)
        assert back.lam == 0.3
        assert back.task == CLASSIFICATION
        assert back.nnz_F == 42
        assert back.feature_map["kernel"] == "laplace"

    def test_numpy_scalar_lambda_round_trips(self, tmp_path):
        # numpy 2 reprs np.float64(0.25) as "np.float64(0.25)", which
        # load_model cannot read back
        path = tmp_path / "model.txt"
        save_model(ridge_fit(np.eye(2), [1.0, 2.0], np.float64(0.25)), path)
        assert load_model(path).lam == 0.25

    def test_version_tag_enforced(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# some-other-format\n1.0\n")
        with pytest.raises(InvalidData):
            load_model(path)

    def test_header_carries_format_name(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(Model(np.array([1.0])), path)
        assert path.read_text().splitlines()[0] == f"# {MODEL_FORMAT}"
