"""Standardizer, PCA, linear learners, pipeline, CV and persistence."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tseval import qemodel
from tseval.errors import DataFormatError, DegenerateDataError
from tseval.features import FeatureMatrix
from tseval.qemodel import (
    LAMBDA_GRID,
    MODEL_KINDS,
    LinearModel,
    PipelineConfig,
    cross_validate,
    fit_classifier,
    fit_pca,
    fit_pipeline,
    fit_regressor,
    fit_standardizer,
    load_pipeline,
    predict,
    save_pipeline,
    score_pipeline,
    select_lambda,
    _fold_indices,
    _nll_and_grad,
    _nll_hessian,
)
from tseval.stats import pearson


def matrix_from(X, prefix="f"):
    X = np.asarray(X, dtype=float)
    return FeatureMatrix(
        feature_names=tuple(f"{prefix}{j}" for j in range(X.shape[1])),
        rows=X,
        row_ids=tuple(str(i) for i in range(X.shape[0])),
    )


class TestStandardizer:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        X = rng.normal(loc=5.0, scale=3.0, size=(50, 4))
        std = fit_standardizer(X)
        Z = std.transform(X)
        assert np.abs(Z.mean(axis=0)).max() <= 1e-9
        assert np.abs(Z.std(axis=0) - 1.0).max() <= 1e-9

    def test_constant_column_maps_to_zero(self):
        X = np.column_stack([np.arange(5.0), np.full(5, 3.0)])
        std = fit_standardizer(X)
        Z = std.transform(X)
        assert np.all(Z[:, 1] == 0.0)
        assert std.degenerate.tolist() == [False, True]

    def test_one_row_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_standardizer(np.ones((1, 3)))


class TestPca:
    def test_exact_planar_data(self):
        rng = np.random.default_rng(1)
        basis = np.linalg.qr(rng.normal(size=(5, 2)))[0].T  # 2 x 5
        coords = rng.normal(size=(40, 2))
        X = coords @ basis
        pca = fit_pca(X, 2)
        projected = pca.transform(X)
        reconstructed = projected @ pca.components + pca.mean
        assert np.abs(reconstructed - X).max() <= 1e-8

    def test_full_rank_preserves_total_variance(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 6))
        pca = fit_pca(X, 6)
        total = X.var(axis=0, ddof=1).sum()
        assert pca.explained_variance.sum() == pytest.approx(total, abs=1e-8)

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = rng.integers(4, 9)
            d = rng.integers(2, 9)
            k = int(min(n - 1, d))
            X = rng.normal(size=(n, d))
            pca = fit_pca(X, k)
            # oracle: dense eigendecomposition of the sample covariance
            C = np.cov(X, rowvar=False, ddof=1).reshape(d, d)
            eigvals, eigvecs = np.linalg.eigh(C)
            order = np.argsort(eigvals)[::-1][:k]
            for idx, col in enumerate(order):
                expected = eigvecs[:, col]
                got = pca.components[idx]
                agreement = min(np.abs(got - expected).max(),
                                np.abs(got + expected).max())
                if eigvals[order].size > 1:
                    gaps = np.diff(np.sort(eigvals)[::-1])
                    if np.any(np.abs(gaps) < 1e-9):
                        continue  # sign/order ambiguous under ties
                assert agreement <= 1e-6
                assert pca.explained_variance[idx] == pytest.approx(
                    eigvals[col], abs=1e-8)

    def test_projection_decorrelates(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 5)) @ rng.normal(size=(5, 5))
        pca = fit_pca(X, 4)
        projected = pca.transform(X)
        cov = np.cov(projected, rowvar=False, ddof=1)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() <= 1e-6

    def test_components_orthonormal(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(25, 7))
        pca = fit_pca(X, 5)
        gram = pca.components @ pca.components.T
        assert np.abs(gram - np.eye(5)).max() <= 1e-8

    def test_sign_canonicalized(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 4))
        pca = fit_pca(X, 3)
        for row in pca.components:
            assert row[np.abs(row).argmax()] > 0

    def test_explained_variance_nonincreasing(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 6))
        pca = fit_pca(X, 6)
        assert np.all(np.diff(pca.explained_variance) <= 1e-12)

    def test_k_out_of_range(self):
        X = np.random.default_rng(8).normal(size=(10, 4))
        with pytest.raises(ValueError):
            fit_pca(X, 5)
        with pytest.raises(ValueError):
            fit_pca(X, 0)


class TestRegressors:
    def test_ridge_lambda_zero_equals_least_squares(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 5))
        y = rng.normal(size=30)
        ridge = fit_regressor(X, y, kind="ridge", lam=0.0)
        ols = fit_regressor(X, y, kind="linreg")
        assert np.abs(ridge.weights - ols.weights).max() <= 1e-8
        assert abs(float(ridge.intercept) - float(ols.intercept)) <= 1e-8

    def test_one_dimensional_ridge_closed_form(self):
        # centered x = y = (-0.5, 0.5): w = 0.5 / (0.5 + 1), b = 1.5 - 1.5 w
        model = fit_regressor(np.array([[1.0], [2.0]]), [1.0, 2.0],
                              kind="ridge", lam=1.0)
        assert model.weights[0] == pytest.approx(1 / 3, abs=1e-12)
        assert float(model.intercept) == pytest.approx(1.0, abs=1e-12)

    def test_linreg_rejects_collinear(self):
        X = np.column_stack([np.arange(10.0), 2 * np.arange(10.0)])
        with pytest.raises(DegenerateDataError, match="ridge"):
            fit_regressor(X, np.arange(10.0), kind="linreg")

    @pytest.mark.parametrize("kind", ["linreg", "ridge", "lasso"])
    def test_no_rows_rejected(self, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "Mean of empty slice"
            with pytest.raises(DegenerateDataError,
                               match="^regression needs at least one row$"):
                fit_regressor(np.zeros((0, 3)), [], kind=kind)

    def test_ridge_handles_collinear(self):
        X = np.column_stack([np.arange(10.0), 2 * np.arange(10.0)])
        model = fit_regressor(X, np.arange(10.0), kind="ridge", lam=1.0)
        assert np.isfinite(model.weights).all()

    def test_ridge_norm_nonincreasing_in_lambda(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(40, 6))
        y = X @ rng.normal(size=6) + 0.1 * rng.normal(size=40)
        norms = [np.linalg.norm(
            fit_regressor(X, y, kind="ridge", lam=lam).weights)
            for lam in (0.0, 0.1, 1.0, 10.0, 100.0)]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_lasso_zero_above_critical_lambda(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(25, 4))
        X -= X.mean(axis=0)
        y = X @ np.array([2.0, -1.0, 0.0, 0.5]) + 0.1 * rng.normal(size=25)
        y -= y.mean()
        critical = np.abs(X.T @ y).max()
        model = fit_regressor(X, y, kind="lasso", lam=critical + 1e-9)
        assert np.all(model.weights == 0.0)
        below = fit_regressor(X, y, kind="lasso", lam=0.9 * critical)
        assert np.any(below.weights != 0.0)

    def test_lasso_sparsity_monotone_in_lambda(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(50, 8))
        y = X @ np.array([3.0, -2.0, 1.0, 0.0, 0.0, 0.5, 0.0, 0.0])
        zero_counts = [
            int(np.sum(fit_regressor(X, y, kind="lasso", lam=lam).weights == 0))
            for lam in (0.01, 0.1, 1.0, 10.0, 100.0)]
        assert all(a <= b for a, b in zip(zero_counts, zero_counts[1:]))

    def test_lasso_matches_ridge_free_solution_at_tiny_lambda(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(60, 3))
        w_true = np.array([1.5, -2.0, 0.7])
        y = X @ w_true
        model = fit_regressor(X, y, kind="lasso", lam=1e-10)
        assert np.abs(model.weights - w_true).max() <= 1e-5

    def test_lasso_skips_a_constant_column(self):
        # centering makes the column all zero, which coordinate descent
        # must skip rather than divide by its zero squared norm
        rng = np.random.default_rng(16)
        X = rng.normal(size=(30, 3))
        y = X @ np.array([1.0, -0.5, 2.0]) + 0.1 * rng.normal(size=30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_regressor(np.insert(X, 1, 4.0, axis=1), y,
                                  kind="lasso", lam=0.5)
        plain = fit_regressor(X, y, kind="lasso", lam=0.5)
        assert model.weights[1] == 0.0
        assert np.array_equal(np.delete(model.weights, 1), plain.weights)
        assert float(model.intercept) == pytest.approx(float(plain.intercept),
                                                       abs=1e-12)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            fit_regressor(np.ones((3, 1)), [1, 2, 3], lam=-1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            fit_regressor(np.ones((3, 1)), [1, 2, 3], kind="forest")


def _probe_inputs():
    """200 rows, 6 columns, three overlapping classes, small penalty."""
    rng = np.random.default_rng(2016)
    X = rng.standard_normal((200, 6))
    y = np.argmax(X[:, :3] * 3.0 + 0.3 * rng.standard_normal((200, 3)),
                  axis=1)
    return X, y, 0.001


def _one_hot(y, C):
    Y = np.zeros((len(y), C))
    Y[np.arange(len(y)), y] = 1.0
    return Y


def _gradient_norm(model, X, y):
    _, grad_w, grad_b = _nll_and_grad(model.weights, model.intercept, X,
                                      _one_hot(y, 3), model.lam)
    return np.sqrt((grad_w ** 2).sum() + (grad_b ** 2).sum())


class TestClassifier:
    def test_separable_toy_set_fits_perfectly(self):
        rng = np.random.default_rng(14)
        X = np.vstack([rng.normal(size=(20, 2)) + 4.0,
                       rng.normal(size=(20, 2)) - 4.0])
        y = np.array([0] * 20 + [1] * 20)
        model = fit_classifier(X, y, lam=0.01)
        assert (model.predict(X) == y).all()

    def test_predict_is_the_most_probable_class_at_large_logits(self):
        # logits near 1e3 overflow exp unless the row maximum is taken out
        rng = np.random.default_rng(15)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 3, size=30)
        model = fit_classifier(X, y, lam=0.5, n_classes=3)
        X = X * (1e3 / np.abs(X @ model.weights.T).max())
        logits = X @ model.weights.T + model.intercept
        assert np.abs(logits).max() > 700
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model.predict(X)
        assert (got == logits.argmax(axis=1)).all()

    def test_predict_is_the_largest_logit_where_softmax_rounds_to_a_tie(
            self):
        # exp(-1e-17) rounds to exp(0), so the softmax ties classes 0 and 1
        model = LinearModel(kind="logistic", weights=np.zeros((3, 2)),
                            intercept=np.array([-1e-17, 0.0, -5.0]), lam=1.0)
        assert model.predict(np.zeros((1, 2))).tolist() == [1]

    def test_converged_fit_does_not_warn(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 3, size=30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit_classifier(X, y, lam=0.5, n_classes=3)

    def test_iteration_cap_warns(self, monkeypatch):
        X, y, lam = _probe_inputs()
        monkeypatch.setattr(qemodel, "_NEWTON_MAX_ITER", 1)
        with pytest.warns(RuntimeWarning, match="iteration cap"):
            fit_classifier(X, y, lam=lam)

    def test_line_search_halves_an_overshooting_step(self):
        # on these badly scaled rows the tenth Newton step raises the loss
        # at full length; only the halved step converges within the cap
        X = np.array([[-39.227, -55.563, -11.475], [26.783, -23.905, -4.669],
                      [85.639, 90.523, 31.354], [-2.952, -65.826, -18.377],
                      [3.283, 60.468, 17.613], [-216.145, 15.164, -38.848],
                      [145.392, 27.414, 148.663],
                      [-333.582, 147.376, 26.629]])
        y = np.array([2, 0, 1, 0, 1, 1, 0, 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_classifier(X, y, lam=0.001)
        assert _gradient_norm(model, X, y) < 1e-6

    def test_probe_fit_is_stationary(self):
        X, y, lam = _probe_inputs()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_classifier(X, y, lam=lam)
        assert _gradient_norm(model, X, y) <= 1e-6

    @pytest.mark.parametrize("lam", [0.0, 0.001, 1.0])
    def test_missing_class_converges(self, lam):
        # class 1 of three never occurs: its intercept heads for -inf
        # until its probabilities are small enough to meet tol
        X, y, _ = _probe_inputs()
        y = np.where(y == 1, 2, y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_classifier(X, y, lam=lam, n_classes=3)
        assert _gradient_norm(model, X, y) <= 1e-6

    def test_negative_lambda_rejected(self):
        X, y, _ = _probe_inputs()
        with pytest.raises(ValueError):
            fit_classifier(X, y, lam=-0.1)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            n, d, C = 12, 3, 3
            X = rng.normal(size=(n, d))
            y = rng.integers(0, C, size=n)
            Y = np.zeros((n, C))
            Y[np.arange(n), y] = 1.0
            W = rng.normal(size=(C, d))
            b = rng.normal(size=C)
            lam = 0.3
            _, grad_w, grad_b = _nll_and_grad(W, b, X, Y, lam)
            eps = 1e-6
            for arr, grad in ((W, grad_w), (b, grad_b)):
                flat = arr.ravel()
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    up, _, _ = _nll_and_grad(W, b, X, Y, lam)
                    flat[idx] = orig - eps
                    down, _, _ = _nll_and_grad(W, b, X, Y, lam)
                    flat[idx] = orig
                    numeric = (up - down) / (2 * eps)
                    analytic = grad.ravel()[idx]
                    scale = max(1.0, abs(numeric), abs(analytic))
                    assert abs(numeric - analytic) / scale <= 1e-5

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            n, d, C = 12, 3, 3
            X = rng.normal(size=(n, d))
            Y = _one_hot(rng.integers(0, C, size=n), C)
            theta = rng.normal(size=(C, d + 1))
            lam = 0.3
            analytic = _nll_hessian(theta[:, :d], theta[:, d], X, lam)

            def gradient(t):
                _, gw, gb = _nll_and_grad(t[:, :d], t[:, d], X, Y, lam)
                return np.hstack([gw, gb[:, None]]).ravel()

            eps = 1e-6
            flat = theta.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = gradient(theta)
                flat[idx] = orig - eps
                down = gradient(theta)
                flat[idx] = orig
                numeric = (up - down) / (2 * eps)
                scale = np.maximum(1.0, np.maximum(np.abs(numeric),
                                                   np.abs(analytic[:, idx])))
                assert (np.abs(numeric - analytic[:, idx]) / scale).max() \
                    <= 1e-5

    def test_matches_converged_gradient_descent(self):
        # reference: plain gradient descent with backtracking, run to a
        # gradient norm far below fit_classifier's tol on a small,
        # well-conditioned problem
        rng = np.random.default_rng(17)
        X = rng.normal(size=(40, 4))
        y = rng.integers(0, 3, size=40)
        Y = _one_hot(y, 3)
        W = np.zeros((3, 4))
        b = np.zeros(3)
        loss, gw, gb = _nll_and_grad(W, b, X, Y, 1.0)
        step = 1.0
        for _ in range(10_000):
            gnorm2 = float((gw * gw).sum() + (gb * gb).sum())
            if gnorm2 < 1e-16:
                break
            step = min(step * 2, 1e4)
            while True:
                Wn, bn = W - step * gw, b - step * gb
                ln, gwn, gbn = _nll_and_grad(Wn, bn, X, Y, 1.0)
                if ln <= loss - 1e-4 * step * gnorm2 or step < 1e-12:
                    break
                step *= 0.5
            W, b, loss, gw, gb = Wn, bn, ln, gwn, gbn
        assert gnorm2 < 1e-16
        model = fit_classifier(X, y, lam=1.0, n_classes=3)
        assert np.abs(model.weights - W).max() <= 1e-5
        assert np.abs(model.intercept - b).max() <= 1e-5

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_classifier(np.ones((5, 2)), [1, 1, 1, 1, 1])

    @pytest.mark.parametrize("labels, n_classes, message", [
        ([-1, 0, 1] * 5, None, r"label -1 at row 0 .* 0\.\.1"),
        ([0, 1, 2] * 5, 2, r"label 2 at row 2 .* 0\.\.1"),
    ], ids=["negative", "beyond-n-classes"])
    def test_label_outside_class_range_rejected(self, labels, n_classes,
                                                message):
        X = np.random.default_rng(19).normal(size=(15, 2))
        with pytest.raises(ValueError, match=message):
            fit_classifier(X, labels, n_classes=n_classes)

    @pytest.mark.parametrize("labels, message", [
        ([0.5, 1.7, 0.2, 1.1, 0.9, 1.2], r"^label 0\.5 at row 0 is not"),
        ([0, 1, 2, 1, 2.000001, 0], r"^label 2\.000001 at row 4 is not"),
        ([0, 1, 0, 1, -0.5, 1], r"^label -0\.5 at row 4 is not"),
    ], ids=["first-row", "near-integer", "negative"])
    def test_non_integer_label_rejected(self, labels, message):
        X = np.random.default_rng(20).normal(size=(6, 2))
        with pytest.raises(ValueError, match=message):
            fit_classifier(X, labels, n_classes=3)

    def test_pipeline_passes_labels_uncast(self):
        # the pipeline must not truncate labels before fit_classifier
        # checks them
        X = np.random.default_rng(22).normal(size=(12, 3))
        y = [0, 1, 2] * 3 + [0, 1.5, 2]
        with pytest.raises(ValueError, match=r"^label 1\.5 at row 10 "):
            fit_pipeline(matrix_from(X), y, "G",
                         PipelineConfig(kind="logistic", lam=1.0, pca_k=2))
        # integral floats are class indices
        model = fit_pipeline(matrix_from(X), [0.0, 1.0, 2.0] * 4, "G",
                             PipelineConfig(kind="logistic", lam=1.0,
                                            pca_k=2)).model
        assert model.weights.shape == (3, 2)

    @pytest.mark.parametrize("labels, message", [
        ([0.5, 1.7, 2.9] * 4, r"^label 0\.5 at row 0 is not"),
        ([0, 1, 2] * 3 + [0, 1, 2.5], r"^label 2\.5 at row 11 is not"),
        ([0, 1, 2] * 3 + [0, np.nan, 2],
         r"^y holds a non-finite value nan at \[10\]"),
    ], ids=["all-rows", "last-row", "nan"])
    def test_scoring_rejects_what_fitting_rejects(self, labels, message):
        # score_pipeline truncated [0.5, 1.7, 2.9] * 4 to [0, 1, 2] * 4
        # and scored them as those classes
        X = matrix_from(np.random.default_rng(22).normal(size=(12, 3)))
        pipeline = fit_pipeline(X, [0, 1, 2] * 4, "G",
                                PipelineConfig(kind="logistic", lam=1.0,
                                               pca_k=2))
        with pytest.raises(ValueError, match=message):
            score_pipeline(pipeline, X, labels)
        # integral floats are class indices
        assert (score_pipeline(pipeline, X, [0.0, 1.0, 2.0] * 4)
                == score_pipeline(pipeline, X, [0, 1, 2] * 4))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_collinear_copies_share_weights_at_lambda_zero(self, seed):
        # the flat direction between the two copies is left alone only by
        # a minimum-norm step; a Cholesky factor, when rounding lets one
        # exist, or a plain solve moves along it
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 4))
        X = np.column_stack([X, X[:, 0]])
        y = rng.integers(0, 3, size=60)
        model = fit_classifier(X, y, lam=0.0, n_classes=3)
        assert np.abs(model.weights[:, 0] - model.weights[:, 4]).max() \
            <= 1e-12

    @pytest.mark.parametrize("lam", LAMBDA_GRID)
    @pytest.mark.parametrize("missing_class", [False, True],
                             ids=["three-classes", "missing-class"])
    def test_cholesky_step_agrees_with_lstsq_fallback(self, monkeypatch,
                                                      lam, missing_class):
        X, y, _ = _probe_inputs()
        if missing_class:  # as a CV fold can leave it
            y = np.where(y == 1, 2, y)

        def fit():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                model = fit_classifier(X, y, lam=lam, n_classes=3)
            caps = sum(isinstance(w.message, qemodel.IterationCapWarning)
                       for w in caught)
            return model, caps

        cholesky, cholesky_caps = fit()

        def no_factor(_):
            raise np.linalg.LinAlgError("forced fallback")

        monkeypatch.setattr(np.linalg, "cholesky", no_factor)
        lstsq, lstsq_caps = fit()
        np.testing.assert_allclose(cholesky.weights, lstsq.weights,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(cholesky.intercept, lstsq.intercept,
                                   rtol=1e-9, atol=1e-12)
        assert (cholesky.predict(X) == lstsq.predict(X)).all()
        assert cholesky_caps == lstsq_caps


class TestLearnerInputs:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("where", ["X", "y"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, kind, where, value):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(20, 3))
        y = rng.integers(0, 3, size=20).astype(float)
        if where == "X":
            X[4, 1] = value
        else:
            y[7] = value
        at = "[4, 1]" if where == "X" else "[7]"
        with pytest.raises(ValueError,
                           match=rf"^{where} holds a non-finite .* at "
                                 + re.escape(at)):
            if kind == "logistic":
                fit_classifier(X, y, n_classes=3)
            else:
                fit_regressor(X, y, kind=kind)


class TestPipeline:
    def _regression_setup(self, n=60, d=8, seed=18):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        y = X @ rng.normal(size=d) + 0.05 * rng.normal(size=n)
        return matrix_from(X), y

    def test_fit_predict_reproduces_fitted_values(self):
        matrix, y = self._regression_setup()
        pipeline = fit_pipeline(matrix, y, "M",
                                PipelineConfig(kind="ridge", lam=0.1, pca_k=8))
        p1 = predict(pipeline, matrix)
        p2 = predict(pipeline, matrix)
        assert np.array_equal(p1, p2)
        assert pearson(p1, y) > 0.95

    def test_column_permutation_realigned_by_name(self):
        matrix, y = self._regression_setup()
        pipeline = fit_pipeline(matrix, y, "M",
                                PipelineConfig(kind="ridge", lam=0.1, pca_k=6))
        perm = np.random.default_rng(19).permutation(len(matrix.feature_names))
        shuffled = FeatureMatrix(
            feature_names=tuple(matrix.feature_names[i] for i in perm),
            rows=matrix.rows[:, perm],
            row_ids=matrix.row_ids,
        )
        assert np.array_equal(predict(pipeline, shuffled),
                              predict(pipeline, matrix))

    def test_name_mismatch_rejected(self):
        matrix, y = self._regression_setup()
        pipeline = fit_pipeline(matrix, y, "M",
                                PipelineConfig(kind="ridge", lam=0.1, pca_k=6))
        renamed = FeatureMatrix(
            feature_names=("x",) + matrix.feature_names[1:],
            rows=matrix.rows,
            row_ids=matrix.row_ids,
        )
        from tseval.errors import DataFormatError
        with pytest.raises(DataFormatError, match="feature names"):
            predict(pipeline, renamed)

    def test_pca_k_clamped_with_warning(self):
        matrix, y = self._regression_setup(n=20, d=4)
        with pytest.warns(RuntimeWarning, match="clamped"):
            pipeline = fit_pipeline(
                matrix, y, "M", PipelineConfig(kind="ridge", lam=1.0, pca_k=25))
        assert pipeline.pca.components.shape == (4, 4)

    def test_classifier_pipeline_predicts_indices(self):
        rng = np.random.default_rng(20)
        X = np.vstack([rng.normal(size=(20, 5)) + 2,
                       rng.normal(size=(20, 5)),
                       rng.normal(size=(20, 5)) - 2])
        y = np.array([2] * 20 + [1] * 20 + [0] * 20)
        pipeline = fit_pipeline(matrix_from(X), y, "G",
                                PipelineConfig(kind="logistic", lam=0.1,
                                               pca_k=4))
        predictions = predict(pipeline, matrix_from(X))
        assert set(np.unique(predictions)) <= {0, 1, 2}
        assert (predictions == y).mean() > 0.9

    def test_serialization_roundtrip_regression(self, tmp_path):
        matrix, y = self._regression_setup()
        pipeline = fit_pipeline(matrix, y, "S",
                                PipelineConfig(kind="lasso", lam=0.5, pca_k=5))
        path = tmp_path / "model.txt"
        save_pipeline(pipeline, path)
        loaded = load_pipeline(path)
        assert loaded.dimension == "S"
        assert loaded.feature_names == pipeline.feature_names
        assert np.array_equal(predict(loaded, matrix),
                              predict(pipeline, matrix))

    def test_serialization_roundtrip_classifier(self, tmp_path):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(45, 6))
        y = rng.integers(0, 3, size=45)
        pipeline = fit_pipeline(matrix_from(X), y, "G",
                                PipelineConfig(kind="logistic", lam=1.0,
                                               pca_k=4))
        path = tmp_path / "model.txt"
        save_pipeline(pipeline, path)
        loaded = load_pipeline(path)
        assert np.array_equal(predict(loaded, matrix_from(X)),
                              predict(pipeline, matrix_from(X)))

    def test_saved_file_is_deterministic(self, tmp_path):
        matrix, y = self._regression_setup()
        config = PipelineConfig(kind="ridge", lam=2.0, pca_k=4)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_pipeline(fit_pipeline(matrix, y, "M", config), p1)
        save_pipeline(fit_pipeline(matrix, y, "M", config), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("source", ["config", "grid"])
    def test_numpy_lambda_round_trips(self, tmp_path, source):
        # under numpy 2 the repr of np.float64(0.1) is "np.float64(0.1)"
        matrix, y = self._regression_setup()
        config = PipelineConfig(kind="ridge", lam=np.float64(0.1), pca_k=4)
        if source == "grid":
            lam, _ = select_lambda(matrix, y, replace(config, lam=1.0),
                                   grid=np.array([0.1]), folds=3)
            assert type(lam) is np.float64
            config = replace(config, lam=lam)
        pipeline = fit_pipeline(matrix, y, "M", config)
        path = tmp_path / "model.txt"
        save_pipeline(pipeline, path)
        assert "\nlambda 0.1\n" in path.read_text()
        loaded = load_pipeline(path)
        assert loaded.model.lam == 0.1
        assert np.array_equal(predict(loaded, matrix),
                              predict(pipeline, matrix))

    @pytest.mark.parametrize("pattern,replacement,message", [
        (r"(\nweights\n[^\n]*)", r"\1 0.5", "expected 4 values, found 5"),
        (r"(\nweights\n)[^\n]*", r"\1nan nan nan nan", "non-finite"),
        (r"(\nmeans\n)\S+", r"\1abc", "non-numeric value in means"),
        (r"(\nexplained_variance\n\S+)[^\n]*", r"\1",
         "expected 4 values, found 1"),
        (r"\nkind ridge\n", r"\nkind bogus\n", "unknown model kind"),
        (r"\nlambda [^\n]*", r"\nlambda", "bad value"),
        (r"(\nstds\n)", r"\1-", "negative value in stds"),
        (r"(\nexplained_variance\n\S+ )", r"\1-",
         "negative value in explained_variance"),
    ], ids=["extra-weight", "nan-weights", "non-numeric", "short-variance",
            "unknown-kind", "lambda-missing", "negative-std",
            "negative-variance"])
    def test_malformed_model_file_rejected(self, tmp_path, pattern,
                                           replacement, message):
        matrix, y = self._regression_setup()
        path = tmp_path / "model.txt"
        save_pipeline(fit_pipeline(matrix, y, "M",
                                   PipelineConfig(kind="ridge", pca_k=4)),
                      path)
        text, count = re.subn(pattern, replacement, path.read_text())
        assert count == 1
        path.write_text(text)
        with pytest.raises(DataFormatError, match=message):
            load_pipeline(path)


class TestModelFile:
    """A model file of each kind: loading and saving it again keeps its
    bytes, and any line cut, deleted or blanked is a data error."""

    @pytest.fixture(scope="class", params=MODEL_KINDS)
    def model_file(self, request, tmp_path_factory):
        rng = np.random.default_rng(30)
        X = rng.normal(size=(45, 6))
        y = rng.integers(0, 3, size=45)
        pipeline = fit_pipeline(matrix_from(X), y, "M",
                                PipelineConfig(kind=request.param, lam=0.5,
                                               pca_k=4))
        path = tmp_path_factory.mktemp(request.param) / "model.txt"
        save_pipeline(pipeline, path)
        return path

    def test_save_load_save_keeps_bytes(self, model_file, tmp_path):
        again = tmp_path / "again.txt"
        save_pipeline(load_pipeline(model_file), again)
        assert again.read_bytes() == model_file.read_bytes()

    @given(st.lists(st.text(st.sampled_from(
        ["a", " ", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
         "\u2028", "\u2029"]), max_size=3), min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_every_name_a_feature_file_accepts_survives_the_model_file(
            self, tmp_path_factory, names):
        tmp = tmp_path_factory.mktemp("names")
        tsv = tmp / "features.tsv"
        rows = np.random.default_rng(31).normal(size=(6, len(names)))
        lines = ["\t".join(["id", *names])]
        lines += ["\t".join([f"r{i}", *map(repr, row)])
                  for i, row in enumerate(rows.tolist())]
        tsv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            matrix = FeatureMatrix.from_tsv(tsv)
        except DataFormatError as exc:
            assert str(exc).startswith(f"{tsv}:1: ")
            return
        pipeline = fit_pipeline(matrix, np.arange(6.0), "M",
                                PipelineConfig(kind="ridge", pca_k=1))
        save_pipeline(pipeline, tmp / "model.txt")
        assert load_pipeline(tmp / "model.txt").feature_names == \
            matrix.feature_names

    def test_cut_deleted_or_blank_line_is_data_error(self, model_file,
                                                     tmp_path):
        lines = model_file.read_text().splitlines()
        edits = {}
        for i in range(len(lines)):
            if i + 1 < len(lines):
                edits[f"cut after line {i + 1}"] = lines[:i + 1]
            edits[f"line {i + 1} deleted"] = lines[:i] + lines[i + 1:]
            edits[f"line {i + 1} blank"] = lines[:i] + [""] + lines[i + 1:]
        path = tmp_path / "edited.txt"
        for edit, edited in edits.items():
            path.write_text("".join(line + "\n" for line in edited))
            with pytest.raises(DataFormatError):
                load_pipeline(path)
                pytest.fail(f"{edit}: loaded without error")


class TestCrossValidation:
    def test_perfect_linear_relation(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(50, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 3.0])
        result = cross_validate(matrix_from(X), y,
                                PipelineConfig(kind="ridge", lam=1e-8,
                                               pca_k=4),
                                folds=5, seed=0)
        assert result.metric == "pearson"
        assert result.mean == pytest.approx(1.0, abs=1e-6)

    def test_shuffled_labels_destroy_score(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(500, 6))
        y = rng.permutation(X @ np.array([1, 2, 3, 4, 5, 6.0]))
        result = cross_validate(matrix_from(X), y,
                                PipelineConfig(kind="ridge", lam=1.0, pca_k=6),
                                folds=5, seed=0)
        assert abs(result.mean) < 0.2

    def test_fold_sizes_differ_by_at_most_one(self):
        from tseval.qemodel import _fold_indices
        folds = _fold_indices(53, 5, seed=1)
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 53
        together = np.sort(np.concatenate(folds))
        assert np.array_equal(together, np.arange(53))

    def test_no_leakage_standardizers_differ_across_folds(self):
        rng = np.random.default_rng(24)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        from tseval.qemodel import _fold_indices, fit_standardizer
        means = []
        for held_out in _fold_indices(40, 4, seed=2):
            mask = np.ones(40, dtype=bool)
            mask[held_out] = False
            means.append(fit_standardizer(X[mask]).means)
        for a, b in zip(means, means[1:]):
            assert not np.array_equal(a, b)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        config = PipelineConfig(kind="ridge", lam=1.0, pca_k=3)
        r1 = cross_validate(matrix_from(X), y, config, folds=3, seed=7)
        r2 = cross_validate(matrix_from(X), y, config, folds=3, seed=7)
        assert r1.fold_scores == r2.fold_scores

    def test_invalid_fold_count(self):
        X = np.ones((4, 2))
        with pytest.raises(ValueError):
            cross_validate(matrix_from(X), [1, 2, 3, 4.0],
                           PipelineConfig(), folds=1)
        with pytest.raises(ValueError):
            select_lambda(matrix_from(X), [1, 2, 3, 4.0],
                          PipelineConfig(), folds=1)
        with pytest.raises(DegenerateDataError):
            cross_validate(matrix_from(X), [1, 2, 3, 4.0],
                           PipelineConfig(), folds=5)

    def test_classification_metric(self):
        rng = np.random.default_rng(26)
        X = np.vstack([rng.normal(size=(30, 4)) + 2,
                       rng.normal(size=(30, 4)) - 2])
        y = np.array([0] * 30 + [2] * 30)
        result = cross_validate(matrix_from(X), y,
                                PipelineConfig(kind="logistic", lam=0.1,
                                               pca_k=3),
                                folds=4, seed=3)
        assert result.metric == "weighted_f1"
        assert result.mean > 0.9


class TestSelectLambda:
    def test_grid_selection_prefers_regularization_on_noise(self):
        rng = np.random.default_rng(27)
        X = rng.normal(size=(40, 10))
        y = X[:, 0] + 3.0 * rng.normal(size=40)  # weak signal, much noise
        lam, results = select_lambda(matrix_from(X), y,
                                     PipelineConfig(kind="ridge", pca_k=8),
                                     folds=4, seed=5)
        assert lam in (0.01, 0.1, 1.0, 10.0, 100.0)
        assert results[lam].mean == max(r.mean for r in results.values())

    def test_linreg_collapses_grid(self):
        rng = np.random.default_rng(28)
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        lam, results = select_lambda(matrix_from(X), y,
                                     PipelineConfig(kind="linreg", pca_k=3),
                                     folds=3, seed=6)
        assert lam == 0.0
        assert list(results) == [0.0]

    def test_more_folds_than_rows_is_a_data_error(self):
        with pytest.raises(DegenerateDataError,
                           match="^5 folds need at least 5 training rows, "
                                 "found 4$"):
            select_lambda(matrix_from(np.eye(4)), [1, 2, 3, 4.0],
                          PipelineConfig(kind="ridge", pca_k=2), folds=5)


def _lambda_major_reference(matrix, y, config, grid, folds, seed):
    """Fold scores per lambda, by fit_pipeline on each fold's training
    rows and score_pipeline on its held-out rows, lambda by lambda."""
    y = np.asarray(y)
    n = len(y)

    def part(rows):
        return FeatureMatrix(feature_names=matrix.feature_names,
                             rows=matrix.rows[rows],
                             row_ids=tuple(np.asarray(matrix.row_ids)[rows]))

    reference = {}
    for lam in grid:
        scores = []
        for held_out in _fold_indices(n, folds, seed):
            train = np.ones(n, dtype=bool)
            train[held_out] = False
            pipeline = fit_pipeline(part(train), y[train], "",
                                    replace(config, lam=lam))
            try:
                scores.append(score_pipeline(pipeline, part(held_out),
                                             y[held_out]))
            except DegenerateDataError:
                scores.append(0.0)
        reference[lam] = tuple(scores)
    return reference


class TestFoldMajorLoop:
    """select_lambda and cross_validate share one fold-major loop; it must
    give the fold scores of fitting the whole pipeline per (lambda, fold)."""

    @staticmethod
    def _weak_signal(n=40, d=10, seed=27):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        return matrix_from(X), X[:, 0] + 3.0 * rng.normal(size=n)

    @pytest.mark.parametrize("kind", ["ridge", "lasso", "linreg",
                                      "logistic"])
    def test_equals_lambda_major_reference(self, kind):
        if kind == "logistic":
            X, y, _ = _probe_inputs()
            matrix = matrix_from(X)
        else:
            matrix, y = self._weak_signal()
        config = PipelineConfig(kind=kind, pca_k=5)
        grid = (0.0,) if kind == "linreg" else LAMBDA_GRID
        reference = _lambda_major_reference(matrix, y, config, grid, 4, 5)
        if kind == "lasso":
            # at lambda = 100 lasso keeps no component of the weak signal,
            # so every fold predicts a constant and scores zero
            assert reference[100.0] == (0.0,) * 4
        _, results = select_lambda(matrix, y, config, folds=4, seed=5)
        assert {lam: r.fold_scores for lam, r in results.items()} == \
            reference
        for lam in grid:
            assert cross_validate(matrix, y, replace(config, lam=lam),
                                  folds=4, seed=5).fold_scores == \
                reference[lam]

    def test_projection_fit_once_per_fold(self, monkeypatch):
        calls = {"fit_standardizer": 0, "fit_pca": 0}
        for name in calls:
            def counted(*args, _fit=getattr(qemodel, name), _name=name,
                        **kwargs):
                calls[_name] += 1
                return _fit(*args, **kwargs)
            monkeypatch.setattr(qemodel, name, counted)
        matrix, y = self._weak_signal(n=30, d=4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, results = select_lambda(matrix, y,
                                       PipelineConfig(kind="ridge", pca_k=10),
                                       folds=3, seed=1)
        assert len(results) == 5
        assert calls == {"fit_standardizer": 3, "fit_pca": 3}
        clamps = [w for w in caught if "clamped" in str(w.message)]
        assert len(clamps) == 3
