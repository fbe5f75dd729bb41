"""Standardizer, PCA, linear learners, pipeline, CV and persistence."""

import warnings

import numpy as np
import pytest

from tseval.errors import DegenerateDataError
from tseval.features import FeatureMatrix
from tseval.qemodel import (
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
    select_lambda,
    _nll_and_grad,
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
        model = fit_regressor(np.array([[1.0], [2.0]]), [1.0, 2.0],
                              kind="ridge", lam=1.0, fit_intercept=False)
        assert model.weights[0] == pytest.approx(5 / 6, abs=1e-12)

    def test_linreg_rejects_collinear(self):
        X = np.column_stack([np.arange(10.0), 2 * np.arange(10.0)])
        with pytest.raises(DegenerateDataError, match="ridge"):
            fit_regressor(X, np.arange(10.0), kind="linreg")

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

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            fit_regressor(np.ones((3, 1)), [1, 2, 3], lam=-1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            fit_regressor(np.ones((3, 1)), [1, 2, 3], kind="forest")


class TestClassifier:
    def test_separable_toy_set_fits_perfectly(self):
        rng = np.random.default_rng(14)
        X = np.vstack([rng.normal(size=(20, 2)) + 4.0,
                       rng.normal(size=(20, 2)) - 4.0])
        y = np.array([0] * 20 + [1] * 20)
        model = fit_classifier(X, y, lam=0.01)
        assert (model.predict_classes(X) == y).all()

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 3, size=30)
        model = fit_classifier(X, y, lam=0.5, n_classes=3)
        p = model.predict_proba(X)
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9

    def test_converged_fit_does_not_warn(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 3, size=30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit_classifier(X, y, lam=0.5, n_classes=3)

    def test_iteration_cap_warns(self):
        # 200 rows, 6 columns, three overlapping classes, small penalty:
        # the gradient norm is still ~1e-3 after 5 000 iterations
        rng = np.random.default_rng(2016)
        X = rng.standard_normal((200, 6))
        y = np.argmax(X[:, :3] * 3.0 + 0.3 * rng.standard_normal((200, 3)),
                      axis=1)
        with pytest.warns(RuntimeWarning, match="iteration cap"):
            fit_classifier(X, y, lam=0.001)

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

    def test_loss_nonincreasing(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(40, 4))
        y = rng.integers(0, 3, size=40)
        Y = np.zeros((40, 3))
        Y[np.arange(40), y] = 1.0
        # re-run the descent loop manually, recording the loss path
        from tseval.qemodel import _nll_and_grad as nag
        W = np.zeros((3, 4))
        b = np.zeros(3)
        loss, gw, gb = nag(W, b, X, Y, 1.0)
        losses = [loss]
        step = 1.0
        for _ in range(50):
            gnorm2 = float((gw * gw).sum() + (gb * gb).sum())
            step = min(step * 2, 1e4)
            while True:
                Wn, bn = W - step * gw, b - step * gb
                ln, gwn, gbn = nag(Wn, bn, X, Y, 1.0)
                if ln <= loss - 1e-4 * step * gnorm2 or step < 1e-12:
                    break
                step *= 0.5
            W, b, loss, gw, gb = Wn, bn, ln, gwn, gbn
            losses.append(loss)
        assert all(a >= b for a, b in zip(losses, losses[1:]))

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_classifier(np.ones((5, 2)), [1, 1, 1, 1, 1])


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
        assert pipeline.pca.k == 4

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

    def test_concurrent_folds_match_sequential(self):
        rng = np.random.default_rng(29)
        X = rng.normal(size=(40, 4))
        y = rng.normal(size=40)
        config = PipelineConfig(kind="ridge", lam=1.0, pca_k=3)
        seq = cross_validate(matrix_from(X), y, config, folds=4, seed=9)
        par = cross_validate(matrix_from(X), y, config, folds=4, seed=9,
                             jobs=4)
        assert seq.fold_scores == par.fold_scores

    def test_invalid_fold_count(self):
        X = np.ones((4, 2))
        with pytest.raises(ValueError):
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
