"""Combined-metric pipeline: feature standardization, PCA projection,
linear regressors/classifiers, cross-validation and model persistence.

All learners are implemented directly on numpy: ridge and plain least
squares via the normal equations, lasso by coordinate descent with soft
thresholding, and multinomial logistic regression by gradient descent
with a backtracking line search.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataFormatError, DegenerateDataError
from .features import FeatureMatrix
from .stats import pearson, weighted_f1

__all__ = [
    "Standardizer",
    "PcaBasis",
    "LinearModel",
    "TrainedPipeline",
    "PipelineConfig",
    "CVResult",
    "fit_standardizer",
    "fit_pca",
    "fit_regressor",
    "fit_classifier",
    "fit_pipeline",
    "predict",
    "cross_validate",
    "select_lambda",
    "save_pipeline",
    "load_pipeline",
    "LAMBDA_GRID",
    "MODEL_KINDS",
]

MODEL_KINDS = ("linreg", "ridge", "lasso", "logistic")
LAMBDA_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)
DEFAULT_PCA_COMPONENTS = 25


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Standardizer:
    """Column-wise mean/std learned on training data; degenerate
    (zero-variance) columns map to zero."""

    means: np.ndarray
    stds: np.ndarray

    @property
    def degenerate(self) -> np.ndarray:
        return self.stds == 0.0

    def transform(self, X: np.ndarray) -> np.ndarray:
        scale = np.where(self.stds > 0.0, self.stds, 1.0)
        Z = (np.asarray(X, dtype=float) - self.means) / scale
        Z[:, self.degenerate] = 0.0
        return Z


def fit_standardizer(X: np.ndarray) -> Standardizer:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DegenerateDataError(
            "standardizer needs a matrix with at least two rows"
        )
    return Standardizer(means=X.mean(axis=0), stds=X.std(axis=0))


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PcaBasis:
    """Top-k principal directions of the training data.

    Components are orthonormal rows ordered by decreasing explained
    variance, with signs canonicalized so that each component's
    largest-magnitude entry is positive.
    """

    mean: np.ndarray
    components: np.ndarray          # (k, n_features)
    explained_variance: np.ndarray  # (k,)

    @property
    def k(self) -> int:
        return self.components.shape[0]

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) @ self.components.T


def fit_pca(X: np.ndarray, k: int) -> PcaBasis:
    """Fit a k-component PCA via SVD of the centered data matrix."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    if not 1 <= k <= min(n - 1, d):
        raise ValueError(
            f"component count {k} outside valid range 1..{min(n - 1, d)} "
            f"for a {n}x{d} matrix"
        )
    mean = X.mean(axis=0)
    _, s, vt = np.linalg.svd(X - mean, full_matrices=False)
    components = vt[:k]
    explained = (s[:k] ** 2) / (n - 1)
    # canonical sign: largest-magnitude entry of each component positive
    flip = np.sign(
        components[np.arange(k), np.abs(components).argmax(axis=1)]
    )
    flip[flip == 0] = 1.0
    components = components * flip[:, None]
    return PcaBasis(mean=mean, components=components,
                    explained_variance=explained)


# ---------------------------------------------------------------------------
# linear models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearModel:
    """Linear predictor; weights are (d,) for regression kinds and
    (n_classes, d) for multinomial logistic."""

    kind: str
    weights: np.ndarray
    intercept: np.ndarray  # shape () for regression, (n_classes,) for logistic
    lam: float

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        if self.kind == "logistic":
            raise ValueError("logistic models predict classes, not scores")
        return np.asarray(X, dtype=float) @ self.weights + self.intercept

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.kind != "logistic":
            raise ValueError(f"{self.kind} models have no class probabilities")
        logits = np.asarray(X, dtype=float) @ self.weights.T + self.intercept
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        return p / p.sum(axis=1, keepdims=True)

    def predict_classes(self, X: np.ndarray) -> np.ndarray:
        return self.predict_proba(X).argmax(axis=1)


def _center(X: np.ndarray, y: np.ndarray, fit_intercept: bool):
    if fit_intercept:
        x_mean = X.mean(axis=0)
        y_mean = y.mean()
        return X - x_mean, y - y_mean, x_mean, y_mean
    return X, y, np.zeros(X.shape[1]), 0.0


def fit_regressor(X: np.ndarray, y: Sequence[float], kind: str = "ridge",
                  lam: float = 1.0, fit_intercept: bool = True) -> LinearModel:
    """Fit a linear regressor.

    linreg solves the unpenalized normal equations and refuses singular
    systems; ridge solves the L2-penalized ones in closed form; lasso runs
    coordinate descent with soft thresholding until the largest weight
    change drops below 1e-7.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X rows and y length must agree")
    if lam < 0:
        raise ValueError("regularization strength must be >= 0")
    if kind not in ("linreg", "ridge", "lasso"):
        raise ValueError(f"unknown regressor kind {kind!r}")

    Xc, yc, x_mean, y_mean = _center(X, y, fit_intercept)

    if kind in ("linreg", "ridge"):
        effective_lam = 0.0 if kind == "linreg" else lam
        gram = Xc.T @ Xc + effective_lam * np.eye(X.shape[1])
        if kind == "linreg" and np.linalg.matrix_rank(gram) < X.shape[1]:
            raise DegenerateDataError(
                "singular system: features are collinear; use ridge instead"
            )
        w = np.linalg.solve(gram, Xc.T @ yc)
    else:
        w = _lasso_cd(Xc, yc, lam)

    intercept = y_mean - float(x_mean @ w)
    return LinearModel(kind=kind, weights=w,
                       intercept=np.float64(intercept), lam=lam)


def _lasso_cd(X: np.ndarray, y: np.ndarray, lam: float,
              tol: float = 1e-7, max_iter: int = 10_000) -> np.ndarray:
    n, d = X.shape
    col_sq = (X * X).sum(axis=0)
    w = np.zeros(d)
    residual = y.copy()
    for _ in range(max_iter):
        max_change = 0.0
        for j in range(d):
            if col_sq[j] == 0.0:
                continue
            rho = X[:, j] @ residual + col_sq[j] * w[j]
            new = _soft_threshold(rho, lam) / col_sq[j]
            if new != w[j]:
                residual -= X[:, j] * (new - w[j])
                max_change = max(max_change, abs(new - w[j]))
                w[j] = new
        if max_change < tol:
            return w
    warnings.warn("lasso coordinate descent hit the iteration cap "
                  "before converging", RuntimeWarning, stacklevel=2)
    return w


def _soft_threshold(x: float, lam: float) -> float:
    if x > lam:
        return x - lam
    if x < -lam:
        return x + lam
    return 0.0


def _nll_and_grad(W: np.ndarray, b: np.ndarray, X: np.ndarray,
                  Y: np.ndarray, lam: float):
    """Multinomial negative log-likelihood with L2 penalty on the weights
    (not the intercepts), plus its analytic gradient."""
    logits = X @ W.T + b
    logits -= logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(logits).sum(axis=1))
    nll = float(-(logits[Y.astype(bool)] - log_z).sum()
                + 0.5 * lam * (W * W).sum())
    P = np.exp(logits - log_z[:, None])
    diff = P - Y
    grad_w = diff.T @ X + lam * W
    grad_b = diff.sum(axis=0)
    return nll, grad_w, grad_b


def fit_classifier(X: np.ndarray, y: Sequence[int], lam: float = 1.0,
                   n_classes: int | None = None, tol: float = 1e-6,
                   max_iter: int = 5_000) -> LinearModel:
    """Multinomial logistic regression with an L2 penalty, trained by
    gradient descent with backtracking line search until the gradient
    norm falls below tol or the iteration cap is reached; reaching the
    cap first raises a RuntimeWarning."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.shape[0] != y.shape[0]:
        raise ValueError("X rows and y length must agree")
    present = np.unique(y)
    if present.size < 2:
        raise DegenerateDataError(
            "classifier training needs at least two distinct classes"
        )
    C = n_classes if n_classes is not None else int(present.max()) + 1
    n, d = X.shape
    Y = np.zeros((n, C))
    Y[np.arange(n), y] = 1.0

    W = np.zeros((C, d))
    b = np.zeros(C)
    loss, grad_w, grad_b = _nll_and_grad(W, b, X, Y, lam)
    step = 1.0
    for it in range(max_iter + 1):
        grad_norm = math.sqrt(float((grad_w * grad_w).sum()
                                    + (grad_b * grad_b).sum()))
        if grad_norm < tol:
            break
        if it == max_iter:
            warnings.warn("logistic gradient descent hit the iteration cap "
                          "before converging", RuntimeWarning, stacklevel=2)
            break
        # backtracking line search (Armijo), warm-started from last step
        step = min(step * 2.0, 1e4)
        while True:
            W_new = W - step * grad_w
            b_new = b - step * grad_b
            loss_new, gw_new, gb_new = _nll_and_grad(W_new, b_new, X, Y, lam)
            if loss_new <= loss - 1e-4 * step * grad_norm ** 2 or step < 1e-12:
                break
            step *= 0.5
        W, b, loss, grad_w, grad_b = W_new, b_new, loss_new, gw_new, gb_new

    return LinearModel(kind="logistic", weights=W, intercept=b, lam=lam)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to refit a pipeline on new data."""

    kind: str = "ridge"
    lam: float = 1.0
    pca_k: int = DEFAULT_PCA_COMPONENTS
    fit_intercept: bool = True

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")


@dataclass(frozen=True)
class TrainedPipeline:
    """Fitted standardizer + PCA basis + linear model for one dimension."""

    standardizer: Standardizer
    pca: PcaBasis
    model: LinearModel
    dimension: str
    feature_names: tuple[str, ...]

    @property
    def is_classifier(self) -> bool:
        return self.model.kind == "logistic"


def _clamped_pca_k(requested: int, n_rows: int, n_features: int) -> int:
    limit = min(n_rows - 1, n_features)
    if requested > limit:
        warnings.warn(
            f"PCA component count {requested} clamped to {limit} "
            f"({n_rows} rows x {n_features} features)",
            RuntimeWarning, stacklevel=3,
        )
        return limit
    return requested


def fit_pipeline(matrix: FeatureMatrix, y: Sequence[float] | Sequence[int],
                 dimension: str, config: PipelineConfig) -> TrainedPipeline:
    """Standardize, project with PCA and fit the configured model.

    For kind "logistic" y must hold integer class indices; for regression
    kinds y holds real-valued targets.
    """
    std = fit_standardizer(matrix.rows)
    Z = std.transform(matrix.rows)
    k = _clamped_pca_k(config.pca_k, *Z.shape)
    pca = fit_pca(Z, k)
    projected = pca.transform(Z)
    if config.kind == "logistic":
        model = fit_classifier(projected, np.asarray(y, dtype=int),
                               lam=config.lam, n_classes=3)
    else:
        model = fit_regressor(projected, y, kind=config.kind,
                              lam=config.lam,
                              fit_intercept=config.fit_intercept)
    return TrainedPipeline(standardizer=std, pca=pca, model=model,
                           dimension=dimension,
                           feature_names=matrix.feature_names)


def _aligned_rows(pipeline: TrainedPipeline, matrix: FeatureMatrix) -> np.ndarray:
    if matrix.feature_names == pipeline.feature_names:
        return matrix.rows
    if sorted(matrix.feature_names) == sorted(pipeline.feature_names):
        order = [matrix.feature_names.index(n) for n in pipeline.feature_names]
        return matrix.rows[:, order]
    missing = set(pipeline.feature_names) - set(matrix.feature_names)
    extra = set(matrix.feature_names) - set(pipeline.feature_names)
    raise DataFormatError(
        f"feature names do not match the trained pipeline "
        f"(missing {sorted(missing)}, unexpected {sorted(extra)})"
    )


def predict(pipeline: TrainedPipeline, matrix: FeatureMatrix) -> np.ndarray:
    """Apply the full pipeline; columns are realigned by name, and any
    name mismatch is an error.

    Returns real scores for regression pipelines and integer class
    indices for classification pipelines.
    """
    X = _aligned_rows(pipeline, matrix)
    projected = pipeline.pca.transform(pipeline.standardizer.transform(X))
    if pipeline.is_classifier:
        return pipeline.model.predict_classes(projected)
    return pipeline.model.predict_scores(projected)


# ---------------------------------------------------------------------------
# cross-validation and hyperparameter selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CVResult:
    metric: str  # "pearson" or "weighted_f1"
    fold_scores: tuple[float, ...]

    @property
    def mean(self) -> float:
        return sum(self.fold_scores) / len(self.fold_scores)


def _fold_indices(n: int, folds: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return np.array_split(rng.permutation(n), folds)


def cross_validate(matrix: FeatureMatrix, y: Sequence, config: PipelineConfig,
                   folds: int = 5, seed: int = 42, dimension: str = "",
                   jobs: int = 1) -> CVResult:
    """K-fold cross-validation with the standardizer, PCA and model all
    refit on each fold's training part.

    Regression folds are scored by Pearson correlation, classification
    folds by weighted F1. Folds whose predictions are degenerate
    (constant) score zero. Folds may be evaluated concurrently (jobs > 1);
    scores are reported in fold order either way.
    """
    n = matrix.rows.shape[0]
    if not 2 <= folds <= n:
        raise ValueError(f"fold count {folds} invalid for {n} rows")
    y = np.asarray(y)
    classification = config.kind == "logistic"

    def one_fold(held_out: np.ndarray) -> float:
        mask = np.ones(n, dtype=bool)
        mask[held_out] = False
        train = FeatureMatrix(
            feature_names=matrix.feature_names,
            rows=matrix.rows[mask],
            row_ids=tuple(np.asarray(matrix.row_ids)[mask]),
        )
        test = FeatureMatrix(
            feature_names=matrix.feature_names,
            rows=matrix.rows[held_out],
            row_ids=tuple(np.asarray(matrix.row_ids)[held_out]),
        )
        pipeline = fit_pipeline(train, y[mask], dimension, config)
        predictions = predict(pipeline, test)
        if classification:
            return weighted_f1(list(predictions), list(y[held_out]))
        try:
            return pearson(predictions, y[held_out])
        except DegenerateDataError:
            return 0.0

    fold_sets = _fold_indices(n, folds, seed)
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            scores = list(pool.map(one_fold, fold_sets))
    else:
        scores = [one_fold(f) for f in fold_sets]
    return CVResult(metric="weighted_f1" if classification else "pearson",
                    fold_scores=tuple(scores))


def select_lambda(matrix: FeatureMatrix, y: Sequence, config: PipelineConfig,
                  grid: Sequence[float] = LAMBDA_GRID, folds: int = 5,
                  seed: int = 42, jobs: int = 1
                  ) -> tuple[float, dict[float, CVResult]]:
    """Pick the regularization strength with the best mean CV score.

    linreg has no penalty, so the grid collapses to {0}.
    """
    if config.kind == "linreg":
        lam = 0.0
        return lam, {lam: cross_validate(matrix, y, replace(config, lam=lam),
                                         folds, seed, jobs=jobs)}
    results: dict[float, CVResult] = {}
    best_lam, best_score = None, -math.inf
    for lam in grid:
        result = cross_validate(matrix, y, replace(config, lam=lam),
                                folds, seed, jobs=jobs)
        results[lam] = result
        if result.mean > best_score:
            best_lam, best_score = lam, result.mean
    return best_lam, results


# ---------------------------------------------------------------------------
# persistence: versioned flat text format
# ---------------------------------------------------------------------------

_FORMAT_HEADER = "tseval-pipeline 1"


def _fmt_vector(v: np.ndarray) -> str:
    return " ".join(repr(float(x)) for x in np.atleast_1d(v))


def save_pipeline(pipeline: TrainedPipeline, path: str | Path) -> None:
    """Serialize a fitted pipeline to the versioned text format."""
    p = pipeline
    lines = [
        _FORMAT_HEADER,
        f"dimension {p.dimension}",
        f"kind {p.model.kind}",
        f"lambda {p.model.lam!r}",
        f"features {len(p.feature_names)}",
        *p.feature_names,
        "means",
        _fmt_vector(p.standardizer.means),
        "stds",
        _fmt_vector(p.standardizer.stds),
        "pca_mean",
        _fmt_vector(p.pca.mean),
        f"components {p.pca.k}",
        *[_fmt_vector(row) for row in p.pca.components],
        "explained_variance",
        _fmt_vector(p.pca.explained_variance),
    ]
    if p.is_classifier:
        lines.append(f"class_weights {p.model.weights.shape[0]}")
        lines.extend(_fmt_vector(row) for row in p.model.weights)
        lines.append("intercepts")
        lines.append(_fmt_vector(p.model.intercept))
    else:
        lines.append("weights")
        lines.append(_fmt_vector(p.model.weights))
        lines.append("intercept")
        lines.append(repr(float(p.model.intercept)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class _Reader:
    def __init__(self, path: Path):
        self.path = path
        try:
            self.lines = path.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise DataFormatError(
                f"cannot read pipeline file {path}: {exc}"
            ) from exc
        self.pos = 0

    def next(self, expect: str | None = None) -> str:
        if self.pos >= len(self.lines):
            raise DataFormatError(f"{self.path}: truncated pipeline file")
        line = self.lines[self.pos]
        self.pos += 1
        if expect is not None:
            parts = line.split()
            if not parts or parts[0] != expect:
                raise DataFormatError(
                    f"{self.path}:{self.pos}: expected section {expect!r}, "
                    f"found {line!r}"
                )
        return line

    def vector(self) -> np.ndarray:
        return np.array([float(x) for x in self.next().split()], dtype=float)


def load_pipeline(path: str | Path) -> TrainedPipeline:
    """Load a pipeline serialized by save_pipeline."""
    reader = _Reader(Path(path))
    header = reader.next()
    if header != _FORMAT_HEADER:
        raise DataFormatError(
            f"{path}: unsupported pipeline format {header!r}"
        )
    dimension = reader.next("dimension").split(maxsplit=1)[1]
    kind = reader.next("kind").split()[1]
    lam = float(reader.next("lambda").split()[1])
    n_features = int(reader.next("features").split()[1])
    names = tuple(reader.next() for _ in range(n_features))
    reader.next("means")
    means = reader.vector()
    reader.next("stds")
    stds = reader.vector()
    reader.next("pca_mean")
    pca_mean = reader.vector()
    k = int(reader.next("components").split()[1])
    components = np.vstack([reader.vector() for _ in range(k)])
    reader.next("explained_variance")
    explained = reader.vector()
    if kind == "logistic":
        c = int(reader.next("class_weights").split()[1])
        weights = np.vstack([reader.vector() for _ in range(c)])
        reader.next("intercepts")
        intercept = reader.vector()
    else:
        reader.next("weights")
        weights = reader.vector()
        reader.next("intercept")
        intercept = np.float64(float(reader.next()))
    for arr, width in ((means, n_features), (stds, n_features),
                       (pca_mean, n_features)):
        if arr.shape != (width,):
            raise DataFormatError(f"{path}: malformed vector section")
    if components.shape != (k, n_features):
        raise DataFormatError(f"{path}: malformed PCA components")
    model = LinearModel(kind=kind, weights=weights, intercept=intercept,
                        lam=lam)
    return TrainedPipeline(
        standardizer=Standardizer(means=means, stds=stds),
        pca=PcaBasis(mean=pca_mean, components=components,
                     explained_variance=explained),
        model=model,
        dimension=dimension,
        feature_names=names,
    )
