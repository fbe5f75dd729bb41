"""Combined-metric pipeline: feature standardization, PCA projection,
linear regressors/classifiers, cross-validation and model persistence.

All learners are implemented directly on numpy: ridge and plain least
squares via the normal equations, lasso by coordinate descent with soft
thresholding, and multinomial logistic regression by damped Newton steps
with a backtracking line search.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (DataFormatError, DegenerateDataError, at_least,
                     finite_at_least, parse_row, read_lines, sum_left)
from .features import FeatureMatrix, name_defect
from .qats_io import LABELS
from .stats import pearson, weighted_f1

__all__ = [
    "Standardizer",
    "PcaBasis",
    "LinearModel",
    "TrainedPipeline",
    "PipelineConfig",
    "CVResult",
    "IterationCapWarning",
    "fit_standardizer",
    "fit_pca",
    "fit_regressor",
    "fit_classifier",
    "fit_pipeline",
    "predict",
    "score_pipeline",
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
DEFAULT_FOLDS = 5  # cross-validation folds and the seed that splits them
DEFAULT_SEED = 42
_N_CLASSES = len(LABELS)


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
    # (never zero, as each row of vt has unit norm)
    flip = np.sign(
        components[np.arange(k), np.abs(components).argmax(axis=1)]
    )
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

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Class indices for logistic models (the largest logit, the most
        probable class of the softmax), scores for the others."""
        X = np.asarray(X, dtype=float)
        if self.kind != "logistic":
            return X @ self.weights + self.intercept
        return (X @ self.weights.T + self.intercept).argmax(axis=1)


def _check_finite(name: str, values: np.ndarray) -> None:
    """Raise ValueError naming the first non-finite entry of values."""
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        at = ", ".join(map(str, bad[0]))
        raise ValueError(f"{name} holds a non-finite value "
                         f"{values[tuple(bad[0])]} at [{at}]")


def _class_labels(y) -> np.ndarray:
    """y as int class labels; a non-finite or non-integer label is a
    ValueError naming its row."""
    y = np.asarray(y, dtype=float)
    _check_finite("y", y)
    fractional = np.flatnonzero(y != np.floor(y))
    if fractional.size:
        i = int(fractional[0])
        raise ValueError(f"label {y[i]} at row {i} is not a class index")
    return y.astype(int)


def fit_regressor(X: np.ndarray, y: Sequence[float], kind: str = "ridge",
                  lam: float = 1.0) -> LinearModel:
    """Fit a linear regressor.

    linreg solves the unpenalized normal equations and refuses singular
    systems; ridge solves the L2-penalized ones in closed form; lasso runs
    coordinate descent with soft thresholding until the largest weight
    change drops below 1e-7. A non-finite value in X or y, or a lam that
    is not finite or below 0, is a ValueError, and an X without rows a
    DegenerateDataError.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X rows and y length must agree")
    if not finite_at_least(lam, 0):
        raise ValueError(f"regularization strength must be a finite value "
                         f">= 0, got {lam}")
    if kind not in ("linreg", "ridge", "lasso"):
        raise ValueError(f"unknown regressor kind {kind!r}")
    if not X.shape[0]:
        raise DegenerateDataError("regression needs at least one row")
    _check_finite("X", X)
    _check_finite("y", y)

    x_mean, y_mean = X.mean(axis=0), y.mean()
    Xc, yc = X - x_mean, y - y_mean

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


# Coordinate descent stops when no weight moved by _LASSO_TOL in a sweep,
# or with an IterationCapWarning after _LASSO_MAX_ITER sweeps.
_LASSO_TOL = 1e-7
_LASSO_MAX_ITER = 10_000


def _lasso_cd(X: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    n, d = X.shape
    col_sq = (X * X).sum(axis=0)
    w = np.zeros(d)
    residual = y.copy()
    for _ in range(_LASSO_MAX_ITER):
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
        if max_change < _LASSO_TOL:
            return w
    warnings.warn(IterationCapWarning(lam, "lasso coordinate descent"),
                  stacklevel=2)
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


def _nll_hessian(W: np.ndarray, b: np.ndarray, X: np.ndarray,
                 lam: float) -> np.ndarray:
    """Hessian of _nll_and_grad's objective in the parameters ordered
    class by class, each class's weights followed by its intercept:
    block (c, k) is [X 1]^T diag(p_c (delta_ck - p_k)) [X 1], plus lam
    on the weight diagonal."""
    logits = X @ W.T + b
    logits -= logits.max(axis=1, keepdims=True)
    P = np.exp(logits)
    P /= P.sum(axis=1, keepdims=True)
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    C, m = P.shape[1], Xa.shape[1]
    H = np.empty((C, m, C, m))
    for c in range(C):
        for k in range(c, C):
            s = P[:, c] * ((c == k) - P[:, k])
            H[c, :, k, :] = H[k, :, c, :] = (Xa * s[:, None]).T @ Xa
    H = H.reshape(C * m, C * m)
    penalty = np.tile(np.r_[np.full(m - 1, lam), 0.0], C)
    return H + np.diag(penalty)


def _norm(grad_w: np.ndarray, grad_b: np.ndarray) -> float:
    return math.sqrt(float((grad_w * grad_w).sum() + (grad_b * grad_b).sum()))


# fit_classifier stops when the gradient norm falls below _GRAD_TOL, or
# with an IterationCapWarning after _NEWTON_MAX_ITER Newton steps.
_GRAD_TOL = 1e-6
_NEWTON_MAX_ITER = 100
# Relative change of the loss that its evaluation cannot resolve.
_LOSS_ROUNDING = 10 * np.finfo(float).eps


class IterationCapWarning(RuntimeWarning):
    """A learner's solver (fit_classifier's Newton steps or the lasso's
    coordinate descent) stopped at its iteration cap before converging."""

    def __init__(self, lam: float, solver: str = "logistic Newton solver"):
        super().__init__(f"{solver} hit the iteration cap before converging "
                         f"(lambda = {lam:g})")
        self.lam = lam


def _newton_step(H: np.ndarray, g: np.ndarray, lam: float) -> np.ndarray:
    """Solve H step = g, H being the Hessian plus the gauge term.

    For lam > 0 the penalty and the gauge make H positive definite, so it
    has a Cholesky factor L (H = L L^T), and the step is L^-T (L^-1 g).
    At lam = 0, collinear columns of X leave flat directions beyond the
    gauge ones, and lstsq's minimum-norm solution keeps the weights off
    them. lstsq is also the fallback when rounding leaves H without a
    Cholesky factor."""
    if lam > 0:
        try:
            L = np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            pass
        else:
            return np.linalg.solve(L.T, np.linalg.solve(L, g))
    return np.linalg.lstsq(H, g, rcond=None)[0]


def fit_classifier(X: np.ndarray, y: Sequence[int], lam: float = 1.0,
                   n_classes: int | None = None) -> LinearModel:
    """Multinomial logistic regression with an L2 penalty on the weights
    (not the intercepts), trained by damped Newton steps with a
    backtracking (Armijo) line search until the gradient norm falls below
    _GRAD_TOL (1e-6) or _NEWTON_MAX_ITER (100) steps are taken; reaching
    the cap first raises an IterationCapWarning.

    Each step solves the Newton system through a Cholesky factor when
    lam > 0, and by lstsq's minimum-norm solution at lam = 0 or when the
    factorization fails (_newton_step). y holds class indices 0..C-1, C
    being n_classes or else the largest label + 1; a label that is not an
    integer or lies outside that range, a non-finite value in X or y, or a
    lam that is not finite or below 0, is a ValueError."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.shape[0] != y.shape[0]:
        raise ValueError("X rows and y length must agree")
    if not finite_at_least(lam, 0):
        raise ValueError(f"regularization strength must be a finite value "
                         f">= 0, got {lam}")
    _check_finite("X", X)
    y = _class_labels(y)
    present = np.unique(y)
    if present.size < 2:
        raise DegenerateDataError(
            "classifier training needs at least two distinct classes"
        )
    C = n_classes if n_classes is not None else int(present.max()) + 1
    outside = np.flatnonzero((y < 0) | (y >= C))
    if outside.size:
        i = int(outside[0])
        raise ValueError(f"label {y[i]} at row {i} is outside the class "
                         f"range 0..{C - 1}")
    n, d = X.shape
    Y = np.zeros((n, C))
    Y[np.arange(n), y] = 1.0
    # The likelihood does not change when the same vector is added to every
    # class's parameters, so the Hessian is singular along these
    # class-constant directions (for the weights, only at lam = 0). Adding
    # U U^T for their orthonormal basis U fixes the gauge: the gradient has
    # no component along U, so the step is unchanged and the iterates keep
    # sum_c W_c = 0 and sum_c b_c = 0.
    gauge = np.kron(np.full((C, C), 1.0 / C), np.eye(d + 1))

    W = np.zeros((C, d))
    b = np.zeros(C)
    loss, grad_w, grad_b = _nll_and_grad(W, b, X, Y, lam)
    for it in range(_NEWTON_MAX_ITER + 1):
        if _norm(grad_w, grad_b) < _GRAD_TOL:
            break
        if it == _NEWTON_MAX_ITER:
            warnings.warn(IterationCapWarning(lam), stacklevel=2)
            break
        g = np.hstack([grad_w, grad_b[:, None]])
        step = _newton_step(_nll_hessian(W, b, X, lam) + gauge, g.ravel(),
                            lam).reshape(C, d + 1)
        decrease = float((g * step).sum())
        t = 1.0
        while True:
            W_new = W - t * step[:, :d]
            b_new = b - t * step[:, d]
            loss_new, gw_new, gb_new = _nll_and_grad(W_new, b_new, X, Y, lam)
            if loss_new <= loss - 1e-4 * t * decrease or t < 1e-10:
                break
            # Close to the optimum the decrease can be below the loss's
            # rounding error; the gradient then decides.
            if abs(loss_new - loss) <= _LOSS_ROUNDING * abs(loss) and \
                    _norm(gw_new, gb_new) < _norm(grad_w, grad_b):
                break
            t *= 0.5
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


def _project(X: np.ndarray, pca_k: int):
    """Fit the standardizer and a PCA of at most pca_k components on the
    rows of X; return both and the projection of X."""
    std = fit_standardizer(X)
    Z = std.transform(X)
    limit = min(Z.shape[0] - 1, Z.shape[1])
    if pca_k > limit:
        warnings.warn(f"PCA component count {pca_k} clamped to {limit}",
                      RuntimeWarning, stacklevel=3)
        pca_k = limit
    pca = fit_pca(Z, pca_k)
    return std, pca, pca.transform(Z)


def _fit_model(projected: np.ndarray, y, kind: str, lam: float) -> LinearModel:
    if kind == "logistic":
        return fit_classifier(projected, y, lam=lam, n_classes=_N_CLASSES)
    return fit_regressor(projected, y, kind=kind, lam=lam)


def fit_pipeline(matrix: FeatureMatrix, y: Sequence[float] | Sequence[int],
                 dimension: str, config: PipelineConfig) -> TrainedPipeline:
    """Standardize, project with PCA and fit the configured model.

    For kind "logistic" y must hold integer class indices; for regression
    kinds y holds real-valued targets.
    """
    std, pca, projected = _project(matrix.rows, config.pca_k)
    model = _fit_model(projected, y, config.kind, config.lam)
    return TrainedPipeline(standardizer=std, pca=pca, model=model,
                           dimension=dimension,
                           feature_names=matrix.feature_names)


def predict(pipeline: TrainedPipeline, matrix: FeatureMatrix) -> np.ndarray:
    """Apply the full pipeline; columns are realigned by name, and any
    name mismatch is an error.

    Returns real scores for regression pipelines and integer class
    indices for classification pipelines.
    """
    X = matrix.rows_in(pipeline.feature_names)
    return pipeline.model.predict(
        pipeline.pca.transform(pipeline.standardizer.transform(X)))


def _score(predictions: np.ndarray, y, classification: bool) -> float:
    if classification:
        return weighted_f1(predictions.tolist(), _class_labels(y).tolist())
    return pearson(predictions, y)


def score_pipeline(pipeline: TrainedPipeline, matrix: FeatureMatrix,
                   y: Sequence[float]) -> float:
    """Weighted F1 of a classification pipeline's classes, or Pearson r of
    a regression pipeline's scores, against the ordinal labels y that
    encode_labels returns."""
    return _score(predict(pipeline, matrix), y, pipeline.is_classifier)


# ---------------------------------------------------------------------------
# cross-validation and hyperparameter selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CVResult:
    metric: str  # "pearson" or "weighted_f1"
    fold_scores: tuple[float, ...]

    @property
    def mean(self) -> float:
        return sum_left(self.fold_scores) / len(self.fold_scores)


def _fold_indices(n: int, folds: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return np.array_split(rng.permutation(n), folds)


def _cross_validate_grid(matrix: FeatureMatrix, y: Sequence,
                         config: PipelineConfig, grid: Sequence[float],
                         folds: int, seed: int) -> dict[float, CVResult]:
    """Cross-validate config at every lambda of the grid. Each fold fits
    the standardizer and PCA on its training part once and projects both
    parts once; only the model is refit per lambda."""
    n = matrix.rows.shape[0]
    if folds < 2:
        raise ValueError(f"fold count {folds} is less than 2")
    if folds > n:
        raise DegenerateDataError(
            f"{folds} folds need at least {folds} training rows, found {n}")
    y = np.asarray(y)
    classification = config.kind == "logistic"
    scores: dict[float, list[float]] = {lam: [] for lam in grid}
    for held_out in _fold_indices(n, folds, seed):
        train = np.ones(n, dtype=bool)
        train[held_out] = False
        std, pca, projected = _project(matrix.rows[train], config.pca_k)
        test = pca.transform(std.transform(matrix.rows[held_out]))
        for lam, fold_scores in scores.items():
            model = _fit_model(projected, y[train], config.kind, lam)
            try:
                fold_scores.append(_score(model.predict(test), y[held_out],
                                          classification))
            except DegenerateDataError:
                fold_scores.append(0.0)
    metric = "weighted_f1" if classification else "pearson"
    return {lam: CVResult(metric=metric, fold_scores=tuple(fold_scores))
            for lam, fold_scores in scores.items()}


def cross_validate(matrix: FeatureMatrix, y: Sequence, config: PipelineConfig,
                   folds: int = DEFAULT_FOLDS,
                   seed: int = DEFAULT_SEED) -> CVResult:
    """K-fold cross-validation with the standardizer, PCA and model all
    refit on each fold's training part. Folds are scored by Pearson r for
    regression and weighted F1 for classification, and by zero when their
    predictions are degenerate (constant)."""
    return _cross_validate_grid(matrix, y, config, (config.lam,), folds,
                                seed)[config.lam]


def select_lambda(matrix: FeatureMatrix, y: Sequence, config: PipelineConfig,
                  grid: Sequence[float] = LAMBDA_GRID,
                  folds: int = DEFAULT_FOLDS, seed: int = DEFAULT_SEED
                  ) -> tuple[float, dict[float, CVResult]]:
    """Pick the regularization strength with the best mean CV score, the
    first in grid order on a tie.

    linreg has no penalty, so the grid collapses to {0}. An empty grid is
    a ValueError.
    """
    if not len(grid):
        raise ValueError("the lambda grid is empty")
    if config.kind == "linreg":
        grid = (0.0,)
    results = _cross_validate_grid(matrix, y, config, grid, folds, seed)
    best = max(results, key=lambda lam: results[lam].mean)
    return best, results


# ---------------------------------------------------------------------------
# persistence: versioned flat text format
# ---------------------------------------------------------------------------

_FORMAT_HEADER = "tseval-pipeline 1"

# The numeric sections of a model file after the feature names, in file
# order, as (name, rows, width); the model's own two follow. A size is 1
# or a named count. A section of one row is a vector; one whose rows are
# a count gives the count on its section line ("components 4") and is a
# matrix. The features line gives "features"; "classes" is _N_CLASSES.
_SECTIONS = (
    ("means", 1, "features"),
    ("stds", 1, "features"),
    ("pca_mean", 1, "features"),
    ("components", "components", "features"),
    ("explained_variance", 1, "components"),
)
_MODEL_SECTIONS = {
    False: (("weights", 1, "components"), ("intercept", 1, 1)),
    True: (("class_weights", "classes", "components"),
           ("intercepts", 1, "classes")),
}
# Vector sections of spreads (standard deviations, PCA variances), which
# are never negative.
_NONNEGATIVE = frozenset({"stds", "explained_variance"})


def _fmt_vector(v: np.ndarray) -> str:
    return " ".join(repr(float(x)) for x in np.atleast_1d(v))


def save_pipeline(pipeline: TrainedPipeline, path: str | Path) -> None:
    """Serialize a fitted pipeline to the versioned text format."""
    p = pipeline
    lines = [
        _FORMAT_HEADER,
        f"dimension {p.dimension}",
        f"kind {p.model.kind}",
        f"lambda {float(p.model.lam)!r}",
        f"features {len(p.feature_names)}",
        *p.feature_names,
    ]
    arrays = (p.standardizer.means, p.standardizer.stds, p.pca.mean,
              p.pca.components, p.pca.explained_variance, p.model.weights,
              p.model.intercept)
    for (name, rows, _), array in zip(
            _SECTIONS + _MODEL_SECTIONS[p.is_classifier], arrays):
        if rows == 1:
            lines += [name, _fmt_vector(array)]
        else:
            lines += [f"{name} {len(array)}", *map(_fmt_vector, array)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class _Reader:
    """The lines of a model file in order; pos is the number of the last
    line read."""

    def __init__(self, path: Path):
        self.path = path
        self.lines = read_lines(path, "pipeline file")
        self.pos = 0

    def line(self) -> str:
        if self.pos >= len(self.lines):
            raise DataFormatError(f"{self.path}: truncated pipeline file")
        self.pos += 1
        return self.lines[self.pos - 1]

    def section(self, name: str, convert=None):
        """Read the line that opens section `name` and return the value
        after the name, converted, if convert is given (it raises
        ValueError on a bad value)."""
        line = self.line()
        parts = line.split(maxsplit=1)
        if parts[:1] != [name]:
            raise DataFormatError(
                f"{self.path}:{self.pos}: expected section {name!r}, "
                f"found {line!r}"
            )
        try:
            return convert(parts[1]) if convert else None
        except (IndexError, ValueError):
            raise DataFormatError(
                f"{self.path}:{self.pos}: bad value in {line!r}"
            ) from None


def load_pipeline(path: str | Path) -> TrainedPipeline:
    """Load a pipeline serialized by save_pipeline.

    Every section is checked against the feature, component and class
    counts and for finite values, with no negative spread in `stds` or
    `explained_variance`, and every feature name must be distinct;
    a malformed file raises DataFormatError.
    """
    reader = _Reader(Path(path))
    header = reader.line()
    if header != _FORMAT_HEADER:
        raise DataFormatError(
            f"{path}: unsupported pipeline format {header!r}"
        )
    dimension = reader.section("dimension", str)
    kind = reader.section("kind", str)
    if kind not in MODEL_KINDS:
        raise DataFormatError(f"{path}:{reader.pos}: unknown model kind "
                              f"{kind!r}")
    lam = reader.section("lambda", at_least(-math.inf, float))
    sizes = {1: 1, "features": reader.section("features", at_least(1, int)),
             "classes": _N_CLASSES}
    first = reader.pos + 1
    names = tuple(reader.line() for _ in range(sizes["features"]))
    if defect := name_defect(names):
        raise DataFormatError(f"{path}:{first + defect[0]}: {defect[1]}")
    arrays = []
    for name, rows, width in _SECTIONS + _MODEL_SECTIONS[kind == "logistic"]:
        count = reader.section(name, None if rows == 1 else at_least(1, int))
        if count is not None and sizes.setdefault(rows, count) != count:
            raise DataFormatError(f"{path}:{reader.pos}: {count} {rows}, "
                                  f"expected {sizes[rows]}")
        values = [parse_row(reader.line().split(), sizes[width], path,
                            reader.pos, f"value in {name}")
                  for _ in range(sizes[rows])]
        if name in _NONNEGATIVE and min(values[0]) < 0:
            raise DataFormatError(
                f"{path}:{reader.pos}: negative value in {name}")
        arrays.append(np.array(values[0] if rows == 1 else values))
    means, stds, pca_mean, components, explained, weights, intercept = arrays
    return TrainedPipeline(
        standardizer=Standardizer(means=means, stds=stds),
        pca=PcaBasis(mean=pca_mean, components=components,
                     explained_variance=explained),
        model=LinearModel(kind=kind, weights=weights, lam=lam,
                          intercept=intercept if kind == "logistic"
                          else intercept[0]),
        dimension=dimension,
        feature_names=names,
    )
