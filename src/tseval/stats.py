"""Correlation analysis, Fisher confidence intervals, feature ranking and
weighted F1 evaluation."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .errors import DegenerateDataError
from .features import FeatureMatrix

__all__ = [
    "CorrelationReport",
    "RankingTable",
    "pearson",
    "fisher_ci",
    "rank_features",
    "weighted_f1",
]


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient.

    Raises DegenerateDataError when either input has zero variance, where
    the correlation is undefined; fewer than two observations count as
    zero variance. Raises ValueError on a NaN or infinite value.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("pearson expects two equal-length vectors")
    r = float(_pearson_rows(xa[np.newaxis], ya)[0])
    if math.isnan(r):
        raise DegenerateDataError(
            "correlation undefined: fewer than two observations"
            if xa.size < 2 else
            "correlation undefined: an input vector has zero variance")
    return r


def _pearson_rows(rows: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The Pearson r of each row of the (k, n) array `rows` with the
    length-n vector `y`, NaN where it is undefined: for every row when
    n < 2 or `y` is constant, else for each constant row.

    The sums are row-wise reductions over a C-contiguous copy of the rows,
    so each row's values add in the same pairwise order as one vector's,
    and r of a row does not depend on the other rows. Raises ValueError
    on a NaN or infinite value.
    """
    if not (np.isfinite(rows).all() and np.isfinite(y).all()):
        raise ValueError("pearson expects finite values")
    r = np.full(len(rows), np.nan)
    if y.size < 2 or y.min() == y.max():
        return r
    # a constant row's rounded mean can differ from its value, so the
    # check is on the values, not on the centered ones
    varying = rows.min(axis=1) < rows.max(axis=1)
    xc = np.ascontiguousarray(rows[varying])  # a copy, changed in place
    xc -= xc.mean(axis=1, keepdims=True)
    yc = y - y.mean()
    # scaling by the max magnitude keeps the sums-of-squares product away
    # from overflow/underflow and makes r exactly 1 for identical vectors
    xc /= np.abs(xc).max(axis=1, keepdims=True)
    yc /= np.abs(yc).max()
    r[varying] = np.clip((xc * yc).sum(axis=1) / np.sqrt(
        (xc * xc).sum(axis=1) * np.sum(yc * yc)), -1.0, 1.0)
    return r


def fisher_ci(r: float, n: int, level: float = 0.95) -> tuple[float, float]:
    """Confidence interval for a correlation via the Fisher z-transform.

    Degenerate |r| = 1 collapses to the point interval [r, r].
    """
    if not -1.0 <= r <= 1.0:
        raise ValueError(f"correlation {r} outside [-1, 1]")
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {level}")
    if abs(r) == 1.0:
        return (r, r)
    if n < 4:
        raise ValueError(f"need n >= 4 observations for an interval, got {n}")
    z = math.atanh(r)
    half_width = NormalDist().inv_cdf(0.5 + level / 2) / math.sqrt(n - 3)
    return (math.tanh(z - half_width), math.tanh(z + half_width))


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation of one feature with labels of one dimension."""

    feature_name: str
    r_train: float
    ci_low: float | None = None
    ci_high: float | None = None
    r_test: float | None = None
    degenerate: bool = False


@dataclass(frozen=True)
class RankingTable:
    """Correlation reports sorted by descending |r_train|, ties broken by
    feature name."""

    entries: tuple[CorrelationReport, ...]

    def to_tsv(self) -> str:
        lines = ["rank\tfeature\tr_train\tci_low\tci_high\tr_test"]
        for rank, e in enumerate(self.entries, start=1):
            lines.append("\t".join([
                str(rank), e.feature_name, repr(e.r_train),
                _opt(e.ci_low), _opt(e.ci_high), _opt(e.r_test),
            ]))
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        lines = [
            f"| rank | feature | r_train | 95% CI | r_test |",
            "|---:|:---|---:|:---:|---:|",
        ]
        for rank, e in enumerate(self.entries, start=1):
            ci = ("" if e.ci_low is None
                  else f"[{e.ci_low:.2f}, {e.ci_high:.2f}]")
            rt = "" if e.r_test is None else f"{e.r_test:.2f}"
            flag = " (constant)" if e.degenerate else ""
            lines.append(
                f"| {rank} | {e.feature_name}{flag} | {e.r_train:.2f} "
                f"| {ci} | {rt} |"
            )
        return "\n".join(lines) + "\n"

    def top(self, k: int) -> list[str]:
        return [e.feature_name for e in self.entries[:k]]


def _opt(v: float | None) -> str:
    return "" if v is None else repr(v)


def rank_features(matrix: FeatureMatrix, labels: Sequence[float],
                  test_matrix: FeatureMatrix | None = None,
                  test_labels: Sequence[float] | None = None) -> RankingTable:
    """Rank features by the absolute Pearson correlation between each
    feature column and the label vector.

    Constant feature columns are reported with r = 0 and a degeneracy flag
    instead of failing the whole ranking. The confidence interval is left
    empty below four rows. When a test matrix and labels are supplied each
    entry also carries its test-set correlation, empty where undefined.
    The test matrix's columns are matched to the training matrix's by
    name, in any order; a different set of names is a DataFormatError.
    """
    y = np.asarray(labels, dtype=float)
    if y.shape != (matrix.rows.shape[0],):
        raise ValueError(
            f"{y.size} labels for {matrix.rows.shape[0]} matrix rows"
        )
    y_test = None
    if test_matrix is not None:
        if test_labels is None:
            raise ValueError("test_matrix given without test_labels")
        test_rows = test_matrix.rows_in(matrix.feature_names)
        y_test = np.asarray(test_labels, dtype=float)
        if y_test.shape != (test_matrix.rows.shape[0],):
            raise ValueError(f"{y_test.size} test labels for "
                             f"{test_matrix.rows.shape[0]} test matrix rows")

    r_train = _pearson_rows(matrix.rows.T, y)
    defined = ~np.isnan(r_train)
    r_test = np.full(len(r_train), np.nan)
    if y_test is not None and defined.any():
        r_test[defined] = _pearson_rows(test_rows.T[defined], y_test)

    reports = []
    for name, r, rt in zip(matrix.feature_names, r_train.tolist(),
                           r_test.tolist()):
        if math.isnan(r):
            reports.append(CorrelationReport(
                feature_name=name, r_train=0.0, degenerate=True))
            continue
        ci_low, ci_high = (fisher_ci(r, len(y)) if len(y) >= 4
                           else (None, None))
        reports.append(CorrelationReport(
            feature_name=name, r_train=r, ci_low=ci_low, ci_high=ci_high,
            r_test=None if math.isnan(rt) else rt,
        ))

    reports.sort(key=lambda e: (-abs(e.r_train), e.feature_name))
    return RankingTable(entries=tuple(reports))


def weighted_f1(predicted: Sequence[str], gold: Sequence[str]) -> float:
    """Per-class F1 averaged with weights equal to gold class frequencies.

    Classes absent from the gold labels carry zero weight even if they
    appear among the predictions.
    """
    if len(predicted) != len(gold):
        raise ValueError("predicted and gold label vectors differ in length")
    if len(gold) == 0:
        raise ValueError("cannot score empty label vectors")
    total = len(gold)
    pairs = Counter(zip(predicted, gold))  # (predicted, gold) label counts
    pred_n, gold_n = Counter(), Counter()
    for (p, g), n in pairs.items():
        pred_n[p] += n
        gold_n[g] += n
    score = 0.0
    for cls in sorted(gold_n):
        tp = pairs[cls, cls]
        if tp == 0:
            f1 = 0.0
        else:
            precision = tp / pred_n[cls]
            recall = tp / gold_n[cls]
            f1 = 2 * precision * recall / (precision + recall)
        score += (gold_n[cls] / total) * f1
    return score
