"""Correlation analysis, Fisher confidence intervals, feature ranking and
weighted F1 evaluation."""

from __future__ import annotations

import math
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
    the correlation is undefined.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("pearson expects two equal-length vectors")
    if xa.size < 2:
        raise ValueError("pearson needs at least two observations")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    mx = float(np.abs(xc).max())
    my = float(np.abs(yc).max())
    if mx == 0.0 or my == 0.0:
        raise DegenerateDataError(
            "correlation undefined: an input vector has zero variance"
        )
    # scaling by the max magnitude keeps the sums-of-squares product away
    # from overflow/underflow and makes r exactly 1 for identical vectors
    xn = xc / mx
    yn = yc / my
    r = float(np.sum(xn * yn)) / math.sqrt(
        float(np.sum(xn * xn)) * float(np.sum(yn * yn)))
    return min(1.0, max(-1.0, r))


def fisher_ci(r: float, n: int, level: float = 0.95) -> tuple[float, float]:
    """Confidence interval for a correlation via the Fisher z-transform.

    Degenerate |r| = 1 collapses to the point interval [r, r].
    """
    if not -1.0 <= r <= 1.0:
        raise ValueError(f"correlation {r} outside [-1, 1]")
    if abs(r) == 1.0:
        return (r, r)
    if n < 4:
        raise ValueError(f"need n >= 4 observations for an interval, got {n}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {level}")
    z = math.atanh(r)
    half_width = NormalDist().inv_cdf(0.5 + level / 2) / math.sqrt(n - 3)
    return (math.tanh(z - half_width), math.tanh(z + half_width))


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation of one feature with labels of one dimension."""

    feature_name: str
    dimension: str
    r_train: float
    ci_low: float | None = None
    ci_high: float | None = None
    r_test: float | None = None
    degenerate: bool = False


@dataclass(frozen=True)
class RankingTable:
    """Correlation reports sorted by descending |r_train|, ties broken by
    feature name."""

    dimension: str
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
                  dimension: str, level: float = 0.95,
                  test_matrix: FeatureMatrix | None = None,
                  test_labels: Sequence[float] | None = None) -> RankingTable:
    """Rank features by the absolute Pearson correlation between each
    feature column and the label vector.

    Constant feature columns are reported with r = 0 and a degeneracy flag
    instead of failing the whole ranking. When a test matrix and labels
    are supplied each entry also carries its test-set correlation.
    """
    y = np.asarray(labels, dtype=float)
    if y.shape[0] != matrix.rows.shape[0]:
        raise ValueError(
            f"{y.shape[0]} labels for {matrix.rows.shape[0]} matrix rows"
        )
    y_test = None
    if test_matrix is not None:
        if test_labels is None:
            raise ValueError("test_matrix given without test_labels")
        if test_matrix.feature_names != matrix.feature_names:
            raise ValueError("train and test matrices disagree on features")
        y_test = np.asarray(test_labels, dtype=float)

    reports = []
    for name in matrix.feature_names:
        try:
            r = pearson(matrix.column(name), y)
        except DegenerateDataError:
            reports.append(CorrelationReport(
                feature_name=name, dimension=dimension, r_train=0.0,
                degenerate=True,
            ))
            continue
        ci_low, ci_high = fisher_ci(r, len(y), level)
        r_test = None
        if y_test is not None:
            try:
                r_test = pearson(test_matrix.column(name), y_test)
            except DegenerateDataError:
                r_test = None
        reports.append(CorrelationReport(
            feature_name=name, dimension=dimension, r_train=r,
            ci_low=ci_low, ci_high=ci_high, r_test=r_test,
        ))

    reports.sort(key=lambda e: (-abs(e.r_train), e.feature_name))
    return RankingTable(dimension=dimension, entries=tuple(reports))


def weighted_f1(predicted: Sequence[str], gold: Sequence[str]) -> float:
    """Per-class F1 averaged with weights equal to gold class frequencies.

    Classes absent from the gold labels carry zero weight even if they
    appear among the predictions.
    """
    if len(predicted) != len(gold):
        raise ValueError("predicted and gold label vectors differ in length")
    if not gold:
        raise ValueError("cannot score empty label vectors")
    total = len(gold)
    score = 0.0
    for cls in sorted(set(gold)):
        tp = sum(1 for p, g in zip(predicted, gold) if p == cls and g == cls)
        pred_n = sum(1 for p in predicted if p == cls)
        gold_n = sum(1 for g in gold if g == cls)
        if tp == 0:
            f1 = 0.0
        else:
            precision = tp / pred_n
            recall = tp / gold_n
            f1 = 2 * precision * recall / (precision + recall)
        score += (gold_n / total) * f1
    return score
