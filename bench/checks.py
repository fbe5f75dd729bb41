"""The benchmark's own computations, kept apart from the program under
test: edit distances, LCS, clipped unigram counts, correlations, and a
re-implementation of the saved model's prediction and of the logistic
objective's gradient."""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path

import numpy as np

LABEL_VALUE = {"Bad": 0, "OK": 1, "Good": 2}
LENGTH_FEATURES = frozenset({
    "NBSourceWords", "NBOutputWords", "NBOutputChars", "NBOutputSyllables",
    "NBOutputWordsPerSent", "NBOutputCharsPerSent",
    "NBOutputSyllablesPerSent"})
OVERLAP_FEATURES = frozenset({
    "BLEU_1gram", "BLEU_2gram", "BLEU_3gram", "BLEU_4gram", "BLEUSmoothed",
    "METEOR", "ROUGE", "WordsInCommon"})
# fit_classifier's own convergence tolerance on the gradient norm.
LOGISTIC_TOL = 1e-6


def levenshtein(a: list[str], b: list[str]) -> int:
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def multiset_lower_bound(a: list[str], b: list[str]) -> int:
    overlap = sum((Counter(a) & Counter(b)).values())
    return max(len(a) - overlap, len(b) - overlap)


def lcs(a: list[str], b: list[str]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(src: list[str], out: list[str]) -> float:
    n = lcs(src, out)
    if n == 0:
        return 0.0
    p, r = n / len(out), n / len(src)
    return 2 * p * r / (p + r)


def bleu_1gram(src: list[str], out: list[str]) -> float:
    """Clipped unigram precision times the brevity penalty."""
    if not out:
        return 0.0
    clipped = sum((Counter(out) & Counter(src)).values())
    if clipped == 0:
        return 0.0
    return math.exp(min(0.0, 1.0 - len(src) / len(out))) * clipped / len(out)


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def read_matrix(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    names = lines[0].split("\t")[1:]
    ids, rows = [], []
    for line in lines[1:]:
        parts = line.split("\t")
        ids.append(parts[0])
        rows.append([float(v) for v in parts[1:]])
    return names, ids, np.array(rows)


def check_ranking(path: Path, matrix: np.ndarray, names: list[str],
                  labels: np.ndarray) -> tuple[bool, str]:
    """r_train equals numpy.corrcoef per feature; rows sorted by |r|.
    Returns (ok, name of the top feature)."""
    rows = [line.split("\t")
            for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    ok = len(rows) == len(names)
    prev = math.inf
    for row in rows:
        col = matrix[:, names.index(row[1])]
        r = float(row[2])
        expected = (0.0 if np.ptp(col) == 0
                    else float(np.corrcoef(col, labels)[0, 1]))
        ok = ok and abs(r - expected) <= 1e-9 and abs(r) <= prev + 1e-15
        prev = abs(r)
    return ok, rows[0][1] if rows else ""


def read_model(path: Path) -> dict:
    """Parse the saved pipeline's text format into numpy arrays."""
    lines = path.read_text(encoding="utf-8").splitlines()
    it = iter(lines)

    def vec():
        return np.array([float(x) for x in next(it).split()])

    model = {"header": next(it), "dimension": next(it).split()[1]}
    model["kind"] = next(it).split()[1]
    model["lam"] = float(next(it).split()[1])
    n = int(next(it).split()[1])
    model["features"] = [next(it) for _ in range(n)]
    for key in ("means", "stds", "pca_mean"):
        next(it)
        model[key] = vec()
    k = int(next(it).split()[1])
    model["components"] = np.array([vec() for _ in range(k)])
    next(it)
    model["explained"] = vec()
    if model["kind"] == "logistic":
        c = int(next(it).split()[1])
        model["weights"] = np.array([vec() for _ in range(c)])
        next(it)
        model["intercept"] = vec()
    else:
        next(it)
        model["weights"] = vec()
        next(it)
        model["intercept"] = float(next(it))
    return model


def project(model: dict, names: list[str], X: np.ndarray) -> np.ndarray:
    X = X[:, [names.index(f) for f in model["features"]]]
    stds = model["stds"]
    Z = (X - model["means"]) / np.where(stds > 0, stds, 1.0)
    Z[:, stds == 0] = 0.0
    return (Z - model["pca_mean"]) @ model["components"].T


def weighted_f1(pred: list[int], gold: list[int]) -> float:
    total, score = len(gold), 0.0
    for c in sorted(set(gold)):
        tp = sum(p == c == g for p, g in zip(pred, gold))
        if tp:
            prec = tp / sum(p == c for p in pred)
            rec = tp / sum(g == c for g in gold)
            score += gold.count(c) / total * 2 * prec * rec / (prec + rec)
    return score


def evaluate_score(model: dict, names: list[str], X: np.ndarray,
                   gold: list[int]) -> float:
    """Pearson r for regressors, weighted F1 (percent) for logistic."""
    P = project(model, names, X)
    if model["kind"] == "logistic":
        logits = P @ model["weights"].T + model["intercept"]
        pred = [int(i) for i in np.argmax(logits, axis=1)]
        return 100.0 * weighted_f1(pred, gold)
    scores = P @ model["weights"] + model["intercept"]
    return float(np.corrcoef(scores, np.array(gold, dtype=float))[0, 1])


def logistic_gradient_norm(model: dict, names: list[str], X: np.ndarray,
                           gold: list[int]) -> float:
    """Norm of the gradient of the L2-penalised multinomial negative
    log-likelihood (weights penalised, intercepts not) at the saved
    model, on the training rows."""
    return gradient_norm(project(model, names, X), model["weights"],
                         model["intercept"], model["lam"], gold)


def logistic_probe() -> tuple[np.ndarray, list[int], float]:
    """Fixed inputs (independent of the workload's seed) on which
    fit_classifier's own stopping rule is checked: 200 rows, 6 columns,
    three overlapping classes, a small penalty. The gradient norm at the
    returned weights was 2.7e-3 here, 2 700 times the tolerance."""
    rng = np.random.default_rng(2016)
    X = rng.standard_normal((200, 6))
    gold = [int(c) for c in np.argmax(X[:, :3] * 3.0
                                      + 0.3 * rng.standard_normal((200, 3)),
                                      axis=1)]
    return X, gold, 0.001


def gradient_norm(P: np.ndarray, W: np.ndarray, b: np.ndarray, lam: float,
                  gold: list[int]) -> float:
    """Norm of the gradient of the L2-penalised multinomial negative
    log-likelihood (weights penalised, intercepts not) at (W, b)."""
    logits = P @ W.T + b
    logits -= logits.max(axis=1, keepdims=True)
    prob = np.exp(logits)
    prob /= prob.sum(axis=1, keepdims=True)
    Y = np.zeros_like(prob)
    Y[np.arange(len(gold)), gold] = 1.0
    diff = prob - Y
    gw = diff.T @ P + lam * W
    gb = diff.sum(axis=0)
    return math.sqrt(float((gw * gw).sum() + (gb * gb).sum()))
