"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-6 are property-based and always run. Criteria 7-11 reproduce
desk-scale results on the QATS shared-task data and are skipped with a
warning unless TSEVAL_QATS_DIR points at train.tsv/test.tsv in the
canonical TSV format (reported values are band-checked, not bit-exact:
the original tokenizer and metric variants are unspecified).

Run with: pytest tests/test_acceptance.py -v -s
"""

import os
import random
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from tseval.features import (
    SentencePair,
    compute_features,
    compute_matrix,
    feature_names,
    registry,
)
from tseval.mtmetrics import BleuConfig, bleu, meteor, rouge, ter_align
from tseval.qemodel import (
    PipelineConfig,
    fit_pca,
    fit_pipeline,
    fit_regressor,
    predict,
    select_lambda,
    _nll_and_grad,
)
from tseval.qats_io import encode_labels, label_distribution, to_pairs
from tseval.resources import Resources, load_frequency_table, train_lm
from tseval.stats import fisher_ci, pearson, rank_features, weighted_f1
from tseval.textproc import tokenize

from test_mtmetrics import ter_oracle
from test_stats import weighted_f1_oracle


def ok(number: int, message: str) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS — {message}")


def tokens_to_text(tokens) -> SentencePair:
    return tokenize(" ".join(tokens))


# ---------------------------------------------------------------------------
# property-based criteria (no external data)
# ---------------------------------------------------------------------------

def test_criterion_01_metric_identity_and_annihilation():
    rng = random.Random(1001)
    alphabet = [f"w{k}" for k in range(9)]
    start = time.perf_counter()
    for _ in range(200):
        tokens = [rng.choice(alphabet) for _ in range(rng.randint(1, 12))]
        t = tokens_to_text(tokens)
        assert bleu(t, t) == 1.0
        assert rouge(t, t) == 1.0
        bound = 1.0 - 0.5 * (1.0 / t.word_count) ** 3 - 1e-9
        assert meteor(t, t) >= bound
        assert ter_align(t, t).num_errors == 0

        other = tokens_to_text(
            [f"v{k}" for k in range(rng.randint(1, 8))])
        assert bleu(t, other, BleuConfig(max_order=1)) == 0.0
        assert rouge(t, other) == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"identity suite took {elapsed:.1f}s"
    ok(1, f"identity/annihilation over 200 random texts in {elapsed:.2f}s")


def test_criterion_02_ter_matches_exhaustive_search():
    rng = random.Random(1002)
    alphabets = ["ab", "abc", "abcdef"]
    start = time.perf_counter()
    for i in range(300):
        alphabet = alphabets[i % len(alphabets)]
        src = [rng.choice(alphabet) for _ in range(rng.randint(1, 6))]
        out = [rng.choice(alphabet) for _ in range(rng.randint(0, 6))]
        got = ter_align(tokens_to_text(src), tokens_to_text(out))
        assert got.num_errors == ter_oracle(src, out), (src, out)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"TER oracle suite took {elapsed:.1f}s"
    ok(2, f"greedy TER equals exhaustive shift+edit search on 300 pairs "
          f"in {elapsed:.1f}s")


def test_criterion_03_pca_matches_eigendecomposition():
    rng = np.random.default_rng(1003)
    for _ in range(50):
        n = int(rng.integers(4, 9))
        d = int(rng.integers(2, 9))
        k = min(n - 1, d)
        X = rng.normal(size=(n, d))
        basis = fit_pca(X, k)

        C = np.cov(X, rowvar=False, ddof=1).reshape(d, d)
        eigvals, eigvecs = np.linalg.eigh(C)
        order = np.argsort(eigvals)[::-1][:k]
        for idx, col in enumerate(order):
            expected = eigvecs[:, col]
            got = basis.components[idx]
            err = min(np.abs(got - expected).max(),
                      np.abs(got + expected).max())
            assert err <= 1e-6, f"component {idx} off by {err:.2e}"

        projected = basis.transform(X)
        cov = np.cov(projected, rowvar=False, ddof=1).reshape(k, k)
        off = np.abs(cov - np.diag(np.diag(cov))).max() if k > 1 else 0.0
        assert off <= 1e-6
    ok(3, "PCA matches the covariance eigendecomposition oracle on 50 "
          "random matrices; projections decorrelated")


def test_criterion_04_regression_oracles():
    rng = np.random.default_rng(1004)

    X = rng.normal(size=(30, 5))
    y = rng.normal(size=30)
    ridge0 = fit_regressor(X, y, kind="ridge", lam=0.0)
    ols = fit_regressor(X, y, kind="linreg")
    assert np.abs(ridge0.weights - ols.weights).max() <= 1e-8

    # centered x = y = (-0.5, 0.5): w = 0.5 / (0.5 + 1), b = 1.5 - 1.5 w
    model = fit_regressor(np.array([[1.0], [2.0]]), [1.0, 2.0],
                          kind="ridge", lam=1.0)
    assert model.weights[0] == pytest.approx(1 / 3, abs=1e-12)
    assert float(model.intercept) == pytest.approx(1.0, abs=1e-12)

    Xc = rng.normal(size=(25, 4))
    Xc -= Xc.mean(axis=0)
    yc = Xc @ np.array([1.0, -2.0, 0.0, 0.5]) + 0.1 * rng.normal(size=25)
    yc -= yc.mean()
    critical = float(np.abs(Xc.T @ yc).max())
    lasso = fit_regressor(Xc, yc, kind="lasso", lam=critical)
    assert np.all(lasso.weights == 0.0)

    for _ in range(3):
        n, d, C = 10, 3, 3
        Xl = rng.normal(size=(n, d))
        yl = rng.integers(0, C, size=n)
        Y = np.zeros((n, C))
        Y[np.arange(n), yl] = 1.0
        W = rng.normal(size=(C, d))
        b = rng.normal(size=C)
        _, grad_w, grad_b = _nll_and_grad(W, b, Xl, Y, 0.7)
        eps = 1e-6
        for arr, grad in ((W, grad_w), (b, grad_b)):
            flat = arr.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                up, _, _ = _nll_and_grad(W, b, Xl, Y, 0.7)
                flat[idx] = orig - eps
                down, _, _ = _nll_and_grad(W, b, Xl, Y, 0.7)
                flat[idx] = orig
                numeric = (up - down) / (2 * eps)
                analytic = grad.ravel()[idx]
                scale = max(1.0, abs(numeric), abs(analytic))
                assert abs(numeric - analytic) / scale <= 1e-5
    ok(4, "ridge(0)=OLS, 1-D ridge closed form, lasso annihilation bound, "
          "logistic gradients match finite differences")


def test_criterion_05_statistics():
    assert pearson([1, 2, 3], [6, 4, 5]) == pytest.approx(-0.5, abs=1e-12)

    low, high = fisher_ci(0.36, 505, 0.95)
    half_width = (high - low) / 2
    assert abs(half_width - 0.08) <= 0.015

    rng = random.Random(1005)
    labels = ["Good", "OK", "Bad"]
    for _ in range(200):
        n = rng.randint(1, 50)
        gold = [rng.choice(labels) for _ in range(n)]
        pred = [rng.choice(labels) for _ in range(n)]
        assert weighted_f1(pred, gold) == weighted_f1_oracle(pred, gold)
    ok(5, f"pearson example exact, Fisher half-width {half_width:.3f} "
          f"matches the published ±0.08, weighted F1 equals its oracle")


def test_criterion_06_readability_formulas():
    pair = SentencePair.from_text("placeholder source", "The cat sat.")
    vals = compute_features(pair, which=["OutputFKGL", "OutputFRE"])
    assert vals["OutputFKGL"] == pytest.approx(-2.62, abs=1e-9)
    assert vals["OutputFRE"] == pytest.approx(119.19, abs=1e-9)
    ok(6, "FKGL/FRE reproduce the hand-computed (-2.62, 119.19) example")


# ---------------------------------------------------------------------------
# desk-scale reproduction on the QATS data (skipped without the data)
# ---------------------------------------------------------------------------

RESOURCE_FREE = [spec.name for spec in registry() if not spec.requires]

OUTPUT_LENGTH_FEATURES = {
    "NBOutputChars", "NBOutputCharsPerSent", "NBOutputSyllables",
    "NBOutputSyllablesPerSent", "NBOutputWords", "NBOutputWordsPerSent",
}
NGRAM_MT_FEATURES = {
    "BLEU_1gram", "BLEU_2gram", "BLEU_3gram", "BLEU_4gram",
    "BLEUSmoothed", "METEOR",
}


@pytest.fixture(scope="module")
def qats_features(qats_data):
    """Resource-free feature matrices for both splits (cached per run)."""
    train, test = qats_data
    train_matrix = compute_matrix(to_pairs(train), which=RESOURCE_FREE)
    test_matrix = compute_matrix(to_pairs(test), which=RESOURCE_FREE)
    return train, test, train_matrix, test_matrix


def test_criterion_07_correlation_bands(qats_features):
    train, _, matrix, _ = qats_features
    checks = [
        ("METEOR", "G", 0.26, 0.46),
        ("BLEUSmoothed", "M", 0.45, 0.70),
        ("NBOutputCharsPerSent", "S", -0.65, -0.40),
    ]
    observed = {}
    for name, dim, low, high in checks:
        r = pearson(matrix.column(name), encode_labels(train, dim))
        observed[name] = r
        assert low <= r <= high, f"{name} vs {dim}: r={r:.3f} not in " \
                                 f"[{low}, {high}]"
    meaning = encode_labels(train, "M")
    for name in ("TERp", "TERp_Del", "TERp_NumEr", "TERp_Sub"):
        r = pearson(matrix.column(name), meaning)
        assert r < 0.0, f"{name} vs meaning: r={r:.3f} not negative"
    ok(7, "train correlations inside the published bands: " + ", ".join(
        f"{k}={v:.2f}" for k, v in observed.items()))


def test_criterion_08_ranking_structure(qats_features):
    train, _, matrix, _ = qats_features
    simplicity = rank_features(matrix, encode_labels(train, "S"))
    top5 = simplicity.top(5)
    assert all(name in OUTPUT_LENGTH_FEATURES for name in top5), top5

    meaning = rank_features(matrix, encode_labels(train, "M"))
    top1 = meaning.top(1)[0]
    assert top1 in NGRAM_MT_FEATURES, top1
    ok(8, f"simplicity top-5 are output-length counts {top5}; "
          f"meaning top feature is {top1}")


def test_criterion_09_ridge_pipeline_bands(qats_features):
    train, test, train_matrix, test_matrix = qats_features
    bands = {"M": 0.45, "S": 0.35}
    observed = {}
    for dim, minimum in bands.items():
        y_train = encode_labels(train, dim)
        config = PipelineConfig(kind="ridge", pca_k=25)
        lam, _ = select_lambda(train_matrix, y_train, config, folds=5, seed=42)
        pipeline = fit_pipeline(train_matrix, y_train, dim,
                                PipelineConfig(kind="ridge", lam=lam,
                                               pca_k=25))
        scores = predict(pipeline, test_matrix)
        r = pearson(scores, encode_labels(test, dim))
        observed[dim] = r
        assert r >= minimum, f"{dim}: test Pearson {r:.3f} < {minimum}"
    ok(9, "ridge pipeline test Pearson " + ", ".join(
        f"{d}={v:.3f}" for d, v in observed.items()))


def test_criterion_10_majority_class_baseline(qats_data):
    train, test = qats_data
    majority = max(label_distribution(train, "G").items(),
                   key=lambda kv: kv[1])[0]
    gold = [r.labels["G"] for r in test.records]
    score = weighted_f1([majority] * len(gold), gold) * 100.0
    assert abs(score - 65.89) <= 0.5, f"majority-class F1 {score:.2f}"
    ok(10, f"majority-class grammaticality weighted F1 {score:.2f} "
           f"(published 65.89)")


def test_criterion_11_runtime_full_matrix(qats_data, tmp_path):
    train, test = qats_data
    pairs = to_pairs(train) + to_pairs(test)
    assert len(pairs) == 631, f"expected 631 QATS pairs, got {len(pairs)}"
    resources = _full_resources(pairs, tmp_path)

    start = time.perf_counter()
    matrix = compute_matrix(pairs, resources, which=list(feature_names()))
    elapsed = time.perf_counter() - start
    assert matrix.rows.shape == (631, 29)
    assert np.isfinite(matrix.rows).all()
    assert elapsed < 60.0, f"full matrix took {elapsed:.1f}s"
    ok(11, f"29 features x 631 pairs in {elapsed:.1f}s single-threaded")


def _full_resources(pairs, tmp_path) -> Resources:
    """Real resources from $TSEVAL_RESOURCES when present, else stand-ins
    derived from the dataset itself (criterion 11 measures runtime, not
    resource-dependent values)."""
    base = os.environ.get("TSEVAL_RESOURCES")
    paths = {}
    if base:
        for key, name in (("freq_table", "freq.txt"),
                          ("concreteness", "concreteness.tsv"),
                          ("vectors", "vectors.txt"),
                          ("lm_corpus", "lm_corpus.txt")):
            candidate = Path(base) / name
            if candidate.exists():
                paths[key] = candidate

    counts = Counter(w for p in pairs for w in p.source.words + p.output.words)
    vocab = [w for w, _ in counts.most_common()]

    if "freq_table" not in paths:
        paths["freq_table"] = tmp_path / "freq.txt"
        paths["freq_table"].write_text("\n".join(vocab) + "\n")
    if "concreteness" not in paths:
        rng = random.Random(0)
        lines = ["Word\tConc.M"]
        lines += [f"{w}\t{1.0 + 4.0 * rng.random():.3f}" for w in vocab]
        paths["concreteness"] = tmp_path / "concreteness.tsv"
        paths["concreteness"].write_text("\n".join(lines) + "\n")
    if "vectors" not in paths:
        rng = random.Random(1)
        lines = [f"{len(vocab)} 16"]
        for w in vocab:
            lines.append(w + " " + " ".join(
                f"{rng.uniform(-1, 1):.4f}" for _ in range(16)))
        paths["vectors"] = tmp_path / "vectors.txt"
        paths["vectors"].write_text("\n".join(lines) + "\n")
    if "lm_corpus" not in paths:
        paths["lm_corpus"] = tmp_path / "lm_corpus.txt"
        paths["lm_corpus"].write_text(
            "\n".join(" ".join(p.source.words) for p in pairs) + "\n")

    from tseval.resources import load_concreteness, load_vectors
    return Resources(
        freq_table=load_frequency_table(paths["freq_table"]),
        concreteness=load_concreteness(paths["concreteness"]),
        vectors=load_vectors(paths["vectors"]),
        lm=train_lm(paths["lm_corpus"], order=3),
    )
