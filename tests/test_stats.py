"""Correlation, Fisher intervals, ranking and weighted F1."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tseval.errors import DataFormatError, DegenerateDataError
from tseval.features import FeatureMatrix
from tseval.stats import fisher_ci, pearson, rank_features, weighted_f1


def weighted_f1_oracle(predicted, gold):
    """Confusion-matrix based reimplementation, kept deliberately naive."""
    classes = sorted(set(gold) | set(predicted))
    confusion = {(g, p): 0 for g in classes for p in classes}
    for p, g in zip(predicted, gold):
        confusion[(g, p)] += 1
    total = len(gold)
    result = 0.0
    for cls in classes:
        gold_n = sum(confusion[(cls, p)] for p in classes)
        pred_n = sum(confusion[(g, cls)] for g in classes)
        tp = confusion[(cls, cls)]
        if tp == 0:
            f1 = 0.0
        else:
            precision = tp / pred_n
            recall = tp / gold_n
            f1 = 2 * precision * recall / (precision + recall)
        result += (gold_n / total) * f1
    return result


def pearson_reference(x, y):
    """Pearson r of one pair of vectors, as pearson once computed it, or
    None where it is undefined; the reference of the batched pass."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.size < 2 or xa.min() == xa.max() or ya.min() == ya.max():
        return None
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    xn = xc / float(np.abs(xc).max())
    yn = yc / float(np.abs(yc).max())
    r = float(np.sum(xn * yn)) / math.sqrt(
        float(np.sum(xn * xn)) * float(np.sum(yn * yn)))
    return min(1.0, max(-1.0, r))


def same_float(a, b):
    """Bit for bit, so -0.0 differs from 0.0; None only equals None."""
    if a is None or b is None:
        return a is b
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestPearson:
    def test_identical_vectors(self):
        assert pearson([1, 5, 3], [1, 5, 3]) == 1.0

    def test_affine_relation(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == 1.0

    def test_hand_computed_example(self):
        assert pearson([1, 2, 3], [6, 4, 5]) == pytest.approx(-0.5, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateDataError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_constant_with_inexact_mean_rejected(self):
        # the mean of three copies of 0.1 rounds to a different float, so
        # centering leaves nonzero residues
        assert np.mean([0.1] * 3) != 0.1
        with pytest.raises(DegenerateDataError, match="zero variance"):
            pearson([0.1] * 3, [1, 2, 4])
        with pytest.raises(DegenerateDataError, match="zero variance"):
            pearson([1, 2, 4], [0.1] * 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_observations_degenerate(self, n):
        with pytest.raises(DegenerateDataError, match="two observations"):
            pearson([1.0] * n, [2.0] * n)

    @pytest.mark.parametrize("x, y", [
        ([1.0, math.nan, 3.0], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.0], [1.0, math.inf, 3.0]),
        ([-math.inf, 2.0, 3.0], [1.0, 2.0, 3.0]),
    ])
    def test_non_finite_input_rejected(self, x, y):
        # the clamp to [-1, 1] used to turn the NaN result into -1.0
        with pytest.raises(ValueError, match="finite"):
            pearson(x, y)

    def test_symmetry(self):
        x, y = [1.0, 4.0, 2.0, 8.0], [3.0, 1.0, 5.0, 2.0]
        assert pearson(x, y) == pearson(y, x)

    @given(st.lists(st.integers(-1000, 1000), min_size=3, max_size=20),
           st.floats(0.1, 10), st.floats(-5, 5))
    @settings(max_examples=200)
    def test_affine_invariance_and_sign(self, ints, a, b):
        if len(set(ints)) < 2:
            return
        xs = np.asarray(ints, dtype=float) / 7.0
        assert pearson(xs, a * xs + b) == pytest.approx(1.0, abs=1e-9)
        assert pearson(xs, -a * xs + b) == pytest.approx(-1.0, abs=1e-9)


class TestFisherCI:
    def test_reference_interval(self):
        low, high = fisher_ci(0.36, 505, 0.95)
        assert low == pytest.approx(0.28, abs=0.01)
        assert high == pytest.approx(0.43, abs=0.01)
        half_width = (high - low) / 2
        assert abs(half_width - 0.08) < 0.015

    def test_hand_evaluated_formula(self):
        low, high = fisher_ci(0.5, 28, 0.95)
        assert low == pytest.approx(math.tanh(math.atanh(0.5) - 1.959964 * 0.2),
                                    abs=1e-5)
        assert low == pytest.approx(0.156, abs=5e-4)
        assert high == pytest.approx(0.736, abs=5e-4)

    def test_symmetric_about_zero(self):
        low, high = fisher_ci(0.0, 1000, 0.95)
        assert low == pytest.approx(-high, abs=1e-12)

    def test_degenerate_r(self):
        assert fisher_ci(1.0, 10) == (1.0, 1.0)
        assert fisher_ci(-1.0, 10) == (-1.0, -1.0)
        assert fisher_ci(1.0, 2) == (1.0, 1.0)  # no minimum n

    def test_contains_r(self):
        for r in (-0.9, -0.2, 0.0, 0.37, 0.8):
            low, high = fisher_ci(r, 50)
            assert low <= r <= high

    def test_width_decreases_with_n(self):
        widths = []
        for n in (10, 50, 200, 1000):
            low, high = fisher_ci(0.4, n)
            widths.append(high - low)
        assert widths == sorted(widths, reverse=True)
        assert len(set(widths)) == len(widths)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            fisher_ci(0.5, 3)

    @pytest.mark.parametrize("r", [1.0, -1.0, 0.5])
    @pytest.mark.parametrize("level", [7.0, 0.0, 1.0, -0.5])
    def test_bad_level_rejected_before_the_degenerate_shortcut(self, r,
                                                               level):
        with pytest.raises(ValueError, match="confidence level"):
            fisher_ci(r, 2, level=level)


def _matrix(columns: dict[str, list[float]]) -> FeatureMatrix:
    names = tuple(columns)
    rows = np.asarray(list(columns.values()), dtype=float).T
    ids = tuple(str(i) for i in range(rows.shape[0]))
    return FeatureMatrix(feature_names=names, rows=rows, row_ids=ids)


class TestRankFeatures:
    def test_label_copy_ranks_first(self):
        labels = [0.0, 1.0, 2.0, 1.0, 0.0, 2.0]
        matrix = _matrix({
            "noise": [0.3, 0.1, 0.4, 0.1, 0.5, 0.9],
            "copy": labels,
        })
        table = rank_features(matrix, labels)
        assert table.entries[0].feature_name == "copy"
        assert table.entries[0].r_train == 1.0

    def test_negation_keeps_rank(self):
        labels = [0.0, 1.0, 2.0, 1.0, 0.0, 2.0]
        matrix = _matrix({
            "noise": [0.3, 0.1, 0.4, 0.1, 0.5, 0.9],
            "anti": [-v for v in labels],
        })
        table = rank_features(matrix, labels)
        assert table.entries[0].feature_name == "anti"
        assert table.entries[0].r_train == -1.0

    def test_constant_column_flagged_not_fatal(self):
        labels = [0.0, 1.0, 2.0, 0.0, 1.0]
        matrix = _matrix({
            "const": [7.0] * 5,
            "ok": [1.0, 2.0, 3.0, 1.0, 2.5],
        })
        table = rank_features(matrix, labels)
        by_name = {e.feature_name: e for e in table.entries}
        assert by_name["const"].degenerate
        assert by_name["const"].r_train == 0.0
        assert not by_name["ok"].degenerate

    def test_non_finite_column_is_an_error(self):
        matrix = _matrix({
            "ok": [1.0, 2.0, 3.0, 1.0, 2.5],
            "bad": [1.0, math.nan, 3.0, 1.0, 2.5],
        })
        with pytest.raises(ValueError, match="finite"):
            rank_features(matrix, [0.0, 1.0, 2.0, 0.0, 1.0])

    def test_output_is_permutation_of_features(self):
        rng = np.random.default_rng(5)
        matrix = _matrix({f"f{i}": rng.normal(size=30).tolist()
                          for i in range(8)})
        labels = rng.normal(size=30)
        table = rank_features(matrix, labels)
        assert sorted(e.feature_name for e in table.entries) == sorted(
            matrix.feature_names)

    def test_sorted_by_abs_r_with_name_ties(self):
        labels = [0.0, 1.0, 2.0, 3.0]
        matrix = _matrix({
            "b_up": [0.0, 1.0, 2.0, 3.0],
            "a_down": [3.0, 2.0, 1.0, 0.0],
        })
        table = rank_features(matrix, labels)
        assert [e.feature_name for e in table.entries] == ["a_down", "b_up"]

    def test_ci_bounds_bracket_r(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=40)
        labels = x + rng.normal(scale=0.7, size=40)
        matrix = _matrix({"x": x.tolist()})
        entry = rank_features(matrix, labels).entries[0]
        assert entry.ci_low <= entry.r_train <= entry.ci_high

    def test_test_split_correlations_attached(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=30)
        y = x + rng.normal(scale=0.4, size=30)
        train = _matrix({"x": x.tolist()})
        test = _matrix({"x": x[:10].tolist()})
        table = rank_features(train, y, test_matrix=test,
                              test_labels=y[:10])
        assert table.entries[0].r_test is not None

    def test_interval_empty_below_four_rows(self):
        table = rank_features(_matrix({"x": [1.0, 3.0, 2.0]}),
                              [0.0, 2.0, 2.0])
        entry = table.entries[0]
        assert entry.r_train == pytest.approx(0.866, abs=1e-3)
        assert entry.ci_low is None and entry.ci_high is None

    def test_one_row_test_split_leaves_r_test_empty(self):
        train = _matrix({"x": [1.0, 3.0, 2.0, 5.0]})
        table = rank_features(train, [0.0, 2.0, 2.0, 1.0],
                              test_matrix=_matrix({"x": [4.0]}),
                              test_labels=[1.0])
        assert table.entries[0].r_test is None
        assert table.entries[0].ci_low is not None

    def test_length_mismatch(self):
        matrix = _matrix({"x": [1.0, 2.0]})
        with pytest.raises(ValueError):
            rank_features(matrix, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="2 test labels for 3 test"):
            rank_features(matrix, [1.0, 2.0],
                          test_matrix=_matrix({"x": [1.0, 2.0, 3.0]}),
                          test_labels=[1.0, 2.0])

    def test_serializations(self):
        labels = [0.0, 1.0, 2.0, 0.0]
        matrix = _matrix({"x": [1.0, 2.0, 2.5, 0.5]})
        table = rank_features(matrix, labels)
        tsv = table.to_tsv()
        assert tsv.splitlines()[0] == "rank\tfeature\tr_train\tci_low\tci_high\tr_test"
        md = table.to_markdown()
        assert md.count("|") > 5


# A column's values: random at one magnitude near 1e-300, 1 or 1e300,
# constant, or constant but for one value a few ulps away.
_MAGNITUDES = st.sampled_from([1e-300, 1e-150, 1.0, 1e150, 1e300])


@st.composite
def _column(draw, n):
    kind = draw(st.sampled_from(["random", "small ints", "constant",
                                 "near-constant"]))
    scale = draw(_MAGNITUDES)
    if kind == "random":
        values = draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n))
        return [v * scale for v in values]
    if kind == "small ints":
        return [float(draw(st.integers(0, 2))) for _ in range(n)]
    base = draw(st.floats(-10, 10)) * scale
    values = [base] * n
    if kind == "near-constant" and n:
        at = draw(st.integers(0, n - 1))
        for _ in range(draw(st.integers(1, 3))):
            values[at] = math.nextafter(values[at], math.inf)
    return values


@st.composite
def _ranking_inputs(draw):
    """(train matrix, labels, test matrix, test labels) of one width."""
    k = draw(st.integers(1, 6))
    split = []
    for rows in (draw(st.integers(0, 12)), draw(st.integers(0, 6))):
        columns = {f"f{j}": draw(_column(rows)) for j in range(k)}
        labels = draw(_column(rows))
        split += [_matrix(columns), labels]
    return tuple(split)


class TestBatchedCorrelations:
    """rank_features computes r for every column in one pass; each must
    equal the one-column computation bit for bit."""

    def _check(self, matrix, labels, test_matrix=None, test_labels=None):
        table = rank_features(matrix, labels, test_matrix=test_matrix,
                              test_labels=test_labels)
        for e in table.entries:
            r = pearson_reference(matrix.column(e.feature_name), labels)
            if r is None:
                assert e.degenerate and same_float(e.r_train, 0.0)
                assert e.ci_low is None and e.r_test is None
                continue
            assert not e.degenerate and same_float(e.r_train, r)
            assert same_float(pearson(matrix.column(e.feature_name),
                                      labels), r)
            if test_matrix is not None:
                assert same_float(e.r_test, pearson_reference(
                    test_matrix.column(e.feature_name), test_labels))

    @given(_ranking_inputs())
    @settings(max_examples=300, deadline=None)
    def test_each_column_as_alone(self, inputs):
        matrix, labels, test_matrix, test_labels = inputs
        self._check(matrix, labels, test_matrix, test_labels)

    @given(_ranking_inputs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_test_columns_matched_by_name(self, inputs, data):
        matrix, labels, test_matrix, test_labels = inputs
        names = data.draw(st.permutations(test_matrix.feature_names))
        permuted = FeatureMatrix(
            feature_names=tuple(names), row_ids=test_matrix.row_ids,
            rows=np.column_stack([test_matrix.column(n) for n in names])
            .reshape(test_matrix.rows.shape))
        want = rank_features(matrix, labels, test_matrix=test_matrix,
                             test_labels=test_labels)
        got = rank_features(matrix, labels, test_matrix=permuted,
                            test_labels=test_labels)
        assert got == want and got.to_tsv() == want.to_tsv()

    def test_different_test_columns_rejected(self):
        train = _matrix({"x": [1.0, 3.0, 2.0], "y": [0.0, 1.0, 5.0]})
        for columns, message in (({"x": [1.0, 2.0]}, r"missing \['y'\]"),
                                 ({"x": [1.0, 2.0], "y": [3.0, 1.0],
                                   "z": [0.0, 1.0]}, r"unexpected \['z'\]")):
            with pytest.raises(DataFormatError, match=message):
                rank_features(train, [0.0, 1.0, 2.0],
                              test_matrix=_matrix(columns),
                              test_labels=[0.0, 1.0])

    def test_workload_train_matrices(self, workload_splits):
        for train, _ in workload_splits.values():
            for labels in train.labels.values():
                self._check(train.matrix, labels)


class TestWeightedF1:
    def test_perfect_prediction(self):
        gold = ["Good", "OK", "Bad", "Good"]
        assert weighted_f1(gold, gold) == 1.0

    def test_hand_confusion_example(self):
        gold = ["Good", "Good", "Bad", "Bad"]
        pred = ["Good", "Bad", "Good", "Bad"]
        assert weighted_f1(pred, gold) == pytest.approx(0.5, abs=1e-12)

    def test_majority_class_reproduces_grammaticality_baseline(self):
        # the published majority-class weighted F1 of 65.89 on the QATS
        # grammaticality test set is a pure function of a 96/126 Good share
        gold = ["Good"] * 96 + ["OK"] * 20 + ["Bad"] * 10
        pred = ["Good"] * 126
        assert weighted_f1(pred, gold) * 100 == pytest.approx(65.89, abs=0.01)

    def test_prediction_only_classes_carry_zero_weight(self):
        gold = ["Good", "Good"]
        pred = ["Bad", "Good"]
        # only class Good is weighted: P=1, R=0.5, F1=2/3
        assert weighted_f1(pred, gold) == pytest.approx(2 / 3, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_f1([], [])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_f1(["Good"], ["Good", "Bad"])

    def test_matches_bruteforce_oracle_exactly(self):
        rng = random.Random(99)
        labels = ["Good", "OK", "Bad"]
        for _ in range(200):
            n = rng.randint(1, 40)
            gold = [rng.choice(labels) for _ in range(n)]
            pred = [rng.choice(labels) for _ in range(n)]
            assert weighted_f1(pred, gold) == weighted_f1_oracle(pred, gold)

    def test_numpy_arrays_score_as_lists(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 40)
            gold = [rng.randrange(3) for _ in range(n)]
            pred = [rng.randrange(3) for _ in range(n)]
            expected = weighted_f1(pred, gold)
            assert weighted_f1(np.array(pred), np.array(gold)) == expected
            names = np.array(["Bad", "OK", "Good"])
            assert (weighted_f1(names[pred], names[gold])
                    == weighted_f1([str(x) for x in names[pred]],
                                   [str(x) for x in names[gold]]))
        with pytest.raises(ValueError, match="empty"):
            weighted_f1(np.array([]), np.array([]))
