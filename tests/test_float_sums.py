"""Float sums that reach an artifact do not depend on how the running
Python's sum() rounds: CPython 3.10 and 3.11 add floats left to right,
3.12 and later compensate the rounding (Neumaier's method)."""

import builtins
import math
from unittest import mock

from tseval import qats_io
from tseval.errors import sum_left
from tseval.features import compute_matrix
from tseval.qemodel import PipelineConfig, select_lambda


def left_to_right_sum(iterable, /, start=0):
    """sum() as CPython 3.10 and 3.11 compute it for ints and floats."""
    total = start
    for x in iterable:
        total = total + x
    return total


def compensated_sum(iterable, /, start=0):
    """sum() as CPython 3.12 computes it for ints and floats: ints exactly,
    floats with Neumaier's compensation, added to the total at the end
    when it is finite."""
    items = [start, *iterable]
    if (all(isinstance(x, int) for x in items)
            or not all(isinstance(x, (int, float)) for x in items)):
        return left_to_right_sum(items[1:], start)
    total = c = 0.0
    for x in map(float, items):
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def test_sum_left_adds_left_to_right():
    xs = [1e16, 1.0, -1e16]
    assert sum_left(xs) == left_to_right_sum(xs) == 0.0
    assert compensated_sum(xs) == 1.0
    assert sum_left([]) == 0.0 and sum_left([-0.0]) == 0.0


def test_features_and_cv_means_do_not_depend_on_sum(bench):
    # qats-lexical seed 1 of the benchmark: its lexicon and LM give
    # AvgConcreteness and AvgLMProbsOutput sums of many ratings and log
    # probabilities, and its pairs give BLEU up to four log precisions
    train = qats_io.load_dataset(bench.inputs("qats-lexical", 1)["train"],
                                 "train")
    pairs = qats_io.to_pairs(train)
    res = bench.resources_of("qats-lexical", 1)
    y = qats_io.encode_labels(train, "M")
    runs = []
    for fake in (compensated_sum, left_to_right_sum):
        with mock.patch.object(builtins, "sum", fake):
            matrix = compute_matrix(pairs, res)
            lam, results = select_lambda(matrix, y, PipelineConfig("ridge"))
        runs.append((matrix.rows.tobytes(), lam,
                     [(k, r.mean.hex(), [s.hex() for s in r.fold_scores])
                      for k, r in results.items()]))
    assert runs[0] == runs[1]
