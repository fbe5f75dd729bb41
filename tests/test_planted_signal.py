"""The library flow on data whose answer is known.

The benchmark workloads plant their labels (`labels` in
`bench/workloads.py`): S follows the output's length tercile and M the
share of source word types the output keeps. This module checks that
`rank_features` and the ridge pipeline recover that planted signal on
every workload at every seed of the `workload_splits` fixture. It does
not check the paper's numbers; acceptance criteria 7-11 do that on the
real QATS data. The claims below were fixed before the first run.
"""

from tseval.qemodel import PipelineConfig, fit_pipeline, predict, select_lambda
from tseval.stats import pearson, rank_features

OUTPUT_LENGTH_FEATURES = {
    "NBOutputWords", "NBOutputChars", "NBOutputSyllables",
    "NBOutputWordsPerSent", "NBOutputCharsPerSent",
    "NBOutputSyllablesPerSent",
}
OVERLAP_FEATURES = {
    "WordsInCommon", "BLEU_1gram", "BLEU_2gram", "BLEU_3gram", "BLEU_4gram",
    "BLEUSmoothed", "METEOR", "ROUGE",
}
RIDGE_M_FLOOR = 0.8  # M is a deterministic function of word overlap


def _ranking(train, test, dim):
    return rank_features(train.matrix, train.labels[dim],
                         test_matrix=test.matrix,
                         test_labels=test.labels[dim])


def test_every_workload_at_every_seed(workload_splits):
    assert set(workload_splits) == {
        (name, seed) for name in ("qats-reorder", "qats-lexical", "score-many")
        for seed in (1, 2, 3)}


def test_simplicity_top_three_are_output_length_counts(workload_splits):
    missed = {}
    for run, (train, test) in workload_splits.items():
        top = _ranking(train, test, "S").top(3)
        if not set(top) <= OUTPUT_LENGTH_FEATURES:
            missed[run] = top
    assert not missed


def test_meaning_top_entry_is_an_overlap_metric(workload_splits):
    missed = {}
    for run, (train, test) in workload_splits.items():
        top = _ranking(train, test, "M").top(1)[0]
        if top not in OVERLAP_FEATURES:
            missed[run] = top
    assert not missed


def test_ridge_meaning_pipeline_beats_the_floor_and_the_top_feature(
        workload_splits):
    missed = {}
    for run, (train, test) in workload_splits.items():
        y = train.labels["M"]
        lam, _ = select_lambda(train.matrix, y, PipelineConfig(kind="ridge"))
        pipeline = fit_pipeline(train.matrix, y, "M",
                                PipelineConfig(kind="ridge", lam=lam))
        r = pearson(predict(pipeline, test.matrix), test.labels["M"])
        top_r = abs(_ranking(train, test, "M").entries[0].r_test)
        if not (r >= RIDGE_M_FLOOR and r >= top_r):
            missed[run] = (r, top_r)
    assert not missed
