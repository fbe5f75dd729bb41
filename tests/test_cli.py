"""End-to-end CLI workflow on synthetic data: features -> rank -> train ->
evaluate -> report, plus determinism, config files and exit codes."""

import re
import shutil
import warnings

import numpy as np
import pytest

from tseval import cli, mtmetrics, qemodel
from tseval.cli import main
from tseval.features import compute_matrix
from tseval.resources import Resources, load_frequency_table, train_lm


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def workflow_dir(synthetic_dataset_dir, tmp_path_factory):
    """Runs the full pipeline once; tests inspect the artifacts."""
    out = tmp_path_factory.mktemp("workflow")
    base = synthetic_dataset_dir
    code = run(
        "features",
        "--train", str(base / "train.tsv"),
        "--test", str(base / "test.tsv"),
        "--freq-table", str(base / "freq.txt"),
        "--concreteness", str(base / "concreteness.tsv"),
        "--vectors", str(base / "vectors.txt"),
        "--lm-corpus", str(base / "lm_corpus.txt"),
        "--out", str(out),
    )
    assert code == 0
    return out


class TestFeaturesCommand:
    def test_writes_both_splits(self, workflow_dir):
        assert (workflow_dir / "features_train.tsv").exists()
        assert (workflow_dir / "features_test.tsv").exists()

    def test_full_registry_columns(self, workflow_dir):
        header = (workflow_dir / "features_train.tsv").read_text().splitlines()[0]
        columns = header.split("\t")
        assert columns[0] == "id"
        assert len(columns) == 1 + 29

    def test_row_counts_match_datasets(self, workflow_dir):
        train = (workflow_dir / "features_train.tsv").read_text().splitlines()
        test = (workflow_dir / "features_test.tsv").read_text().splitlines()
        assert len(train) == 1 + 52
        assert len(test) == 1 + 18

    def test_feature_subset(self, synthetic_dataset_dir, tmp_path):
        base = synthetic_dataset_dir
        code = run("features", "--train", str(base / "train.tsv"),
                   "--features", "NBOutputWords,ROUGE",
                   "--out", str(tmp_path))
        assert code == 0
        header = (tmp_path / "features_train.tsv").read_text().splitlines()[0]
        assert header == "id\tNBOutputWords\tROUGE"

    def test_default_features_are_the_library_default(
            self, synthetic_dataset_dir, tmp_path):
        base = synthetic_dataset_dir
        code = run("features", "--train", str(base / "train.tsv"),
                   "--freq-table", str(base / "freq.txt"),
                   "--lm-corpus", str(base / "lm_corpus.txt"),
                   "--out", str(tmp_path))
        assert code == 0
        resources = Resources(
            freq_table=load_frequency_table(base / "freq.txt"),
            lm=train_lm(base / "lm_corpus.txt"))
        names = compute_matrix([], resources).feature_names
        assert len(names) == 24 + 3  # MaxPosInFreqTable and the 2 LM ones
        header = (tmp_path / "features_train.tsv").read_text().splitlines()[0]
        assert header.split("\t") == ["id", *names]

    def test_missing_resource_for_explicit_feature(self, synthetic_dataset_dir,
                                                   tmp_path):
        base = synthetic_dataset_dir
        code = run("features", "--train", str(base / "train.tsv"),
                   "--features", "AvgCosineSim", "--out", str(tmp_path))
        assert code == 2
        assert not (tmp_path / "features_train.tsv").exists()

    def test_rerun_is_byte_identical(self, synthetic_dataset_dir, tmp_path,
                                     workflow_dir):
        base = synthetic_dataset_dir
        code = run(
            "features",
            "--train", str(base / "train.tsv"),
            "--test", str(base / "test.tsv"),
            "--freq-table", str(base / "freq.txt"),
            "--concreteness", str(base / "concreteness.tsv"),
            "--vectors", str(base / "vectors.txt"),
            "--lm-corpus", str(base / "lm_corpus.txt"),
            "--out", str(tmp_path),
        )
        assert code == 0
        for name in ("features_train.tsv", "features_test.tsv"):
            assert (tmp_path / name).read_bytes() == \
                (workflow_dir / name).read_bytes()


    def test_meteor_budget_stops_counted(self, tmp_path, capsys, monkeypatch):
        # the last two pairs are function-word-heavy reorderings whose chunk
        # search runs past five nodes; the first is exact at the root bound
        monkeypatch.setattr(mtmetrics, "NODE_BUDGET", 5)
        rows = [("The cat sat on the mat.", "The cat sat on the mat."),
                ("The a of the and a of the and the a of an or the.",
                 "Of the a and the of a the an the and of or a."),
                ("A cat and a dog of the town and the city.",
                 "The dog and the cat of a city and a town.")]
        (tmp_path / "train.tsv").write_text(
            "original\tsimplified\tG\tM\tS\tOverall\n"
            + "".join(f"{src}\t{out}\tOK\tOK\tOK\tOK\n" for src, out in rows))
        code = run("features", "--train", str(tmp_path / "train.tsv"),
                   "--features", "METEOR", "--out", str(tmp_path))
        assert code == 0
        captured = capsys.readouterr()
        stopped = [line for line in captured.out.splitlines()
                   if "METEOR" in line and "warning" in line]
        assert stopped == ["warning: 2 METEOR alignments stopped at the node "
                           "budget; their chunk counts are upper bounds"]
        assert "SearchBudgetWarning" not in captured.err


class TestRankCommand:
    def test_rank_all_dimensions(self, synthetic_dataset_dir, workflow_dir):
        base = synthetic_dataset_dir
        code = run("rank", "--train", str(base / "train.tsv"),
                   "--test", str(base / "test.tsv"),
                   "--out", str(workflow_dir))
        assert code == 0
        for dim in ("G", "M", "S", "Overall"):
            assert (workflow_dir / f"rank_{dim}.tsv").exists()
            assert (workflow_dir / f"rank_{dim}.md").exists()

    def test_simplicity_ranking_finds_length_signal(self, workflow_dir):
        lines = (workflow_dir / "rank_S.tsv").read_text().splitlines()[1:4]
        top = [line.split("\t")[1] for line in lines]
        assert any("NBOutput" in name for name in top)

    def test_test_column_attached(self, workflow_dir):
        first = (workflow_dir / "rank_M.tsv").read_text().splitlines()[1]
        assert first.split("\t")[5] != ""

    @staticmethod
    def _rank_with_test_columns(base, workflow_dir, out, columns):
        """Run rank in out on the workflow's feature files, the test file's
        columns rewritten by columns(header, rows) -> (header, rows)."""
        out.mkdir()
        (out / "features_train.tsv").write_bytes(
            (workflow_dir / "features_train.tsv").read_bytes())
        lines = (workflow_dir / "features_test.tsv").read_text().splitlines()
        header, *rows = [line.split("\t") for line in lines]
        header, rows = columns(header, rows)
        (out / "features_test.tsv").write_text(
            "".join("\t".join(cells) + "\n" for cells in [header, *rows]))
        return run("rank", "--train", str(base / "train.tsv"),
                   "--test", str(base / "test.tsv"), "--out", str(out))

    def test_permuted_test_columns_are_matched_by_name(
            self, synthetic_dataset_dir, workflow_dir, tmp_path):
        def reverse(header, rows):
            return ([header[0], *header[:0:-1]],
                    [[cells[0], *cells[:0:-1]] for cells in rows])

        for name, columns in (("in_order", lambda h, r: (h, r)),
                              ("permuted", reverse)):
            assert self._rank_with_test_columns(
                synthetic_dataset_dir, workflow_dir, tmp_path / name,
                columns) == 0
        written = sorted(p.name for p in (tmp_path / "in_order").glob("rank_*"))
        assert len(written) == 8
        for name in written:
            assert (tmp_path / "permuted" / name).read_bytes() == \
                (tmp_path / "in_order" / name).read_bytes(), name

    @pytest.mark.parametrize("change,message", [
        (lambda h, r: (h[:-1], [cells[:-1] for cells in r]),
         "missing ['WordsInCommon'], unexpected []"),
        (lambda h, r: (h + ["Extra"], [cells + ["1.0"] for cells in r]),
         "missing [], unexpected ['Extra']"),
    ], ids=["dropped", "extra"])
    def test_different_test_columns_are_data_error(
            self, synthetic_dataset_dir, workflow_dir, tmp_path, capsys,
            change, message):
        assert self._rank_with_test_columns(
            synthetic_dataset_dir, workflow_dir, tmp_path / "run",
            change) == 2
        err = capsys.readouterr().err
        assert err.startswith("tseval: error: feature names do not match")
        assert message in err


class TestTrainEvaluateCommands:
    @pytest.mark.parametrize("model,dimension", [
        ("ridge", "M"), ("lasso", "S"), ("linreg", "M"), ("logistic", "G"),
    ])
    def test_train_then_evaluate(self, synthetic_dataset_dir, workflow_dir,
                                 model, dimension):
        base = synthetic_dataset_dir
        code = run("train", "--train", str(base / "train.tsv"),
                   "--dimension", dimension, "--model", model,
                   "--pca-k", "10", "--out", str(workflow_dir))
        assert code == 0
        model_file = workflow_dir / f"model_{dimension}_{model}.txt"
        assert model_file.exists()

        code = run("evaluate", "--test", str(base / "test.tsv"),
                   "--dimension", dimension, "--model", model,
                   "--out", str(workflow_dir))
        assert code == 0
        report = (workflow_dir
                  / f"evaluation_{dimension}_{model}.txt").read_text()
        assert "QATS 2016 leaderboard" in report

    def test_retrain_same_seed_identical_model(self, synthetic_dataset_dir,
                                               workflow_dir, tmp_path):
        base = synthetic_dataset_dir
        for out in (tmp_path / "a", tmp_path / "b"):
            out.mkdir()
            (out / "features_train.tsv").write_bytes(
                (workflow_dir / "features_train.tsv").read_bytes())
            code = run("train", "--train", str(base / "train.tsv"),
                       "--dimension", "M", "--model", "ridge",
                       "--pca-k", "10", "--seed", "7", "--out", str(out))
            assert code == 0
        assert (tmp_path / "a" / "model_M_ridge.txt").read_bytes() == \
            (tmp_path / "b" / "model_M_ridge.txt").read_bytes()

    def test_meaning_cv_score_is_sane(self, synthetic_dataset_dir,
                                      workflow_dir, capsys):
        base = synthetic_dataset_dir
        code = run("train", "--train", str(base / "train.tsv"),
                   "--dimension", "M", "--model", "ridge",
                   "--pca-k", "10", "--out", str(workflow_dir))
        assert code == 0
        printed = capsys.readouterr().out
        assert "mean pearson" in printed

    def test_lasso_with_huge_lambda_warns_all_zero(self, synthetic_dataset_dir,
                                                   workflow_dir, tmp_path,
                                                   capsys):
        base = synthetic_dataset_dir
        out = tmp_path / "lasso"
        out.mkdir()
        (out / "features_train.tsv").write_bytes(
            (workflow_dir / "features_train.tsv").read_bytes())
        code = run("train", "--train", str(base / "train.tsv"),
                   "--dimension", "M", "--model", "lasso",
                   "--lam", "1e9", "--pca-k", "10", "--out", str(out))
        assert code == 0
        printed = capsys.readouterr().out
        assert "no features" in printed

    @staticmethod
    def _write_probe_inputs(tmp_path):
        """The inputs of test_qemodel's iteration-cap test: 200 rows, 6
        columns, three overlapping classes."""
        rng = np.random.default_rng(2016)
        X = rng.standard_normal((200, 6))
        y = np.argmax(X[:, :3] * 3.0 + 0.3 * rng.standard_normal((200, 3)),
                      axis=1)
        labels = [("Bad", "OK", "Good")[c] for c in y]
        (tmp_path / "train.tsv").write_text(
            "original\tsimplified\tG\tM\tS\tOverall\n"
            + "".join(f"A b c.\tA b.\t{g}\t{g}\t{g}\t{g}\n" for g in labels))
        (tmp_path / "features_train.tsv").write_text(
            "id\t" + "\t".join(f"f{j}" for j in range(6)) + "\n"
            + "".join(f"{i}\t" + "\t".join(repr(float(v)) for v in row) + "\n"
                      for i, row in enumerate(X, start=1)))

    def test_logistic_iteration_cap_reported_once(self, tmp_path, capsys,
                                                  monkeypatch):
        # lambda = 0.001 and one Newton step per fit, so every fit stops
        # at the cap
        monkeypatch.setattr(qemodel, "_NEWTON_MAX_ITER", 1)
        self._write_probe_inputs(tmp_path)
        code = run("train", "--train", str(tmp_path / "train.tsv"),
                   "--dimension", "G", "--model", "logistic", "--lam", "0.001",
                   "--pca-k", "6", "--folds", "2", "--out", str(tmp_path))
        assert code == 0
        assert re.search(r"^warning: [123] of 3 logistic fits stopped at the "
                         r"iteration cap \(lambda = 0\.001\)$",
                         capsys.readouterr().out, re.MULTILINE)

    def test_capped_lambdas_listed_in_ascending_order(self, tmp_path, capsys,
                                                       monkeypatch):
        # lambda = 10 warns in the first fold and lambda = 0.1 only in the
        # second, so 10 is raised first whatever order the folds run in
        fit = qemodel.fit_classifier
        calls = {}

        def capped_in_one_fold(X, y, lam=1.0, **kwargs):
            fold = calls[lam] = calls.get(lam, 0) + 1
            if (lam, fold) in ((10.0, 1), (0.1, 2)):
                warnings.warn(qemodel.IterationCapWarning(lam))
            return fit(X, y, lam=lam, **kwargs)

        monkeypatch.setattr(qemodel, "fit_classifier", capped_in_one_fold)
        self._write_probe_inputs(tmp_path)
        code = run("train", "--train", str(tmp_path / "train.tsv"),
                   "--dimension", "G", "--model", "logistic", "--pca-k", "6",
                   "--folds", "2", "--out", str(tmp_path))
        assert code == 0
        assert "warning: 2 of 11 logistic fits stopped at the iteration cap "\
            "(lambda = 0.1, 10)\n" in capsys.readouterr().out

    def test_lasso_iteration_cap_reported_once(self, tmp_path, capsys,
                                               monkeypatch):
        # one coordinate-descent sweep per fit, so every fit stops at the
        # cap
        monkeypatch.setattr(qemodel, "_LASSO_MAX_ITER", 1)
        self._write_probe_inputs(tmp_path)
        code = run("train", "--train", str(tmp_path / "train.tsv"),
                   "--dimension", "G", "--model", "lasso", "--lam", "0.001",
                   "--pca-k", "6", "--folds", "2", "--out", str(tmp_path))
        assert code == 0
        captured = capsys.readouterr()
        warned = [line for line in captured.out.splitlines()
                  if line.startswith("warning:")]
        assert warned == ["warning: 3 of 3 lasso fits stopped at the "
                          "iteration cap (lambda = 0.001)"]
        assert "RuntimeWarning" not in captured.out + captured.err

    def test_fixed_lambda_for_linreg_is_zero(self, synthetic_dataset_dir,
                                             workflow_dir, tmp_path, capsys):
        base = synthetic_dataset_dir
        (tmp_path / "features_train.tsv").write_bytes(
            (workflow_dir / "features_train.tsv").read_bytes())
        code = run("train", "--train", str(base / "train.tsv"),
                   "--dimension", "M", "--model", "linreg", "--lam", "5",
                   "--pca-k", "10", "--out", str(tmp_path))
        assert code == 0
        model = (tmp_path / "model_M_linreg.txt").read_text().splitlines()
        assert "lambda 0.0" in model
        cv_lines = [line for line in capsys.readouterr().out.splitlines()
                    if line.lstrip().startswith("lambda=")]
        assert len(cv_lines) == 1
        assert cv_lines[0].lstrip().startswith("lambda=0 ")

    def test_pca_clamp_reported_once(self, synthetic_dataset_dir,
                                     workflow_dir, tmp_path, capsys):
        # the clamp is raised by every CV fit and by the final fit
        base = synthetic_dataset_dir
        (tmp_path / "features_train.tsv").write_bytes(
            (workflow_dir / "features_train.tsv").read_bytes())
        code = run("train", "--train", str(base / "train.tsv"),
                   "--dimension", "M", "--model", "ridge",
                   "--pca-k", "40", "--out", str(tmp_path))
        assert code == 0
        captured = capsys.readouterr()
        printed = captured.out + captured.err
        clamp = [line for line in printed.splitlines() if "clamped to" in line]
        assert len(clamp) == 1
        assert re.fullmatch(r"warning: PCA component count 40 clamped to \d+",
                            clamp[0])
        assert "RuntimeWarning" not in printed
        assert ".py:" not in printed
        assert "fit_pipeline(" not in printed


class TestReportCommand:
    def test_distribution_table(self, synthetic_dataset_dir, tmp_path, capsys):
        base = synthetic_dataset_dir
        code = run("report", "--train", str(base / "train.tsv"),
                   "--test", str(base / "test.tsv"), "--out", str(tmp_path))
        assert code == 0
        table = (tmp_path / "label_distribution.tsv").read_text()
        lines = table.splitlines()
        assert lines[0] == "split\tdimension\tBad\tOK\tGood"
        assert len(lines) == 1 + 8  # two splits x four dimensions
        for line in lines[1:]:
            counts = [int(v) for v in line.split("\t")[2:]]
            expected = 52 if line.startswith("train") else 18
            assert sum(counts) == expected


class TestConfigFileAndErrors:
    def test_config_file_supplies_settings(self, synthetic_dataset_dir,
                                           tmp_path):
        base = synthetic_dataset_dir
        config = tmp_path / "run.cfg"
        config.write_text(
            f"train = {base / 'train.tsv'}\n"
            "# a comment\n"
            "features = NBOutputWords,ROUGE\n"
            f"out = {tmp_path}\n"
        )
        assert run("features", "--config", str(config)) == 0
        header = (tmp_path / "features_train.tsv").read_text().splitlines()[0]
        assert header == "id\tNBOutputWords\tROUGE"

    def test_flags_beat_config_file(self, synthetic_dataset_dir, tmp_path):
        base = synthetic_dataset_dir
        config = tmp_path / "run.cfg"
        config.write_text(
            f"train = {base / 'train.tsv'}\n"
            "features = METEOR\n"
            f"out = {tmp_path / 'ignored'}\n"
        )
        assert run("features", "--config", str(config),
                   "--features", "ROUGE", "--out", str(tmp_path)) == 0
        header = (tmp_path / "features_train.tsv").read_text().splitlines()[0]
        assert header == "id\tROUGE"

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("no_such_setting = 1\n")
        assert run("features", "--config", str(config)) == 2

    @pytest.mark.parametrize("line,message", [
        ("folds = abc", "folds: invalid literal for int()"),
        ("lam = small", "lam: could not convert string to float"),
        ("model = foo", "model: unknown model kind 'foo'"),
        ("jobs = 2", "unknown setting 'jobs'"),
        ("folds = 1", "folds: must be a finite value >= 2, got 1"),
        ("pca_k = 0", "pca_k: must be a finite value >= 1, got 0"),
        ("lam = -0.5", "lam: must be a finite value >= 0, got -0.5"),
        ("seed = -1", "seed: must be a finite value >= 0, got -1"),
    ])
    def test_bad_config_value_is_data_error(self, tmp_path, capsys, line,
                                            message):
        config = tmp_path / "run.cfg"
        config.write_text(f"# settings\n{line}\n")
        assert run("train", "--config", str(config)) == 2
        assert f"{config}:2: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("text,want", [
        ("'my run'", "my run"),
        ('"my run"', "my run"),
        ("\"run'", "\"run'"),
        ('""run""', '"run"'),
        ("'", "'"),
        ("run", "run"),
        ('"run # 1"', "run # 1"),
        ("'run\t# 1'", "run\t# 1"),
        ("run#1", "run#1"),
    ])
    def test_config_value_loses_one_matching_pair_of_quotes(self, tmp_path,
                                                            text, want):
        config = tmp_path / "run.cfg"
        config.write_text(f"out = {text}\n")
        assert cli._parse_config_file(str(config)) == {"out": want}

    @pytest.mark.parametrize("line", [
        "out = run # where",
        "folds = 3 # cv",
        "model = ridge\t# m",
        "features = ROUGE #",
        'out = "run" # where',
        "seed = # none",
    ])
    def test_comment_after_a_value_is_data_error(self, tmp_path, capsys,
                                                 line):
        config = tmp_path / "run.cfg"
        config.write_text(f"# settings\n{line}\n")
        assert run("train", "--config", str(config)) == 2
        key = line.partition(" ")[0]
        assert capsys.readouterr().err == (
            f"tseval: error: {config}:2: {key}: comment after the value "
            "(put it on its own line, or quote a value that holds ' #')\n")

    @pytest.mark.parametrize("text", [",", "", " , ,"])
    def test_feature_list_naming_no_feature_rejected(self, tmp_path, capsys,
                                                     text):
        assert run("features", "--features", text) == 1
        assert capsys.readouterr().err == "tseval: error: --features: " \
            f"no feature named in {text!r}\n"
        config = tmp_path / "run.cfg"
        config.write_text(f"# settings\nfeatures = {text}\n")
        assert run("features", "--config", str(config)) == 2
        assert capsys.readouterr().err == f"tseval: error: {config}:2: " \
            f"features: no feature named in {text.strip()!r}\n"

    @pytest.mark.parametrize("key", list(cli._SETTINGS))
    def test_empty_setting_is_refused(self, synthetic_dataset_dir, tmp_path,
                                      capsys, monkeypatch, key):
        # a path or directory setting refuses "" itself; every other
        # setting keeps its converter's own reason
        reason = {
            "features": "no feature named in ''",
            "dimension": "unknown dimension ''",
            "model": "unknown model kind ''",
            "lam": "could not convert string to float: ''",
            "pca_k": "invalid literal for int() with base 10: ''",
            "folds": "invalid literal for int() with base 10: ''",
            "seed": "invalid literal for int() with base 10: ''",
        }.get(key, "empty value\n")
        monkeypatch.chdir(tmp_path)  # where an empty --out would write
        train = synthetic_dataset_dir / "train.tsv"
        flag = "--" + key.replace("_", "-")
        assert run("features", "--train", str(train), "--out", "run",
                   flag, "") == 1
        assert capsys.readouterr().err.startswith(
            f"tseval: error: {flag}: {reason}")
        config = tmp_path / "run.cfg"
        for value in ("", " ''"):
            config.write_text(f"train = {train}\nout = run\n{key} ={value}\n")
            assert run("features", "--config", str(config)) == 2
            assert capsys.readouterr().err.startswith(
                f"tseval: error: {config}:3: {key}: {reason}")
        assert sorted(tmp_path.iterdir()) == [config]

    def test_empty_config_path_is_usage_error(self, synthetic_dataset_dir,
                                              tmp_path, capsys):
        assert run("features", "--train",
                   str(synthetic_dataset_dir / "train.tsv"),
                   "--out", str(tmp_path), "--config", "") == 1
        assert not any(tmp_path.iterdir())
        assert capsys.readouterr().err == \
            "tseval: error: --config: empty value\n"

    @pytest.mark.parametrize("flag,value", [
        ("--folds", "1"), ("--pca-k", "0"), ("--lam", "-0.5"),
        ("--lam", "nan"), ("--seed", "-1"),
    ])
    def test_bad_flag_value_is_usage_error(self, capsys, flag, value):
        assert run("train", flag, value) == 1
        assert f"tseval: error: {flag}: must be a finite value >= " \
            in capsys.readouterr().err

    @pytest.mark.parametrize("key,text,reason", [
        ("folds", "abc", "invalid literal for int() with base 10: 'abc'"),
        ("pca_k", "0", "must be a finite value >= 1, got 0"),
        ("lam", "abc", "could not convert string to float: 'abc'"),
        ("seed", "abc", "invalid literal for int() with base 10: 'abc'"),
        ("model", "foo", "unknown model kind 'foo' (choose from "),
        ("dimension", "bogus", "unknown dimension 'bogus'"),
    ])
    def test_flag_and_config_line_agree(self, tmp_path, capsys, key, text,
                                        reason):
        flag = "--" + key.replace("_", "-")
        assert run("train", flag, text) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"tseval: error: {flag}: {reason}")
        full_reason = err.split(": ", 3)[3]
        config = tmp_path / "run.cfg"
        config.write_text(f"# settings\n{key} = {text}\n")
        assert run("train", "--config", str(config)) == 2
        assert capsys.readouterr().err == \
            f"tseval: error: {config}:2: {key}: {full_reason}"

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_help_lists_every_setting(self, capsys, command):
        assert run(command, "--help") == 0
        shown = capsys.readouterr().out
        for flag in ["--config"] + ["--" + key.replace("_", "-")
                                    for key in cli._SETTINGS]:
            assert f" {flag} " in shown
        for kind in qemodel.MODEL_KINDS:
            assert kind in shown

    def test_more_folds_than_rows_is_data_error(self, synthetic_dataset_dir,
                                                workflow_dir, tmp_path,
                                                capsys):
        base = synthetic_dataset_dir
        (tmp_path / "features_train.tsv").write_bytes(
            (workflow_dir / "features_train.tsv").read_bytes())
        assert run("train", "--train", str(base / "train.tsv"),
                   "--folds", "53", "--out", str(tmp_path)) == 2
        assert "53 folds need at least 53 training rows, found 52" \
            in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        assert run("features") == 1  # --train missing

    def test_unknown_subcommand_exit_code(self):
        assert run("frobnicate") == 1

    def test_data_error_exit_code(self, tmp_path):
        missing = tmp_path / "none.tsv"
        assert run("features", "--train", str(missing),
                   "--out", str(tmp_path)) == 2

    def test_missing_features_tsv_is_data_error(self, synthetic_dataset_dir,
                                                tmp_path):
        base = synthetic_dataset_dir
        assert run("rank", "--train", str(base / "train.tsv"),
                   "--out", str(tmp_path)) == 2

    def test_missing_model_file_is_data_error(self, synthetic_dataset_dir,
                                              workflow_dir, tmp_path):
        base = synthetic_dataset_dir
        (tmp_path / "features_test.tsv").write_bytes(
            (workflow_dir / "features_test.tsv").read_bytes())
        assert run("evaluate", "--test", str(base / "test.tsv"),
                   "--dimension", "S", "--model", "linreg",
                   "--out", str(tmp_path)) == 2

    def test_missing_config_file_is_data_error(self, tmp_path):
        assert run("features", "--config", str(tmp_path / "no.cfg")) == 2

    def test_only_features_loads_resources(self, synthetic_dataset_dir,
                                           workflow_dir, tmp_path,
                                           monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("train_lm called")
        monkeypatch.setattr(cli, "train_lm", refuse)
        base = synthetic_dataset_dir
        (tmp_path / "features_train.tsv").write_bytes(
            (workflow_dir / "features_train.tsv").read_bytes())
        assert run("rank", "--train", str(base / "train.tsv"),
                   "--lm-corpus", str(base / "lm_corpus.txt"),
                   "--out", str(tmp_path)) == 0

    def test_resource_dir_env_fallback(self, synthetic_dataset_dir, tmp_path,
                                       monkeypatch):
        base = synthetic_dataset_dir
        monkeypatch.setenv("TSEVAL_RESOURCES", str(base))
        code = run("features", "--train", str(base / "train.tsv"),
                   "--freq-table", "freq.txt",  # relative, lives in $TSEVAL_RESOURCES
                   "--features", "MaxPosInFreqTable",
                   "--out", str(tmp_path))
        assert code == 0


@pytest.fixture(scope="module")
def inputs_dir(synthetic_dataset_dir, workflow_dir, tmp_path_factory):
    """Every kind of file the CLI reads, valid, in one directory."""
    base = tmp_path_factory.mktemp("inputs")
    shutil.copytree(synthetic_dataset_dir, base, dirs_exist_ok=True)
    for split in ("train", "test"):
        name = f"features_{split}.tsv"
        (base / name).write_bytes((workflow_dir / name).read_bytes())
    (base / "run.cfg").write_text("# settings\nfeatures = ROUGE\n")
    assert run("train", "--train", str(base / "train.tsv"), "--dimension",
               "S", "--model", "linreg", "--lam", "0", "--pca-k", "5",
               "--out", str(base)) == 0
    return base


class TestInputEncoding:
    @pytest.mark.parametrize("name,argv", [
        ("train.tsv", ["features", "--train", "{d}/train.tsv"]),
        ("test.tsv", ["features", "--train", "{d}/train.tsv",
                      "--test", "{d}/test.tsv"]),
        ("freq.txt", ["features", "--train", "{d}/train.tsv",
                      "--freq-table", "{d}/freq.txt"]),
        ("concreteness.tsv", ["features", "--train", "{d}/train.tsv",
                              "--concreteness", "{d}/concreteness.tsv"]),
        ("vectors.txt", ["features", "--train", "{d}/train.tsv",
                         "--vectors", "{d}/vectors.txt"]),
        ("lm_corpus.txt", ["features", "--train", "{d}/train.tsv",
                           "--lm-corpus", "{d}/lm_corpus.txt"]),
        ("run.cfg", ["features", "--train", "{d}/train.tsv",
                     "--config", "{d}/run.cfg"]),
        ("features_train.tsv", ["rank", "--train", "{d}/train.tsv"]),
        ("model_S_linreg.txt", ["evaluate", "--test", "{d}/test.tsv",
                                "--dimension", "S", "--model", "linreg"]),
    ])
    def test_invalid_utf8_is_data_error_with_line(self, inputs_dir, tmp_path,
                                                  capsys, name, argv):
        shutil.copytree(inputs_dir, tmp_path, dirs_exist_ok=True)
        bad = tmp_path / name
        first, rest = bad.read_bytes().split(b"\n", 1)
        bad.write_bytes(first + b"\n\xff" + rest)
        argv = [a.format(d=tmp_path) for a in argv]
        assert run(*argv, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert f"{bad}:2: " in err
        assert "is not valid UTF-8 (byte 0xff)" in err


def _subset(src, dst, rows, ids=None):
    """Write the dataset `src` to `dst` with only the data lines `rows` (a
    slice), optionally behind an id column."""
    header, *lines = src.read_text().splitlines()
    lines = lines[rows]
    if ids is not None:
        header = "id\t" + header
        lines = [f"{i}\t{line}" for i, line in zip(ids, lines)]
    dst.write_text("\n".join([header] + lines) + "\n")
    return dst


class TestFeatureRowsMatchDataset:
    """rank, train and evaluate pair features_<split>.tsv with the labels of
    the dataset by id, not by position."""

    COMMANDS = {
        "rank": ("train", ["rank", "--train", "{d}/train.tsv"]),
        "train": ("train", ["train", "--train", "{d}/train.tsv",
                            "--dimension", "S", "--model", "linreg",
                            "--lam", "0", "--pca-k", "5"]),
        "evaluate": ("test", ["evaluate", "--test", "{d}/test.tsv",
                              "--dimension", "S", "--model", "linreg"]),
    }

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("mismatch", ["count", "ids"])
    def test_mismatch_is_data_error(self, inputs_dir, tmp_path, capsys,
                                    command, mismatch):
        shutil.copytree(inputs_dir, tmp_path, dirs_exist_ok=True)
        split, argv = self.COMMANDS[command]
        dataset = tmp_path / f"{split}.tsv"
        n = len(dataset.read_text().splitlines()) - 1
        if mismatch == "count":
            _subset(dataset, dataset, slice(1, None))
            detail = f"{n} rows for {n - 1} records"
        else:  # same rows in reverse order, with ids that say so
            _subset(dataset, dataset, slice(None, None, -1),
                    ids=range(n, 0, -1))
            detail = f"row 1 has id '1' where the dataset has '{n}'"
        argv = [a.format(d=tmp_path) for a in argv]
        assert run(*argv, "--out", str(tmp_path)) == 2
        assert (f"{tmp_path / f'features_{split}.tsv'} does not match "
                f"{dataset}: {detail}") in capsys.readouterr().err


class TestFeatureFileValues:
    """A features_<split>.tsv that compute_matrix could not have written is
    a data error at its line, not a ranking or model built on it."""

    @pytest.mark.parametrize("command", ["rank", "train"])
    @pytest.mark.parametrize("defect", ["nan", "inf", "id-only"])
    def test_defect_is_data_error_with_line(self, inputs_dir, tmp_path,
                                            capsys, command, defect):
        shutil.copytree(inputs_dir, tmp_path, dirs_exist_ok=True)
        split, argv = TestFeatureRowsMatchDataset.COMMANDS[command]
        path = tmp_path / f"features_{split}.tsv"
        lines = path.read_text().splitlines()
        if defect == "id-only":
            lines = [line.split("\t", 1)[0] for line in lines]
            where = f"{path}:1: no feature columns"
        else:
            cells = lines[2].split("\t")
            cells[1] = defect
            lines[2] = "\t".join(cells)
            where = f"{path}:3: non-finite feature value"
        path.write_text("\n".join(lines) + "\n")
        argv = [a.format(d=tmp_path) for a in argv]
        assert run(*argv, "--out", str(tmp_path)) == 2
        assert where in capsys.readouterr().err


class TestModelFileValues:
    """A negative spread in a model file is a data error at its line, not
    a column scaled by 1."""

    @pytest.mark.parametrize("section", ["stds", "explained_variance"])
    def test_negative_spread_is_data_error_with_line(self, inputs_dir,
                                                     tmp_path, capsys,
                                                     section):
        shutil.copytree(inputs_dir, tmp_path, dirs_exist_ok=True)
        path = tmp_path / "model_S_linreg.txt"
        lines = path.read_text().splitlines()
        at = lines.index(section) + 1
        cells = lines[at].split()
        cells[-1] = "-" + cells[-1]
        lines[at] = " ".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert run("evaluate", "--test", str(tmp_path / "test.tsv"),
                   "--dimension", "S", "--model", "linreg",
                   "--out", str(tmp_path)) == 2
        assert (f"{path}:{at + 1}: negative value in {section}"
                in capsys.readouterr().err)


class TestFeatureFileLines:
    """The lines of every input file end at "\n" alone, so an id or a
    feature name holding another line separator survives features ->
    rank, train and evaluate."""

    def _rank(self, out):
        assert run("rank", "--train", str(out / "train.tsv"),
                   "--dimension", "S", "--out", str(out)) == 0
        return (out / "rank_S.tsv").read_bytes()

    @pytest.mark.parametrize("sep", ["\u2028", "\x1c", "\x1d", "\x1e",
                                     "\x85", "\v", "\f"])
    def test_id_with_a_line_separator(self, synthetic_dataset_dir, tmp_path,
                                      sep):
        n = 12
        ids = [f"row{sep}{i}" for i in range(n)]
        _subset(synthetic_dataset_dir / "train.tsv", tmp_path / "train.tsv",
                slice(n), ids=ids)
        assert run("features", "--train", str(tmp_path / "train.tsv"),
                   "--features", TestTooFewRows.FEATURES,
                   "--out", str(tmp_path)) == 0
        self._rank(tmp_path)
        features = (tmp_path / "features_train.tsv").read_text()
        assert [line.split("\t", 1)[0]
                for line in features.split("\n")[1:-1]] == ids

    @pytest.mark.parametrize("sep", ["\u2028", "\x85", "\x1c", "\v", "\f"])
    def test_feature_name_with_a_line_separator(self, inputs_dir, tmp_path,
                                                sep):
        shutil.copytree(inputs_dir, tmp_path, dirs_exist_ok=True)
        for split in ("train", "test"):
            path = tmp_path / f"features_{split}.tsv"
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace("\tROUGE\t",
                                         f"\tA{sep}x\t", 1),
                            encoding="utf-8")
        model = ["--dimension", "S", "--model", "ridge", "--pca-k", "3",
                 "--out", str(tmp_path)]
        assert run("train", "--train", str(tmp_path / "train.tsv"),
                   *model) == 0
        assert run("evaluate", "--test", str(tmp_path / "test.tsv"),
                   *model) == 0

    def test_carriage_return_inside_a_concreteness_line(
            self, synthetic_dataset_dir, tmp_path, capsys):
        path = tmp_path / "concreteness.tsv"
        lines = (synthetic_dataset_dir / "concreteness.tsv").read_text(
            encoding="utf-8").split("\n")
        lines[2] += "\r" + lines[3]  # two valid records on line 3
        path.write_text("\n".join(lines), encoding="utf-8")
        assert run("features", "--train",
                   str(synthetic_dataset_dir / "train.tsv"),
                   "--concreteness", str(path),
                   "--features", "AvgConcreteness",
                   "--out", str(tmp_path)) == 2
        assert f"tseval: error: {path}:3: " in capsys.readouterr().err

    def test_crlf_feature_file(self, inputs_dir, tmp_path):
        shutil.copytree(inputs_dir, tmp_path, dirs_exist_ok=True)
        lf = self._rank(tmp_path)
        path = tmp_path / "features_train.tsv"
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert self._rank(tmp_path) == lf


class TestRepeatedFeatureName:
    """A feature name that is repeated, wherever feature names enter, is a
    data error naming it, not a second copy of the column."""

    def test_features_flag(self, inputs_dir, tmp_path, capsys):
        assert run("features", "--train", str(inputs_dir / "train.tsv"),
                   "--features", "ROUGE,ROUGE,TERp",
                   "--out", str(tmp_path)) == 2
        assert "repeated feature name 'ROUGE'" in capsys.readouterr().err
        assert not (tmp_path / "features_train.tsv").exists()

    @pytest.mark.parametrize("name,message", [
        ("{first}", "repeated feature name '{first}'"),
        ("", "empty feature name"),
    ], ids=["repeated", "empty"])
    def test_feature_file_header(self, inputs_dir, tmp_path, capsys, name,
                                 message):
        shutil.copytree(inputs_dir, tmp_path, dirs_exist_ok=True)
        path = tmp_path / "features_train.tsv"
        header, *rows = path.read_text().splitlines()
        cells = header.split("\t")
        cells[2] = name.format(first=cells[1])
        path.write_text("\n".join(["\t".join(cells)] + rows) + "\n")
        assert run("rank", "--train", str(tmp_path / "train.tsv"),
                   "--out", str(tmp_path)) == 2
        assert (f"{path}:1: " + message.format(first=cells[1])
                in capsys.readouterr().err)

    def test_model_file(self, inputs_dir, tmp_path, capsys):
        shutil.copytree(inputs_dir, tmp_path, dirs_exist_ok=True)
        path = tmp_path / "model_S_linreg.txt"
        lines = path.read_text().splitlines()
        assert lines[4].startswith("features ")
        lines[6] = lines[5]  # lines 6 and 7 hold the same name
        path.write_text("\n".join(lines) + "\n")
        assert run("evaluate", "--test", str(tmp_path / "test.tsv"),
                   "--dimension", "S", "--model", "linreg",
                   "--out", str(tmp_path)) == 2
        assert (f"{path}:7: repeated feature name {lines[5]!r}"
                in capsys.readouterr().err)


class TestTooFewRows:
    FEATURES = "NBOutputWords,ROUGE,TypeTokenRatio,BLEU_1gram,METEOR"

    def _features(self, base, out, train_rows, test_rows=None):
        argv = ["features", "--features", self.FEATURES, "--out", str(out),
                "--train", str(_subset(base / "train.tsv",
                                       out / "train.tsv", train_rows))]
        if test_rows is not None:
            argv += ["--test", str(_subset(base / "test.tsv",
                                           out / "test.tsv", test_rows))]
        assert run(*argv) == 0

    def test_rank_on_three_rows_leaves_interval_empty(
            self, synthetic_dataset_dir, tmp_path):
        self._features(synthetic_dataset_dir, tmp_path, slice(3))
        assert run("rank", "--train", str(tmp_path / "train.tsv"),
                   "--dimension", "S", "--out", str(tmp_path)) == 0
        rows = (tmp_path / "rank_S.tsv").read_text().splitlines()[1:]
        assert len(rows) == 5
        for row in rows:
            ci_low, ci_high, r_test = row.split("\t")[3:]
            assert ci_low == ci_high == r_test == ""

    def test_rank_with_one_test_row_leaves_r_test_empty(
            self, synthetic_dataset_dir, tmp_path):
        self._features(synthetic_dataset_dir, tmp_path, slice(None),
                       slice(1))
        assert run("rank", "--train", str(tmp_path / "train.tsv"),
                   "--test", str(tmp_path / "test.tsv"),
                   "--dimension", "S", "--out", str(tmp_path)) == 0
        rows = (tmp_path / "rank_S.tsv").read_text().splitlines()[1:]
        assert [row.split("\t")[5] for row in rows] == [""] * 5
        assert all(row.split("\t")[3] != "" for row in rows)

    @pytest.mark.parametrize("command", ["features", "rank", "report"])
    def test_dataset_without_records_is_data_error(
            self, synthetic_dataset_dir, tmp_path, capsys, command):
        # a header alone used to give empty feature files, and then a
        # complaint about missing labels from rank and report
        path = _subset(synthetic_dataset_dir / "train.tsv",
                       tmp_path / "train.tsv", slice(0))
        assert path.read_text().count("\n") == 1
        assert run(command, "--train", str(path), "--out", str(tmp_path)) == 2
        assert (f"dataset {path} contains no records"
                in capsys.readouterr().err)
        assert not (tmp_path / "features_train.tsv").exists()

    def test_evaluate_regressor_on_one_test_row_is_data_error(
            self, synthetic_dataset_dir, tmp_path, capsys):
        self._features(synthetic_dataset_dir, tmp_path, slice(None),
                       slice(1))
        model = ["--dimension", "S", "--model", "ridge", "--pca-k", "3",
                 "--out", str(tmp_path)]
        assert run("train", "--train", str(tmp_path / "train.tsv"),
                   *model) == 0
        assert run("evaluate", "--test", str(tmp_path / "test.tsv"),
                   *model) == 2
        assert "fewer than two observations" in capsys.readouterr().err

    def test_single_row_cv_folds_score_zero(self, synthetic_dataset_dir,
                                            tmp_path, capsys):
        self._features(synthetic_dataset_dir, tmp_path, slice(30))
        assert run("train", "--train", str(tmp_path / "train.tsv"),
                   "--dimension", "S", "--model", "ridge", "--pca-k", "3",
                   "--folds", "20", "--out", str(tmp_path)) == 0
        assert (tmp_path / "model_S_ridge.txt").exists()
