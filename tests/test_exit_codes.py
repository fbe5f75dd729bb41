"""The exit-code contract on malformed input: each of 13 mutations of each
of the 10 kinds of file the CLI reads, made once, and every command that
reads that file. Each command must exit 0, or exit 2 with one
`tseval: error:` line on stderr; a command that exits 0 prints nothing on
stderr, and the value columns of what it writes are finite."""

import math
import random
import shutil

import pytest

from tseval import qemodel
from tseval.cli import main

FEATURES = ("NBOutputWords,ROUGE,BLEU_1gram,TERp,AvgCosineSim,"
            "AvgLMProbsOutput,MaxPosInFreqTable,AvgConcreteness")
RESOURCES = ["--freq-table", "{d}/freq.txt",
             "--concreteness", "{d}/concreteness.tsv",
             "--vectors", "{d}/vectors.txt",
             "--lm-corpus", "{d}/lm_corpus.txt"]
MODEL = ["--dimension", "S", "--pca-k", "3", "--folds", "3"]

# Each command, with its argv in the run's directory {d}.
COMMANDS = {
    "features": ["features", "--train", "{d}/train.tsv",
                 "--test", "{d}/test.tsv", "--features", FEATURES,
                 *RESOURCES],
    "rank": ["rank", "--train", "{d}/train.tsv", "--test", "{d}/test.tsv",
             "--dimension", "S"],
    "train-ridge": ["train", "--train", "{d}/train.tsv", "--model", "ridge",
                    *MODEL],
    "train-logistic": ["train", "--train", "{d}/train.tsv",
                       "--model", "logistic", *MODEL],
    "evaluate-ridge": ["evaluate", "--test", "{d}/test.tsv",
                       "--model", "ridge", *MODEL],
    "evaluate-logistic": ["evaluate", "--test", "{d}/test.tsv",
                          "--model", "logistic", *MODEL],
    "report": ["report", "--train", "{d}/train.tsv",
               "--test", "{d}/test.tsv"],
}

# The first words of the model-file lines that open a section.
SECTION_NAMES = {name for name, _, _ in qemodel._SECTIONS + sum(
    qemodel._MODEL_SECTIONS.values(), ())}

# Each file the CLI reads: its field separator and the commands that read it.
TARGETS = {
    "train.tsv": ("\t", ("features", "rank", "train-ridge", "report")),
    "test.tsv": ("\t", ("features", "rank", "evaluate-ridge", "report")),
    "freq.txt": (" ", ("features",)),
    "concreteness.tsv": ("\t", ("features",)),
    "vectors.txt": (" ", ("features",)),
    "lm_corpus.txt": (" ", ("features",)),
    "features_train.tsv": ("\t", ("rank", "train-ridge", "train-logistic")),
    "features_test.tsv": ("\t", ("rank", "evaluate-ridge")),
    "model_S_ridge.txt": (" ", ("evaluate-ridge",)),
    "model_S_logistic.txt": (" ", ("evaluate-logistic",)),
}


def _insert(char):
    def mutate(line, sep, rng):
        at = rng.randint(0, len(line))
        return [line[:at] + char + line[at:]]
    return mutate


def _set_field(value):
    def mutate(line, sep, rng):
        fields = line.split(sep)
        fields[rng.randrange(len(fields))] = value
        return [sep.join(fields)]
    return mutate


def _swap(line, sep, rng):
    fields = line.split(sep)
    fields[0], fields[-1] = fields[-1], fields[0]
    return [sep.join(fields)]


# Each mutation of one line: the lines that replace it. The empty file
# replaces the whole file.
MUTATIONS = {
    "drop": lambda line, sep, rng: [],
    "duplicate": lambda line, sep, rng: [line, line],
    "truncate": lambda line, sep, rng: [line[:len(line) // 2]],
    "blank": lambda line, sep, rng: [""],
    "swap-fields": _swap,
    "tab": _insert("\t"),
    "cr": _insert("\r"),
    "nul": _insert("\0"),
    "bom": lambda line, sep, rng: ["\ufeff" + line],
    "nan": _set_field("nan"),
    "1e999": _set_field("1e999"),
    "minus-one": _set_field("-1"),
    "empty-file": None,
}


@pytest.fixture(scope="module")
def valid_dir(synthetic_dataset_dir, tmp_path_factory):
    """Every file of TARGETS, valid: the first 16 train and 8 test rows
    of the synthetic set, given ids, its resources, and what `features`
    and both `train` commands write from them."""
    base = tmp_path_factory.mktemp("valid")
    for name in ("freq.txt", "concreteness.tsv", "vectors.txt",
                 "lm_corpus.txt"):
        shutil.copy(synthetic_dataset_dir / name, base / name)
    for split, rows in (("train", 16), ("test", 8)):
        lines = (synthetic_dataset_dir / f"{split}.tsv").read_text(
            encoding="utf-8").splitlines()[:1 + rows]
        ids = ["id"] + [f"{split}{i}" for i in range(rows)]
        (base / f"{split}.tsv").write_text(
            "".join(f"{i}\t{line}\n" for i, line in zip(ids, lines)),
            encoding="utf-8")
    for command in ("features", "train-ridge", "train-logistic"):
        assert _run(base, command) == 0
    assert set(TARGETS) <= {p.name for p in base.iterdir()}
    return base


def _run(directory, command):
    return main([a.format(d=directory) for a in COMMANDS[command]]
                + ["--out", str(directory)])


def _mutated(text, sep, mutation, rng):
    if MUTATIONS[mutation] is None:
        return ""
    lines = text.split("\n")[:-1]
    # fields are swapped on a line that has two, if there is one
    split = [i for i, line in enumerate(lines) if sep in line]
    i = rng.choice(split if mutation == "swap-fields" and split
                   else range(len(lines)))
    lines[i:i + 1] = MUTATIONS[mutation](lines[i], sep, rng)
    return "".join(line + "\n" for line in lines)


def _finite_fields(fields):
    return all(math.isfinite(float(v)) for v in fields if v != "")


def _written_values(directory, command):
    """The value fields of each line that `command` writes, by file."""
    def tsv(name, start):
        lines = (directory / name).read_text(encoding="utf-8").splitlines()
        return [line.split("\t")[start:] for line in lines[1:]]

    if command == "features":
        return {name: tsv(name, 1)
                for name in ("features_train.tsv", "features_test.tsv")}
    if command == "rank":
        return {"rank_S.tsv": tsv("rank_S.tsv", 2)}
    if command == "report":
        return {"label_distribution.tsv": tsv("label_distribution.tsv", 2)}
    kind = command.split("-")[1]
    if command.startswith("evaluate"):
        name = f"evaluation_S_{kind}.txt"
        first = (directory / name).read_text(encoding="utf-8").split("\n")[0]
        return {name: [[first.rsplit(" = ", 1)[1]]]}
    # a model file: lambda and the lines after the feature names that do
    # not open a section
    name = f"model_S_{kind}.txt"
    lines = (directory / name).read_text(encoding="utf-8").splitlines()
    n_names = int(lines[4].split()[1])
    return {name: [[lines[3].split()[1]]] + [
        line.split() for line in lines[5 + n_names:]
        if line.split()[0] not in SECTION_NAMES]}


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("target", TARGETS)
def test_malformed_input_exits_0_or_2(valid_dir, tmp_path, capsys, target,
                                      mutation):
    shutil.copytree(valid_dir, tmp_path, dirs_exist_ok=True)
    sep, commands = TARGETS[target]
    path = tmp_path / target
    text = path.read_text(encoding="utf-8")
    rng = random.Random(f"{target}/{mutation}")
    path.write_text(_mutated(text, sep, mutation, rng), encoding="utf-8")
    capsys.readouterr()
    for command in commands:
        code = _run(tmp_path, command)
        err = capsys.readouterr().err
        if code == 0:
            assert err == "", (command, err)
            for name, rows in _written_values(tmp_path, command).items():
                for i, fields in enumerate(rows, start=2):
                    assert _finite_fields(fields), (command, name, i, fields)
        else:
            assert code == 2, (command, code, err)
            assert err.startswith("tseval: error: "), (command, err)
            assert len(err.splitlines()) == 1 and err.endswith("\n"), \
                (command, err)
