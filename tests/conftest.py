"""Shared fixtures: synthetic QATS-style datasets, the benchmark
workloads and their feature matrices, and the optional real QATS data
discovered through the TSEVAL_QATS_DIR environment variable."""

import functools
import importlib
import os
import random
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from tseval import load_dataset, qats_io, resources
from tseval.features import FeatureMatrix, compute_matrix

ROOT = Path(__file__).resolve().parents[1]

VOCAB = [
    "the", "cat", "sat", "on", "mat", "dog", "ran", "fast", "big", "house",
    "tree", "quickly", "jumped", "over", "small", "bird", "flew", "away",
    "garden", "green", "river", "bridge", "old", "man", "walked", "slowly",
    "children", "played", "outside", "yesterday",
]


def make_rows(n: int, seed: int = 7):
    """Source/output pairs with labels loosely tied to length and overlap,
    so rankings and learners have real signal to find."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        length = rng.randint(8, 22)
        src_words = [rng.choice(VOCAB) for _ in range(length)]
        kept = [w for w in src_words if rng.random() > 0.3]
        if len(kept) < 2:
            kept = src_words[:2]
        if rng.random() < 0.15:
            kept[0], kept[-1] = kept[-1], kept[0]
        src = " ".join(src_words).capitalize() + "."
        out = " ".join(kept).capitalize() + "."
        overlap = len(kept) / length
        g = "Good" if rng.random() < 0.65 else ("OK" if rng.random() < 0.6 else "Bad")
        m = "Good" if overlap > 0.75 else ("OK" if overlap > 0.45 else "Bad")
        s = "Good" if len(kept) < 9 else ("OK" if len(kept) < 14 else "Bad")
        rows.append((src, out, g, m, s, m))
    return rows


def write_dataset(path: Path, rows) -> Path:
    lines = ["original\tsimplified\tG\tM\tS\tOverall"]
    lines += ["\t".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def synthetic_dataset_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("synthetic")
    rows = make_rows(70)
    write_dataset(base / "train.tsv", rows[:52])
    write_dataset(base / "test.tsv", rows[52:])
    (base / "lm_corpus.txt").write_text(
        "\n".join(r[0].lower().rstrip(".") for r in rows) + "\n",
        encoding="utf-8")
    (base / "freq.txt").write_text("\n".join(VOCAB) + "\n", encoding="utf-8")
    (base / "concreteness.tsv").write_text(
        "Word\tConc.M\n"
        + "".join(f"{w}\t{1.0 + (i % 9) * 0.5}\n" for i, w in enumerate(VOCAB)),
        encoding="utf-8")
    rng = random.Random(3)
    vec_lines = [f"{len(VOCAB)} 8"]
    for w in VOCAB:
        vec_lines.append(w + " " + " ".join(
            f"{rng.uniform(-1, 1):.4f}" for _ in range(8)))
    (base / "vectors.txt").write_text("\n".join(vec_lines) + "\n",
                                      encoding="utf-8")
    return base


def qats_dir() -> Path | None:
    """Directory with the real QATS train.tsv/test.tsv, if configured."""
    root = os.environ.get("TSEVAL_QATS_DIR")
    if not root:
        return None
    path = Path(root)
    if (path / "train.tsv").exists() and (path / "test.tsv").exists():
        return path
    return None


@pytest.fixture(scope="session")
def qats_data():
    """(train, test) datasets of the QATS shared task, or a skip."""
    path = qats_dir()
    if path is None:
        pytest.skip(
            "QATS data not available: set TSEVAL_QATS_DIR to a directory "
            "containing train.tsv and test.tsv in the canonical format"
        )
    return (load_dataset(path / "train.tsv", "train"),
            load_dataset(path / "test.tsv", "test"))


class BenchRoute:
    """The tests' one route into the benchmark: bench/workloads.py,
    bench/spans.py and tools/cli_flow.py, and for each (workload, seed)
    its generated work, its input files and its four loaded resources,
    each built once per session and shared, so callers must not change
    them."""

    def __init__(self, base: Path):
        self._base = base
        with pytest.MonkeyPatch.context() as mp:
            mp.syspath_prepend(str(ROOT / "tools"))
            mp.syspath_prepend(str(ROOT / "bench"))
            # write no bytecode next to bench/ and tools/; the context
            # restores sys.path and this flag
            mp.setattr(sys, "dont_write_bytecode", True)
            self.workloads, self.spans, self.cli_flow = (
                importlib.import_module(name)
                for name in ("workloads", "spans", "cli_flow"))

    @staticmethod
    def load_resources(directory: Path) -> resources.Resources:
        """The four resources from the files that `write_inputs` writes,
        under the same names as in `synthetic_dataset_dir`."""
        return resources.Resources(
            freq_table=resources.load_frequency_table(directory / "freq.txt"),
            concreteness=resources.load_concreteness(
                directory / "concreteness.tsv"),
            vectors=resources.load_vectors(directory / "vectors.txt"),
            lm=resources.train_lm(directory / "lm_corpus.txt"))

    @functools.cache
    def work(self, name: str, seed: int):
        return self.workloads.generate(name, seed)

    @functools.cache
    def inputs(self, name: str, seed: int) -> dict[str, Path]:
        """The input paths by kind, as `write_inputs` returns them."""
        return self.workloads.write_inputs(self.work(name, seed),
                                           self._base / f"{name}-{seed}")

    @functools.cache
    def resources_of(self, name: str, seed: int) -> resources.Resources:
        return self.load_resources(self.inputs(name, seed)["train"].parent)


@pytest.fixture(scope="session")
def bench(tmp_path_factory) -> BenchRoute:
    return BenchRoute(tmp_path_factory.mktemp("workloads"))


class Split(NamedTuple):
    """One split's feature matrix and its encoded labels by dimension."""

    matrix: FeatureMatrix
    labels: dict[str, np.ndarray]


@pytest.fixture(scope="session")
def workload_splits(bench):
    """{(workload, seed): (train Split, test Split)} for every benchmark
    workload at seeds 1-3, each built once from the input files that
    `bench/workloads.py` writes, with all features and the workload's own
    resources."""
    splits = {}
    for name in bench.workloads.SPECS:
        for seed in (1, 2, 3):
            paths = bench.inputs(name, seed)
            pair = []
            for split in ("train", "test"):
                data = qats_io.load_dataset(paths[split], split)
                pair.append(Split(
                    compute_matrix(qats_io.to_pairs(data),
                                   bench.resources_of(name, seed)),
                    {dim: qats_io.encode_labels(data, dim)
                     for dim in qats_io.DIMENSIONS}))
            splits[name, seed] = tuple(pair)
    return splits
