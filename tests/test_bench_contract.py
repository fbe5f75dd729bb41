"""The package names and calls the benchmark in bench/ relies on.

bench/run.py and bench/spans.py are kept unchanged between versions so
that runs stay comparable; these tests catch an API change that would
break their set-up or their per-layer tracing (``--trace 1``), or a
search that stops at its budget on a benchmark pair.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from tseval import mtmetrics, qats_io, resources

ROOT = Path(__file__).resolve().parents[1]


def _spans():
    spec = importlib.util.spec_from_file_location(
        "bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_to_a_callable():
    layers = _spans().LAYERS
    assert layers
    for module_name, attribute, _ in layers:
        target = importlib.import_module(module_name)
        for part in attribute.split("."):
            target = getattr(target, part)
        assert callable(target), (module_name, attribute)


def test_setup_calls_of_the_benchmark(synthetic_dataset_dir):
    base = synthetic_dataset_dir
    train = qats_io.load_dataset(base / "train.tsv", "train")
    assert train.split_tag == "train" and train.is_labeled
    bundle = resources.Resources(
        freq_table=resources.load_frequency_table(base / "freq.txt"),
        concreteness=resources.load_concreteness(base / "concreteness.tsv"),
        vectors=resources.load_vectors(base / "vectors.txt"),
        lm=resources.train_lm(base / "lm_corpus.txt"),
    )
    assert all(bundle.has(kind)
               for kind in ("freq_table", "concreteness", "vectors", "lm"))


def test_meteor_search_is_exhaustive_on_every_benchmark_pair(monkeypatch):
    # Features computed by two versions of the chunk search can only be
    # compared byte for byte where both searches are exact.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as is
    workloads = importlib.import_module("workloads")
    for name in workloads.SPECS:
        work = workloads.generate(name, 1)
        for pair in work.train + work.test:
            assert mtmetrics._align(pair.out, pair.src)[2], (name, pair.id)
