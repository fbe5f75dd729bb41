"""The package names and calls the benchmark in bench/ relies on.

bench/run.py and bench/spans.py are kept unchanged between versions so
that runs stay comparable; these tests catch an API change that would
break their set-up or their per-layer tracing (``--trace 1``), or a
search that stops at its budget on a benchmark pair.
"""

import importlib

from tseval import features, mtmetrics, qats_io


def test_every_traced_layer_resolves_to_a_callable(bench):
    layers = bench.spans.LAYERS
    assert layers
    for module_name, attribute, _ in layers:
        target = importlib.import_module(module_name)
        for part in attribute.split("."):
            target = getattr(target, part)
        assert callable(target), (module_name, attribute)


def test_setup_calls_of_the_benchmark(synthetic_dataset_dir, bench):
    base = synthetic_dataset_dir
    train = qats_io.load_dataset(base / "train.tsv", "train")
    assert train.split_tag == "train" and train.is_labeled
    bundle = bench.load_resources(base)
    assert all(bundle.has(kind)
               for kind in ("freq_table", "concreteness", "vectors", "lm"))


def test_per_pair_calls_seen_through_wrapped_globals(synthetic_dataset_dir,
                                                    bench):
    # bench/run.py keeps each pair's TER alignment by the identity of its
    # source text, and the per-pair spans tag calls the same way; both
    # wrap the function in every tseval namespace that holds it.
    spans = bench.spans
    base = synthetic_dataset_dir
    pairs = qats_io.to_pairs(qats_io.load_dataset(base / "test.tsv", "test"))
    pairs.append(features.SentencePair.from_text("The cat sat.", "", id="e"))
    calls = {}

    def recording(name):
        def make(fn):
            def wrapper(*args):
                calls.setdefault(name, []).append(args)
                return fn(*args)
            return wrapper
        return make

    undo = []
    try:
        for module, name in (("tseval.features", "ter_align"),
                             ("tseval.mtmetrics", "meteor"),
                             ("tseval.mtmetrics", "rouge"),
                             ("tseval.mtmetrics", "bleu_counts"),
                             ("tseval.resources", "token_logprobs")):
            undo += spans.install(module, name, recording(name))
        features.compute_matrix(pairs, bench.load_resources(base))
    finally:
        spans.restore(undo)
    for name in ("ter_align", "meteor", "rouge", "bleu_counts"):
        assert len(calls[name]) == len(pairs), name
        assert all(args[0] is pair.source
                   for args, pair in zip(calls[name], pairs)), name
    # the LM scores every output, the one without words too, in one call
    assert sum(not pair.output.word_count for pair in pairs) == 1
    [(_, outputs)] = calls["token_logprobs"]
    assert len(outputs) == len(pairs)
    assert all(text is pair.output for text, pair in zip(outputs, pairs))


def test_meteor_search_is_exhaustive_on_every_benchmark_pair(bench):
    # Features computed by two versions of the chunk search can only be
    # compared byte for byte where both searches are exact.
    for name in bench.workloads.SPECS:
        work = bench.work(name, 1)
        for pair in work.train + work.test:
            assert mtmetrics._align(pair.out, pair.src)[2], (name, pair.id)
