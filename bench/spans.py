"""Spans around the program's public functions, recorded from the
benchmark's own files; nothing inside the program is instrumented.

A wrapper replaces a function in every module namespace that holds it
(``features`` imports ``ter_align``, ``cli`` imports ``compute_matrix``,
and so on), so calls are caught wherever they are looked up. Spans
(name, start, end, parent, pair id) stay in memory until the run ends.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name). Methods are given as "Class.method".
LAYERS = (
    ("tseval.textproc", "tokenize", "textproc.tokenize"),
    ("tseval.textproc", "porter_stem", "textproc.porter_stem"),
    ("tseval.mtmetrics", "ter_align", "mtmetrics.ter_align"),
    ("tseval.mtmetrics", "meteor", "mtmetrics.meteor"),
    ("tseval.mtmetrics", "bleu", "mtmetrics.bleu"),
    ("tseval.mtmetrics", "rouge", "mtmetrics.rouge"),
    ("tseval.resources", "load_vectors", "resources.load_vectors"),
    ("tseval.resources", "train_lm", "resources.train_lm"),
    ("tseval.resources", "load_frequency_table",
     "resources.load_frequency_table"),
    ("tseval.resources", "load_concreteness", "resources.load_concreteness"),
    ("tseval.resources", "token_logprobs", "resources.token_logprobs"),
    ("tseval.qats_io", "load_dataset", "qats_io.load_dataset"),
    ("tseval.qats_io", "to_pairs", "qats_io.to_pairs"),
    ("tseval.features", "compute_matrix", "features.compute_matrix"),
    ("tseval.features", "FeatureMatrix.to_tsv",
     "features.FeatureMatrix.to_tsv"),
    ("tseval.features", "FeatureMatrix.from_tsv",
     "features.FeatureMatrix.from_tsv"),
    ("tseval.qemodel", "select_lambda", "qemodel.select_lambda"),
    ("tseval.qemodel", "cross_validate", "qemodel.cross_validate"),
    ("tseval.qemodel", "fit_classifier", "qemodel.fit_classifier"),
    ("tseval.qemodel", "fit_regressor", "qemodel.fit_regressor"),
    ("tseval.qemodel", "fit_pca", "qemodel.fit_pca"),
    ("tseval.qemodel", "fit_standardizer", "qemodel.fit_standardizer"),
    ("tseval.qemodel", "predict", "qemodel.predict"),
    ("tseval.qemodel", "load_pipeline", "qemodel.load_pipeline"),
    ("tseval.qemodel", "save_pipeline", "qemodel.save_pipeline"),
    ("tseval.stats", "rank_features", "stats.rank_features"),
    ("tseval.stats", "weighted_f1", "stats.weighted_f1"),
)
# Layers whose calls are timed per pair, keyed by the source text object.
PER_PAIR = ("mtmetrics.ter_align", "mtmetrics.meteor")


def install(target_module: str, attribute: str, make_wrapper) -> list:
    """Replace a function everywhere the tseval modules refer to it.
    Returns (namespace, key, original) triples for ``restore``."""
    owner = sys.modules[target_module]
    if "." in attribute:
        cls_name, meth = attribute.split(".")
        cls = getattr(owner, cls_name)
        raw = cls.__dict__[meth]
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapped = make_wrapper(func)
        setattr(cls, meth, classmethod(wrapped)
                if isinstance(raw, classmethod) else wrapped)
        return [(cls, meth, raw)]
    original = getattr(owner, attribute)
    wrapper = make_wrapper(original)
    undo = []
    for name, module in list(sys.modules.items()):
        if name == "tseval" or name.startswith("tseval."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append((module, key, original))
    return undo


def restore(undo: list) -> None:
    for namespace, key, original in reversed(undo):
        setattr(namespace, key, original)


class Tracer:
    """In-memory spans: [name, start, end, parent index, pair id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pair_of: dict[int, str] = {}   # id(source TokenizedText) -> id
        self.shifts = 0
        self._undo: list = []

    def _open(self, name: str, tag=None) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1, tag])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrapper(self, name: str):
        def make(fn):
            per_pair = name in PER_PAIR

            def traced(*args, **kwargs):
                tag = self.pair_of.get(id(args[0])) if per_pair else None
                index = self._open(name, tag)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(index)
                if name == "mtmetrics.ter_align":
                    self.shifts += result.shifts
                elif name == "qats_io.to_pairs":
                    for pair in result:
                        self.pair_of[id(pair.source)] = pair.id
                return result

            traced.__wrapped__ = fn
            return traced
        return make

    def start(self) -> None:
        for module, attribute, name in LAYERS:
            self._undo += install(module, attribute, self._wrapper(name))

    def stop(self) -> None:
        restore(self._undo)
        self._undo = []
        self.pair_of.clear()

    def summary(self) -> dict:
        """Per-layer figures over the recorded spans (one traced pass)."""
        spans = self.spans
        child = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        durations = defaultdict(list)
        per_pair = defaultdict(dict)
        for i, (name, start, end, _, tag) in enumerate(spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
            durations[name].append(end - start)
            if tag is not None:
                per_pair[name][tag] = per_pair[name].get(tag, 0.0) + end - start
        return {"self_s": dict(self_s), "calls": dict(calls),
                "durations": dict(durations), "per_pair": dict(per_pair)}


def percentile_ms(values: list[float], pct: int) -> float:
    """The pct-th percentile, in milliseconds; median when pct is 50."""
    if pct == 50:
        return 1000.0 * statistics.median(values)
    return 1000.0 * statistics.quantiles(values, n=100)[pct - 1]
