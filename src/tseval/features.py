"""Registry of elementary quality-estimation metrics and feature-matrix
computation for sentence pairs (source sentence, simplified output)."""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import (DataFormatError, DegenerateDataError,
                     ResourceMissingError, parse_rows, read_lines, sum_left)
from .mtmetrics import (BleuConfig, bleu_counts, bleu_from_counts, meteor,
                        rouge, ter_align)
from .resources import EMPTY_RESOURCES, Resources, token_logprobs
from .textproc import TokenizedText, count_syllables, tokenize

__all__ = [
    "SentencePair",
    "FeatureSpec",
    "FeatureMatrix",
    "registry",
    "feature_names",
    "compute_features",
    "compute_matrix",
    "LOGPROB_FLOOR",
]

# Log-probability stand-in for outputs with no word tokens; keeps the
# feature matrix finite for learner input.
LOGPROB_FLOOR = -20.0


@dataclass(frozen=True)
class SentencePair:
    """One source sentence and its (possibly multi-sentence) output."""

    source: TokenizedText
    output: TokenizedText
    id: str = ""

    def __post_init__(self):
        if self.source.word_count == 0:
            raise DataFormatError(
                f"pair {self.id or '?'}: source has no word tokens"
            )

    @classmethod
    def from_text(cls, source: str, output: str, id: str = "") -> "SentencePair":
        return cls(source=tokenize(source), output=tokenize(output), id=id)


def _per_sentence(total: float, text: TokenizedText) -> float:
    return total / text.sentence_count if text.sentence_count else 0.0


def _words_per_sentence(text: TokenizedText) -> float:
    return _per_sentence(text.word_count, text)


def _type_token_ratio(out: TokenizedText) -> float:
    words = out.words
    return len(set(words)) / len(words) if words else 0.0


def _words_in_common(src: TokenizedText, out: TokenizedText) -> float:
    src_types = set(src.words)
    return len(src_types & set(out.words)) / len(src_types)


def _vector_sums(texts: list[list[int]], matrix: np.ndarray) -> np.ndarray:
    """The sum of the rows of matrix that each text lists, one row per
    text, each what matrix[rows].sum(axis=0) gives.

    That sum starts from numpy's add identity, +0.0, and adds the rows in
    order (a one-column matrix excepted, which numpy sums pairwise). The
    texts are summed alike but all at once: sorted longest first, step j
    adds the j-th row of every text longer than j into that text's row of
    one accumulator, in place."""
    order = sorted(range(len(texts)), key=lambda i: -len(texts[i]))
    ranked = [texts[i] for i in order]
    sums = np.zeros((len(texts), matrix.shape[1]))
    longer = len(ranked)  # the texts longer than j
    for j in range(len(ranked[0]) if ranked else 0):
        while len(ranked[longer - 1]) <= j:
            longer -= 1
        step = sums[:longer]
        step += matrix[[rows[j] for rows in ranked[:longer]]]
    out = np.empty_like(sums)
    out[order] = sums
    return out


def _cosines(pairs: Sequence[SentencePair],
             resources: Resources) -> list[float]:
    """AvgCosineSim of every pair: the cosine of the mean word vectors of
    its source and of its output, 0.0 when either has no vector."""
    vectors = resources.vectors
    row_of = vectors.rows.get
    texts = [[r for r in map(row_of, text.words) if r is not None]
             for pair in pairs for text in (pair.source, pair.output)]
    means = _vector_sums(texts, vectors.matrix)
    lengths = np.array([len(rows) for rows in texts], float)[:, None]
    np.divide(means, lengths, out=means, where=lengths > 0)
    out = []
    for k in range(0, len(texts), 2):
        if not (texts[k] and texts[k + 1]):
            out.append(0.0)
            continue
        a, b = means[k], means[k + 1]
        # what np.mean and np.linalg.norm compute, without their overhead
        denom = math.sqrt(a.dot(a)) * math.sqrt(b.dot(b))
        out.append(float(a.dot(b) / denom) if denom > 0 else 0.0)
    return out


def _avg_concreteness(pair: SentencePair, resources: Resources) -> float:
    rating = resources.concreteness.get
    covered = [r for r in map(rating, pair.output.words) if r is not None]
    return sum_left(covered) / len(covered) if covered else 0.0


def _max_freq_rank(pair: SentencePair, resources: Resources) -> float:
    """The largest frequency rank of an output word; an unlisted word
    ranks one past the end of the table."""
    ranks = resources.freq_table
    words = pair.output.words
    return max(map(ranks.get, words, repeat(len(ranks) + 1, len(words))),
               default=0.0)


def _fkgl(pair: SentencePair, resources: Resources, syllables: int) -> float:
    out = pair.output
    if out.word_count == 0:
        return 0.0
    return (0.39 * _words_per_sentence(out)
            + 11.8 * (syllables / out.word_count) - 15.59)


def _fre(pair: SentencePair, resources: Resources, syllables: int) -> float:
    out = pair.output
    if out.word_count == 0:
        return 0.0
    return (206.835 - 1.015 * _words_per_sentence(out)
            - 84.6 * (syllables / out.word_count))


# The BLEU configs of BLEU_1gram..BLEU_4gram and BLEUSmoothed, in order.
_BLEU_CONFIGS = (*(BleuConfig(max_order=n) for n in (1, 2, 3, 4)),
                 BleuConfig(max_order=4, smoothing="method7"))


# Values that several features read, by name. Each is a function of
# (pairs, resources) that gives one value per pair, for the pairs of one
# compute_matrix call, and runs only when a selected feature reads it.
# The per-pair metric functions are looked up by their global names at
# call time, so a caller can wrap them.
_INTERMEDIATES = {
    "ter": lambda pairs, r: (ter_align(p.source, p.output) for p in pairs),
    "bleu": lambda pairs, r: (bleu_from_counts(
        bleu_counts(p.source, p.output), p.source.word_count,
        p.output.word_count, _BLEU_CONFIGS) for p in pairs),
    # One call scores every output; an output without words gets [] and
    # its features read LOGPROB_FLOOR.
    "logprobs": lambda pairs, r: token_logprobs(
        r.lm, [p.output for p in pairs]),
    "output_syllables": lambda pairs, r: (
        sum(map(count_syllables, p.output.words)) for p in pairs),
    "cosine": _cosines,
}


@dataclass(frozen=True)
class FeatureSpec:
    """A named elementary metric: compute(pair, resources, *values) gives
    its value for one pair, where values holds the pair's value of each
    intermediate named in reads."""

    name: str
    requires: frozenset[str]
    compute: Callable[..., float] = field(repr=False)
    reads: tuple[str, ...] = ()


def _spec(name, compute, requires=(), reads=()):
    return FeatureSpec(name=name, requires=frozenset(requires),
                       compute=compute, reads=tuple(reads))


def _bleu_spec(name, index):
    return _spec(name, lambda p, r, scores: scores[index], reads=("bleu",))


_REGISTRY: tuple[FeatureSpec, ...] = (
    _spec("NBSourcePunct", lambda p, r: len(p.source.punct_tokens)),
    _spec("NBSourceWords", lambda p, r: p.source.word_count),
    _spec("NBOutputPunct", lambda p, r: len(p.output.punct_tokens)),
    _spec("TypeTokenRatio", lambda p, r: _type_token_ratio(p.output)),
    _spec("TERp_Del", lambda p, r, ter: ter.deletions, reads=("ter",)),
    _spec("TERp_NumEr", lambda p, r, ter: ter.num_errors, reads=("ter",)),
    _spec("TERp_Sub", lambda p, r, ter: ter.substitutions, reads=("ter",)),
    _spec("TERp", lambda p, r, ter: ter.normalized_score, reads=("ter",)),
    _bleu_spec("BLEU_1gram", 0),
    _bleu_spec("BLEU_2gram", 1),
    _bleu_spec("BLEU_3gram", 2),
    _bleu_spec("BLEU_4gram", 3),
    _spec("METEOR", lambda p, r: meteor(p.source, p.output)),
    _spec("ROUGE", lambda p, r: rouge(p.source, p.output)),
    _bleu_spec("BLEUSmoothed", 4),
    _spec("AvgCosineSim", lambda p, r, cosine: cosine,
          requires=("vectors",), reads=("cosine",)),
    _spec("NBOutputChars", lambda p, r: p.output.char_count),
    _spec("NBOutputCharsPerSent",
          lambda p, r: _per_sentence(p.output.char_count, p.output)),
    _spec("NBOutputSyllables", lambda p, r, syllables: syllables,
          reads=("output_syllables",)),
    _spec("NBOutputSyllablesPerSent",
          lambda p, r, syllables: _per_sentence(syllables, p.output),
          reads=("output_syllables",)),
    _spec("NBOutputWords", lambda p, r: p.output.word_count),
    _spec("NBOutputWordsPerSent", lambda p, r: _words_per_sentence(p.output)),
    _spec("AvgLMProbsOutput",
          lambda p, r, xs: sum_left(xs) / len(xs) if xs else LOGPROB_FLOOR,
          requires=("lm",), reads=("logprobs",)),
    _spec("MinLMProbsOutput", lambda p, r, xs: min(xs, default=LOGPROB_FLOOR),
          requires=("lm",), reads=("logprobs",)),
    _spec("MaxPosInFreqTable", _max_freq_rank, requires=("freq_table",)),
    _spec("AvgConcreteness", _avg_concreteness, requires=("concreteness",)),
    _spec("OutputFKGL", _fkgl, reads=("output_syllables",)),
    _spec("OutputFRE", _fre, reads=("output_syllables",)),
    _spec("WordsInCommon",
          lambda p, r: _words_in_common(p.source, p.output)),
)

_BY_NAME = {spec.name: spec for spec in _REGISTRY}
assert len(_BY_NAME) == len(_REGISTRY), "duplicate feature names"


def registry() -> tuple[FeatureSpec, ...]:
    """All known elementary metrics, in canonical order."""
    return _REGISTRY


def feature_names() -> tuple[str, ...]:
    return tuple(spec.name for spec in _REGISTRY)


def name_defect(names: Sequence[str]) -> tuple[int, str] | None:
    """The index of the first feature name that is empty, repeated or ends
    in "\r" (lost from a name's line in a model file), and what is wrong."""
    for i, name in enumerate(names):
        if not name:
            return i, "empty feature name"
        if name in names[:i]:
            return i, f"repeated feature name {name!r}"
        if name.endswith("\r"):
            return i, f"feature name {name!r} ends in a carriage return"
    return None


def _select(which: Sequence[str] | None,
            resources: Resources) -> tuple[FeatureSpec, ...]:
    """The named specs, each checked to have its resources loaded. When
    which is None, every spec whose resources are loaded, in registry
    order: the default feature set of the library and of the CLI."""
    if which is None:
        return tuple(spec for spec in _REGISTRY
                     if all(map(resources.has, spec.requires)))
    if not which:
        raise DataFormatError("no feature selected")
    for name in which:
        if name not in _BY_NAME:
            raise DataFormatError(f"unknown feature {name!r}")
    if defect := name_defect(which):
        raise DataFormatError(defect[1])
    specs = tuple(_BY_NAME[name] for name in which)
    for spec in specs:
        for kind in spec.requires:
            if not resources.has(kind):
                raise ResourceMissingError(spec.name, kind)
    return specs


def compute_features(pair: SentencePair,
                     resources: Resources = EMPTY_RESOURCES,
                     which: Sequence[str] | None = None) -> dict[str, float]:
    """Compute the named features of one pair as an ordered name -> value map."""
    matrix = compute_matrix([pair], resources, which)
    return dict(zip(matrix.feature_names, matrix.rows[0].tolist()))


@dataclass(frozen=True)
class FeatureMatrix:
    """Rows of feature values aligned with named columns and pair ids."""

    feature_names: tuple[str, ...]
    rows: np.ndarray
    row_ids: tuple[str, ...]

    def __post_init__(self):
        if self.rows.shape != (len(self.row_ids), len(self.feature_names)):
            raise ValueError(
                f"matrix shape {self.rows.shape} does not match "
                f"{len(self.row_ids)} ids x {len(self.feature_names)} features"
            )

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.feature_names.index(name)]

    def rows_in(self, names: Sequence[str]) -> np.ndarray:
        """The rows with their columns in the order of names. A different
        set of names is a DataFormatError naming the missing and the
        unexpected features."""
        if self.feature_names == tuple(names):
            return self.rows
        if sorted(self.feature_names) == sorted(names):
            return self.rows[:, list(map(self.feature_names.index, names))]
        have, want = set(self.feature_names), set(names)
        raise DataFormatError(
            f"feature names do not match (missing {sorted(want - have)}, "
            f"unexpected {sorted(have - want)})")

    def to_tsv(self, path: str | Path) -> None:
        lines = ["id\t" + "\t".join(self.feature_names)]
        for rid, row in zip(self.row_ids, self.rows):
            # tolist per row: a whole-matrix list would hold every value
            lines.append(rid + "\t" + "\t".join(map(repr, row.tolist())))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def from_tsv(cls, path: str | Path) -> "FeatureMatrix":
        lines = read_lines(path, "feature file")
        if not lines:
            raise DataFormatError(f"feature file {path} is empty")
        header = lines[0].split("\t")
        if header[:1] != ["id"]:
            raise DataFormatError(
                f"feature file {path} must start with an 'id' column"
            )
        names = tuple(header[1:])
        if not names:
            raise DataFormatError(f"{path}:1: no feature columns")
        if defect := name_defect(names):
            raise DataFormatError(f"{path}:1: {defect[1]}")
        ids = []
        values = []  # the values of every row, or None for an id alone
        for line in lines[1:]:
            parts = line.split("\t", 1)
            ids.append(parts[0])
            values.append(parts[1] if len(parts) == 2 else None)
        return cls(
            feature_names=names,
            rows=parse_rows(values, len(names), path,
                            range(2, len(lines) + 1), "feature value",
                            delimiter="\t"),
            row_ids=tuple(ids),
        )


def _per_pair(values, pairs: Sequence[SentencePair]) -> list:
    """The items of values, one per pair in order. An exception raised
    while one is computed becomes DegenerateDataError naming its pair."""
    out = []
    try:
        for value in values:
            out.append(value)
    except Exception as exc:
        raise DegenerateDataError(
            f"pair {pairs[len(out)].id!r}: {exc}") from exc
    return out


def compute_matrix(pairs: Sequence[SentencePair],
                   resources: Resources = EMPTY_RESOURCES,
                   which: Sequence[str] | None = None,
                   timings: dict[str, float] | None = None) -> FeatureMatrix:
    """Feature matrix over pairs; row order always matches input order.
    Its columns are the features named in which, or by default every
    feature whose resources are loaded, in registry order.

    The matrix is filled column by column. An intermediate that several
    features read (the TER alignment "ter", the five BLEU scores "bleu"
    from one count of the pair's n-grams, the LM log-probabilities
    "logprobs", the syllable count "output_syllables", the cosine of the
    mean word vectors "cosine") is computed once per pair, for all pairs
    at once, before the first selected feature that reads it. When a
    timings dict is supplied, the wall time of each intermediate and of
    each feature column is added to it under its own name.
    """
    specs = _select(which, resources)
    values: dict[str, list] = {}
    data = np.empty((len(pairs), len(specs)))

    def timed(name, compute, *args):
        """The values of compute(*args), one per pair, in a list; the
        time taken is added to timings[name]."""
        start = time.perf_counter()
        result = _per_pair(compute(*args), pairs)
        if timings is not None:
            timings[name] = (timings.get(name, 0.0)
                             + time.perf_counter() - start)
        return result

    for j, spec in enumerate(specs):
        for name in spec.reads:
            if name not in values:
                values[name] = timed(name, _INTERMEDIATES[name], pairs,
                                     resources)
        data[:, j] = timed(spec.name, map, float, map(
            spec.compute, pairs, repeat(resources),
            *(values[name] for name in spec.reads)))

    if not np.all(np.isfinite(data)):
        bad = [pairs[i].id for i in np.nonzero(~np.isfinite(data).all(axis=1))[0]]
        raise DegenerateDataError(f"non-finite feature values for pairs {bad}")
    return FeatureMatrix(feature_names=tuple(spec.name for spec in specs),
                         rows=data, row_ids=tuple(p.id for p in pairs))
