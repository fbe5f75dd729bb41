"""Registry of elementary quality-estimation metrics and feature-matrix
computation for sentence pairs (source sentence, simplified output)."""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (DataFormatError, DegenerateDataError,
                     ResourceMissingError, parse_row, read_input)
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


class _PairContext:
    """Caches intermediates shared between features of one pair."""

    def __init__(self, pair: SentencePair, resources: Resources):
        self.pair = pair
        self.resources = resources

    @cached_property
    def ter(self):
        return ter_align(self.pair.source, self.pair.output)

    @cached_property
    def bleu_counts(self) -> tuple[tuple[int, int], ...]:
        return bleu_counts(self.pair.source, self.pair.output)

    @cached_property
    def logprobs(self) -> list[float]:
        return token_logprobs(self.resources.lm, self.pair.output)

    @cached_property
    def output_syllables(self) -> int:
        return sum(count_syllables(w) for w in self.pair.output.words)


def _per_sentence(total: float, text: TokenizedText) -> float:
    return total / text.sentence_count if text.sentence_count else 0.0


def _words_per_sentence(text: TokenizedText) -> float:
    return _per_sentence(text.word_count, text)


def _syllables_per_word(ctx: _PairContext) -> float:
    n = ctx.pair.output.word_count
    return ctx.output_syllables / n if n else 0.0


def _type_token_ratio(out: TokenizedText) -> float:
    words = out.words
    return len(set(words)) / len(words) if words else 0.0


def _words_in_common(src: TokenizedText, out: TokenizedText) -> float:
    src_types = set(src.words)
    return len(src_types & set(out.words)) / len(src_types)


def _avg_cosine(ctx: _PairContext) -> float:
    vectors = ctx.resources.vectors
    means = []
    for text in (ctx.pair.source, ctx.pair.output):
        rows = [r for r in map(vectors.row_of, text.words) if r is not None]
        if not rows:
            return 0.0
        means.append(np.mean(vectors.matrix[rows], axis=0))
    a, b = means
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    return float(np.dot(a, b) / denom) if denom > 0 else 0.0


def _avg_concreteness(ctx: _PairContext) -> float:
    lex = ctx.resources.concreteness
    covered = [r for r in (lex.rating_of(w) for w in ctx.pair.output.words)
               if r is not None]
    return sum(covered) / len(covered) if covered else 0.0


def _max_freq_rank(ctx: _PairContext) -> float:
    words = ctx.pair.output.words
    if not words:
        return 0.0
    table = ctx.resources.freq_table
    return float(max(table.rank_of(w) for w in words))


def _fkgl(ctx: _PairContext) -> float:
    out = ctx.pair.output
    if out.word_count == 0:
        return 0.0
    return (0.39 * _words_per_sentence(out)
            + 11.8 * _syllables_per_word(ctx) - 15.59)


def _fre(ctx: _PairContext) -> float:
    out = ctx.pair.output
    if out.word_count == 0:
        return 0.0
    return (206.835 - 1.015 * _words_per_sentence(out)
            - 84.6 * _syllables_per_word(ctx))


def _bleu(ctx: _PairContext, cfg: BleuConfig) -> float:
    return bleu_from_counts(ctx.bleu_counts, ctx.pair.source.word_count,
                            ctx.pair.output.word_count, cfg)


def _lm_feature(ctx: _PairContext, reduce) -> float:
    if ctx.pair.output.word_count == 0:
        return LOGPROB_FLOOR
    return float(reduce(ctx.logprobs))


@dataclass(frozen=True)
class FeatureSpec:
    """A named elementary metric."""

    name: str
    requires: frozenset[str]
    compute: callable = field(repr=False)


def _spec(name, compute, requires=()):
    return FeatureSpec(name=name, requires=frozenset(requires),
                       compute=compute)


_BLEU_UNSMOOTHED = {n: BleuConfig(max_order=n) for n in (1, 2, 3, 4)}
_BLEU_SMOOTHED = BleuConfig(max_order=4, smoothing="method7")


_REGISTRY: tuple[FeatureSpec, ...] = (
    _spec("NBSourcePunct", lambda c: float(len(c.pair.source.punct_tokens))),
    _spec("NBSourceWords", lambda c: float(c.pair.source.word_count)),
    _spec("NBOutputPunct", lambda c: float(len(c.pair.output.punct_tokens))),
    _spec("TypeTokenRatio", lambda c: _type_token_ratio(c.pair.output)),
    _spec("TERp_Del", lambda c: float(c.ter.deletions)),
    _spec("TERp_NumEr", lambda c: float(c.ter.num_errors)),
    _spec("TERp_Sub", lambda c: float(c.ter.substitutions)),
    _spec("TERp", lambda c: c.ter.normalized_score),
    _spec("BLEU_1gram", lambda c: _bleu(c, _BLEU_UNSMOOTHED[1])),
    _spec("BLEU_2gram", lambda c: _bleu(c, _BLEU_UNSMOOTHED[2])),
    _spec("BLEU_3gram", lambda c: _bleu(c, _BLEU_UNSMOOTHED[3])),
    _spec("BLEU_4gram", lambda c: _bleu(c, _BLEU_UNSMOOTHED[4])),
    _spec("METEOR", lambda c: meteor(c.pair.source, c.pair.output)),
    _spec("ROUGE", lambda c: rouge(c.pair.source, c.pair.output)),
    _spec("BLEUSmoothed", lambda c: _bleu(c, _BLEU_SMOOTHED)),
    _spec("AvgCosineSim", _avg_cosine, requires=("vectors",)),
    _spec("NBOutputChars", lambda c: float(c.pair.output.char_count)),
    _spec("NBOutputCharsPerSent",
          lambda c: _per_sentence(c.pair.output.char_count, c.pair.output)),
    _spec("NBOutputSyllables", lambda c: float(c.output_syllables)),
    _spec("NBOutputSyllablesPerSent",
          lambda c: _per_sentence(c.output_syllables, c.pair.output)),
    _spec("NBOutputWords", lambda c: float(c.pair.output.word_count)),
    _spec("NBOutputWordsPerSent",
          lambda c: _words_per_sentence(c.pair.output)),
    _spec("AvgLMProbsOutput",
          lambda c: _lm_feature(c, lambda xs: sum(xs) / len(xs)),
          requires=("lm",)),
    _spec("MinLMProbsOutput", lambda c: _lm_feature(c, min),
          requires=("lm",)),
    _spec("MaxPosInFreqTable", _max_freq_rank, requires=("freq_table",)),
    _spec("AvgConcreteness", _avg_concreteness, requires=("concreteness",)),
    _spec("OutputFKGL", _fkgl),
    _spec("OutputFRE", _fre),
    _spec("WordsInCommon",
          lambda c: _words_in_common(c.pair.source, c.pair.output)),
)

_BY_NAME = {spec.name: spec for spec in _REGISTRY}
assert len(_BY_NAME) == len(_REGISTRY), "duplicate feature names"


def registry() -> tuple[FeatureSpec, ...]:
    """All known elementary metrics, in canonical order."""
    return _REGISTRY


def feature_names() -> tuple[str, ...]:
    return tuple(spec.name for spec in _REGISTRY)


def name_defect(names: Sequence[str]) -> tuple[int, str] | None:
    """The index of the first feature name that is empty or repeated, and
    what is wrong with it."""
    for i, name in enumerate(names):
        if not name or name in names[:i]:
            return i, (f"repeated feature name {name!r}" if name
                       else "empty feature name")
    return None


def _select(which: Sequence[str] | None,
            resources: Resources) -> tuple[FeatureSpec, ...]:
    """The named specs (all when which is None), each checked to have its
    resources loaded."""
    if which is None:
        specs = _REGISTRY
    else:
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

    def to_tsv(self, path: str | Path) -> None:
        lines = ["id\t" + "\t".join(self.feature_names)]
        for rid, row in zip(self.row_ids, self.rows):
            lines.append(rid + "\t" + "\t".join(repr(float(v)) for v in row))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def from_tsv(cls, path: str | Path) -> "FeatureMatrix":
        lines = read_input(path, "feature file").splitlines()
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
        rows = []
        for lineno, line in enumerate(lines[1:], start=2):
            parts = line.split("\t")
            ids.append(parts[0])
            rows.append(parse_row(parts[1:], len(names), path, lineno,
                                  "feature value"))
        return cls(
            feature_names=names,
            rows=np.asarray(rows, dtype=float).reshape(len(ids), len(names)),
            row_ids=tuple(ids),
        )


def compute_matrix(pairs: Sequence[SentencePair],
                   resources: Resources = EMPTY_RESOURCES,
                   which: Sequence[str] | None = None,
                   timings: dict[str, float] | None = None) -> FeatureMatrix:
    """Feature matrix over pairs; row order always matches input order.

    When a timings dict is supplied, per-feature wall time is accumulated
    into it. An intermediate shared by several features is computed once
    per pair and charged to the first selected feature that needs it; with
    all features, the TER alignment goes to TERp_Del, the BLEU counts to
    BLEU_1gram, the LM log-probabilities to AvgLMProbsOutput and the
    syllable count to NBOutputSyllables. The other features of each group
    then read near zero.
    """
    specs = _select(which, resources)
    rows = []
    for pair in pairs:
        ctx = _PairContext(pair, resources)
        row = []
        try:
            for spec in specs:
                start = time.perf_counter()
                row.append(float(spec.compute(ctx)))
                if timings is not None:
                    timings[spec.name] = (timings.get(spec.name, 0.0)
                                          + time.perf_counter() - start)
        except Exception as exc:
            raise DegenerateDataError(f"pair {pair.id!r}: {exc}") from exc
        rows.append(row)

    data = np.asarray(rows, dtype=float).reshape(len(rows), len(specs))
    if not np.all(np.isfinite(data)):
        bad = [pairs[i].id for i in np.nonzero(~np.isfinite(data).all(axis=1))[0]]
        raise DegenerateDataError(f"non-finite feature values for pairs {bad}")
    return FeatureMatrix(feature_names=tuple(spec.name for spec in specs),
                         rows=data, row_ids=tuple(p.id for p in pairs))
