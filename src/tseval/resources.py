"""Loaders for external lexical resources and a count-based language model.

All lookups are case-insensitive (keys are lowercased). Loaded objects are
immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import dropwhile
from pathlib import Path
from typing import Sequence

from .errors import DataFormatError, read_input
from .textproc import TokenizedText

__all__ = [
    "FrequencyTable",
    "ConcretenessLexicon",
    "WordVectors",
    "NgramLanguageModel",
    "load_frequency_table",
    "load_concreteness",
    "load_vectors",
    "train_lm",
    "token_logprobs",
    "Resources",
]

BOS = "<s>"
UNK = "<unk>"
ADD_K = 0.1  # add-k count of every LM event


@dataclass(frozen=True)
class FrequencyTable:
    """Words ranked by descending corpus frequency; rank is 1-based.

    Unlisted words rank one past the end of the table.
    """

    ranked_words: tuple[str, ...]
    rank_of_map: dict[str, int] = field(repr=False)

    def rank_of(self, word: str) -> int:
        return self.rank_of_map.get(word.lower(), len(self.ranked_words) + 1)

    def __len__(self) -> int:
        return len(self.ranked_words)


def load_frequency_table(path: str | Path) -> FrequencyTable:
    """Load a frequency table: one word per line, most frequent first,
    optionally followed by a tab and a count. Duplicates keep their first
    (highest) rank."""
    path = Path(path)
    text = read_input(path, "frequency table")
    words: list[str] = []
    rank_of: dict[str, int] = {}
    for line in text.splitlines():
        word = line.split("\t", 1)[0].strip().lower()
        if not word:
            continue
        if word not in rank_of:
            rank_of[word] = len(words) + 1
            words.append(word)
    if not words:
        raise DataFormatError(f"frequency table {path} contains no words")
    return FrequencyTable(ranked_words=tuple(words), rank_of_map=rank_of)


@dataclass(frozen=True)
class ConcretenessLexicon:
    """Word -> concreteness rating on the published 1-5 scale."""

    ratings: dict[str, float] = field(repr=False)

    def rating_of(self, word: str) -> float | None:
        return self.ratings.get(word.lower())

    def __len__(self) -> int:
        return len(self.ratings)


_WORD_COLUMN = "Word"
_RATING_COLUMN = "Conc.M"


def load_concreteness(path: str | Path) -> ConcretenessLexicon:
    """Load a concreteness lexicon from a delimited file whose header has
    the columns Word and Conc.M.

    The delimiter is sniffed from the header line (tab, comma or
    semicolon). Ratings must lie in [1, 5].
    """
    path = Path(path)
    lines = read_input(path, "concreteness file").splitlines()
    if not lines:
        raise DataFormatError(f"concreteness file {path} is empty")
    reader = csv.DictReader(lines, delimiter=max("\t,;", key=lines[0].count))
    fields = reader.fieldnames or []
    for col in (_WORD_COLUMN, _RATING_COLUMN):
        if col not in fields:
            raise DataFormatError(
                f"concreteness file {path} is missing column {col!r} "
                f"(found {fields})"
            )
    ratings: dict[str, float] = {}
    for lineno, row in enumerate(reader, start=2):
        word = (row[_WORD_COLUMN] or "").strip().lower()
        raw = (row[_RATING_COLUMN] or "").strip()
        if not word:
            continue
        try:
            value = float(raw)
        except ValueError as exc:
            raise DataFormatError(
                f"{path}:{lineno}: rating {raw!r} is not a number"
            ) from exc
        if not 1.0 <= value <= 5.0:
            raise DataFormatError(
                f"{path}:{lineno}: rating {value} outside the 1-5 scale"
            )
        ratings.setdefault(word, value)
    return ConcretenessLexicon(ratings=ratings)


@dataclass(frozen=True)
class WordVectors:
    """Word embedding table; every vector has the same dimensionality."""

    vectors: dict[str, tuple[float, ...]] = field(repr=False)

    def vector_of(self, word: str) -> tuple[float, ...] | None:
        return self.vectors.get(word.lower())

    def __len__(self) -> int:
        return len(self.vectors)


def load_vectors(path: str | Path) -> WordVectors:
    """Load word vectors in the standard text format: an optional
    "count dim" header line, then one "word v1 ... vdim" line per word.
    The dimensionality is inferred from the first data line."""
    path = Path(path)
    lines = read_input(path, "vector file").splitlines()
    start = 0
    if lines:
        head = lines[0].split()
        if len(head) == 2 and all(p.lstrip("+-").isdigit() for p in head):
            start = 1
    dim = None
    vectors: dict[str, tuple[float, ...]] = {}
    for lineno, line in enumerate(lines[start:], start=start + 1):
        parts = line.split()
        if not parts:
            continue
        word = parts[0].lower()
        try:
            values = tuple(float(p) for p in parts[1:])
        except ValueError as exc:
            raise DataFormatError(
                f"{path}:{lineno}: non-numeric vector component"
            ) from exc
        if not all(map(math.isfinite, values)):
            raise DataFormatError(
                f"{path}:{lineno}: non-finite vector component"
            )
        if dim is None:
            dim = len(values)
            if dim == 0:
                raise DataFormatError(
                    f"{path}:{lineno}: first data line has no vector values"
                )
        elif len(values) != dim:
            raise DataFormatError(
                f"{path}:{lineno}: expected {dim} values, found {len(values)}"
            )
        vectors.setdefault(word, values)
    if dim is None:
        raise DataFormatError(f"vector file {path} contains no vectors")
    return WordVectors(vectors=vectors)


# ---------------------------------------------------------------------------
# n-gram language model
# ---------------------------------------------------------------------------

def _grams(words: Sequence[str], vocab: frozenset[str],
           order: int) -> list[tuple[str, ...]]:
    """The LM events of one sentence: one order-gram per word, after
    lowercasing, mapping words outside `vocab` to <unk> and padding the
    start with order - 1 <s>."""
    padded = [BOS] * (order - 1) + [
        w if w in vocab else UNK for w in (x.lower() for x in words)]
    return [tuple(padded[i:i + order]) for i in range(len(words))]


@dataclass(frozen=True)
class NgramLanguageModel:
    """Interpolated add-k n-gram model over a closed vocabulary plus <unk>.

    Training words seen only once, and literal <s> and <unk> tokens, are
    mapped to <unk>. Contexts are padded with <s>, which is never
    predicted, so conditional probabilities over vocabulary + <unk> sum
    to one for every context and order.
    """

    order: int
    vocab: frozenset[str]
    context_counts: tuple[dict, ...] = field(repr=False)  # per order 1..n
    continuation_counts: tuple[dict, ...] = field(repr=False)

    @property
    def event_count(self) -> int:
        """Size of the predicted event space (vocabulary plus <unk>)."""
        return len(self.vocab) + 1

    def prob(self, word: str, context: tuple[str, ...]) -> float:
        """Interpolated conditional probability with uniform order weights.

        Leading <s> in `context` stand for the sentence-start padding; a
        context shorter than order - 1 words is padded the same way.
        """
        words = [*dropwhile(BOS.__eq__, context[-(self.order - 1):]), word]
        return self._gram_prob(_grams(words, self.vocab, self.order)[-1])

    def _gram_prob(self, gram: tuple[str, ...]) -> float:
        """prob of gram[-1] after gram[:-1], for one of _grams' events."""
        smooth = ADD_K * self.event_count
        total = 0.0
        for n in range(1, self.order + 1):
            num = self.continuation_counts[n - 1].get(gram[-n:], 0)
            den = self.context_counts[n - 1].get(gram[-n:-1], 0)
            total += (num + ADD_K) / (den + smooth)
        return total / self.order


def train_lm(corpus: str | Path, order: int = 3) -> NgramLanguageModel:
    """Train an interpolated add-k n-gram model on a plain-text corpus,
    one sentence per line, whitespace tokenized and lowercased."""
    if order < 2:
        raise ValueError(f"model order must be >= 2, got {order}")
    path = Path(corpus)
    text = read_input(path, "corpus").lower()
    sentences = [s for s in map(str.split, text.splitlines()) if s]
    if not sentences:
        raise DataFormatError(f"corpus {path} contains no sentences")

    word_counts = Counter(w for sent in sentences for w in sent)
    vocab = frozenset(w for w, c in word_counts.items()
                      if c >= 2 and w not in (BOS, UNK))

    grams = [g for sent in sentences for g in _grams(sent, vocab, order)]
    orders = range(1, order + 1)
    return NgramLanguageModel(
        order=order,
        vocab=vocab,
        context_counts=tuple(
            dict(Counter(g[-n:-1] for g in grams)) for n in orders),
        continuation_counts=tuple(
            dict(Counter(g[-n:] for g in grams)) for n in orders),
    )


def token_logprobs(model: NgramLanguageModel,
                   text: TokenizedText) -> list[float]:
    """Natural-log conditional probability of every word token, with
    sentence-initial contexts padded by <s>."""
    return [math.log(model._gram_prob(g)) for sent in text.sentences
            for g in _grams(sent, model.vocab, model.order)]


@dataclass(frozen=True)
class Resources:
    """Bundle of optional resources consumed by feature computation."""

    freq_table: FrequencyTable | None = None
    concreteness: ConcretenessLexicon | None = None
    vectors: WordVectors | None = None
    lm: NgramLanguageModel | None = None

    def has(self, kind: str) -> bool:
        return getattr(self, kind, None) is not None


EMPTY_RESOURCES = Resources()
