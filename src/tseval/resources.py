"""Loaders for external lexical resources and a count-based language model.

The loaders and train_lm lowercase every word they read, as tokenize
does, so the features look tokenized words up as they are. The frequency
table and the concreteness lexicon load as plain dicts; the features
only read them, as they read the word vectors and the language model.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, dropwhile, islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (DataFormatError, parse_rows, read_input, read_lines,
                     split_lines)
from .textproc import TokenizedText

__all__ = [
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


def load_frequency_table(path: str | Path) -> dict[str, int]:
    """Load a frequency table as word -> 1-based rank, in rank order: one
    word per line, most frequent first, optionally followed by a tab and a
    count. Duplicates keep their first (highest) rank."""
    path = Path(path)
    rank_of: dict[str, int] = {}
    for line in read_lines(path, "frequency table"):
        word = line.split("\t", 1)[0].strip().lower()
        if word and word not in rank_of:
            rank_of[word] = len(rank_of) + 1
    if not rank_of:
        raise DataFormatError(f"frequency table {path} contains no words")
    return rank_of


_WORD_COLUMN = "Word"
_RATING_COLUMN = "Conc.M"


def load_concreteness(path: str | Path) -> dict[str, float]:
    """Load a concreteness lexicon as word -> rating on the published 1-5
    scale, from a delimited file whose header has the columns Word and
    Conc.M.

    The delimiter is sniffed from the header line (tab, comma or
    semicolon). A column name given twice is read from its last column,
    and a row's missing fields are empty. Ratings must lie in [1, 5], and
    at least one row must have a word.
    """
    path = Path(path)
    lines = read_lines(path, "concreteness file")
    if not lines:
        raise DataFormatError(f"concreteness file {path} is empty")
    # each line keeps its "\n", which a quoted field over two lines holds
    reader = csv.reader((line + "\n" for line in lines),
                        delimiter=max("\t,;", key=lines[0].count))
    try:
        header = next(reader)
        column = {name: i for i, name in enumerate(header)}  # the last wins
        for col in (_WORD_COLUMN, _RATING_COLUMN):
            if col not in column:
                raise DataFormatError(
                    f"concreteness file {path} is missing column {col!r} "
                    f"(found {header})"
                )
        word_at, rating_at = column[_WORD_COLUMN], column[_RATING_COLUMN]
        width = max(word_at, rating_at) + 1
        ratings: dict[str, float] = {}
        for row in reader:  # a blank line is an empty row
            if len(row) < width:  # a short row's missing fields are empty
                row += [""] * (width - len(row))
            word = row[word_at].strip().lower()
            if not word:
                continue
            raw = row[rating_at].strip()
            try:
                value = float(raw)
            except ValueError as exc:
                raise DataFormatError(
                    f"{path}:{reader.line_num}: rating {raw!r} is not a number"
                ) from exc
            if not 1.0 <= value <= 5.0:
                raise DataFormatError(
                    f"{path}:{reader.line_num}: rating {value} outside the "
                    "1-5 scale"
                )
            ratings.setdefault(word, value)
    except csv.Error as exc:  # a "\r" inside an unquoted field, say
        raise DataFormatError(f"{path}:{reader.line_num}: {exc}") from None
    if not ratings:
        raise DataFormatError(f"concreteness file {path} contains no ratings")
    return ratings


@dataclass(frozen=True, eq=False)
class WordVectors:
    """Word embedding table: a word -> row index and one read-only float64
    matrix with a row per word. A table compares by identity."""

    rows: dict[str, int] = field(repr=False)
    matrix: np.ndarray = field(repr=False)


def load_vectors(path: str | Path) -> WordVectors:
    """Load word vectors in the standard text format: an optional
    "count dim" header line, then one "word v1 ... vdim" line per word.
    The dimensionality is inferred from the first data line. A repeated
    word keeps its first vector, but every line is checked."""
    path = Path(path)
    lines = read_lines(path, "vector file")
    start = 0
    if lines:
        head = lines[0].split()
        if len(head) == 2 and all(p.lstrip("+-").isdigit() for p in head):
            start = 1
    rows: dict[str, int] = {}
    values: list[str | None] = []  # the vector part of every data line
    linenos: list[int] = []
    for lineno, line in enumerate(lines[start:], start=start + 1):
        parts = line.split(None, 1)
        if parts:
            rows.setdefault(parts[0].lower(), len(linenos))
            values.append(parts[1] if len(parts) == 2 else None)
            linenos.append(lineno)
    del lines  # the values hold what is still needed
    if not linenos:
        raise DataFormatError(f"vector file {path} contains no vectors")
    if values[0] is None:
        raise DataFormatError(
            f"{path}:{linenos[0]}: first data line has no vector values")
    matrix = parse_rows(values, len(values[0].split()), path, linenos,
                        "vector component")
    if len(rows) < len(linenos):
        matrix = matrix[list(rows.values())]
        rows = {word: i for i, word in enumerate(rows)}
    matrix.flags.writeable = False
    return WordVectors(rows=rows, matrix=matrix)


# ---------------------------------------------------------------------------
# n-gram language model
# ---------------------------------------------------------------------------

BOS_ID = 0
UNK_ID = 1


def _ids(words: Iterable[str], word_ids: dict[str, int]) -> Iterator[int]:
    """Word ids of lowercase words; words outside the vocabulary are
    <unk>."""
    return map(word_ids.get, words, repeat(UNK_ID))


def _event_keys(ids: np.ndarray, lengths: list[int], order: int,
                base: int) -> Iterator[np.ndarray]:
    """The event keys of every word of sentences of the given lengths,
    for orders 2..order in turn; each sentence follows order - 1 <s>."""
    pad = order - 1
    where = np.arange(len(ids)) + pad * np.repeat(
        np.arange(1, len(lengths) + 1), lengths)
    padded = np.full(len(ids) + pad * len(lengths), BOS_ID, ids.dtype)
    padded[where] = ids
    keys = ids
    for back in range(1, order):
        keys = keys + padded[where - back] * base ** back
        yield keys


def _lookup(table: tuple[np.ndarray, np.ndarray],
            keys: np.ndarray) -> np.ndarray:
    """The counts of keys in a (sorted keys, counts) table; 0 where a key
    is missing."""
    known, counts = table
    at = np.minimum(np.searchsorted(known, keys), len(known) - 1)
    return np.where(known[at] == keys, counts[at], 0)


@dataclass(frozen=True, eq=False)
class NgramLanguageModel:
    """Interpolated add-k n-gram model over a closed vocabulary plus <unk>.

    Training words seen only once, and literal <s> and <unk> tokens, are
    mapped to <unk>. Contexts are padded with <s>, which is never
    predicted, so conditional probabilities over vocabulary + <unk> sum
    to one for every context and order.

    Words are ids: <s> is 0, <unk> is 1 and vocabulary words 2 and up.
    The order-n event (w1, ..., wn) is the integer key whose base-`base`
    digits are the ids, w1 the highest; its context (w1, ..., wn-1) is
    key // base. Keys are int64, or Python ints in object arrays where
    base ** order reaches 2 ** 63. contexts and continuations hold the
    tables of orders 2..n, order n at index n - 2: each the sorted keys
    seen in training and their counts. Order 1 needs no table: the term
    (count + k) / (tokens + k * event_count) of every id is kept in
    unigram_terms, indexed by id. A model compares by identity.
    """

    order: int
    word_ids: dict[str, int] = field(repr=False)
    contexts: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)
    continuations: tuple[tuple[np.ndarray, np.ndarray], ...] = field(
        repr=False)
    unigram_terms: np.ndarray = field(repr=False)  # float64

    @property
    def event_count(self) -> int:
        """Size of the predicted event space (vocabulary plus <unk>)."""
        return len(self.word_ids) + 1

    @property
    def base(self) -> int:
        """Radix of the event keys: the number of ids, <s> included."""
        return len(self.word_ids) + 2

    def prob(self, word: str, context: tuple[str, ...]) -> float:
        """Interpolated conditional probability with uniform order weights.

        Leading <s> in `context` stand for the sentence-start padding; a
        context shorter than order - 1 words is padded likewise. Each word
        is lowercased, as tokenize lowercases it.
        """
        words = [*dropwhile(BOS.__eq__, context[-(self.order - 1):]), word]
        return float(self._probs([[w.lower() for w in words]])[-1])

    def _probs(self, sentences: Sequence[Sequence[str]]) -> np.ndarray:
        """prob of every word of the sentences, each after its own
        sentence's history, in order."""
        lengths = list(map(len, sentences))
        ids = np.fromiter(_ids(chain.from_iterable(sentences), self.word_ids),
                          self.contexts[0][0].dtype, sum(lengths))
        smooth = ADD_K * self.event_count
        # 0.0 plus the order-1 term, then the terms of orders 2..n in turn;
        # an unseen context counts 0, and so do its continuations
        total = self.unigram_terms[ids.astype(np.intp)]
        for keys, contexts, continuations in zip(
                _event_keys(ids, lengths, self.order, self.base),
                self.contexts, self.continuations):
            total += ((_lookup(continuations, keys) + ADD_K)
                      / (_lookup(contexts, keys // self.base) + smooth))
        return total / self.order


def _tables(keys: np.ndarray, base: int) -> tuple[tuple, tuple]:
    """The (context, continuation) tables of one order's event keys. A
    context's count is the sum of its continuations' counts."""
    keys, counts = np.unique(keys, return_counts=True)
    contexts = keys // base
    starts = np.flatnonzero(np.r_[True, contexts[1:] != contexts[:-1]])
    return ((contexts[starts], np.add.reduceat(counts, starts)),
            (keys, counts))


def train_lm(corpus: str | Path, order: int = 3) -> NgramLanguageModel:
    """Train an interpolated add-k n-gram model on a plain-text corpus,
    one sentence per line, whitespace tokenized and lowercased."""
    if order < 2:
        raise ValueError(f"model order must be >= 2, got {order}")
    path = Path(corpus)
    text = read_input(path, "corpus").lower()
    lengths = [n for n in map(len, map(str.split, split_lines(text))) if n]
    if not lengths:
        raise DataFormatError(f"corpus {path} contains no sentences")

    tokens = text.split()  # the sentences' words, in order
    del text
    word_counts = Counter(tokens)
    word_ids = {w: i for i, w in enumerate(
        (w for w, c in word_counts.items()
         if c >= 2 and w not in (BOS, UNK)), start=UNK_ID + 1)}
    id_of = dict(zip(word_counts, _ids(word_counts, word_ids)))
    base = len(word_ids) + 2
    # Python ints where an order-n key could overflow int64
    dtype = np.int64 if base ** order < 2 ** 63 else object
    ids = np.fromiter(map(id_of.__getitem__, tokens), dtype, len(tokens))
    del tokens, word_counts, id_of

    contexts, continuations = zip(*map(
        _tables, _event_keys(ids, lengths, order, base), repeat(base)))
    unigram = np.bincount(ids.astype(np.intp), minlength=base)
    unigram_terms = ((unigram + ADD_K)
                     / (len(ids) + ADD_K * (len(word_ids) + 1)))
    return NgramLanguageModel(order=order, word_ids=word_ids,
                              contexts=contexts, continuations=continuations,
                              unigram_terms=unigram_terms)


def token_logprobs(model: NgramLanguageModel,
                   texts: Sequence[TokenizedText]) -> list[list[float]]:
    """Natural-log conditional probability of every word token of each
    text, one list per text, with sentence-initial contexts padded by <s>.
    All texts are scored in one pass."""
    logprobs = map(math.log, model._probs(
        [sent for text in texts for sent in text.sentences]).tolist())
    return [list(islice(logprobs, text.word_count)) for text in texts]


@dataclass(frozen=True)
class Resources:
    """Bundle of optional resources consumed by feature computation."""

    # word -> 1-based rank, and word -> 1-5 rating
    freq_table: dict[str, int] | None = field(default=None, repr=False)
    concreteness: dict[str, float] | None = field(default=None, repr=False)
    vectors: WordVectors | None = None
    lm: NgramLanguageModel | None = None

    def has(self, kind: str) -> bool:
        return getattr(self, kind, None) is not None


EMPTY_RESOURCES = Resources()
