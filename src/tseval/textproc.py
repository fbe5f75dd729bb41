"""Deterministic tokenization, sentence splitting, syllable counting and
Porter stemming.

All functions here are pure: no randomness, no global state other than
porter_stem's memo, safe for concurrent use. The tokenizer is
intentionally simple (whitespace split, punctuation detachment, naive
sentence boundaries) so that every downstream number is reproducible
without external tooling.
"""

from __future__ import annotations

import functools
import unicodedata
from dataclasses import dataclass

__all__ = [
    "TokenizedText",
    "tokenize",
    "count_syllables",
    "porter_stem",
    "is_punctuation",
]

# A character is punctuation iff its Unicode general category starts with
# "P". For ASCII this is exactly: ! " # % & ' ( ) * , - . / : ; ? @ [ \ ] _ { }
# ($ + < = > ^ | ~ are Unicode symbols, not punctuation, and stay in words).
def is_punctuation(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


@dataclass(frozen=True)
class TokenizedText:
    """Tokenized view of a text.

    sentences holds lowercase word tokens by sentence, which the features
    look up in the lowercased resources as they are; punctuation lives in
    punct_tokens, in order, and never in sentences. char_count counts the
    characters of the lowercased words plus one per punctuation token.
    """

    sentences: tuple[tuple[str, ...], ...]
    punct_tokens: tuple[str, ...]
    char_count: int

    @functools.cached_property
    def words(self) -> list[str]:
        """All word tokens, flattened across sentences; built once."""
        return [w for sent in self.sentences for w in sent]

    @property
    def word_count(self) -> int:
        return len(self.words)

    @property
    def sentence_count(self) -> int:
        return len(self.sentences)


def _split_chunk(chunk: str) -> tuple[list[str], str, list[str]]:
    """Detach leading/trailing punctuation characters from a whitespace chunk.

    Returns (leading punct tokens, word token possibly empty, trailing
    punct tokens). Internal punctuation (apostrophes, hyphens, anything
    else) stays inside the word token.
    """
    lead: list[str] = []
    trail: list[str] = []
    start, end = 0, len(chunk)
    while start < end and is_punctuation(chunk[start]):
        lead.append(chunk[start])
        start += 1
    while end > start and is_punctuation(chunk[end - 1]):
        trail.append(chunk[end - 1])
        end -= 1
    trail.reverse()
    return lead, chunk[start:end].lower(), trail


def tokenize(text: str) -> TokenizedText:
    """Tokenize a text into lowercase words, punctuation and sentences.

    Sentence boundaries are `.`, `!` or `?` followed by whitespace or end
    of string, so a sentence ends after each whitespace chunk whose last
    character is one of them; abbreviations are not special-cased. A
    sentence without a word token contributes punctuation only. Empty
    input gives an empty TokenizedText.
    """
    sentences: list[tuple[str, ...]] = []
    puncts: list[str] = []
    chars = 0  # of the lowercased words, which can be longer than the chunk

    words: list[str] = []
    for chunk in text.split():
        # a letter or digit is never punctuation: nothing to detach
        if chunk[0].isalnum() and chunk[-1].isalnum():
            word = chunk.lower()
            words.append(word)
            chars += len(word)
            continue
        lead, word, trail = _split_chunk(chunk)
        puncts += lead
        if word:
            words.append(word)
            chars += len(word)
        puncts += trail
        if chunk[-1] in ".!?" and words:
            sentences.append(tuple(words))
            words = []
    if words:
        sentences.append(tuple(words))

    return TokenizedText(
        sentences=tuple(sentences),
        punct_tokens=tuple(puncts),
        char_count=chars + len(puncts),
    )


_VOWELS = frozenset("aeiouy")


@functools.cache
def count_syllables(word: str) -> int:
    """Heuristic syllable count for an English word token, always >= 1.

    Counts maximal vowel groups (a, e, i, o, u, y), then drops one for a
    terminal silent "e" unless the word ends in consonant + "le".
    Non-letter characters are ignored; a token without letters counts as
    one syllable.

    Memoised per token: the output_syllables intermediate counts every
    output token, and a vocabulary repeats across outputs.
    """
    letters = [c for c in word.lower() if c.isalpha()]
    if not letters:
        return 1
    groups = 0
    prev_vowel = False
    for c in letters:
        v = c in _VOWELS
        if v and not prev_vowel:
            groups += 1
        prev_vowel = v
    if (
        len(letters) >= 2
        and letters[-1] == "e"
        and not (
            len(letters) >= 3
            and letters[-2] == "l"
            and letters[-3] not in _VOWELS
        )
    ):
        groups -= 1
    return max(groups, 1)


# ---------------------------------------------------------------------------
# Porter stemmer (classic 1980 algorithm), used by the METEOR stem stage.
# ---------------------------------------------------------------------------

def _is_consonant(word: str, i: int) -> bool:
    c = word[i]
    if c in "aeiou":
        return False
    if c == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of VC sequences in [C](VC)^m[V]."""
    m = 0
    prev_cons = True
    for i in range(len(stem)):
        cons = _is_consonant(stem, i)
        if prev_cons and not cons:
            pass  # entering a vowel run
        elif not prev_cons and cons:
            m += 1
        prev_cons = cons
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


_STEP2 = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]

_STEP3 = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]

_STEP4 = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]


@functools.cache
def porter_stem(word: str) -> str:
    """Porter-stem a lowercase word. Words of length <= 2 are unchanged.

    Memoised per word: METEOR stems every distinct word of every pair, and
    a vocabulary repeats across pairs.
    """
    w = word.lower()
    if len(w) <= 2:
        return w

    # Step 1a
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif not w.endswith("ss") and w.endswith("s"):
        w = w[:-1]

    # Step 1b
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    else:
        stripped = None
        if w.endswith("ed") and _contains_vowel(w[:-2]):
            stripped = w[:-2]
        elif w.endswith("ing") and _contains_vowel(w[:-3]):
            stripped = w[:-3]
        if stripped is not None:
            w = stripped
            if w.endswith(("at", "bl", "iz")):
                w += "e"
            elif _ends_double_consonant(w) and not w.endswith(("l", "s", "z")):
                w = w[:-1]
            elif _measure(w) == 1 and _ends_cvc(w):
                w += "e"

    # Step 1c
    if w.endswith("y") and _contains_vowel(w[:-1]):
        w = w[:-1] + "i"

    # Step 2
    for suffix, repl in _STEP2:
        if w.endswith(suffix):
            if _measure(w[: -len(suffix)]) > 0:
                w = w[: -len(suffix)] + repl
            break

    # Step 3
    for suffix, repl in _STEP3:
        if w.endswith(suffix):
            if _measure(w[: -len(suffix)]) > 0:
                w = w[: -len(suffix)] + repl
            break

    # Step 4
    for suffix in _STEP4:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > 1:
                if suffix == "ion" and not stem.endswith(("s", "t")):
                    break
                w = stem
            break

    # Step 5a
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            w = stem

    # Step 5b
    if _measure(w) > 1 and _ends_double_consonant(w) and w.endswith("l"):
        w = w[:-1]

    return w
