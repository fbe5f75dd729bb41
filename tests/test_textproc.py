"""Tokenization, sentence splitting, syllables, Porter stemmer."""

import re
import string
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tseval.textproc import (
    TokenizedText,
    _split_chunk,
    count_syllables,
    is_punctuation,
    porter_stem,
    tokenize,
)

texts = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd", "Po", "Zs")),
    max_size=120,
)

# Sentence ends, quotes that are punctuation, and whitespace that str.split
# and re's \s both split at, beyond the ASCII space: \x1c (a separator
# control), \x85 (next line), \xa0 (no-break space), U+2028 (line sep).
boundary_texts = st.text(alphabet=st.sampled_from(
    ["a", "B", "7", ".", "!", "?", ",", "'", "\u00ab", "\u00bb", " ", "\n",
     "\t", "\x1c", "\x85", "\xa0", "\u2028"]), max_size=40)


def regex_tokenize(text):
    """The tokenizer that splits sentences with a regular expression
    first: after `.`, `!` or `?` followed by whitespace or the end.
    Returns the TokenizedText and its word and punctuation tokens in
    their original order."""
    sentences, puncts, ordered = [], [], []
    for segment in re.split(r"(?<=[.!?])(?=\s|$)", text):
        words = []
        for chunk in segment.split():
            lead, word, trail = _split_chunk(chunk)
            puncts += lead
            ordered += lead
            if word:
                words.append(word)
                ordered.append(word)
            puncts += trail
            ordered += trail
        if words:
            sentences.append(tuple(words))
    return TokenizedText(sentences=tuple(sentences),
                         punct_tokens=tuple(puncts),
                         char_count=sum(len(t) for t in ordered)), ordered


def test_split_and_regex_whitespace_agree():
    # tokenize ends a sentence only at the end of a str.split chunk, which
    # equals the regex tokenizer only while the two whitespace sets agree
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", chars) == [c for c in chars if not c.split()]


class TestTokenize:
    def test_empty_input(self):
        t = tokenize("")
        assert t.sentences == ()
        assert t.punct_tokens == ()
        assert t.char_count == 0

    def test_simple_sentence(self):
        t = tokenize("The cat sat.")
        assert t.sentences == (("the", "cat", "sat"),)
        assert t.punct_tokens == (".",)
        assert t.char_count == 10

    def test_two_sentences(self):
        t = tokenize(
            "All three were arrested in the Toome area. "
            "All three have been taken..."
        )
        assert t.sentence_count == 2

    def test_exclamation_and_question(self):
        t = tokenize("Wow! Is that so? Yes.")
        assert t.sentence_count == 3

    def test_decimal_point_not_a_boundary(self):
        t = tokenize("It is 3.5 km away.")
        assert t.sentence_count == 1

    def test_internal_apostrophe_kept(self):
        t = tokenize("Don't panic.")
        assert t.sentences == (("don't", "panic"),)

    def test_internal_hyphen_kept(self):
        t = tokenize("A well-known fact.")
        assert "well-known" in t.words

    def test_words_built_once(self):
        t = tokenize("One two. Three four five.")
        assert t.words is t.words
        assert t.word_count == len(t.words) == 5

    def test_leading_and_trailing_punct_detached(self):
        t = tokenize('"Hello," she said.')
        assert t.words == ["hello", "she", "said"]
        assert list(t.punct_tokens) == ['"', ",", '"', "."]

    def test_punct_only_segment_has_no_sentence(self):
        t = tokenize("...")
        assert t.sentences == ()
        assert t.punct_tokens == (".", ".", ".")

    def test_char_count_equals_token_characters(self):
        text = '"Hello, world!" It cost $5.'
        ordered = regex_tokenize(text)[1]
        assert tokenize(text).char_count == sum(map(len, ordered)) == 23

    def test_char_count_counts_the_lowercased_words(self):
        # "İ".lower() is "i" plus a combining dot: the word is one
        # character longer than its chunk; final sigma keeps its length
        t = tokenize("İstanbul, ΣΑΣ.")
        assert t.words == ["i\u0307stanbul", "σας"]
        assert t.char_count == 9 + 1 + 3 + 1

    @given(boundary_texts)
    @settings(max_examples=500)
    def test_matches_regex_sentence_split(self, text):
        assert tokenize(text) == regex_tokenize(text)[0]

    def test_boundary_only_after_whitespace_or_end(self):
        t = tokenize("a.b c!\u2028d?\xa0e.\x85f")
        assert t.sentences == (("a.b", "c"), ("d",), ("e",), ("f",))
        # a quote after the stop: the chunk does not end the sentence
        assert tokenize("a.\u00bb b").sentences == (("a", "b"),)

    @given(texts)
    @settings(max_examples=200)
    def test_pure_and_deterministic(self, text):
        a = tokenize(text)
        b = tokenize(text)
        assert a == b

    @given(texts)
    @settings(max_examples=200)
    def test_idempotent_on_rejoined_tokens(self, text):
        first = tokenize(text)
        second = tokenize(" ".join(regex_tokenize(text)[1]))
        assert second.punct_tokens == first.punct_tokens
        assert second.words == first.words
        assert second.char_count == first.char_count

    @given(texts)
    @settings(max_examples=200)
    def test_word_tokens_nonempty_without_whitespace(self, text):
        t = tokenize(text)
        for word in t.words:
            assert word
            assert not any(c.isspace() for c in word)

    @given(texts)
    @settings(max_examples=200)
    def test_sentence_exists_when_alphabetic(self, text):
        t = tokenize(text)
        if any(c.isalpha() for c in text):
            assert t.sentence_count >= 1

    def test_punctuation_set_is_unicode_p(self):
        assert is_punctuation(".")
        assert is_punctuation("-")
        assert is_punctuation("'")
        assert not is_punctuation("$")  # currency symbol, not punctuation
        assert not is_punctuation("a")
        ascii_punct = [c for c in string.printable if is_punctuation(c)]
        assert "".join(ascii_punct) == "!\"#%&'()*,-./:;?@[\\]_{}"

    def test_no_alphanumeric_character_is_punctuation(self):
        # tokenize keeps a chunk that starts and ends with an
        # alphanumeric character whole, without scanning it for punctuation.
        assert not [hex(i) for i in range(sys.maxunicode + 1)
                    if chr(i).isalnum() and is_punctuation(chr(i))]


class TestSyllables:
    # hand-syllabified words on which the vowel-group heuristic agrees
    # with dictionary syllabification
    CASES = {
        "cat": 1, "simple": 2, "simplification": 5, "the": 1, "apple": 2,
        "whale": 1, "happy": 2, "yellow": 2, "queue": 1, "sat": 1,
        "arrested": 3, "table": 2, "little": 2, "make": 1, "garden": 2,
        "understanding": 4, "readability": 5,
    }

    @pytest.mark.parametrize("word,expected", sorted(CASES.items()))
    def test_dictionary_cases(self, word, expected):
        assert count_syllables(word) == expected

    def test_non_alphabetic_counts_one(self):
        assert count_syllables("123") == 1
        assert count_syllables("-") == 1

    def test_mixed_token_uses_letters_only(self):
        assert count_syllables("cat's") == 1

    @given(st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                   min_size=1, max_size=20))
    @settings(max_examples=300)
    def test_always_at_least_one(self, word):
        assert count_syllables(word) >= 1


class TestPorterStemmer:
    # end-to-end behavior of the classic algorithm, hand-derived from its
    # published rules
    CASES = {
        "caresses": "caress", "ponies": "poni", "ties": "ti", "cats": "cat",
        "feed": "feed", "agreed": "agre", "plastered": "plaster",
        "bled": "bled", "motoring": "motor", "sing": "sing",
        "conflated": "conflat", "troubled": "troubl", "sized": "size",
        "hopping": "hop", "tanned": "tan", "falling": "fall",
        "hissing": "hiss", "failing": "fail", "filing": "file",
        "happy": "happi", "sky": "sky", "relational": "relat",
        "conditional": "condit", "rational": "ration", "valenci": "valenc",
        "digitizer": "digit", "radicalli": "radic", "differentli": "differ",
        "vileli": "vile", "analogousli": "analog", "predication": "predic",
        "operator": "oper", "feudalism": "feudal", "decisiveness": "decis",
        "hopefulness": "hope", "formaliti": "formal", "triplicate": "triplic",
        "formative": "form", "formalize": "formal", "electriciti": "electr",
        "electrical": "electr", "hopeful": "hope", "goodness": "good",
        "revival": "reviv", "allowance": "allow", "inference": "infer",
        "airliner": "airlin", "adjustable": "adjust", "defensible": "defens",
        "irritant": "irrit", "replacement": "replac", "adjustment": "adjust",
        "dependent": "depend", "adoption": "adopt", "communism": "commun",
        "activate": "activ", "effective": "effect", "probate": "probat",
        "rate": "rate", "cease": "ceas", "controll": "control",
        "roll": "roll", "running": "run", "runs": "run", "easily": "easili",
        "opinion": "opinion",
    }

    @pytest.mark.parametrize("word,expected", sorted(CASES.items()))
    def test_canonical_cases(self, word, expected):
        assert porter_stem(word) == expected

    def test_short_words_unchanged(self):
        assert porter_stem("is") == "is"
        assert porter_stem("a") == "a"

    def test_same_stem_for_inflections(self):
        assert porter_stem("running") == porter_stem("runs")
        assert porter_stem("simplified") != porter_stem("complex")

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1,
                   max_size=15))
    @settings(max_examples=300)
    def test_idempotent_shrinking(self, word):
        stem = porter_stem(word)
        assert 0 < len(stem) <= len(word) + 1  # at/bl/iz can append an e
