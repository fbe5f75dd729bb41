"""Resource loaders and the n-gram language model."""

import math

import numpy as np
import pytest

from tseval.errors import DataFormatError
from tseval.resources import (
    load_concreteness,
    load_frequency_table,
    load_vectors,
    token_logprobs,
    train_lm,
)
from tseval.textproc import TokenizedText, tokenize


class TestFrequencyTable:
    def test_basic_ranks(self, tmp_path):
        path = tmp_path / "freq.txt"
        path.write_text("the\nof\nand\n")
        table = load_frequency_table(path)
        assert table.rank_of("the") == 1
        assert table.rank_of("and") == 3

    def test_oov_ranks_one_past_end(self, tmp_path):
        path = tmp_path / "freq.txt"
        path.write_text("the\nof\nand\n")
        table = load_frequency_table(path)
        assert table.rank_of("zyzzyva") == len(table) + 1 == 4

    def test_duplicates_keep_first_rank(self, tmp_path):
        path = tmp_path / "freq.txt"
        path.write_text("the\nof\nand\nto\nthe\n")
        table = load_frequency_table(path)
        assert table.rank_of("the") == 1
        assert len(table) == 4

    def test_tab_separated_counts_accepted(self, tmp_path):
        path = tmp_path / "freq.txt"
        path.write_text("the\t1000\nof\t500\n")
        table = load_frequency_table(path)
        assert table.rank_of("of") == 2

    def test_case_insensitive(self, tmp_path):
        path = tmp_path / "freq.txt"
        path.write_text("The\n")
        assert load_frequency_table(path).rank_of("THE") == 1

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "freq.txt"
        path.write_text("\n\n")
        with pytest.raises(DataFormatError, match="freq"):
            load_frequency_table(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="cannot read"):
            load_frequency_table(tmp_path / "nope.txt")

    def test_byte_order_mark_tolerated(self, tmp_path):
        path = tmp_path / "freq.txt"
        path.write_text("\ufeffthe\nof\n", encoding="utf-8")
        table = load_frequency_table(path)
        assert table.ranked_words[0] == "the"
        assert table.rank_of("the") == 1


class TestConcreteness:
    def test_basic(self, tmp_path):
        path = tmp_path / "conc.tsv"
        path.write_text("Word\tConc.M\napple\t5.0\njustice\t1.5\n")
        lex = load_concreteness(path)
        assert lex.rating_of("apple") == 5.0
        assert lex.rating_of("justice") == 1.5
        assert lex.rating_of("missing") is None

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "conc.tsv"
        path.write_text("Word\tConc.M\nthing\t7.2\n")
        with pytest.raises(DataFormatError, match="outside the 1-5 scale"):
            load_concreteness(path)

    def test_byte_order_mark_tolerated(self, tmp_path):
        path = tmp_path / "conc.tsv"
        path.write_text("\ufeffWord\tConc.M\napple\t5.0\n", encoding="utf-8")
        lex = load_concreteness(path)
        assert list(lex.ratings) == ["apple"]
        assert lex.rating_of("apple") == 5.0

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "conc.tsv"
        path.write_text("Word\tScore\napple\t5.0\n")
        with pytest.raises(DataFormatError, match="missing column"):
            load_concreteness(path)

    def test_comma_delimiter_sniffed(self, tmp_path):
        path = tmp_path / "conc.csv"
        path.write_text("Word,Conc.M\napple,4.2\n")
        assert load_concreteness(path).rating_of("apple") == 4.2



class TestWordVectors:
    def test_plain_format(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1 0 0\ndog 0 1 0\n")
        vecs = load_vectors(path)
        assert len(vecs) == 2
        assert vecs.vector_of("cat") == (1.0, 0.0, 0.0)

    def test_header_consumed(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 3\ncat 1 0 0\ndog 0 1 0\n")
        vecs = load_vectors(path)
        assert len(vecs) == 2
        assert vecs.vector_of("dog") == (0.0, 1.0, 0.0)

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1 0 0\ndog 0 1\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_vectors(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("")
        with pytest.raises(DataFormatError, match="no vectors"):
            load_vectors(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_component_names_line(self, tmp_path, value):
        path = tmp_path / "vec.txt"
        path.write_text(f"dog 0.1 0.2\ncat {value} 0.3\n")
        with pytest.raises(DataFormatError,
                           match=":2: non-finite vector component"):
            load_vectors(path)


@pytest.fixture
def toy_corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(
        "the cat sat on the mat\n" * 3
        + "the dog sat on the mat\n" * 2
        + "a bird flew over the mat\n" * 2
    )
    return path


class TestLanguageModel:
    def test_invalid_order(self, toy_corpus):
        with pytest.raises(ValueError):
            train_lm(toy_corpus, order=1)

    def test_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n \n")
        with pytest.raises(DataFormatError, match="no sentences"):
            train_lm(path)

    def test_observed_continuation_is_most_probable(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("a b\na b\n")
        lm = train_lm(path, order=2)
        context = ("a",)
        probs = {w: lm.prob(w, context) for w in list(lm.vocab) + ["<unk>"]}
        assert max(probs, key=probs.get) == "b"

    def test_conditional_distributions_normalize(self, toy_corpus):
        lm = train_lm(toy_corpus, order=3)
        rng = np.random.default_rng(11)
        words = sorted(lm.vocab) + ["<s>", "never-seen"]
        events = sorted(lm.vocab) + ["totally-unseen"]
        for _ in range(100):
            context = tuple(rng.choice(words, size=2))
            total = sum(lm.prob(w, context) for w in events)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_literal_unknown_token_is_the_unknown_event(self, tmp_path):
        # <unk> occurs twice, so it must not enter the vocabulary beside
        # the unknown event itself
        path = tmp_path / "c.txt"
        path.write_text("the <unk> sat\nthe <unk> ran\na cat sat\n"
                        "a cat ran\n")
        lm = train_lm(path, order=2)
        events = sorted(lm.vocab | {"<unk>"})
        for context in ("the", "a", "<s>"):
            total = sum(lm.prob(w, (context,)) for w in events)
            assert total == pytest.approx(1.0, abs=1e-12), context

    def test_logprobs_nonpositive_one_per_token(self, toy_corpus):
        lm = train_lm(toy_corpus)
        text = tokenize("The cat sat on the mat.")
        lps = token_logprobs(lm, text)
        assert len(lps) == text.word_count
        assert all(lp <= 0.0 for lp in lps)

    def test_single_word_text(self, toy_corpus):
        lm = train_lm(toy_corpus)
        assert len(token_logprobs(lm, tokenize("cat"))) == 1

    def test_context_resets_at_sentence_boundaries(self, toy_corpus):
        lm = train_lm(toy_corpus, order=3)
        lps = token_logprobs(lm, tokenize("The cat. The cat."))
        # both sentences start from the same padded context
        assert lps[0] == lps[2]
        assert lps[1] == lps[3]

    def test_empty_text(self, toy_corpus):
        lm = train_lm(toy_corpus)
        assert token_logprobs(lm, tokenize("")) == []

    def test_training_sentence_beats_shuffled_variant(self, toy_corpus):
        lm = train_lm(toy_corpus, order=3)
        natural = token_logprobs(lm, tokenize("the cat sat on the mat"))
        shuffled = token_logprobs(lm, tokenize("mat the on sat cat the"))
        assert np.mean(natural) > np.mean(shuffled)

    def test_all_unknown_words_collapse(self, toy_corpus):
        lm = train_lm(lm_corpus := toy_corpus, order=2)
        lps = token_logprobs(lm, tokenize("xylophone quark zeppelin"))
        # first token: <s> context; later tokens: <unk> context
        assert lps[1] == pytest.approx(lps[2], abs=1e-12)

    def test_singletons_are_unknown(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("alpha beta alpha\ngamma alpha beta\n")
        lm = train_lm(path, order=2)
        assert "alpha" in lm.vocab
        assert "beta" in lm.vocab
        assert "gamma" not in lm.vocab  # singleton -> <unk>

    @pytest.mark.parametrize("order", [2, 3])
    def test_token_logprobs_score_through_prob(self, toy_corpus, order):
        lm = train_lm(toy_corpus, order=order)
        text = TokenizedText(
            sentences=(("The", "Cat", "sat", "on", "the", "Zebra"),
                       ("A", "bird", "Quokka", "flew"),
                       ("THE", "mat")),
            punct_tokens=(), char_count=0)
        expected = []
        for sent in text.sentences:
            history = ["<s>"] * (order - 1)
            for w in sent:
                expected.append(math.log(lm.prob(w, tuple(history))))
                history.append(w)
        assert token_logprobs(lm, text) == expected

    def test_deterministic(self, toy_corpus):
        lm1 = train_lm(toy_corpus, order=3)
        lm2 = train_lm(toy_corpus, order=3)
        text = tokenize("the dog flew over a cat")
        assert token_logprobs(lm1, text) == token_logprobs(lm2, text)
