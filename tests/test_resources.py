"""Resource loaders and the n-gram language model."""

import csv
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tseval.errors import DataFormatError, read_lines
from tseval.resources import (
    Resources,
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
        assert table["the"] == 1
        assert table["and"] == 3

    def test_oov_ranks_one_past_end(self, tmp_path):
        path = tmp_path / "freq.txt"
        path.write_text("the\nof\nand\n")
        table = load_frequency_table(path)
        # the features rank an unlisted word len(table) + 1
        assert "zyzzyva" not in table
        assert max(table.values()) == len(table) == 3

    def test_duplicates_keep_first_rank(self, tmp_path):
        path = tmp_path / "freq.txt"
        path.write_text("the\nof\nand\nto\nthe\n")
        table = load_frequency_table(path)
        assert table["the"] == 1
        assert len(table) == 4

    def test_tab_separated_counts_accepted(self, tmp_path):
        path = tmp_path / "freq.txt"
        path.write_text("the\t1000\nof\t500\n")
        table = load_frequency_table(path)
        assert table["of"] == 2

    def test_case_insensitive(self, tmp_path):
        path = tmp_path / "freq.txt"
        path.write_text("The\n")
        assert load_frequency_table(path) == {"the": 1}

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
        assert list(table) == ["the", "of"]
        assert table["the"] == 1


def _reference_concreteness(path):
    """The ratings a csv.DictReader reads from a concreteness file, as a
    dict, or the message of the first defect; the loader's reference."""
    lines = read_lines(path, "concreteness file")
    if not lines:
        return f"concreteness file {path} is empty"
    reader = csv.DictReader((line + "\n" for line in lines),
                            delimiter=max("\t,;", key=lines[0].count))
    try:
        fields = reader.fieldnames or []
        for col in ("Word", "Conc.M"):
            if col not in fields:
                return (f"concreteness file {path} is missing column "
                        f"{col!r} (found {fields})")
        ratings = {}
        for row in reader:
            word = (row["Word"] or "").strip().lower()
            raw = (row["Conc.M"] or "").strip()
            if not word:
                continue
            try:
                value = float(raw)
            except ValueError:
                return (f"{path}:{reader.line_num}: rating {raw!r} is not "
                        f"a number")
            if not 1.0 <= value <= 5.0:
                return (f"{path}:{reader.line_num}: rating {value} outside "
                        f"the 1-5 scale")
            ratings.setdefault(word, value)
    except csv.Error as exc:
        return f"{path}:{reader.reader.line_num}: {exc}"
    return ratings or f"concreteness file {path} contains no ratings"


# words, valid ratings, and odd fields: a bad rating, a delimiter, a quote
# that opens a field over two lines, a "\r" that the csv reader rejects
_LEXICON_WORDS = st.sampled_from(["cat", " Dog ", "CAT", "", "x y"])
_LEXICON_RATINGS = st.sampled_from(["1", "2.5", " 4 ", "5.0", "3"])
_LEXICON_ODD = st.sampled_from([
    "0.5", "x", "", '"two\nlines"', '"a,b;c\td"', '"', "a\rb", ",", ";",
    "\t"])


@st.composite
def _lexicon_files(draw):
    """A lexicon with the Word and Conc.M columns, some repeated, among
    others, in any order; rows may be blank, short or long."""
    delimiter = draw(st.sampled_from("\t,;"))
    names = draw(st.permutations(["Word", "Conc.M"] + draw(st.lists(
        st.sampled_from(["Note", "Conc.M", "Word", "word"]), max_size=2))))
    fields = [_LEXICON_RATINGS if name == "Conc.M" else _LEXICON_WORDS
              for name in names]
    lines = [delimiter.join(names)]
    for _ in range(draw(st.integers(0, 6))):
        row = [draw(field) for field in fields]
        if draw(st.integers(0, 4)) == 0:  # a short or blank row
            row = row[:draw(st.integers(0, len(row)))]
        else:  # extra fields, or none
            row += draw(st.lists(_LEXICON_RATINGS, max_size=2))
        if row and draw(st.integers(0, 7)) == 0:
            row[draw(st.integers(0, len(row) - 1))] = draw(_LEXICON_ODD)
        lines.append(delimiter.join(row))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + "\n".join(lines) + "\n"


class TestConcreteness:
    def test_basic(self, tmp_path):
        path = tmp_path / "conc.tsv"
        path.write_text("Word\tConc.M\napple\t5.0\njustice\t1.5\n")
        lex = load_concreteness(path)
        assert lex["apple"] == 5.0
        assert lex["justice"] == 1.5
        assert "missing" not in lex

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "conc.tsv"
        path.write_text("Word\tConc.M\nthing\t7.2\n")
        with pytest.raises(DataFormatError, match="outside the 1-5 scale"):
            load_concreteness(path)

    def test_byte_order_mark_tolerated(self, tmp_path):
        path = tmp_path / "conc.tsv"
        path.write_text("\ufeffWord\tConc.M\napple\t5.0\n", encoding="utf-8")
        lex = load_concreteness(path)
        assert lex == {"apple": 5.0}

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "conc.tsv"
        path.write_text("Word\tScore\napple\t5.0\n")
        with pytest.raises(DataFormatError, match="missing column"):
            load_concreteness(path)

    @pytest.mark.parametrize("text, message", [
        # blank lines, which the reader skips
        ("Word\tConc.M\n\ncat\t2.5\n\ndog\tx\n",
         ":5: rating 'x' is not a number"),
        # a quoted field over two lines: the rating is on the second
        ('Word,Note,Conc.M\n"a",x,2.5\ncat,"two\nlines",9\n',
         ":4: rating 9.0 outside the 1-5 scale"),
        ('Word,Note,Conc.M\ncat,"two\nlines",4\n\ndog,,z\n',
         ":5: rating 'z' is not a number"),
    ])
    def test_error_names_the_line_of_the_rating(self, tmp_path, text,
                                                message):
        path = tmp_path / "conc.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError) as info:
            load_concreteness(path)
        assert str(info.value) == f"{path}{message}"

    @pytest.mark.parametrize("text", [
        "Word\tConc.M\n",
        "Word\tConc.M\n\n \t4\n\t2\n",
        "Word;Conc.M\n;3\n",
    ])
    def test_no_ratings_rejected(self, tmp_path, text):
        # an empty lexicon used to make AvgConcreteness 0.0 on every pair
        path = tmp_path / "conc.tsv"
        path.write_text(text)
        with pytest.raises(DataFormatError) as info:
            load_concreteness(path)
        assert str(info.value) == (
            f"concreteness file {path} contains no ratings")

    @given(text=_lexicon_files())
    @example(text="Word,Conc.M\ncat,2\n")
    @example(text="Word\tConc.M\n\ncat\t2\n\n\ndog\t3\n")
    @example(text="Word;Conc.M\ncat;2\n")
    @example(text='Word,Note,Conc.M\ncat,"two\nlines",2\ndog,"x",9\n')
    @example(text="Word,Conc.M\ncat\ndog,2\n")  # a short row
    @example(text="Note,Word,Conc.M\nx,cat\n")  # short: an empty rating
    @example(text="Word,Conc.M\ncat,2,x,y\ndog,3,\n")  # long rows
    @example(text="Conc.M,Word,Conc.M\n9,cat,2\n1,dog\n")  # the last wins
    @example(text="\ufeffWord\tConc.M\ncat\t2\n")
    @example(text="Word,Conc.M\nca\rt,2\n")  # "\r" in an unquoted field
    @example(text='Word,Conc.M\n"ice\ncream",4\n')  # a word over two lines
    @settings(max_examples=400, deadline=None)
    def test_load_equals_dictreader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("conc") / "conc.csv"
        path.write_text(text, encoding="utf-8")
        expected = _reference_concreteness(path)
        if isinstance(expected, str):
            with pytest.raises(DataFormatError) as info:
                load_concreteness(path)
            assert str(info.value) == expected
        else:
            assert list(load_concreteness(path).items()) == list(
                expected.items())

    def test_quoted_line_break_stays_in_the_word(self, tmp_path):
        path = tmp_path / "conc.csv"
        path.write_text('Word,Conc.M\n"ice\ncream",4\ncat,5\n')
        with path.open(newline="") as f:
            expected = {row["Word"]: float(row["Conc.M"])
                        for row in csv.DictReader(f)}
        assert expected == {"ice\ncream": 4.0, "cat": 5.0}
        assert load_concreteness(path) == expected

    def test_comma_delimiter_sniffed(self, tmp_path):
        path = tmp_path / "conc.csv"
        path.write_text("Word,Conc.M\napple,4.2\n")
        assert load_concreteness(path)["apple"] == 4.2


# numbers that numpy's reader and float() read alike, then the rest
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["+1e5", "-0", ".5", "1.", "7"]))
_ODD_NUMBER = st.sampled_from(["1_0", "nan", "inf", "1e999", "x", ""])
# spaces within a line, then line breaks and a non-space
_SPACE = st.sampled_from([" ", "   ", "\t", "\x1f", "\xa0", "\u3000"])
_ODD_SPACE = st.sampled_from(["\x0b", "\x0c", "\x1c", "\x85", "\r",
                             "\u2028", "\u200b"])


@st.composite
def _vector_files(draw):
    """Vector files: maybe a header, lines of a word and `dim` numbers,
    with repeated words in both cases; one line in five may be blank,
    short or long, or hold an odd number or an odd space."""
    dim = draw(st.integers(1, 3))
    lines = [draw(st.sampled_from(["", f"4 {dim}", "+4 -1"]))]
    for _ in range(draw(st.integers(0, 5))):
        odd = draw(st.integers(0, 4)) == 0
        number = st.one_of(_NUMBER, _ODD_NUMBER) if odd else _NUMBER
        space = st.one_of(_SPACE, _ODD_SPACE) if odd else _SPACE
        count = dim + (draw(st.integers(-dim, 1)) if odd else 0)
        items = [draw(st.sampled_from(["cat", "Cat", "dog", "émile"]))]
        items += [draw(number) for _ in range(count)]
        lines.append(draw(space) * draw(st.integers(0, 1))
                     + "".join(item + draw(space) for item in items))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _reference_vectors(text, path):
    """(word -> row, rows) by the documented rule with float() of every
    field, or the message of the first defect in file order. Lines end at
    "\n" alone, as in every input file; str.split() takes the "\r" before
    one, and every other line boundary inside one, as a space."""
    lines = text.split("\n")
    head = lines[0].split() if lines else []
    start = int(len(head) == 2
                and all(p.lstrip("+-").isdigit() for p in head))
    data = [(lineno, line.split())
            for lineno, line in enumerate(lines[start:], start=start + 1)
            if line.split()]
    if not data:
        return f"vector file {path} contains no vectors"
    dim = len(data[0][1]) - 1
    if dim == 0:
        return f"{path}:{data[0][0]}: first data line has no vector values"
    rows, vectors = {}, []
    for lineno, (word, *fields) in data:
        try:
            values = [float(x) for x in fields]
        except ValueError:
            return f"{path}:{lineno}: non-numeric vector component"
        if not all(map(math.isfinite, values)):
            return f"{path}:{lineno}: non-finite vector component"
        if len(values) != dim:
            return f"{path}:{lineno}: expected {dim} values, " \
                f"found {len(values)}"
        if word.lower() not in rows:
            rows[word.lower()] = len(vectors)
            vectors.append(values)
    return rows, vectors


class TestWordVectors:
    def test_plain_format(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1 0 0\ndog 0 1 0\n")
        vecs = load_vectors(path)
        assert len(vecs.rows) == 2
        assert vecs.matrix[vecs.rows["cat"]].tolist() == [1.0, 0.0, 0.0]

    def test_header_consumed(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 3\ncat 1 0 0\ndog 0 1 0\n")
        vecs = load_vectors(path)
        assert len(vecs.rows) == 2
        assert vecs.matrix[vecs.rows["dog"]].tolist() == [0.0, 1.0, 0.0]

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

    @pytest.mark.parametrize("lines, message", [
        # a non-finite value on line 2 comes before a wrong width on line 4
        (["dog 0.1 0.2", "cat nan 0.3", "cow 0.1 0.2", "owl 0.1"],
         ":2: non-finite vector component"),
        (["dog 0.1 0.2", "cat 0.1 0.3", "cow 0.1 x", "owl 0.1"],
         ":3: non-numeric vector component"),
        (["dog 0.1 0.2", "cat 0.1", "cow inf 0.2", "owl x 1"],
         ":2: expected 2 values, found 1"),
        (["cat", "dog 0.1 0.2"], ":1: first data line has no vector values"),
    ])
    def test_first_bad_line_in_file_order_is_named(self, tmp_path, lines,
                                                   message):
        path = tmp_path / "vec.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=message):
            load_vectors(path)

    @pytest.mark.parametrize("line, message", [
        ("cat 0.5 x", ":3: non-numeric"),
        ("cat 0.5 -inf", ":3: non-finite"),
        ("cat 0.5", ":3: expected 2 values"),
    ])
    def test_bad_value_on_duplicate_word_line_fails(self, tmp_path, line,
                                                    message):
        path = tmp_path / "vec.txt"
        path.write_text(f"cat 1 2\ndog 3 4\n{line}\n")
        with pytest.raises(DataFormatError, match=message):
            load_vectors(path)

    def test_duplicate_word_keeps_first_vector(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1 2\ndog 3 4\nCAT 5 6\nowl 7 8\n")
        vecs = load_vectors(path)
        assert vecs.rows == {"cat": 0, "dog": 1, "owl": 2}
        assert vecs.matrix.tolist() == [[1.0, 2.0], [3.0, 4.0], [7.0, 8.0]]

    def test_matrix_holds_float_of_every_field(self, tmp_path):
        fields = ["1_0", "-0", "+.5", "1.", "2e-3", "-1E+2", "0.1"]
        path = tmp_path / "vec.txt"
        path.write_text("w " + " ".join(fields) + "\n")
        matrix = load_vectors(path).matrix
        assert matrix.dtype == np.float64 and matrix.shape == (1, 7)
        expected = [float(p) for p in fields]
        assert matrix[0].tolist() == expected
        assert [math.copysign(1.0, v) for v in matrix[0]] == [
            math.copysign(1.0, v) for v in expected]  # keeps -0.0

    def test_overflowing_component_is_non_finite(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("dog 0.1 0.2\ncat 0.3 1e400\n")
        with pytest.raises(DataFormatError,
                           match=":2: non-finite vector component"):
            load_vectors(path)

    @pytest.mark.parametrize("space", ["\x0b", "\x0c", "\x1c", "\x1d",
                                       "\x1e", "\x85", "\u2028", "\u2029"])
    def test_line_boundary_other_than_newline_is_a_space(self, tmp_path,
                                                         space):
        path = tmp_path / "vec.txt"
        path.write_text(f"a 0.1 0.2\nb 0.3{space} 0.4\n", encoding="utf-8")
        vecs = load_vectors(path)
        assert vecs.matrix[vecs.rows["b"]].tolist() == [0.3, 0.4]

    def test_matrix_is_read_only(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1 0\n")
        vecs = load_vectors(path)
        with pytest.raises(ValueError):
            vecs.matrix[0, 0] = 2.0

    def _check_against_reference(self, path, text):
        path.write_text(text, encoding="utf-8")
        expected = _reference_vectors(text, path)
        if isinstance(expected, str):
            with pytest.raises(DataFormatError) as info:
                load_vectors(path)
            assert str(info.value) == expected
            return
        vecs = load_vectors(path)
        rows, vectors = expected
        assert vecs.rows == rows
        assert vecs.matrix.shape == (len(vectors), len(vectors[0]))
        # bitwise, so -0.0 stays -0.0
        assert vecs.matrix.tobytes() == np.array(vectors).tobytes()

    @given(text=_vector_files())
    @settings(max_examples=300, deadline=None)
    def test_load_equals_float_of_every_field(self, tmp_path_factory, text):
        self._check_against_reference(
            tmp_path_factory.mktemp("vec") / "vec.txt", text)

    def test_odd_spaces_and_numbers_load_as_float_reads_them(self, tmp_path):
        self._check_against_reference(
            tmp_path / "vec.txt",
            "2 3\n \tcat 1 -0 .5\x1f\n\nCat  1_0\u30002\t+1e5 \n")

    def test_traced_memory_is_a_few_times_the_file(self, tmp_path):
        # 5 000 words of 50 components (2.4 MB): the loader's traced peak
        # is about 2.5 times the file, and over 9 times when it holds a
        # Python str per component
        rng = random.Random(0)
        path = tmp_path / "vec.txt"
        path.write_text("5000 50\n" + "".join(
            f"w{i} " + " ".join(f"{rng.uniform(-1, 1):.6f}"
                                for _ in range(50)) + "\n"
            for i in range(5000)))
        tracemalloc.start()
        try:
            vecs = load_vectors(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vecs.matrix.shape == (5000, 50)
        assert peak < 5 * path.stat().st_size


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
        probs = {w: lm.prob(w, context) for w in list(lm.word_ids) + ["<unk>"]}
        assert max(probs, key=probs.get) == "b"

    def test_conditional_distributions_normalize(self, toy_corpus):
        lm = train_lm(toy_corpus, order=3)
        rng = np.random.default_rng(11)
        words = sorted(lm.word_ids) + ["<s>", "never-seen"]
        events = sorted(lm.word_ids) + ["totally-unseen"]
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
        events = sorted({*lm.word_ids, "<unk>"})
        for context in ("the", "a", "<s>"):
            total = sum(lm.prob(w, (context,)) for w in events)
            assert total == pytest.approx(1.0, abs=1e-12), context

    def test_logprobs_nonpositive_one_per_token(self, toy_corpus):
        lm = train_lm(toy_corpus)
        text = tokenize("The cat sat on the mat.")
        [lps] = token_logprobs(lm, [text])
        assert len(lps) == text.word_count
        assert all(lp <= 0.0 for lp in lps)

    def test_single_word_text(self, toy_corpus):
        lm = train_lm(toy_corpus)
        assert len(token_logprobs(lm, [tokenize("cat")])[0]) == 1

    def test_context_resets_at_sentence_boundaries(self, toy_corpus):
        lm = train_lm(toy_corpus, order=3)
        [lps] = token_logprobs(lm, [tokenize("The cat. The cat.")])
        # both sentences start from the same padded context
        assert lps[0] == lps[2]
        assert lps[1] == lps[3]

    def test_empty_text(self, toy_corpus):
        lm = train_lm(toy_corpus)
        assert token_logprobs(lm, [tokenize("")]) == [[]]

    def test_training_sentence_beats_shuffled_variant(self, toy_corpus):
        lm = train_lm(toy_corpus, order=3)
        natural, shuffled = token_logprobs(lm, [
            tokenize("the cat sat on the mat"),
            tokenize("mat the on sat cat the")])
        assert np.mean(natural) > np.mean(shuffled)

    def test_all_unknown_words_collapse(self, toy_corpus):
        lm = train_lm(lm_corpus := toy_corpus, order=2)
        [lps] = token_logprobs(lm, [tokenize("xylophone quark zeppelin")])
        # first token: <s> context; later tokens: <unk> context
        assert lps[1] == pytest.approx(lps[2], abs=1e-12)

    def test_singletons_are_unknown(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("alpha beta alpha\ngamma alpha beta\n")
        lm = train_lm(path, order=2)
        assert "alpha" in lm.word_ids
        assert "beta" in lm.word_ids
        assert "gamma" not in lm.word_ids  # singleton -> <unk>

    @pytest.mark.parametrize("order", [2, 3])
    def test_token_logprobs_score_through_prob(self, toy_corpus, order):
        # prob lowercases the raw words it is given; a TokenizedText holds
        # them lowercased already, as tokenize gives them
        lm = train_lm(toy_corpus, order=order)
        raw = (("The", "Cat", "sat", "on", "the", "Zebra"),
               ("A", "bird", "Quokka", "flew"),
               ("THE", "mat"))
        text = TokenizedText(
            sentences=tuple(tuple(w.lower() for w in sent) for sent in raw),
            punct_tokens=(), char_count=0)
        expected = []
        for sent in raw:
            history = ["<s>"] * (order - 1)
            for w in sent:
                expected.append(math.log(lm.prob(w, tuple(history))))
                history.append(w)
        assert token_logprobs(lm, [text]) == [expected]

    def test_deterministic(self, toy_corpus):
        lm1 = train_lm(toy_corpus, order=3)
        lm2 = train_lm(toy_corpus, order=3)
        text = tokenize("the dog flew over a cat")
        assert token_logprobs(lm1, [text]) == token_logprobs(lm2, [text])


def reference_counts(sentences, order):
    """Tuple-keyed (context, continuation) Counters of every order 1..order,
    counted from the events of the documented rule: lowercase, words seen
    once and literal <s>/<unk> become <unk>, order - 1 <s> pad the start,
    one event per word."""
    words = [w.lower() for sent in sentences for w in sent]
    vocab = {w for w, c in Counter(words).items()
             if c >= 2 and w not in ("<s>", "<unk>")}
    grams = []
    for sent in sentences:
        padded = ["<s>"] * (order - 1) + [
            w if w in vocab else "<unk>" for w in map(str.lower, sent)]
        grams += [tuple(padded[i:i + order]) for i in range(len(sent))]
    contexts = [Counter(g[-n:-1] for g in grams) for n in range(1, order + 1)]
    continuations = [Counter(g[-n:] for g in grams)
                     for n in range(1, order + 1)]
    return vocab, contexts, continuations


def decoded(lm, table, width):
    """A (sorted keys, counts) table of integer keys with `width`
    base-`lm.base` digits, as a dict keyed by word tuples instead."""
    word_of = {0: "<s>", 1: "<unk>"}
    word_of.update((i, w) for w, i in lm.word_ids.items())
    out = {}
    keys, counts = table
    for key, count in zip(keys.tolist(), counts.tolist()):
        digits = []
        for _ in range(width):
            key, digit = divmod(key, lm.base)
            digits.append(word_of[digit])
        assert key == 0
        out[tuple(reversed(digits))] = count
    return out


def reference_logprobs(sentences, order, text):
    """token_logprobs from the tuple-keyed reference counts, with the
    model's float operations in the same order."""
    vocab, contexts, continuations = reference_counts(sentences, order)
    smooth = 0.1 * (len(vocab) + 1)
    out = []
    for sent in text.sentences:
        padded = ["<s>"] * (order - 1) + [
            w if w in vocab else "<unk>" for w in map(str.lower, sent)]
        for i in range(len(sent)):
            gram = tuple(padded[i:i + order])
            total = 0.0
            for n in range(1, order + 1):
                total += ((continuations[n - 1][gram[-n:]] + 0.1)
                          / (contexts[n - 1][gram[-n:-1]] + smooth))
            out.append(math.log(total / order))
    return out


def _random_corpus(seed, n_words, n_sentences):
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(n_words)] + ["<s>", "<unk>", "The"]
    return [[rng.choice(words) for _ in range(rng.randint(1, 9))]
            for _ in range(n_sentences)]


def _shuffled_sentences(rng, n_words):
    """12-word sentences in which the words v0.. each occur twice, the
    first 20 thrice, in an order shuffled by rng."""
    words = [f"v{i}" for i in range(n_words)]
    stream = words + words + words[:20]
    rng.shuffle(stream)
    return [stream[i:i + 12] for i in range(0, len(stream), 12)]


class TestLanguageModelCounts:
    """The integer-keyed tables against tuple-keyed Counters."""

    def _check(self, tmp_path, sentences, order, text, corpus=None):
        """The model of `corpus`, by default the sentences one per line,
        against the counts of `sentences`."""
        path = tmp_path / "corpus.txt"
        if corpus is None:
            corpus = "".join(" ".join(s) + "\n" for s in sentences)
        path.write_text(corpus, encoding="utf-8")
        lm = train_lm(path, order=order)
        vocab, contexts, continuations = reference_counts(sentences, order)
        assert set(lm.word_ids) == vocab
        # the tables hold orders 2..n; test_unigram_terms_are_the_order_
        # one_terms checks order 1
        assert len(lm.contexts) == len(lm.continuations) == order - 1
        for n in range(2, order + 1):
            assert decoded(lm, lm.continuations[n - 2], n) == \
                continuations[n - 1]
            assert decoded(lm, lm.contexts[n - 2], n - 1) == \
                contexts[n - 1]
        assert token_logprobs(lm, [text]) == [reference_logprobs(
            sentences, order, text)]
        return lm

    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_counts_match_reference(self, tmp_path, order, seed):
        sentences = _random_corpus(seed, n_words=40, n_sentences=60)
        text = tokenize("w1 w2 w3 the <unk> w39. Zebra w4 <s> w5!")
        self._check(tmp_path, sentences, order, text)

    @given(st.lists(st.sampled_from(
        ["w1", "w2", "w3", "W1", "<s>", "<unk>",
         " ", "  ", "\t", "\x1f", "\xa0", "\u3000",  # spaces in a line
         "\n", "\n\n", "\n \t\n", "\r\n",  # line ends, blank lines
         "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]),  # not line ends
        min_size=1, max_size=60), st.integers(2, 3))
    @settings(max_examples=100, deadline=None)
    def test_any_whitespace_separates_words_and_newline_ends_lines(
            self, tmp_path_factory, items, order):
        # a corpus line ends at "\n" alone, as in every input file
        corpus = " ".join(items)
        sentences = [s for s in map(str.split, corpus.split("\n")) if s]
        if not sentences:
            return
        self._check(tmp_path_factory.mktemp("lm"), sentences, order,
                    tokenize("w1 w2 w3 x. W2 w1"), corpus)

    def test_keys_beyond_int64_are_exact(self, tmp_path):
        # 1 500 words seen twice each at order 6: base**6 > 2**63, so the
        # keys are Python ints
        rng = random.Random(6)
        words = [f"v{i}" for i in range(1500)]
        stream = words + words
        rng.shuffle(stream)
        sentences = [stream[i:i + 12] for i in range(0, len(stream), 12)]
        text = tokenize(" ".join(sentences[0] + sentences[-1]) + " nope.")
        lm = self._check(tmp_path, sentences, 6, text)
        assert lm.base ** 6 > 2 ** 63
        assert lm.continuations[4][0].dtype == object
        assert max(lm.continuations[4][0]) >= 2 ** 63

    @pytest.mark.parametrize("order,n_words", [(2, 40), (3, 40), (6, 1500)])
    def test_unseen_contexts_score_as_the_reference(self, tmp_path, order,
                                                    n_words):
        # A new order of known words, unknown words and a repeated word
        # give contexts the corpus never had, and continuations it never
        # had of contexts it had. At 1 500 words and order 6 the keys are
        # Python ints.
        rng = random.Random(order)
        sentences = _shuffled_sentences(rng, n_words)
        words = [f"v{i}" for i in range(n_words)]
        said = words[:15] + ["nope", "v3", "v3", "v3"] + words[15:30]
        rng.shuffle(said)
        text = tokenize(" ".join(said) + ". V1 v2 nope v1.")
        lm = self._check(tmp_path, sentences, order, text)
        assert (lm.base ** order >= 2 ** 63) == (order == 6)
        _, contexts, continuations = reference_counts(sentences, order)
        vocab = set(lm.word_ids)
        unseen_context = new_continuation = 0
        for sent in text.sentences:
            padded = ["<s>"] * (order - 1) + [
                w if w in vocab else "<unk>" for w in map(str.lower, sent)]
            for i in range(len(sent)):
                gram = tuple(padded[i:i + order])
                for n in range(2, order + 1):
                    if gram[-n:-1] not in contexts[n - 1]:
                        unseen_context += 1
                    elif gram[-n:] not in continuations[n - 1]:
                        new_continuation += 1
        assert unseen_context >= 2 and new_continuation >= 3

    def test_unigram_terms_are_the_order_one_terms(self, tmp_path):
        sentences = _random_corpus(4, n_words=30, n_sentences=50)
        path = tmp_path / "corpus.txt"
        path.write_text("".join(" ".join(s) + "\n" for s in sentences),
                        encoding="utf-8")
        lm = train_lm(path, order=3)
        vocab, _, continuations = reference_counts(sentences, 3)
        word_of = {0: "<s>", 1: "<unk>"}
        word_of.update((i, w) for w, i in lm.word_ids.items())
        tokens = sum(continuations[0].values())
        assert lm.unigram_terms.tolist() == [
            (continuations[0][(word_of[i],)] + 0.1)
            / (tokens + 0.1 * (len(vocab) + 1)) for i in range(lm.base)]


def _shuffled_corpus_model(tmp_path, order):
    """The _shuffled_sentences of 40 words and their model of `order`; at
    order 6 the words are 1 500, so the keys are Python ints."""
    sentences = _shuffled_sentences(random.Random(order),
                                    1500 if order == 6 else 40)
    path = tmp_path / "corpus.txt"
    path.write_text("".join(" ".join(s) + "\n" for s in sentences),
                    encoding="utf-8")
    lm = train_lm(path, order=order)
    assert (lm.contexts[0][0].dtype == object) == (order == 6)
    return sentences, lm


class TestBatchedScoring:
    """token_logprobs over many texts in one call, against the reference
    text by text."""

    @pytest.mark.parametrize("order", [2, 3, 6])
    def test_batches_equal_the_reference_per_text(self, tmp_path, order):
        sentences, lm = _shuffled_corpus_model(tmp_path, order)
        rng = random.Random(order + 10)
        texts = [tokenize(""), tokenize("?! ... ,"),
                 tokenize("Xylophone quark. Zeppelin!")]
        for _ in range(30):  # pieces of training sentences, some words new
            said = []
            for _ in range(rng.randint(1, 3)):
                sent = rng.choice(sentences)
                start = rng.randrange(len(sent))
                piece = sent[start:start + rng.randint(1, 8)]
                said.append(" ".join(w.upper() if rng.random() < 0.1 else
                                     "nope" if rng.random() < 0.1 else w
                                     for w in piece) + ".")
            texts.append(tokenize(" ".join(said)))
        assert [t.word_count for t in texts[:2]] == [0, 0]
        assert all(w not in lm.word_ids for w in texts[2].words)
        expected = [reference_logprobs(sentences, order, t) for t in texts]
        for size in (1, 7, len(texts)):
            got = [lps for i in range(0, len(texts), size)
                   for lps in token_logprobs(lm, texts[i:i + size])]
            assert got == expected, size
        for text, lps in zip(texts, expected):
            assert [math.log(lm.prob(w, sent[:i]))
                    for sent in text.sentences
                    for i, w in enumerate(sent)] == lps

    @pytest.mark.parametrize("order", [2, 3, 6])
    def test_tables_are_sorted_positive_and_add_up(self, tmp_path, order):
        _, lm = _shuffled_corpus_model(tmp_path, order)
        assert len(lm.contexts) == len(lm.continuations) == order - 1
        for contexts, continuations in zip(lm.contexts, lm.continuations):
            for keys, counts in (contexts, continuations):
                assert len(keys) == len(counts) > 0
                assert (keys[1:] > keys[:-1]).all()
                assert (counts > 0).all()
            sums = Counter()
            for key, count in zip(*(a.tolist() for a in continuations)):
                sums[key // lm.base] += count
            assert dict(sums) == dict(zip(*(a.tolist() for a in contexts)))

    def test_memory_of_training_on_the_benchmark_corpus(self, bench):
        # the qats-lexical seed-1 corpus: 249 221 table entries at order 3
        corpus = bench.inputs("qats-lexical", 1)["lm_corpus"]
        tracemalloc.start()
        try:
            lm = train_lm(corpus)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(keys) for tables in (lm.contexts, lm.continuations)
                   for keys, _ in tables) == 249_221
        assert kept < 6 * 2 ** 20
        assert peak < 15 * 2 ** 20


def test_array_holding_resources_compare_by_identity(tmp_path, toy_corpus):
    path = tmp_path / "vectors.txt"
    path.write_text("a 1 0\nb 0 1\n")
    v1, v2 = load_vectors(path), load_vectors(path)
    lm1, lm2 = train_lm(toy_corpus), train_lm(toy_corpus)
    for one, other in ((v1, v2), (lm1, lm2),
                       (Resources(vectors=v1), Resources(vectors=v2)),
                       (Resources(lm=lm1), Resources(lm=lm2))):
        assert (one == other) is False
        assert (one != other) is True
        assert (one == one) is True
    assert (Resources(vectors=v1, lm=lm1)
            == Resources(vectors=v1, lm=lm1)) is True
