"""Feature registry contracts, per-feature formulas, matrix computation."""

import itertools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tseval import features
from tseval.errors import (DataFormatError, DegenerateDataError,
                           ResourceMissingError)
from tseval.features import (
    FeatureMatrix,
    SentencePair,
    compute_features,
    compute_matrix,
    feature_names,
    registry,
)
from tseval.mtmetrics import BleuConfig, bleu, meteor, rouge, ter_align
from tseval.resources import (
    Resources,
    WordVectors,
    load_concreteness,
    load_frequency_table,
    load_vectors,
    token_logprobs,
    train_lm,
)
from tseval.textproc import TokenizedText, count_syllables, tokenize

TABLE_FEATURES = [
    "NBSourcePunct", "NBSourceWords", "NBOutputPunct", "TypeTokenRatio",
    "TERp_Del", "TERp_NumEr", "TERp_Sub", "TERp", "BLEU_1gram", "BLEU_2gram",
    "BLEU_3gram", "BLEU_4gram", "METEOR", "ROUGE", "BLEUSmoothed",
    "AvgCosineSim", "NBOutputChars", "NBOutputCharsPerSent",
    "NBOutputSyllables", "NBOutputSyllablesPerSent", "NBOutputWords",
    "NBOutputWordsPerSent", "AvgLMProbsOutput", "MinLMProbsOutput",
    "MaxPosInFreqTable", "AvgConcreteness", "OutputFKGL", "OutputFRE",
    "WordsInCommon",
]
# the features that read each resource
RESOURCE_FEATURES = {
    "freq_table": ("MaxPosInFreqTable",),
    "concreteness": ("AvgConcreteness",),
    "vectors": ("AvgCosineSim",),
    "lm": ("AvgLMProbsOutput", "MinLMProbsOutput"),
}


@pytest.fixture(scope="module")
def full_resources(tmp_path_factory):
    base = tmp_path_factory.mktemp("resources")
    (base / "freq.txt").write_text("the\ncat\nsat\nmat\non\ndog\n")
    (base / "conc.tsv").write_text(
        "Word\tConc.M\nthe\t1.5\ncat\t5.0\nsat\t3.0\nmat\t4.6\n")
    (base / "vec.txt").write_text(
        "the 1 0 0\ncat 0 1 0\nsat 0 0 1\nmat 0.5 0.5 0\ndog 0 0.5 0.5\n")
    (base / "corpus.txt").write_text("the cat sat on the mat\n" * 3)
    return Resources(
        freq_table=load_frequency_table(base / "freq.txt"),
        concreteness=load_concreteness(base / "conc.tsv"),
        vectors=load_vectors(base / "vec.txt"),
        lm=train_lm(base / "corpus.txt", order=2),
    )


class TestRegistry:
    def test_contains_all_table_features(self):
        names = feature_names()
        for name in TABLE_FEATURES:
            assert name in names

    def test_names_unique(self):
        names = feature_names()
        assert len(set(names)) == len(names)

    def test_resource_requirements(self):
        by_name = {spec.name: spec for spec in registry()}
        assert by_name["AvgCosineSim"].requires == {"vectors"}
        assert by_name["AvgLMProbsOutput"].requires == {"lm"}
        assert by_name["MaxPosInFreqTable"].requires == {"freq_table"}
        assert by_name["AvgConcreteness"].requires == {"concreteness"}
        assert by_name["METEOR"].requires == set()


class TestComputeFeatures:
    def test_length_and_readability_example(self):
        pair = SentencePair.from_text("x y", "The cat sat.", id="1")
        vals = compute_features(pair, which=[
            "NBOutputWords", "NBOutputWordsPerSent", "NBOutputSyllables",
            "OutputFKGL", "OutputFRE"])
        assert vals["NBOutputWords"] == 3.0
        assert vals["NBOutputWordsPerSent"] == 3.0
        assert vals["NBOutputSyllables"] == 3.0
        assert vals["OutputFKGL"] == pytest.approx(-2.62, abs=1e-9)
        assert vals["OutputFRE"] == pytest.approx(119.19, abs=1e-9)

    def test_identity_pair(self):
        text = "the cat sat on the mat"
        pair = SentencePair.from_text(text, text, id="1")
        vals = compute_features(pair, which=[
            "WordsInCommon", "TERp", "BLEU_4gram", "ROUGE"])
        assert vals["WordsInCommon"] == 1.0
        assert vals["TERp"] == 0.0
        assert vals["BLEU_4gram"] == 1.0
        assert vals["ROUGE"] == 1.0

    def test_words_in_common_source_types(self):
        pair = SentencePair.from_text("a b c d", "a c a c", id="1")
        vals = compute_features(pair, which=["WordsInCommon"])
        assert vals["WordsInCommon"] == 0.5

    def test_type_token_ratio(self):
        pair = SentencePair.from_text("x", "a b a b a", id="1")
        assert compute_features(pair, which=["TypeTokenRatio"]) == {
            "TypeTokenRatio": 0.4}

    def test_source_counts(self):
        pair = SentencePair.from_text("The cat, the dog.", "ok", id="1")
        vals = compute_features(pair, which=["NBSourceWords", "NBSourcePunct"])
        assert vals["NBSourceWords"] == 4.0
        assert vals["NBSourcePunct"] == 2.0

    def test_per_sentence_averages(self):
        pair = SentencePair.from_text("x", "One two three. Four five.", id="1")
        vals = compute_features(pair, which=[
            "NBOutputWords", "NBOutputWordsPerSent"])
        assert vals["NBOutputWords"] == 5.0
        assert vals["NBOutputWordsPerSent"] == 2.5

    def test_duplicating_output_sentence(self):
        once = SentencePair.from_text("x", "The cat sat.", id="1")
        twice = SentencePair.from_text("x", "The cat sat. The cat sat.", id="2")
        which = ["NBOutputWords", "NBOutputWordsPerSent"]
        v1 = compute_features(once, which=which)
        v2 = compute_features(twice, which=which)
        assert v2["NBOutputWords"] == 2 * v1["NBOutputWords"]
        assert v2["NBOutputWordsPerSent"] == v1["NBOutputWordsPerSent"]

    def test_resource_features(self, full_resources):
        pair = SentencePair.from_text("the cat sat", "the cat sat on the mat",
                                      id="1")
        vals = compute_features(pair, full_resources, which=[
            "MaxPosInFreqTable", "AvgConcreteness", "AvgCosineSim",
            "AvgLMProbsOutput", "MinLMProbsOutput"])
        assert vals["MaxPosInFreqTable"] == 5.0  # "on" ranks 5th
        assert vals["AvgConcreteness"] == pytest.approx(
            (1.5 + 5.0 + 3.0 + 1.5 + 4.6) / 5)  # "on" not covered
        assert -1.0 <= vals["AvgCosineSim"] <= 1.0
        assert vals["AvgLMProbsOutput"] <= 0.0
        assert vals["MinLMProbsOutput"] <= vals["AvgLMProbsOutput"]

    def test_oov_freq_rank(self, full_resources):
        pair = SentencePair.from_text("the cat", "the zyzzyva", id="1")
        vals = compute_features(pair, full_resources,
                                which=["MaxPosInFreqTable"])
        assert vals["MaxPosInFreqTable"] == 7.0  # table size 6 + 1

    def test_missing_resource_names_feature_and_resource(self):
        pair = SentencePair.from_text("a", "b", id="1")
        with pytest.raises(ResourceMissingError) as err:
            compute_features(pair, which=["AvgCosineSim"])
        assert "AvgCosineSim" in str(err.value)
        assert "vectors" in str(err.value)

    def test_empty_output_guards(self, full_resources):
        pair = SentencePair.from_text("the cat sat", "", id="1")
        vals = compute_features(pair, full_resources)
        assert vals["NBOutputWords"] == 0.0
        assert vals["TypeTokenRatio"] == 0.0
        assert vals["AvgCosineSim"] == 0.0
        assert vals["AvgConcreteness"] == 0.0
        assert vals["AvgLMProbsOutput"] == -20.0
        assert vals["MinLMProbsOutput"] == -20.0
        assert vals["OutputFKGL"] == 0.0
        assert vals["BLEU_4gram"] == 0.0
        assert vals["TERp_Del"] == 3.0
        assert all(np.isfinite(list(vals.values())))

    def test_empty_source_rejected(self):
        with pytest.raises(DataFormatError, match="no word tokens"):
            SentencePair.from_text("...", "ok", id="1")

    def test_unknown_feature_rejected(self):
        pair = SentencePair.from_text("a", "b", id="1")
        with pytest.raises(DataFormatError, match="unknown feature"):
            compute_features(pair, which=["NotAFeature"])

    def test_empty_feature_list_rejected(self):
        # a matrix of no columns would write a header its reader rejects
        pair = SentencePair.from_text("a", "b", id="1")
        with pytest.raises(DataFormatError, match="no feature selected"):
            compute_matrix([pair], which=[])

    @pytest.mark.parametrize("rating,message", [
        (float("nan"), r"non-finite feature values for pairs \['p7'\]"),
        ("high", r"^pair 'p7': "),
    ])
    def test_bad_value_is_degenerate_data_naming_pair(self, rating, message):
        # the same checks as a row of compute_matrix
        pair = SentencePair.from_text("the cat", "the cat", id="p7")
        with pytest.raises(DegenerateDataError, match=message):
            compute_features(pair, Resources(concreteness={"cat": rating}),
                             which=["AvgConcreteness"])

    def test_deterministic(self, full_resources):
        pair = SentencePair.from_text("the cat sat on the mat",
                                      "the cat sat", id="1")
        v1 = compute_features(pair, full_resources)
        v2 = compute_features(pair, full_resources)
        assert v1 == v2

    def test_ranges(self, full_resources):
        pair = SentencePair.from_text("the cat sat on the mat",
                                      "the dog sat on a rug", id="1")
        vals = compute_features(pair, full_resources)
        assert 0.0 < vals["TypeTokenRatio"] <= 1.0
        assert 0.0 <= vals["WordsInCommon"] <= 1.0
        assert -1.0 <= vals["AvgCosineSim"] <= 1.0
        for name in ("BLEU_1gram", "BLEU_4gram", "BLEUSmoothed",
                     "ROUGE", "METEOR"):
            assert 0.0 <= vals[name] <= 1.0


# numbers that numpy's reader and float() read alike, then the rest
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["+1e5", "-0", ".5", "1.", "7"]))
_ODD_NUMBER = st.sampled_from(["1_0", "nan", "-inf", "1e999", "x", "", "\t"])
# spaces around a field, then ones float() does not strip or that are
# line boundaries other than "\n"
_SPACE = st.sampled_from(["", " ", "  ", "\xa0", "\u3000"])
_ODD_SPACE = st.sampled_from(["\x1f", "\x0b", "\x85", "\u200b"])


@st.composite
def _feature_files(draw):
    """Feature TSVs of one to three columns; one row in five may have
    the wrong count, an odd number or an odd space."""
    width = draw(st.integers(1, 3))
    lines = ["\t".join(["id"] + [f"f{i}" for i in range(width)])]
    for row in range(draw(st.integers(0, 5))):
        odd = draw(st.integers(0, 4)) == 0
        number = st.one_of(_NUMBER, _ODD_NUMBER) if odd else _NUMBER
        space = st.one_of(_SPACE, _ODD_SPACE) if odd else _SPACE
        count = width + (draw(st.integers(-width, 1)) if odd else 0)
        lines.append("".join(
            [f"r{row}"] + [f"\t{draw(space)}{draw(number)}{draw(space)}"
                           for _ in range(count)]))
    return "\n".join(lines) + "\n"


def _reference_tsv(text, path):
    """(ids, rows) by the documented rule with float() of every field, or
    the message of the first defect in file order. Rows end at "\n" (the
    files drawn here end with one), whatever other line separators the
    fields hold."""
    lines = text.removesuffix("\n").split("\n")
    width = len(lines[0].split("\t")) - 1
    ids, rows = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        row_id, *fields = line.split("\t")
        try:
            values = [float(x) for x in fields]
        except ValueError:
            return f"{path}:{lineno}: non-numeric feature value"
        if not all(map(math.isfinite, values)):
            return f"{path}:{lineno}: non-finite feature value"
        if len(values) != width:
            return f"{path}:{lineno}: expected {width} values, " \
                f"found {len(values)}"
        ids.append(row_id)
        rows.append(values)
    return tuple(ids), rows


class TestComputeMatrix:
    def _pairs(self):
        return [
            SentencePair.from_text("the cat sat on the mat", "the cat sat", id="a"),
            SentencePair.from_text("a big dog ran fast", "a dog ran", id="b"),
            SentencePair.from_text("one two three", "three two one", id="c"),
        ]

    def test_shape_and_order(self):
        which = ["NBOutputWords", "ROUGE", "TERp"]
        matrix = compute_matrix(self._pairs(), which=which)
        assert matrix.rows.shape == (3, 3)
        assert matrix.row_ids == ("a", "b", "c")
        assert matrix.feature_names == tuple(which)

    def test_permutation_permutes_rows(self):
        pairs = self._pairs()
        m1 = compute_matrix(pairs, which=["ROUGE", "TERp"])
        m2 = compute_matrix(pairs[::-1], which=["ROUGE", "TERp"])
        assert np.array_equal(m1.rows, m2.rows[::-1])

    def test_all_finite(self, full_resources):
        matrix = compute_matrix(self._pairs(), full_resources)
        assert np.isfinite(matrix.rows).all()

    @pytest.mark.parametrize("timed", [False, True])
    def test_rows_match_compute_features(self, full_resources, timed):
        pairs = self._pairs()
        timings = {} if timed else None
        matrix = compute_matrix(pairs, full_resources, timings=timings)
        for pair, row in zip(pairs, matrix.rows):
            values = compute_features(pair, full_resources)
            assert tuple(values) == matrix.feature_names
            assert list(values.values()) == row.tolist()

    def test_missing_resource_rejected_without_pairs(self):
        with pytest.raises(ResourceMissingError, match="AvgCosineSim"):
            compute_matrix([], which=["ROUGE", "AvgCosineSim"])

    @pytest.mark.parametrize("loaded", [
        kinds for n in range(len(RESOURCE_FEATURES) + 1)
        for kinds in itertools.combinations(RESOURCE_FEATURES, n)])
    def test_default_is_every_feature_whose_resources_are_loaded(
            self, full_resources, loaded):
        resources = Resources(**{kind: getattr(full_resources, kind)
                                 for kind in loaded})
        unloaded = {name for kind, names in RESOURCE_FEATURES.items()
                    if kind not in loaded for name in names}
        expected = tuple(n for n in TABLE_FEATURES if n not in unloaded)
        pairs = self._pairs()
        matrix = compute_matrix(pairs, resources)
        assert matrix.feature_names == expected
        full = compute_matrix(pairs, full_resources)
        columns = [full.feature_names.index(name) for name in expected]
        assert matrix.rows.tobytes() == full.rows[:, columns].tobytes()
        if unloaded:  # an explicit list is checked, not filtered
            with pytest.raises(ResourceMissingError):
                compute_matrix(pairs, resources, which=TABLE_FEATURES)
        if not loaded:  # the 24 features that read no resource
            assert len(expected) == 24
            assert compute_matrix(pairs).feature_names == expected

    def test_bitwise_deterministic(self, full_resources):
        m1 = compute_matrix(self._pairs(), full_resources)
        m2 = compute_matrix(self._pairs(), full_resources)
        assert np.array_equal(m1.rows, m2.rows)

    def test_tsv_roundtrip(self, tmp_path, full_resources):
        matrix = compute_matrix(self._pairs(), full_resources)
        path = tmp_path / "features.tsv"
        matrix.to_tsv(path)
        loaded = FeatureMatrix.from_tsv(path)
        assert loaded.feature_names == matrix.feature_names
        assert loaded.row_ids == matrix.row_ids
        assert np.array_equal(loaded.rows, matrix.rows)

    # -0.0, the smallest subnormal, the largest double, a sum with a long
    # repr, and integral values whose repr switches to exponent form
    TSV_VALUES = (-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, 3.0, 1e16)

    def test_tsv_lines_are_the_repr_of_each_float(self, tmp_path):
        rows = np.array([self.TSV_VALUES, self.TSV_VALUES[::-1]])
        names = tuple(f"f{k}" for k in range(rows.shape[1]))
        path = tmp_path / "features.tsv"
        FeatureMatrix(feature_names=names, rows=rows,
                      row_ids=("a", "b")).to_tsv(path)
        expected = ["id\t" + "\t".join(names)] + [
            rid + "\t" + "\t".join(repr(float(v)) for v in row)
            for rid, row in zip("ab", rows)]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()
        assert path.read_text().splitlines()[1].split("\t")[1:] == [
            "-0.0", "5e-324", "1.7976931348623157e+308",
            "0.30000000000000004", "3.0", "1e+16"]
        loaded = FeatureMatrix.from_tsv(path).rows
        assert loaded.tobytes() == rows.tobytes()

    def test_avg_cosine_is_the_numpy_formula_bit_for_bit(self):
        rng = np.random.default_rng(5)
        words = [f"w{k}" for k in range(40)]
        vectors = WordVectors(rows={w: k for k, w in enumerate(words[:30])},
                              matrix=rng.normal(size=(30, 7)))
        resources = Resources(vectors=vectors)
        pick = random.Random(5)
        for _ in range(200):
            src = pick.choices(words, k=pick.randint(1, 12))
            out = pick.choices(words, k=pick.randint(0, 12))
            got = compute_features(
                SentencePair.from_text(" ".join(src), " ".join(out)),
                resources, which=["AvgCosineSim"])["AvgCosineSim"]
            means = [np.mean(vectors.matrix[rows], axis=0) for rows in (
                [vectors.rows[w] for w in text if w in vectors.rows]
                for text in (src, out)) if rows]
            if len(means) < 2:
                assert got == 0.0
                continue
            a, b = means
            denom = float(np.linalg.norm(a) * np.linalg.norm(b))
            assert got == float(np.dot(a, b) / denom), (src, out)

    def test_timings_collected(self):
        timings = {}
        compute_matrix(self._pairs(), which=["ROUGE", "TERp"],
                       timings=timings)
        assert set(timings) == {"ROUGE", "TERp", "ter"}
        assert all(t >= 0.0 for t in timings.values())

    def test_cosine_sums_timed_as_their_own_intermediate(self,
                                                         full_resources):
        timings = {}
        compute_matrix(self._pairs(), full_resources,
                       which=["AvgCosineSim"], timings=timings)
        assert set(timings) == {"AvgCosineSim", "cosine"}
        assert timings["cosine"] > 0.0

    def test_intermediate_timed_from_its_call(self, full_resources,
                                              monkeypatch):
        # the work done when an intermediate is called, before it yields
        # a value, is its own time too
        def slow(pairs, resources):
            time.sleep(0.05)
            return [0.5] * len(pairs)

        monkeypatch.setitem(features._INTERMEDIATES, "cosine", slow)
        timings = {}
        matrix = compute_matrix(self._pairs(), full_resources,
                                which=["AvgCosineSim"], timings=timings)
        assert matrix.column("AvgCosineSim").tolist() == [0.5] * 3
        assert timings["cosine"] >= 0.05 > timings["AvgCosineSim"]

    def test_bleu_counted_once_per_pair(self, full_resources, monkeypatch):
        calls = []
        counts = features.bleu_counts

        def counting(source, output):
            calls.append(output)
            return counts(source, output)

        monkeypatch.setattr(features, "bleu_counts", counting)
        pairs = self._pairs() + [
            SentencePair.from_text("the cat sat. it sat on the mat.",
                                   "the cat sat on it. the mat.", id="d"),
            SentencePair.from_text("a b c", "", id="e"),
            SentencePair.from_text("a b c", "b", id="f"),
            SentencePair.from_text("a b c", "c x", id="g"),
            # two output sentences, the second one word long
            SentencePair.from_text("a b. c d.", "c a. b", id="h"),
            SentencePair.from_text("a b c d", "x y z", id="i"),
        ]
        matrix = compute_matrix(pairs, full_resources)
        assert len(calls) == len(pairs)

        configs = {"BLEU_1gram": BleuConfig(max_order=1),
                   "BLEU_2gram": BleuConfig(max_order=2),
                   "BLEU_3gram": BleuConfig(max_order=3),
                   "BLEU_4gram": BleuConfig(max_order=4),
                   "BLEUSmoothed": BleuConfig(max_order=4,
                                              smoothing="method7")}
        for name, cfg in configs.items():
            expected = [bleu(p.source, p.output, cfg) for p in pairs]
            assert matrix.column(name).tolist() == expected

    @pytest.mark.parametrize("target,feature", [("ter_align", "TERp"),
                                                ("meteor", "METEOR")])
    def test_exception_names_its_pair(self, monkeypatch, target, feature):
        # an intermediate (the TER alignment) and a feature column
        pairs = self._pairs()
        real = getattr(features, target)

        def failing(source, output):
            if source is pairs[1].source:
                raise ValueError("no alignment")
            return real(source, output)

        monkeypatch.setattr(features, target, failing)
        with pytest.raises(DegenerateDataError,
                           match=r"^pair 'b': no alignment$"):
            compute_matrix(pairs, which=["NBOutputWords", feature])

    def test_malformed_tsv_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("id\tf1\nrow1\t1.0\t2.0\n")
        with pytest.raises(DataFormatError, match=":2"):
            FeatureMatrix.from_tsv(path)

    @given(text=_feature_files())
    @settings(max_examples=300, deadline=None)
    @example(text="id\tf\na\t1\nb\t\n")  # an empty field
    @example(text="id\tf\na\t1\nb\n")  # no field
    @example(text="id\tf\tg\na\t 1_0\t-0\nb\t.5 \t\u30002\n")
    def test_tsv_load_equals_float_of_every_field(self, tmp_path_factory,
                                                  text):
        path = tmp_path_factory.mktemp("tsv") / "features.tsv"
        path.write_text(text, encoding="utf-8")
        expected = _reference_tsv(text, path)
        if isinstance(expected, str):
            with pytest.raises(DataFormatError) as info:
                FeatureMatrix.from_tsv(path)
            assert str(info.value) == expected
            return
        matrix = FeatureMatrix.from_tsv(path)
        ids, rows = expected
        assert matrix.row_ids == ids
        assert matrix.rows.shape == (len(ids), len(matrix.feature_names))
        # bitwise, so -0.0 stays -0.0
        assert matrix.rows.tobytes() == np.array(rows).tobytes()


def _reference_cosine(pair: SentencePair, vectors: WordVectors) -> float:
    """AvgCosineSim of one pair, each mean vector summed on its own by
    numpy."""
    means = []
    for text in (pair.source, pair.output):
        rows = [vectors.rows[w] for w in map(str.lower, text.words)
                if w in vectors.rows]
        if not rows:
            return 0.0
        means.append(vectors.matrix[rows].sum(axis=0) / len(rows))
    a, b = means
    denom = math.sqrt(a.dot(a)) * math.sqrt(b.dot(b))
    return float(a.dot(b) / denom) if denom > 0 else 0.0


def _cosine_column(pairs, vectors) -> bytes:
    return compute_matrix(pairs, Resources(vectors=vectors),
                          which=["AvgCosineSim"]).rows.tobytes()


class TestCosineSums:
    """AvgCosineSim adds the vectors of every text of a compute_matrix
    call in one pass; each sum, and so each pair's value, must be the
    per-text numpy formula's, bit for bit."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sums_are_numpy_sums_bit_for_bit(self, seed):
        # numpy adds the rows of a matrix of two or more columns in order,
        # from +0.0: a column of -0.0 sums to +0.0
        rng = np.random.default_rng(seed)
        pick = random.Random(seed)
        # about a third of the components are -0.0 or +0.0, and the rows'
        # magnitudes span six decades, so the order of the adds shows
        matrix = (rng.normal(size=(12, pick.randint(2, 9)))
                  * 10.0 ** rng.integers(-3, 4, size=(12, 1)))
        matrix[rng.random(matrix.shape) < 0.2] = -0.0
        matrix[rng.random(matrix.shape) < 0.15] = 0.0
        texts = [pick.choices(range(12), k=pick.choice([0, 1, 2, 5, 300]))
                 for _ in range(40)]
        sums = features._vector_sums(texts, matrix)
        for rows, got in zip(texts, sums):
            want = matrix[rows].sum(axis=0)
            assert got.tobytes() == want.tobytes(), rows

    def test_one_component_vectors(self):
        # numpy sums one column pairwise, so these sums may differ in their
        # last bits; the cosine of two one-component means is -1.0 or 1.0
        # either way
        rng = np.random.default_rng(4)
        words = [f"w{k}" for k in range(10)]
        vectors = WordVectors(rows={w: k for k, w in enumerate(words)},
                              matrix=rng.normal(size=(10, 1)))
        pick = random.Random(4)
        pairs = [SentencePair.from_text(
            " ".join(pick.choices(words, k=pick.randint(1, 200))),
            " ".join(pick.choices(words, k=pick.randint(0, 200))),
            id=str(i)) for i in range(40)]
        self._check(pairs, vectors)

    def _check(self, pairs, vectors):
        expected = np.array([[_reference_cosine(p, vectors)] for p in pairs])
        assert _cosine_column(pairs, vectors) == expected.tobytes()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_texts_with_repeats_and_unknown_words(self, seed):
        rng = np.random.default_rng(seed)
        pick = random.Random(seed)
        words = [f"w{k}" for k in range(25)]
        dim = pick.randint(2, 40)
        vectors = WordVectors(rows={w: k for k, w in enumerate(words[:15])},
                              matrix=rng.normal(size=(15, dim)))
        pairs = [SentencePair.from_text(
            " ".join(pick.choices(words, k=pick.randint(1, 30))),
            " ".join(pick.choices(words[:pick.randint(1, 25)],
                                  k=pick.randint(0, 30))), id=str(i))
            for i in range(60)]
        self._check(pairs, vectors)

    def test_texts_without_vectors(self):
        vectors = WordVectors(rows={"cat": 0, "mat": 1},
                              matrix=np.array([[1.0, 2.0], [3.0, -1.0]]))
        pairs = [SentencePair.from_text("dog ran", "the cat", id="oov-src"),
                 SentencePair.from_text("the cat", "dog ran", id="oov-out"),
                 SentencePair.from_text("the cat", "", id="empty"),
                 SentencePair.from_text("dog", "", id="both"),
                 SentencePair.from_text("cat mat cat", "mat mat", id="ok")]
        self._check(pairs, vectors)
        assert compute_matrix(pairs, Resources(vectors=vectors),
                              which=["AvgCosineSim"]).column(
            "AvgCosineSim").tolist()[:4] == [0.0] * 4

    def test_negative_zero_components(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("a -0 -0 1\nb -0.0 2 -0\nc 1 -0 -0\nd 0 -0 0\n")
        vectors = load_vectors(path)
        assert str(vectors.matrix[0, 0]) == "-0.0"
        texts = ["a", "b", "c", "d", "a b", "b b", "c d", "d d", "a c d"]
        pairs = [SentencePair.from_text(src, out, id=f"{src}/{out}")
                 for src in texts for out in texts]
        self._check(pairs, vectors)

    def test_words_are_looked_up_lowercased(self, full_resources):
        # tokenize lowercases every word and the features look words up as
        # they are, so a hand-built text holds lowercase words
        lower = TokenizedText(sentences=(("the", "cat", "sat"),),
                              punct_tokens=(), char_count=9)
        assert tokenize("The CAT Sat") == lower
        source = "the mat sat on the dog"
        pairs = [SentencePair(source=tokenize(source), output=lower),
                 SentencePair(source=lower, output=tokenize(source))]
        self._check(pairs, full_resources.vectors)
        for names, first in ((["AvgCosineSim"], None),
                             (["MaxPosInFreqTable"], 3.0),
                             (["AvgConcreteness"], (1.5 + 5.0 + 3.0) / 3)):
            got = compute_matrix(pairs, full_resources, which=names).rows
            want = compute_matrix(
                [SentencePair.from_text(source, "The CAT Sat"),
                 SentencePair.from_text("The CAT Sat", source)],
                full_resources, which=names).rows
            assert got.tobytes() == want.tobytes(), names
            assert first is None or got[0, 0] == first, names

    def test_a_key_whose_lowercase_is_longer_is_found(self, tmp_path):
        # "İ".lower() is "i" and a combining dot above: two code points
        for name, text in (("freq.txt", "other\nİSTANBUL\n"),
                           ("conc.tsv", "Word\tConc.M\nİSTANBUL\t4.5\n"),
                           ("vec.txt", "other 1 0\nİSTANBUL 0 2\n"),
                           ("corpus.txt", "İSTANBUL\n" * 2)):
            (tmp_path / name).write_text(text, encoding="utf-8")
        resources = Resources(
            freq_table=load_frequency_table(tmp_path / "freq.txt"),
            concreteness=load_concreteness(tmp_path / "conc.tsv"),
            vectors=load_vectors(tmp_path / "vec.txt"),
            lm=train_lm(tmp_path / "corpus.txt", order=2))
        pair = SentencePair.from_text("İSTANBUL", "İstanbul.")
        assert pair.output.words == ["i\u0307stanbul"]
        assert compute_features(pair, resources, which=[
            "AvgCosineSim", "MaxPosInFreqTable", "AvgConcreteness"]) == {
            "AvgCosineSim": 1.0, "MaxPosInFreqTable": 2.0,
            "AvgConcreteness": 4.5}
        assert "i\u0307stanbul" in resources.lm.word_ids


def _reference_row(pair: SentencePair, res: Resources) -> dict[str, float]:
    """Every feature of one pair, computed on its own from the metric
    functions and the resources."""
    src, out = pair.source, pair.output
    ter = ter_align(src, out)
    words = out.words
    n, sents = out.word_count, out.sentence_count
    syllables = sum(count_syllables(w) for w in words)
    logprobs = token_logprobs(res.lm, [out])[0] if n else []
    ranks = res.freq_table
    ratings = [res.concreteness.get(w.lower()) for w in words]
    ratings = [r for r in ratings if r is not None]
    means = []
    for text in (src, out):
        vecs = [res.vectors.matrix[res.vectors.rows[w.lower()]]
                for w in text.words if w.lower() in res.vectors.rows]
        means.append(np.mean(np.array(vecs), axis=0) if vecs else None)
    a, b = means
    if a is None or b is None or not np.linalg.norm(a) * np.linalg.norm(b):
        cosine = 0.0
    else:
        cosine = float(np.dot(a, b)
                       / float(np.linalg.norm(a) * np.linalg.norm(b)))
    row = {
        "NBSourcePunct": len(src.punct_tokens),
        "NBSourceWords": src.word_count,
        "NBOutputPunct": len(out.punct_tokens),
        "TypeTokenRatio": len(set(words)) / n if n else 0.0,
        "TERp_Del": ter.deletions,
        "TERp_NumEr": ter.num_errors,
        "TERp_Sub": ter.substitutions,
        "TERp": ter.normalized_score,
        "METEOR": meteor(src, out),
        "ROUGE": rouge(src, out),
        "BLEUSmoothed": bleu(src, out, BleuConfig(max_order=4,
                                                  smoothing="method7")),
        "AvgCosineSim": cosine,
        "NBOutputChars": out.char_count,
        "NBOutputCharsPerSent": out.char_count / sents if sents else 0.0,
        "NBOutputSyllables": syllables,
        "NBOutputSyllablesPerSent": syllables / sents if sents else 0.0,
        "NBOutputWords": n,
        "NBOutputWordsPerSent": n / sents if sents else 0.0,
        "AvgLMProbsOutput": (sum(logprobs) / len(logprobs) if logprobs
                             else features.LOGPROB_FLOOR),
        "MinLMProbsOutput": min(logprobs, default=features.LOGPROB_FLOOR),
        "MaxPosInFreqTable": max(
            (ranks.get(w.lower(), len(ranks) + 1) for w in words),
            default=0),
        "AvgConcreteness": sum(ratings) / len(ratings) if ratings else 0.0,
        "OutputFKGL": (0.39 * (n / sents) + 11.8 * (syllables / n) - 15.59
                       if n else 0.0),
        "OutputFRE": (206.835 - 1.015 * (n / sents) - 84.6 * (syllables / n)
                      if n else 0.0),
        "WordsInCommon": len(set(src.words) & set(words)) / len(set(src.words)),
    }
    for order in (1, 2, 3, 4):
        row[f"BLEU_{order}gram"] = bleu(src, out, BleuConfig(max_order=order))
    return {name: float(value) for name, value in row.items()}


_WORDS = st.sampled_from(["the", "cat", "sat", "on", "mat", "dog", "zyzzyva",
                          "Mat", "a", "e"])
_TEXTS = st.lists(st.tuples(_WORDS, st.sampled_from(["", ",", ".", "!"])),
                  max_size=14).map(
    lambda items: " ".join(word + mark for word, mark in items))


@given(st.lists(st.tuples(_TEXTS.filter(lambda t: t.strip()), _TEXTS),
                max_size=6))
@settings(max_examples=40, deadline=None)
def test_every_column_matches_a_per_pair_reference(full_resources, texts):
    pairs = [SentencePair.from_text(src, out, id=str(i))
             for i, (src, out) in enumerate(texts)]
    pairs += [SentencePair.from_text("the cat sat on the mat", "", id="empty"),
              SentencePair.from_text("the cat sat on the mat.",
                                     "The cat sat. It sat on a mat! The dog.",
                                     id="sentences")]
    matrix = compute_matrix(pairs, full_resources)
    assert matrix.feature_names == feature_names()
    expected = [_reference_row(pair, full_resources) for pair in pairs]
    for name in matrix.feature_names:
        assert matrix.column(name).tolist() == [row[name] for row in expected], name


@given(st.lists(st.tuples(_TEXTS.filter(lambda t: t.strip()), _TEXTS),
                min_size=1, max_size=12))
@settings(max_examples=30, deadline=None)
def test_matrix_equals_the_stack_of_its_slices(full_resources, texts):
    pairs = [SentencePair.from_text(src, out, id=str(i))
             for i, (src, out) in enumerate(texts)]
    whole = compute_matrix(pairs, full_resources).rows
    for size in (1, 7, len(pairs)):
        rows = np.vstack([
            compute_matrix(pairs[i:i + size], full_resources).rows
            for i in range(0, len(pairs), size)])
        assert rows.tobytes() == whole.tobytes(), size
