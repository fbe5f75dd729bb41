"""Dataset loading, validation and label handling."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tseval.errors import DataFormatError, read_lines
from tseval.qats_io import (
    DIMENSIONS,
    Dataset,
    QatsRecord,
    decode_labels,
    encode_labels,
    label_distribution,
    load_dataset,
    normalize_dimension,
    parse_label,
    to_pairs,
)


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return path


LABELED = (
    "original\tsimplified\tG\tM\tS\tOverall\n"
    "The cat sat on the mat.\tThe cat sat.\tgood\tok\tGood\tok\n"
    "A big dog ran.\tA dog ran.\tOK\tgood\tbad\tGOOD\n"
)
UNLABELED = (
    "original\tsimplified\n"
    "The cat sat on the mat.\tThe cat sat.\n"
)


class TestParseHelpers:
    def test_labels_case_insensitive(self):
        assert parse_label("good") == "Good"
        assert parse_label("OK") == "OK"
        assert parse_label(" Bad ") == "Bad"

    def test_bad_label_rejected(self):
        with pytest.raises(DataFormatError, match="excellent"):
            parse_label("excellent")

    def test_dimension_aliases(self):
        assert normalize_dimension("g") == "G"
        assert normalize_dimension("overall") == "Overall"
        assert normalize_dimension("Meaning") == "M"
        with pytest.raises(DataFormatError):
            normalize_dimension("quality")


def reference_load(path, split_tag="unlabeled"):
    """A dict per row, as load_dataset once read them; its reference."""
    path = Path(path)
    lines = read_lines(path, "dataset")
    if not lines:
        raise DataFormatError(f"dataset {path} is empty")
    header = lines[0].split("\t")
    has_id = header and header[0] == "id"
    expected = (["id"] if has_id else []) + ["original", "simplified"]
    labeled = len(header) > len(expected)
    if labeled:
        expected += list(DIMENSIONS)
    if header != expected:
        raise DataFormatError(
            f"{path}: bad header {header}; expected "
            "[id\\t]original\\tsimplified[\\tG\\tM\\tS\\tOverall]"
        )
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != len(header):
            raise DataFormatError(
                f"{path}:{lineno}: expected {len(header)} columns, "
                f"found {len(parts)}"
            )
        fields = dict(zip(header, parts))
        rid = fields["id"] if has_id else str(lineno - 1)
        source = fields["original"]
        output = fields["simplified"]
        if not source.strip():
            raise DataFormatError(f"{path}:{lineno}: empty source sentence")
        labels = None
        if labeled:
            labels = {
                dim: parse_label(fields[dim], f"{path}:{lineno} column {dim}")
                for dim in DIMENSIONS
            }
        records.append(QatsRecord(id=rid, source_text=source,
                                  output_text=output, labels=labels))
    return Dataset(records=tuple(records), split_tag=split_tag)


_SPELLINGS = st.sampled_from(
    ["Good", "good", " good ", "OK", "ok", "Ok\r", "BAD", "bad "])
_SENTENCES = st.sampled_from(["The cat sat.", "A dog.", "x\ry", "",
                              "two\u2028lines"])


@st.composite
def _dataset_files(draw):
    """A dataset with or without the id column and the label columns; a
    row may repeat an id, hold a bad label or a blank source, or have a
    column too few or too many."""
    header = ["original", "simplified"]
    if has_id := draw(st.booleans()):
        header.insert(0, "id")
    if labeled := draw(st.booleans()):
        header += DIMENSIONS
    lines = ["\t".join(header)]
    for i in range(draw(st.integers(1, 6))):
        row = [draw(st.sampled_from([f"r{i}", "r0"]))] if has_id else []
        row += [draw(_SENTENCES.filter(bool)), draw(_SENTENCES)]
        if labeled:
            row += [draw(_SPELLINGS) for _ in DIMENSIONS]
        if draw(st.integers(0, 7)) == 0:
            row[draw(st.integers(0, len(row) - 1))] = draw(
                st.sampled_from(["G", "", " ", "excellent"]))
        if draw(st.integers(0, 9)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["extra"]
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


class TestLoadDataset:
    def test_labeled_file(self, tmp_path):
        ds = load_dataset(write(tmp_path, "d.tsv", LABELED), "train")
        assert len(ds) == 2
        assert ds.is_labeled
        assert ds.records[0].labels == {
            "G": "Good", "M": "OK", "S": "Good", "Overall": "OK"}
        assert ds.records[0].id == "1"
        assert ds.split_tag == "train"

    def test_unlabeled_file(self, tmp_path):
        ds = load_dataset(write(tmp_path, "d.tsv", UNLABELED))
        assert len(ds) == 1
        assert not ds.is_labeled

    def test_explicit_ids(self, tmp_path):
        content = ("id\toriginal\tsimplified\n"
                   "p7\tA cat.\tCat.\n"
                   "p9\tA dog.\tDog.\n")
        ds = load_dataset(write(tmp_path, "d.tsv", content))
        assert [r.id for r in ds.records] == ["p7", "p9"]

    def test_duplicate_ids_rejected(self, tmp_path):
        content = ("id\toriginal\tsimplified\n"
                   "p7\tA cat.\tCat.\n"
                   "p7\tA dog.\tDog.\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            load_dataset(write(tmp_path, "d.tsv", content))

    def test_duplicate_ids_listed_once_in_order(self):
        records = [QatsRecord(id=i, source_text="A cat.", output_text="Cat.")
                   for i in ("p7", "p3", "p7", "p1", "p3", "p3")]
        with pytest.raises(DataFormatError) as err:
            Dataset(tuple(records))
        assert str(err.value) == "duplicate record ids: ['p3', 'p7']"

    def test_bad_label_names_row_and_column(self, tmp_path):
        content = ("original\tsimplified\tG\tM\tS\tOverall\n"
                   "A cat.\tCat.\tgood\texcellent\tok\tok\n")
        with pytest.raises(DataFormatError) as err:
            load_dataset(write(tmp_path, "d.tsv", content))
        assert ":2" in str(err.value)
        assert "column M" in str(err.value)

    @pytest.mark.parametrize("header", ["original\tsimplified",
                                        "id\toriginal\tsimplified\tG\tM\tS"
                                        "\tOverall"])
    def test_header_without_records_rejected(self, tmp_path, header):
        path = write(tmp_path, "d.tsv", header + "\n")
        with pytest.raises(DataFormatError) as err:
            load_dataset(path)
        assert str(err.value) == f"dataset {path} contains no records"

    @pytest.mark.parametrize("column", range(4))
    def test_first_bad_label_named_as_the_reference_names_it(
            self, tmp_path, column):
        cells = ["good", "ok", "bad", "Good"][:column] + ["fine"] + [
            "poor"] * (3 - column)
        path = write(tmp_path, "d.tsv", LABELED + "A cat.\tCat.\t"
                     + "\t".join(cells) + "\nA.\t\tno\tno\tno\tno\n")
        with pytest.raises(DataFormatError) as err:
            reference_load(path)
        assert f"{path}:4 column {DIMENSIONS[column]}" in str(err.value)
        with pytest.raises(DataFormatError) as mine:
            load_dataset(path)
        assert str(mine.value) == str(err.value)

    @given(text=_dataset_files())
    @example(text=LABELED)
    @example(text="id\toriginal\tsimplified\tG\tM\tS\tOverall\n"
                  "a\tA cat.\tCat.\t good \tOK\tbad\tGood\n"
                  "b\tA dog.\tDog.\tgood\tok\tbad\tfine\n")
    @example(text="original\tsimplified\tG\tM\tS\tOverall\n"
                  "A cat.\tCat.\tgood\tok\tbad\n")
    @settings(max_examples=300, deadline=None)
    def test_load_equals_the_dict_per_row_reader(self, tmp_path_factory,
                                                  text):
        path = write(tmp_path_factory.mktemp("ds"), "d.tsv", text)
        try:
            expected = reference_load(path, "train")
        except DataFormatError as exc:
            with pytest.raises(DataFormatError) as err:
                load_dataset(path, "train")
            assert str(err.value) == str(exc)
        else:
            assert load_dataset(path, "train") == expected

    def test_partial_label_columns_rejected(self, tmp_path):
        content = "original\tsimplified\tG\nA cat.\tCat.\tgood\n"
        with pytest.raises(DataFormatError, match="header"):
            load_dataset(write(tmp_path, "d.tsv", content))

    def test_missing_required_column(self, tmp_path):
        content = "source\toutput\nA cat.\tCat.\n"
        with pytest.raises(DataFormatError, match="header"):
            load_dataset(write(tmp_path, "d.tsv", content))

    def test_column_count_mismatch_names_row(self, tmp_path):
        content = "original\tsimplified\nA cat.\tCat.\textra\n"
        with pytest.raises(DataFormatError, match=":2"):
            load_dataset(write(tmp_path, "d.tsv", content))

    def test_empty_source_rejected(self, tmp_path):
        content = "original\tsimplified\n \tCat.\n"
        with pytest.raises(DataFormatError, match="empty source"):
            load_dataset(write(tmp_path, "d.tsv", content))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="cannot read"):
            load_dataset(tmp_path / "none.tsv")

    def test_byte_order_mark_tolerated(self, tmp_path):
        path = tmp_path / "bom.tsv"
        path.write_bytes(b"\xef\xbb\xbf" + UNLABELED.encode("utf-8"))
        assert len(load_dataset(path)) == 1

    def test_crlf_line_endings_tolerated(self, tmp_path):
        path = tmp_path / "crlf.tsv"
        path.write_bytes(LABELED.replace("\n", "\r\n").encode("utf-8"))
        crlf = load_dataset(path)
        lf = load_dataset(write(tmp_path, "lf.tsv", LABELED))
        assert crlf.records == lf.records


class TestLabels:
    def _dataset(self, tmp_path):
        return load_dataset(write(tmp_path, "d.tsv", LABELED))

    def test_distribution(self, tmp_path):
        ds = self._dataset(tmp_path)
        assert label_distribution(ds, "G") == {"Bad": 0, "OK": 1, "Good": 1}
        assert label_distribution(ds, "S") == {"Bad": 1, "OK": 0, "Good": 1}

    def test_distribution_sums_to_record_count(self, tmp_path):
        ds = self._dataset(tmp_path)
        for dim in ("G", "M", "S", "Overall"):
            assert sum(label_distribution(ds, dim).values()) == len(ds)

    def test_unlabeled_rejected(self, tmp_path):
        ds = load_dataset(write(tmp_path, "u.tsv", UNLABELED))
        with pytest.raises(DataFormatError, match="labels"):
            label_distribution(ds, "G")
        with pytest.raises(DataFormatError, match="labels"):
            encode_labels(ds, "G")

    def test_encoding(self, tmp_path):
        ds = self._dataset(tmp_path)
        assert encode_labels(ds, "G").tolist() == [2.0, 1.0]
        assert encode_labels(ds, "S").tolist() == [2.0, 0.0]
        assert len(encode_labels(ds, "M")) == len(ds)

    def test_encoding_order_preserving(self):
        values = [0, 1, 2]
        assert decode_labels(values) == ["Bad", "OK", "Good"]

    def test_permutation_alignment(self, tmp_path):
        ds = self._dataset(tmp_path)
        reversed_ds = Dataset(records=ds.records[::-1], split_tag="train")
        assert np.array_equal(encode_labels(reversed_ds, "M"),
                              encode_labels(ds, "M")[::-1])


class TestToPairs:
    def test_pairs_preserve_ids_and_order(self, tmp_path):
        ds = load_dataset(write(tmp_path, "d.tsv", LABELED))
        pairs = to_pairs(ds)
        assert [p.id for p in pairs] == ["1", "2"]
        assert pairs[0].source.words[0] == "the"
