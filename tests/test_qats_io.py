"""Dataset loading, validation and label handling."""

import numpy as np
import pytest

from tseval.errors import DataFormatError
from tseval.qats_io import (
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
