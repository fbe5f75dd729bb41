"""Ingestion, validation and label handling for QATS-format datasets.

The canonical format is a UTF-8 TSV with header
``original<TAB>simplified[<TAB>G<TAB>M<TAB>S<TAB>Overall]`` and an
optional leading ``id`` column; a converter for the raw distribution
(paired sentence files plus per-dimension label files) is also provided.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataFormatError, read_input
from .features import SentencePair
from .textproc import tokenize

__all__ = [
    "LABELS",
    "DIMENSIONS",
    "QatsRecord",
    "Dataset",
    "parse_label",
    "normalize_dimension",
    "load_dataset",
    "serialize_dataset",
    "load_raw_pairs",
    "label_distribution",
    "encode_labels",
    "decode_labels",
    "to_pairs",
]

LABELS = ("Bad", "OK", "Good")
_LABEL_VALUE = {"bad": 0.0, "ok": 1.0, "good": 2.0}
_CANONICAL = {"bad": "Bad", "ok": "OK", "good": "Good"}

DIMENSIONS = ("G", "M", "S", "Overall")
_DIMENSION_ALIASES = {
    "g": "G", "m": "M", "s": "S", "overall": "Overall", "o": "Overall",
    "grammaticality": "G", "meaning": "M", "simplicity": "S",
}


def parse_label(value: str, where: str = "") -> str:
    """Parse a Good/OK/Bad label, case-insensitively."""
    canonical = _CANONICAL.get(value.strip().lower())
    if canonical is None:
        suffix = f" at {where}" if where else ""
        raise DataFormatError(
            f"invalid label {value!r}{suffix}: expected Good, OK or Bad"
        )
    return canonical


def normalize_dimension(value: str) -> str:
    dim = _DIMENSION_ALIASES.get(value.strip().lower())
    if dim is None:
        raise DataFormatError(
            f"unknown dimension {value!r}: expected one of {DIMENSIONS}"
        )
    return dim


@dataclass(frozen=True)
class QatsRecord:
    """One source/output pair, optionally labeled on all four dimensions."""

    id: str
    source_text: str
    output_text: str
    labels: dict[str, str] | None = None  # dimension -> Good/OK/Bad


@dataclass(frozen=True)
class Dataset:
    records: tuple[QatsRecord, ...]
    split_tag: str = "unlabeled"

    def __post_init__(self):
        ids = [r.id for r in self.records]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise DataFormatError(f"duplicate record ids: {dupes}")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def is_labeled(self) -> bool:
        return bool(self.records) and self.records[0].labels is not None


def load_dataset(path: str | Path, split_tag: str = "unlabeled") -> Dataset:
    """Load a dataset from the canonical TSV format.

    Label columns must be either all present or all absent. Rows are kept
    in file order; ids default to the 1-based row number when the file
    has no id column.
    """
    path = Path(path)
    lines = read_input(path, "dataset").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DataFormatError(f"dataset {path} is empty")

    header = [c.strip("\r") for c in lines[0].split("\t")]
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
        parts = [c.strip("\r") for c in line.split("\t")]
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


def serialize_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write the canonical TSV (LF line endings, no id column).

    Texts containing literal tabs cannot be represented and are rejected,
    which keeps load/serialize round trips bit-exact.
    """
    labeled = dataset.is_labeled
    header = ["original", "simplified"]
    if labeled:
        header += list(DIMENSIONS)
    lines = ["\t".join(header)]
    for record in dataset.records:
        for text in (record.source_text, record.output_text):
            if "\t" in text or "\n" in text:
                raise DataFormatError(
                    f"record {record.id}: text contains a tab or newline "
                    "and cannot be serialized to TSV"
                )
        row = [record.source_text, record.output_text]
        if labeled:
            if record.labels is None:
                raise DataFormatError(
                    f"record {record.id} lacks labels in a labeled dataset"
                )
            row += [record.labels[d] for d in DIMENSIONS]
        lines.append("\t".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_raw_pairs(source_file: str | Path, output_file: str | Path,
                   label_files: Mapping[str, str | Path] | None = None,
                   split_tag: str = "unlabeled") -> Dataset:
    """Build a dataset from the raw distribution layout: one sentence per
    line in paired source/output files, plus optional per-dimension label
    files (one label per line, all four dimensions required)."""
    sources = read_input(source_file, "source file").splitlines()
    outputs = read_input(output_file, "output file").splitlines()
    if len(sources) != len(outputs):
        raise DataFormatError(
            f"{source_file} has {len(sources)} lines but {output_file} "
            f"has {len(outputs)}"
        )
    labels_per_dim: dict[str, list[str]] = {}
    if label_files:
        normalized = {normalize_dimension(d): p for d, p in label_files.items()}
        missing = set(DIMENSIONS) - set(normalized)
        if missing:
            raise DataFormatError(
                f"label files missing for dimensions {sorted(missing)}"
            )
        for dim, lpath in normalized.items():
            values = read_input(lpath, "label file").splitlines()
            if len(values) != len(sources):
                raise DataFormatError(
                    f"{lpath} has {len(values)} labels for "
                    f"{len(sources)} sentence pairs"
                )
            labels_per_dim[dim] = [
                parse_label(v, f"{lpath}:{i + 1}")
                for i, v in enumerate(values)
            ]
    records = []
    for i, (src, out) in enumerate(zip(sources, outputs)):
        if not src.strip():
            raise DataFormatError(f"{source_file}:{i + 1}: empty source")
        labels = None
        if labels_per_dim:
            labels = {d: labels_per_dim[d][i] for d in DIMENSIONS}
        records.append(QatsRecord(id=str(i + 1), source_text=src,
                                  output_text=out, labels=labels))
    return Dataset(records=tuple(records), split_tag=split_tag)


def label_distribution(dataset: Dataset, dimension: str) -> dict[str, int]:
    """Counts of Good/OK/Bad for one dimension; always includes all three."""
    if not dataset.is_labeled:
        raise DataFormatError("dataset carries no labels")
    dim = normalize_dimension(dimension)
    counts = Counter(r.labels[dim] for r in dataset.records)
    return {label: counts.get(label, 0) for label in LABELS}


def encode_labels(dataset: Dataset, dimension: str) -> np.ndarray:
    """Labels as ordinal reals: Bad -> 0, OK -> 1, Good -> 2."""
    if not dataset.is_labeled:
        raise DataFormatError("dataset carries no labels")
    dim = normalize_dimension(dimension)
    return np.array(
        [_LABEL_VALUE[r.labels[dim].lower()] for r in dataset.records],
        dtype=float,
    )


def decode_labels(values: Sequence[int]) -> list[str]:
    """Inverse of encode_labels for integer class indices."""
    return [LABELS[int(v)] for v in values]


def to_pairs(dataset: Dataset) -> list[SentencePair]:
    """Tokenize every record into a SentencePair, preserving order."""
    return [
        SentencePair(source=tokenize(r.source_text),
                     output=tokenize(r.output_text), id=r.id)
        for r in dataset.records
    ]
