"""Ingestion, validation and label handling for QATS-format datasets.

The canonical format is a UTF-8 TSV with header
``original<TAB>simplified[<TAB>G<TAB>M<TAB>S<TAB>Overall]`` and an
optional leading ``id`` column.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataFormatError, read_lines
from .features import SentencePair

__all__ = [
    "LABELS",
    "DIMENSIONS",
    "QatsRecord",
    "Dataset",
    "parse_label",
    "normalize_dimension",
    "load_dataset",
    "label_distribution",
    "encode_labels",
    "decode_labels",
    "to_pairs",
]

LABELS = ("Bad", "OK", "Good")  # encode_labels maps each to its index
_LABEL_VALUE = {label.lower(): float(i) for i, label in enumerate(LABELS)}
_CANONICAL = {label.lower(): label for label in LABELS}

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
        counts = Counter(r.id for r in self.records)
        if len(counts) != len(self.records):
            dupes = sorted(i for i, c in counts.items() if c > 1)
            raise DataFormatError(f"duplicate record ids: {dupes}")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def is_labeled(self) -> bool:
        return bool(self.records) and self.records[0].labels is not None


def load_dataset(path: str | Path, split_tag: str = "unlabeled") -> Dataset:
    """Load a dataset from the canonical TSV format.

    Label columns must be either all present or all absent, and the
    header must be followed by at least one record. Rows are kept in file
    order; ids default to the 1-based row number when the file has no id
    column.
    """
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

    if len(lines) == 1:
        raise DataFormatError(f"dataset {path} contains no records")

    known: dict[str, str] = {}  # label spelling -> canonical label
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != len(header):
            raise DataFormatError(
                f"{path}:{lineno}: expected {len(header)} columns, "
                f"found {len(parts)}"
            )
        if has_id:
            rid, source, output, *cells = parts
        else:
            source, output, *cells = parts
            rid = str(lineno - 1)
        if not source.strip():
            raise DataFormatError(f"{path}:{lineno}: empty source sentence")
        labels = None
        if labeled:
            try:
                labels = dict(zip(DIMENSIONS, map(known.__getitem__, cells)))
            except KeyError:  # a new spelling: parse_label checks it once
                for dim, cell in zip(DIMENSIONS, cells):
                    if cell not in known:
                        known[cell] = parse_label(
                            cell, f"{path}:{lineno} column {dim}")
                labels = dict(zip(DIMENSIONS, map(known.__getitem__, cells)))
        records.append(QatsRecord(rid, source, output, labels))
    return Dataset(records=tuple(records), split_tag=split_tag)


def _labels(dataset: Dataset, dimension: str) -> list[str]:
    """The labels of one dimension, in record order."""
    if not dataset.is_labeled:
        raise DataFormatError("dataset carries no labels")
    dim = normalize_dimension(dimension)
    return [r.labels[dim] for r in dataset.records]


def label_distribution(dataset: Dataset, dimension: str) -> dict[str, int]:
    """Counts of Good/OK/Bad for one dimension; always includes all three."""
    counts = Counter(_labels(dataset, dimension))
    return {label: counts[label] for label in LABELS}


def encode_labels(dataset: Dataset, dimension: str) -> np.ndarray:
    """Labels as ordinal reals: Bad -> 0, OK -> 1, Good -> 2."""
    return np.array([_LABEL_VALUE[label.lower()]
                     for label in _labels(dataset, dimension)], dtype=float)


def decode_labels(values: Sequence[int]) -> list[str]:
    """Inverse of encode_labels for integer class indices."""
    return [LABELS[int(v)] for v in values]


def to_pairs(dataset: Dataset) -> list[SentencePair]:
    """Tokenize every record into a SentencePair, preserving order."""
    return [SentencePair.from_text(r.source_text, r.output_text, id=r.id)
            for r in dataset.records]
