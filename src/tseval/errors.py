"""Exception types shared across the package, the one reader of input
files and its line rule, the one check of the numbers read from them, and
the one rule for adding floats that reach an artifact."""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Iterable, Sequence
from functools import reduce
from pathlib import Path

import numpy as np


class TsevalError(Exception):
    """Base class for all errors raised deliberately by this package."""


class DataFormatError(TsevalError):
    """A dataset or resource file violates its documented format."""


class ResourceMissingError(TsevalError):
    """A requested feature needs a resource that was not loaded."""

    def __init__(self, feature: str, resource: str):
        super().__init__(
            f"feature {feature!r} requires the {resource!r} resource, "
            f"which is not loaded"
        )


class DegenerateDataError(TsevalError):
    """Input data is too degenerate for the requested computation
    (zero variance, a single class, a singular system, ...)."""


def read_input(path: str | Path, what: str) -> str:
    """The text of an input file: UTF-8 with an optional leading BOM.

    A file that cannot be read or decoded raises DataFormatError naming
    the file as `what` (e.g. "dataset"); a bad byte is reported with the
    line it is on.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataFormatError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is the decoded buffer (after any BOM), exc.start indexes it
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(
            f"{path}:{line}: {what} is not valid UTF-8 "
            f"(byte 0x{exc.object[exc.start]:02x})"
        ) from None


def split_lines(text: str) -> list[str]:
    """The lines of `text`: each ends at "\n" alone and loses one "\r"
    before it, and a final "\n" starts no empty line. Any other line
    boundary (U+2028, "\x85", "\f", a lone "\r", ...) stays in its line."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line.removesuffix("\r") for line in lines]


def read_lines(path: str | Path, what: str) -> list[str]:
    """read_input's text of an input file, split by split_lines."""
    return split_lines(read_input(path, what))


def sum_left(values: Iterable[float]) -> float:
    """The floats `values` added left to right, starting from 0.0: what
    sum() gives on Python 3.10 and 3.11. From 3.12 on, sum() compensates
    rounding, so a float sum that reaches an artifact goes through here
    to write the same bytes on every Python."""
    return reduce(operator.add, values, 0.0)


def parse_row(fields: Sequence[str], width: int, path: str | Path,
              line: int, what: str) -> list[float]:
    """The fields of one input line as exactly `width` finite floats, or
    DataFormatError at `path:line` naming the first defect in this order:
    a field that is not a number, a value that is not finite, the count."""
    try:
        values = [float(x) for x in fields]
    except ValueError:
        raise DataFormatError(f"{path}:{line}: non-numeric {what}") from None
    if not all(map(math.isfinite, values)):
        raise DataFormatError(f"{path}:{line}: non-finite {what}")
    if len(values) != width:
        raise DataFormatError(
            f"{path}:{line}: expected {width} values, found {len(values)}")
    return values


# numpy's reader strips these around a number and float() does not
_STRIPPED_BY_NUMPY_ONLY = re.compile("[\x1c-\x1f]")


def parse_rows(texts: Sequence[str | None], width: int, path: str | Path,
               linenos: Sequence[int], what: str,
               delimiter: str | None = None) -> np.ndarray:
    """The lines `texts` as an (n, width) float64 array, with the values
    and the errors of parse_row on each line in turn.

    Each text holds the values of the line numbered by the matching item
    of `linenos`, separated by `delimiter` (runs of whitespace when None),
    or is None for a line with no values. numpy's reader parses them in
    one call; any line it rejects, skips or reads as non-finite sends all
    of them through parse_row, which names the first defect.
    """
    if not texts:
        return np.empty((0, width))
    # loadtxt skips a blank line, and warns when all of them are
    if all(texts) and not all(map(str.isspace, texts)) and (
            delimiter is None
            or not any(map(_STRIPPED_BY_NUMPY_ONLY.search, texts))):
        try:
            rows = np.loadtxt(texts, dtype=float, comments=None, ndmin=2,
                              delimiter=delimiter)
        except ValueError:
            pass
        else:
            if rows.shape == (len(texts), width) and np.isfinite(rows).all():
                return rows
    return np.array([
        parse_row(text.split(delimiter) if text is not None else [],
                  width, path, lineno, what)
        for text, lineno in zip(texts, linenos)], dtype=float)
