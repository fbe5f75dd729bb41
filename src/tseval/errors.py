"""Exception types shared across the package, the one reader of input
files and the one check of a line of numbers read from them."""

from __future__ import annotations

import math
from collections.abc import Sequence
from pathlib import Path


class TsevalError(Exception):
    """Base class for all errors raised deliberately by this package."""


class DataFormatError(TsevalError):
    """A dataset or resource file violates its documented format."""


class ResourceMissingError(TsevalError):
    """A requested feature needs a resource that was not loaded."""

    def __init__(self, feature: str, resource: str):
        self.feature = feature
        self.resource = resource
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
