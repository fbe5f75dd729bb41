"""The one reader of input files, a guard that it stays the only one, and
the checks of the lines of numbers read from them."""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tseval
from tseval.errors import (DataFormatError, at_least, parse_row, parse_rows,
                           read_input)

SRC = Path(tseval.__file__).parent


def test_decodes_utf8_and_drops_a_leading_bom(tmp_path):
    path = tmp_path / "x.txt"
    path.write_bytes("\ufeffcafé\n".encode("utf-8"))
    assert read_input(path, "file") == "café\n"


def test_missing_file_names_role_and_path(tmp_path):
    path = tmp_path / "none.txt"
    with pytest.raises(DataFormatError, match=f"cannot read corpus {path}: "):
        read_input(path, "corpus")


@pytest.mark.parametrize("data,line,byte", [
    (b"\xff\n", 1, "0xff"),
    (b"ok\nok\n\x80x\n", 3, "0x80"),
    (b"\xef\xbb\xbfa\r\nb\n\xc3(\n", 3, "0xc3"),
])
def test_bad_byte_reports_its_line(tmp_path, data, line, byte):
    path = tmp_path / "x.txt"
    path.write_bytes(data)
    message = f"{path}:{line}: vector file is not valid UTF-8 (byte {byte})"
    with pytest.raises(DataFormatError) as info:
        read_input(path, "vector file")
    assert str(info.value) == message


@pytest.mark.parametrize("line,defect", [
    ("1 x 2", "non-numeric cell"),
    ("1 nan 2", "non-finite cell"),
    ("-inf 1 2", "non-finite cell"),
    ("1 2 1e999", "non-finite cell"),
    ("1 2", "expected 3 values, found 2"),
    ("1 2 3 4", "expected 3 values, found 4"),
    # two defects: the first in check order is the one reported
    ("1 nan x", "non-numeric cell"),
    ("inf 2", "non-finite cell"),
], ids=["x", "nan", "-inf", "1e999", "short", "long", "nan-and-x",
        "inf-and-short"])
def test_row_check_reports_first_defect_in_order(line, defect):
    with pytest.raises(DataFormatError) as info:
        parse_row(line.split(), 3, "data.txt", 4, "cell")
    assert str(info.value) == f"data.txt:4: {defect}"


def test_row_check_returns_the_floats():
    assert parse_row(["1", "-0.5", "2e3"], 3, "data.txt", 1, "cell") == [
        1.0, -0.5, 2000.0]


_SETTING_TEXTS = ["0", "-0.0", "1", "2", "-1", "0.5", "1e308", "1e999",
                  "-1e999", "nan", "inf", "-inf", "1" + "0" * 400]


@pytest.mark.parametrize("convert", [int, float])
@pytest.mark.parametrize("low", [0, 0.0, 1, 2])
def test_at_least_keeps_the_settings_rule(convert, low):
    # the rule the settings were checked by before it moved here
    for text in _SETTING_TEXTS:
        try:
            value = convert(text)
        except ValueError:
            continue
        if low <= value < math.inf:
            assert at_least(low, convert)(text) == value
        else:
            with pytest.raises(ValueError) as info:
                at_least(low, convert)(text)
            assert str(info.value) == \
                f"must be a finite value >= {low:g}, got {value}"


def test_at_least_minus_inf_takes_any_finite_float():
    check = at_least(-math.inf, float)
    assert [check(t) for t in ("-1e308", "-0.5", "0", "1e308")] == [
        -1e308, -0.5, 0.0, 1e308]
    for text in ("nan", "inf", "-inf", "-1e999"):
        with pytest.raises(ValueError, match="must be a finite value >= -inf"):
            check(text)
    with pytest.raises(ValueError, match="could not convert"):
        check("x")


# numbers that numpy's reader and float() both read the same
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["+1e5", "-0", ".5", "1.", "-1E+2"]),
)
# numbers only float() reads, non-finite ones and non-numbers
_ODD_NUMBER = st.sampled_from(["1_0", "\u0661", "nan", "inf", "-inf", "1e999",
                               "x", "0x1", "1,5", ""])
# whitespace inside a line or a tab-separated field
_SPACE = st.sampled_from([" ", "  ", "\x0b", "\x0c", "\x85", "\xa0",
                          "\u3000"])
_ODD_SPACE = st.sampled_from(["\t", "\x1c", "\x1f", "\u200b"])


@st.composite
def _lines(draw, delimiter):
    """Texts of lines of numbers for parse_rows, and the row width. One
    line in five may have the wrong count, a blank, or a field or space
    that only float() or only numpy's reader accepts."""
    width = draw(st.integers(1, 4))
    texts = []
    for _ in range(draw(st.integers(0, 6))):
        odd = draw(st.integers(0, 4)) == 0
        number = st.one_of(_NUMBER, _ODD_NUMBER) if odd else _NUMBER
        space = st.one_of(_SPACE, _ODD_SPACE) if odd else _SPACE
        if odd and draw(st.booleans()):
            texts.append(draw(st.sampled_from([None, "", " ", "\t"])))
            continue
        count = width + (draw(st.integers(-1, 1)) if odd else 0)
        fields = [draw(space) * draw(st.integers(0, 1)) + draw(number)
                  + draw(space) * draw(st.integers(0, 1))
                  for _ in range(count)]
        if delimiter is None:
            text = "".join(f + draw(st.one_of(space, st.just("\t")))
                           for f in fields)
        else:
            text = delimiter.join(fields)
        texts.append(text if count else None)
    return texts, width


def _reference_rows(texts, width, delimiter):
    """float() of every field, line by line; the first defect's message
    in place of the rows."""
    rows = []
    for lineno, text in enumerate(texts, start=1):
        fields = [] if text is None else text.split(delimiter)
        try:
            values = [float(x) for x in fields]
        except ValueError:
            return f"data.txt:{lineno}: non-numeric cell"
        if not all(map(math.isfinite, values)):
            return f"data.txt:{lineno}: non-finite cell"
        if len(values) != width:
            return f"data.txt:{lineno}: expected {width} values, " \
                f"found {len(values)}"
        rows.append(values)
    return rows


@pytest.mark.parametrize("delimiter", [None, "\t"])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_bulk_rows_equal_float_of_every_field(delimiter, data):
    texts, width = data.draw(_lines(delimiter))
    expected = _reference_rows(texts, width, delimiter)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on blank input
        if isinstance(expected, str):
            with pytest.raises(DataFormatError) as info:
                parse_rows(texts, width, "data.txt",
                           range(1, len(texts) + 1), "cell", delimiter)
            assert str(info.value) == expected
            return
        rows = parse_rows(texts, width, "data.txt", range(1, len(texts) + 1),
                          "cell", delimiter)
    assert rows.dtype == np.float64 and rows.shape == (len(texts), width)
    # bitwise, so -0.0 stays -0.0
    assert rows.tobytes() == np.array(expected, dtype=float).reshape(
        len(texts), width).tobytes()


@pytest.mark.parametrize("texts,delimiter,message", [
    # numpy reads these, as inf and nan
    (["1", "1e999"], None, "non-finite cell"),
    (["1", " nan"], "\t", "non-finite cell"),
    # numpy reads 1.0 from these, or skips a blank line; float() does not
    (["1\x1f"], "\t", "non-numeric cell"),
    (["\x1c1"], "\t", "non-numeric cell"),
    (["1", " "], "\t", "non-numeric cell"),
    (["1", ""], "\t", "non-numeric cell"),
    (["1", None], "\t", "expected 1 values, found 0"),
    (["1", None], None, "expected 1 values, found 0"),
    ([" \t "], None, "expected 1 values, found 0"),
])
def test_bulk_rows_reject_what_float_rejects(texts, delimiter, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError) as info:
            parse_rows(texts, 1, "data.txt", [3, 4], "cell", delimiter)
    assert str(info.value) == f"data.txt:{len(texts) + 2}: {message}"


def test_bulk_rows_of_no_lines():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = parse_rows([], 3, "data.txt", [], "cell")
    assert rows.shape == (0, 3) and rows.dtype == np.float64


def test_no_other_module_reads_files():
    """Every input file goes through errors.read_input, so encoding and
    error reporting are decided in one place."""
    offenders = []
    for module in sorted(SRC.glob("*.py")):
        if module.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if name in ("open", "read_text", "read_bytes"):
                offenders.append(f"{module.name}:{node.lineno}: {name}(")
    assert offenders == []
