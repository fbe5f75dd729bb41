"""The one reader of input files, a guard that it stays the only one, and
the one check of a line of numbers."""

import ast
from pathlib import Path

import pytest

import tseval
from tseval.errors import DataFormatError, parse_row, read_input

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
