"""The one reader of input files, and a guard that it stays the only one."""

import ast
from pathlib import Path

import pytest

import tseval
from tseval.errors import DataFormatError, read_input

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
