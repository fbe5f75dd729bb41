"""The package's public names: every name a module lists in ``__all__``
and every name ``tseval/__init__.py`` imports resolves, so deleting a
function cannot leave a dangling export behind. No module splits a file
into lines by a rule of its own."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tseval

MODULES = sorted(m.name for m in pkgutil.iter_modules(tseval.__path__))


def test_the_package_has_its_modules():
    assert {"mtmetrics", "qemodel", "resources", "stats"} <= set(MODULES)


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(f"tseval.{module_name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), module_name
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, (module_name, missing)


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(tseval.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1 and node.module in MODULES, node.module
        module = importlib.import_module(f"tseval.{node.module}")
        for alias in node.names:
            assert getattr(tseval, alias.asname or alias.name) is getattr(
                module, alias.name), (node.module, alias.name)


def test_every_line_split_goes_through_read_lines():
    # str.splitlines() also breaks at U+2028, "\x85", "\f", ...; every
    # input file's lines end at "\n" alone, by errors.split_lines
    package = Path(tseval.__file__).parent
    assert [path.name for path in sorted(package.glob("*.py"))
            if "splitlines(" in path.read_text(encoding="utf-8")] == []
