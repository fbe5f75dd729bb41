"""The package's public names: every name a module lists in ``__all__``
and every name ``tseval/__init__.py`` imports resolves, so deleting a
function cannot leave a dangling export behind. No module splits a file
into lines by a rule of its own, none imports a name it never uses, and
the features do not lowercase the words they look up."""

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


def test_the_features_look_words_up_as_they_are():
    # tokenize and the resource loaders lowercase every word where text
    # enters, so the features never lowercase a word a second time
    text = Path(tseval.__file__).with_name("features.py").read_text(
        encoding="utf-8")
    assert ".lower(" not in text and "str.lower" not in text


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads: neither as a name in its
    code nor as an entry of its __all__."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # "import a.b" binds "a"
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("module_name", MODULES)
def test_no_module_imports_a_name_it_never_uses(module_name):
    # MODULES leaves out __init__.py, which imports names to re-export them
    path = Path(tseval.__file__).with_name(f"{module_name}.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _unused_imports(tree) == [], module_name


@pytest.mark.parametrize("source, unused", [
    ("import heapq\n", ["heapq"]),
    ("from dataclasses import dataclass, field\n@dataclass\nclass A: pass\n",
     ["field"]),
    ("import os.path as p\nimport numpy as np\nnp.zeros(p.sep)\n", []),
    ("from __future__ import annotations\nfrom x import y\n"
     "__all__ = ['y']\n", []),
])
def test_unused_import_check_sees_the_bound_name(source, unused):
    assert _unused_imports(ast.parse(source)) == unused
