"""Source hygiene of the package, checked with the standard library alone:
every name a module imports is referenced somewhere in that module, every
import sits at module level, and the package promises only what it ships."""

import ast
from pathlib import Path

import pytest

import collatzlab

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "collatzlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scan_finds_an_unused_import():
    source = "from math import gcd, lcm\nimport numpy as np\nprint(lcm(np.e, 2))\n"
    assert unused_imports(source) == ["gcd (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def nested_imports(source: str) -> list[str]:
    """Imports inside a function or class body."""
    tree = ast.parse(source)
    found = []
    for scope in ast.walk(tree):
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for node in ast.walk(scope):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"{scope.name} (line {node.lineno})")
    return found


def test_scan_finds_a_nested_import():
    source = ("import math\n\ndef f(x):\n    if x:\n        from math import gcd\n"
              "        return gcd(x, 6)\n    return math.e\n")
    assert nested_imports(source) == ["f (line 5)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_nested_imports(path):
    assert nested_imports(path.read_text()) == []


def test_package_data_globs_match_shipped_files():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    globs = config["tool"]["setuptools"]["package-data"]["collatzlab"]
    assert globs
    assert [g for g in globs if not any(SRC.glob(g))] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_docstring_names_every_module(path):
    assert f"({path.stem})" in collatzlab.__doc__
