"""Source hygiene of the package, checked with the standard library alone:
every name a module imports is referenced somewhere in that module, every
import sits at module level, every public function, class and method is
referenced somewhere in the package, its tests or its benchmark, every
private function, class and module-level assignment is referenced in the
package itself, no module asserts, every name a docstring or comment puts
in backticks is defined in the package, and the package promises only what
it ships."""

import ast
import gc
import importlib.util
import io
import re
import sys
import tokenize
import weakref
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


def referenced_names(source: str) -> set[str]:
    """Every name a source refers to: Name ids other than assignment
    targets, Attribute attrs and the parts of imported names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
    return names


def unreferenced_public_names(source: str, references: set[str]) -> list[str]:
    """Module-level public functions and classes, and public methods of
    module-level classes, whose name is not in references."""
    found = []
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.parse(source).body:
        if not isinstance(node, defs):
            continue
        if not node.name.startswith("_") and node.name not in references:
            found.append(f"{node.name} (line {node.lineno})")
        if isinstance(node, ast.ClassDef):
            found += [f"{node.name}.{m.name} (line {m.lineno})" for m in node.body
                      if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not m.name.startswith("_")
                      and m.name not in references]
    return found


def test_scan_finds_an_unreferenced_public_name():
    module = ("def used(x):\n    return x\n\ndef unused():\n    pass\n\n"
              "class Box:\n    def open(self):\n        pass\n\n"
              "    def shut(self):\n        pass\n\n    def _seal(self):\n        pass\n\n"
              "def _helper():\n    pass\n")
    caller = "from pkg import used\nimport pkg.Box\n\nBox().open(used(1))\n"
    refs = referenced_names(module) | referenced_names(caller)
    assert unreferenced_public_names(module, refs) == ["unused (line 4)", "Box.shut (line 11)"]


REFERENCES = set().union(*(referenced_names(path.read_text())
                           for tree in ("src", "tests", "collatzbench")
                           for path in (ROOT / tree).rglob("*.py")))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_public_names(path):
    assert unreferenced_public_names(path.read_text(), REFERENCES) == []


def unreferenced_private_names(source: str, references: set[str]) -> list[str]:
    """Module-level private functions, classes and assigned names (bar `_`)
    whose name is not in references: with references drawn from the
    package alone, a helper only the tests call, such as an oracle a
    streamed path replaced, or a constant a merge left behind."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.startswith("_") and name != "_" and name not in references]
    return found


def test_scan_finds_an_unreferenced_private_name():
    module = ("def _used(x):\n    return x\n\ndef _oracle():\n    pass\n\n"
              "class _Grid:\n    pass\n\nclass _Box:\n    def _seal(self):\n        pass\n\n"
              "def run():\n    return _used(_Box())\n")
    refs = referenced_names(module)
    assert unreferenced_private_names(module, refs) == ["_oracle (line 4)", "_Grid (line 7)"]


def test_scan_finds_an_unreferenced_private_constant():
    # an assignment is no reference to the name it binds; `_` is skipped
    module = ("_USED = 4\n_LEFT = 4\n_, _ADD, _MUL, _ = range(4)\n_TABLE: dict = {}\n"
              "_STEPS = _USED * 8\n\ndef run():\n    return _STEPS + _MUL + _TABLE[0]\n")
    refs = referenced_names(module)
    assert unreferenced_private_names(module, refs) == ["_LEFT (line 2)", "_ADD (line 3)"]


SRC_REFERENCES = set().union(*(referenced_names(path.read_text())
                               for path in (ROOT / "src").rglob("*.py")))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_unreferenced_in_the_package(path):
    assert unreferenced_private_names(path.read_text(), SRC_REFERENCES) == []


def descent_references(source: str) -> list[str]:
    """The descent entries of `kernel` that a source refers to: outside
    the kernel, every sweep reads its range through `kernel.descend_range`
    alone, so no other module names `descend` or `_descend`."""
    return sorted(referenced_names(source) & {"descend", "_descend"})


def test_scan_finds_a_descent_outside_the_range_reader():
    source = ("from . import kernel\nfrom .kernel import descend\n\n"
              "def sweep(lo, hi, at):\n    d = kernel._descend(hi - lo + 1, at, 9, ())\n"
              "    return descend(d.unresolved, 9), kernel.descend_range(lo, hi, 9)\n")
    assert descent_references(source) == ["_descend", "descend"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "kernel.py"],
                         ids=lambda p: p.name)
def test_only_the_kernel_names_a_descent(path):
    assert descent_references(path.read_text()) == []


def asserts(source: str) -> list[str]:
    """The assert statements of a source: `python -O` strips them, so no
    certificate of the package may rest on one."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_scan_finds_an_assert():
    source = ("def drop(n):\n    assert n > 1, 'n'\n    if n < 2:\n"
              "        raise ValueError('n')\n    return n // 2\n")
    assert asserts(source) == ["line 2"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_asserts(path):
    assert asserts(path.read_text()) == []


DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def defined_names(source: str) -> set[str]:
    """Every name a source defines: its functions, classes and arguments,
    and every assignment, loop or walrus target."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def undefined_docstring_names(source: str, defined: set[str]) -> list[str]:
    """The backticked names, dotted or not, in the docstrings and comments
    of a source that have a part not in defined; other backticked text,
    such as an expression, is no name and is not checked."""
    scopes = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    texts = [(node.body[0].lineno, doc) for node in ast.walk(ast.parse(source))
             if isinstance(node, scopes) and (doc := ast.get_docstring(node, clean=False))]
    texts += [(tok.start[0], tok.string)
              for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type == tokenize.COMMENT]
    return [f"{name} (line {line})" for line, text in texts
            for name in re.findall(r"`([^`]+)`", text)
            if DOTTED_NAME.fullmatch(name) and not set(name.split(".")) <= defined]


def test_scan_finds_a_stale_docstring_name():
    source = ('"""Sweeps through `kernel.descend_range`, by `jumps`."""\n\n'
              "def run(lo, hi):\n"
              '    """`descend_at` of lo..hi; `hi - lo + 1` starts."""\n'
              "    # the rerun of `_descend_steps`, by `run` from `lo`\n"
              "    return lo\n")
    defined = defined_names(source) | {"kernel", "descend_range"}
    assert undefined_docstring_names(source, defined) == [
        "jumps (line 1)", "descend_at (line 4)", "_descend_steps (line 5)"]


PACKAGE_NAMES = {"collatzlab"} | {path.stem for path in SRC.glob("*.py")} | set().union(
    *(defined_names(path.read_text()) for path in SRC.glob("*.py")))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_docstring_names_are_defined(path):
    assert undefined_docstring_names(path.read_text(), PACKAGE_NAMES) == []


MAX_LINE = 100


def long_lines(source: str) -> list[str]:
    return [f"line {i} ({len(line)} chars)" for i, line in enumerate(source.splitlines(), 1)
            if len(line) > MAX_LINE]


def test_scan_finds_a_long_line():
    fits = "x = '" + "z" * (MAX_LINE - 6) + "'"
    over = "y = '" + "z" * (MAX_LINE - 5) + "'"
    assert len(fits) == MAX_LINE
    assert long_lines("\n".join(["z = 1", fits, over, ""])) == [f"line 3 ({MAX_LINE + 1} chars)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_lines_fit_the_width(path):
    assert long_lines(path.read_text()) == []


def test_package_data_globs_match_shipped_files():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    globs = config["tool"]["setuptools"]["package-data"]["collatzlab"]
    assert globs
    assert [g for g in globs if not any(SRC.glob(g))] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_docstring_names_every_module(path):
    assert f"({path.stem})" in collatzlab.__doc__


def test_a_dropped_import_leaves_no_live_class():
    # a fresh import of every module, as a benchmark set-up makes, is
    # collected once its modules are dropped; typing caches Union[...]
    # objects, so a module-level Union alias would keep its classes alive
    package = [name for name in sys.modules if name.split(".")[0] == "collatzlab"]
    saved = {name: sys.modules.pop(name) for name in package}
    try:
        fresh = [importlib.import_module(f"collatzlab.{p.stem}") for p in MODULES]
        assert fresh[0] is not saved.get(fresh[0].__name__)
        old_class = weakref.ref(importlib.import_module("collatzlab.maps").ResidueAffineMap)
        del fresh
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == "collatzlab"]:
            del sys.modules[name]
        sys.modules.update(saved)
    gc.collect()
    assert old_class() is None


def test_code_line_count_skips_docstrings_comments_and_blanks():
    # tools/code_lines.py is the line count that the change log reports
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = ('"""Module\ndocstring."""\n\nimport os  # a code line with a comment\n'
              '# a comment line\n\n\nclass A:\n    """One line."""\n\n'
              '    def f(self):\n        """Two\n        lines."""\n'
              '        s = """a string\n        over two lines"""\n        return s\n')
    # import, class, def, the two lines of s and return
    assert tool.code_lines(source) == 6
