"""Every name a module imports is used, and every local a package function assigns is read.

The package and its tests carry no dead imports; `__init__.py` is exempt,
because its imports are the package's re-exports.  The package's functions
carry no dead locals; `_` is exempt.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src/simplexconn", "tests")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)
PACKAGE = [path for path in MODULES if path.parent.name == "simplexconn"]


def unused_imports(path):
    """(line, name) for each name bound by an import and never read in the module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_finds_an_unused_import(tmp_path):
    assert {"closed_forms.py", "test_imports.py"} <= {path.name for path in MODULES}
    path = tmp_path / "sample.py"
    path.write_text("import os\nimport os.path as osp\nfrom math import comb, pi\n\nprint(comb(4, 2), osp)\n")
    assert unused_imports(path) == [(1, "os"), (3, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def unused_locals(path):
    """(line, name) for each local a function assigns and never reads, nested functions included."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = [node for node in ast.walk(func) if isinstance(node, ast.Name)]
        read = {node.id for node in names if not isinstance(node.ctx, ast.Store)}
        found |= {(node.lineno, node.id) for node in names
                  if isinstance(node.ctx, ast.Store) and node.id != "_" and node.id not in read}
    return sorted(found)


def test_the_scan_finds_an_unused_local(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def f(xs):\n"
        "    parity, coeffs = divmod(len(xs), 2)\n"
        "    total = 0\n"
        "    for _ in xs:\n"
        "        total += coeffs\n"
        "    def g():\n"
        "        return total\n"
        "    unread = g()\n"
        "    return [y for y in xs]\n"
    )
    assert unused_locals(path) == [(2, "parity"), (8, "unread")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_locals(path):
    assert unused_locals(path) == []
