"""Every name a module imports is used: the package and its tests carry no dead imports.

`__init__.py` is exempt, because its imports are the package's re-exports.
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
