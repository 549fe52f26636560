"""Every name a module imports is used, and every local a package function assigns is read.

The package and its tests carry no dead imports; `__init__.py` is exempt,
because its imports are the package's re-exports.  The package's functions
carry no dead locals; `_` is exempt.  Every private top-level definition of
the package is read somewhere, and every private function by package code.
Every public top-level function and class of the package is read by package
code or named by perfbench, or is one of the paper's formulas that wait for
a verify suite: a definition that only tests read belongs in tests/oracles.py.
Every method of a package class is read by the package or by perfbench,
and the method names that more than one package class defines, which that
scan cannot tell apart, are a list checked by hand.
No package code outside class Permutation applies a permutation to a tuple
by hand: every permuted tuple goes through Permutation.act_params.  No
package module reads the environment, so no setting outside the arguments
changes what the package computes.  The package imports without sympy,
and its __version__ is the version pyproject.toml declares.
"""

import ast
import pathlib
import re
import subprocess
import sys

import pytest

import simplexconn

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


def private_definitions(path):
    """(line, name) for each private function, class or constant a module defines at its top level."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.startswith("_") and not name.startswith("__")]
    return found


def names_read(paths):
    """Every name read as a variable, an attribute or a from-import anywhere in the given files."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return read


def unread_privates(paths, readers):
    """(file name, line, name) for each private top-level definition in paths that no reader reads."""
    read = names_read(readers)
    return [(path.name, line, name) for path in paths
            for line, name in private_definitions(path) if name not in read]


def test_the_scan_finds_an_unread_private(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "_USED = 1\n"
        "_LEFT = 2\n"
        "def _helper():\n"
        "    return _USED\n"
        "def _orphan():\n"
        "    return 0\n"
        "class _Kept:\n"
        "    pass\n"
        "def __getattr__(name):\n"
        "    return _helper()\n"
    )
    user = tmp_path / "user.py"
    user.write_text("import sample\nprint(sample._Kept)\n")
    assert unread_privates([path], [path, user]) == [("sample.py", 2, "_LEFT"), ("sample.py", 5, "_orphan")]


def test_no_unread_private_definitions():
    package = sorted((ROOT / "src/simplexconn").glob("*.py"))
    readers = package + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    assert unread_privates(package, readers) == []


def test_every_private_function_is_read_by_the_package():
    # a private helper that only tests or perfbench still read is a leftover copy of package code
    package = sorted((ROOT / "src/simplexconn").glob("*.py"))
    functions = {node.name for path in package for node in ast.parse(path.read_text()).body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert [entry for entry in unread_privates(package, package) if entry[2] in functions] == []


def public_definitions(path):
    """(line, name) for each public function or class a module defines at its top level."""
    return [(node.lineno, node.name) for node in ast.parse(path.read_text(), filename=str(path)).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def only_tested_publics(paths, package, perfbench, listed=()):
    """(file name, line, name) for each public definition in paths, outside listed, that package code never reads.

    A name counts as read when a package file reads it or a perfbench file names it, as a variable, an
    attribute, a from-import or part of a dotted string.
    """
    read = names_read(package) | names_read(perfbench) | attributes_read(perfbench)
    return [(path.name, line, name) for path in paths for line, name in public_definitions(path)
            if name not in read and name not in listed]


def stale_entries(listed, package, tests):
    """The names of listed that package code reads, or that no test reads."""
    package_read, tests_read = names_read(package), names_read(tests)
    return sorted(name for name in listed if name in package_read or name not in tests_read)


# the paper's formulas that tests check and no package code reads yet: each waits for a verify suite
PAPER_FORMULAS = ("cc_coset_hat", "cc_3d_hat13_terms", "dual2_map", "duality_normalizer", "hahn_from_generating",
                  "hahn_kraw_scaled", "hahn_norm_B", "verify_disk_polar")


def test_the_scan_finds_a_definition_that_only_tests_read(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "def used():\n"
        "    return 1\n"
        "def benched():\n"
        "    return 2\n"
        "def traced():\n"
        "    return 3\n"
        "def oracle():\n"
        "    return 4\n"
        "class Formula:\n"
        "    pass\n"
    )
    init = tmp_path / "__init__.py"
    init.write_text("from .sample import used\n")
    bench = tmp_path / "bench.py"
    bench.write_text("import sample\nsample.benched()\nSPANS = [('sample', 'traced', 'sample.traced')]\n")
    tests = tmp_path / "test_sample.py"
    tests.write_text("from sample import Formula, oracle\nprint(Formula, oracle())\n")
    package = [init, module]
    assert only_tested_publics([module], package, [bench]) == [("sample.py", 7, "oracle"), ("sample.py", 9, "Formula")]
    assert only_tested_publics([module], package, [bench], ("Formula",)) == [("sample.py", 7, "oracle")]
    assert stale_entries(("Formula", "used", "untested"), package, [tests]) == ["untested", "used"]


def test_src_holds_no_definition_that_only_tests_read():
    package = sorted((ROOT / "src/simplexconn").glob("*.py"))
    assert only_tested_publics(package, package, sorted((ROOT / "perfbench").glob("*.py")), PAPER_FORMULAS) == []


def test_every_paper_formula_is_tested_and_unread_by_the_package():
    # a formula that package code reads has its caller and leaves the list; one that no test reads is unchecked
    package = sorted((ROOT / "src/simplexconn").glob("*.py"))
    assert stale_entries(PAPER_FORMULAS, package, sorted((ROOT / "tests").glob("*.py"))) == []


DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")
# methods that only a library calls: argparse reports a usage error through ArgumentParser.error
CALLED_BY_LIBRARIES = {"_Parser.error"}


def attributes_read(paths):
    """Every attribute name read in the given files, and every part of a dotted name held in a string constant."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and DOTTED.fullmatch(node.value):
                read |= set(node.value.split("."))
    return read


def methods(paths):
    """(class name, method name) for each non-dunder method that a class in paths defines."""
    return [(cls.name, node.name) for path in paths for cls in ast.walk(ast.parse(path.read_text()))
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def unread_methods(paths, readers, allowed=CALLED_BY_LIBRARIES):
    """Class.method for each non-dunder method defined in paths whose name no reader reads as an attribute.

    The scan matches method names, not classes: a method whose name is also
    that of a method read on another class, such as is_zero or degree, is
    taken as read (test_method_names_shared_by_classes_are_checked_by_hand).
    """
    read = attributes_read(readers)
    return sorted(f"{cls}.{name}" for cls, name in methods(paths)
                  if name not in read and f"{cls}.{name}" not in allowed)


def test_the_scan_finds_an_unread_method(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "class Poly:\n"
        "    def __mul__(self, other):\n"
        "        return self.scale(2)\n"
        "    def scale(self, c):\n"
        "        self.unused = c\n"
        "        return self\n"
        "    def traced(self):\n"
        "        return 0\n"
        "    def unused(self):\n"
        "        return 1\n"
        "    def called_by_a_library(self):\n"
        "        return 2\n"
        "SPANS = [('sample', 'Poly.traced'), 'no.dotted name here']\n"
    )
    assert unread_methods([path], [path]) == ["Poly.called_by_a_library", "Poly.unused"]
    assert unread_methods([path], [path], {"Poly.called_by_a_library"}) == ["Poly.unused"]


def test_every_method_is_read_by_the_package_or_perfbench():
    package = sorted((ROOT / "src/simplexconn").glob("*.py"))
    assert unread_methods(package, package + sorted((ROOT / "perfbench").glob("*.py"))) == []


def test_method_names_shared_by_classes_are_checked_by_hand():
    # the name scan takes such a method as read when the same name is read on
    # another class; each one below has been seen read on every class listed.
    # A new shared name gets the same look by hand before it joins the list.
    classes = {}
    for cls, name in methods(sorted((ROOT / "src/simplexconn").glob("*.py"))):
        classes.setdefault(name, set()).add(cls)
    assert {name: sorted(owners) for name, owners in classes.items() if len(owners) > 1} == {
        "scale": ["QSqrt", "SparsePoly"],
        "to_json": ["ConnMatrix", "QSqrt", "SparsePoly"],
    }


def hand_written_actions(path):
    """(line, text) for each subscript x[f(...) - 1] outside class Permutation: a permutation applied by hand."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    inside = {id(node) for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "Permutation"
              for node in ast.walk(cls)}
    return [(node.lineno, ast.get_source_segment(source, node)) for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and id(node) not in inside
            and isinstance(node.slice, ast.BinOp) and isinstance(node.slice.op, ast.Sub)
            and isinstance(node.slice.left, ast.Call)
            and isinstance(node.slice.right, ast.Constant) and node.slice.right.value == 1]


def test_the_scan_finds_a_hand_written_action(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "class Permutation:\n"
        "    def act(self, x):\n"
        "        return [x[self(i) - 1] for i in range(1, 3)]\n"
        "def permute(tau, x):\n"
        "    out = [0] * len(x)\n"
        "    for i in range(len(x)):\n"
        "        out[tau(i + 1) - 1] = x[i - 1]\n"
        "    return out, x[len(x) - 2], tau.act(x)\n"
    )
    assert hand_written_actions(path) == [(7, "out[tau(i + 1) - 1]")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_permuted_tuple_goes_through_act_params(path):
    assert hand_written_actions(path) == []


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(path):
    """(line, text) for each read of the environment: os.environ, os.getenv, or either imported from os."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    found = [(node.lineno, ast.get_source_segment(source, node)) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT]
    found += [(node.lineno, f"from os import {alias.name}") for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "os"
              for alias in node.names if alias.name in ENVIRONMENT]
    return sorted(found)


def test_the_scan_finds_an_environment_read(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import os\n"
        "from os import getenv\n"
        "choice = os.environ.get('CHOICE', '')\n"
        "home = os.getenv('HOME') or getenv('USER')\n"
        "print(os.path.join(choice, home), os.sep)\n"
    )
    assert environment_reads(path) == [(2, "from os import getenv"), (3, "os.environ"), (4, "os.getenv")]


@pytest.mark.parametrize("path", sorted((ROOT / "src/simplexconn").glob("*.py")),
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_no_package_module_reads_the_environment(path):
    assert environment_reads(path) == []


def test_version_is_the_one_pyproject_declares():
    # pyproject is read with a pattern: tomllib needs Python 3.11 and the package supports 3.10
    declared = re.search(r'^version = "([^"]+)"$', (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    assert declared is not None
    assert simplexconn.__version__ == declared.group(1)


def test_import_without_sympy():
    code = 'import sys; sys.modules["sympy"] = None; import simplexconn'
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
