"""The suite's own pytest configuration, run on a throwaway test file, the
package's imports, the command line's reads and writes, and the package's
reads of the environment (none), read from its source."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE = PYPROJECT.parent / "src" / "crystalpoly"

FAILING_AND_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None)
@given(st.integers(0, 3))
def test_fails(n):
    assert n < 0


def test_passes():
    assert True
'''


def test_a_hypothesis_counterexample_fails_only_its_test(tmp_path):
    # reporting the counterexample imports libcst, whose import-time warning
    # the "error" filter would turn into an INTERNALERROR ending the session
    test_file = tmp_path / "test_throwaway.py"
    test_file.write_text(FAILING_AND_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads: a name counts as read when
    it appears as a name in the code or as an entry of `__all__`."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return [name for name in imported if name not in read]


def test_unused_imports_are_found():
    assert unused_imports("import re\nfrom x import a, b as c\nprint(a)\n") == ["re", "c"]
    assert unused_imports("import os.path\nos.path.join()\n") == []
    assert unused_imports("from x import a\n__all__ = ['a']\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_package_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def boundary_faults(source: str) -> list[tuple[int, str]]:
    """Where a module reads an option with Python's `int` (`type=int`), or
    prints anywhere but stderr (a `print` call without `file=sys.stderr`)."""
    faults = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        keywords = {kw.arg: ast.unparse(kw.value) for kw in node.keywords}
        if keywords.get("type") == "int":
            faults.append((node.lineno, "type=int"))
        if (isinstance(node.func, ast.Name) and node.func.id == "print"
                and keywords.get("file") != "sys.stderr"):
            faults.append((node.lineno, "print"))
    return sorted(faults)


def test_boundary_faults_are_found():
    source = ('p.add_argument("--n", type=int, default=1)\nprint("x")\n'
              'print("y", file=sys.stderr)\nprint("z", file=out)\n'
              'p.add_argument("--m", type=_int)\n')
    assert boundary_faults(source) == [(1, "type=int"), (2, "print"), (4, "print")]


def test_the_cli_reads_no_option_with_int_and_prints_only_to_stderr():
    assert boundary_faults((PACKAGE / "cli.py").read_text()) == []


ENVIRONMENT = {"environ", "environb", "getenv"}


def environment_reads(source: str) -> list[tuple[int, str]]:
    """Where a module reads the environment: `os.environ`, `os.environb` or
    `os.getenv`, as an attribute of `os` or imported from it."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            reads.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [(node.lineno, f"os.{alias.name}") for alias in node.names
                      if alias.name in ENVIRONMENT]
    return sorted(reads)


def test_environment_reads_are_found():
    source = ('import os\nx = os.environ.get("A")\nfrom os import getenv, sep\n'
              'os.environb[b"B"]\nos.path.join("a", "b")\nenviron = {}\n')
    assert environment_reads(source) == [(2, "os.environ"), (3, "os.getenv"), (4, "os.environb")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_the_package_reads_no_environment_variable(path):
    # what a run does follows from its command line and files alone
    assert environment_reads(path.read_text()) == []
