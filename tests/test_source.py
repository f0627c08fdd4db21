"""Source-level checks on the package itself."""

import ast
import re
import types
from pathlib import Path

import braidforce

PACKAGE = Path(braidforce.__file__).resolve().parent
BENCH_WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a check that guards a result
    # must raise explicitly
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []



def _print_calls(node, scope=""):
    """Yield (scope, line) of each print() call; scope is the dotted enclosing function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "print":
            yield scope, child.lineno
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _print_calls(child, f"{scope}.{child.name}" if scope else child.name)
        else:
            yield from _print_calls(child, scope)


def test_only_cli_main_prints():
    # every command returns its output and `cli.main` prints it, so stdout
    # has one writer
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, line in _print_calls(ast.parse(path.read_text(), filename=str(path))):
            if (path.name, scope) != ("cli.py", "main"):
                found.append(f"{path.name}:{line} in {scope or '<module>'}")
    assert found == []


def test_all_is_exactly_the_public_names_bound_in_the_package():
    # an import without an export, or an export without an import, fails
    bound = {
        name
        for name, value in vars(braidforce).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(braidforce.__all__)) == len(braidforce.__all__)
    assert set(braidforce.__all__) == bound


def test_bench_workloads_use_only_exported_names():
    used = set(re.findall(r"\bbf\.(\w+)", BENCH_WORKLOADS.read_text()))
    assert used
    assert used - set(braidforce.__all__) == set()
