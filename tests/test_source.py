"""Source-level checks on the package itself."""

import ast
from pathlib import Path

import braidforce

PACKAGE = Path(braidforce.__file__).resolve().parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a check that guards a result
    # must raise explicitly
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
