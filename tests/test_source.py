"""Static checks over the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tomopick"


def test_no_assert_statements():
    """`python -O` strips asserts, so invariants must be real checks."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"
