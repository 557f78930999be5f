"""Static checks over the package source."""

import ast
import sys
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


THIRD_PARTY = ("numpy", "scipy.ndimage")


def test_package_imports_only_stdlib_numpy_and_scipy_ndimage():
    """Every import costs resident memory in every process, because each
    command imports most of the package through `cli`: `import scipy.spatial`
    alone adds 12 MB, and the toy_chain benchmark's peak-RSS bound is 10% of
    about 69 MB. A change that adds to THIRD_PARTY states the import's RSS cost
    in CHANGES.md."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names
                      and not any(name == m or name.startswith(m + ".") for m in THIRD_PARTY)]
    assert not found, f"imports outside the standard library and {THIRD_PARTY}: {found}"
