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


THIRD_PARTY = ("numpy",)


def test_package_imports_only_stdlib_and_numpy():
    """Every import costs resident memory and start-up time in every process,
    because each command imports most of the package through `cli`: `import
    scipy.ndimage` on top of numpy raises ru_maxrss from about 27 to 54 MB and
    takes about 0.3 s, and the toy_chain benchmark's peak-RSS bound is 10% of
    about 69 MB. scipy is a test-only oracle. A change that adds to THIRD_PARTY
    states the import's RSS cost in CHANGES.md."""
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


ENV_ALLOWED = ()  # environment variables the package may read, by name
ENV_READERS = ("environ", "environb", "getenv", "getenvb")


def _env_name(node, parents):
    """The variable that `os.getenv(NAME)`, `os.environ.get(NAME)` or
    `os.environ[NAME]` reads, if NAME is a literal; else None."""
    up = parents.get(node)
    if isinstance(up, ast.Attribute):  # os.environ.get(...)
        node, up = up, parents.get(up)
    if isinstance(up, ast.Call) and up.func is node and up.args:
        arg = up.args[0]
    elif isinstance(up, ast.Subscript) and up.value is node:
        arg = up.slice
    else:
        return None
    return arg.value if isinstance(arg, ast.Constant) else None


def test_package_reads_no_environment_variable_outside_the_allow_list():
    """Settings come from the config file and the flags. A variable the
    package reads is a second source for one of them, so each must be named
    in ENV_ALLOWED; a read whose name is not a literal is always reported."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno} os.{a.name}" for a in node.names if a.name in ENV_READERS]
            elif isinstance(node, ast.Attribute) and node.attr in ENV_READERS:
                name = _env_name(node, parents)
                if name not in ENV_ALLOWED:
                    found.append(f"{path.name}:{node.lineno} {name or node.attr}")
    assert not found, f"environment reads outside {ENV_ALLOWED}: {found}"
