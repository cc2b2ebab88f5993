"""Source-level checks on the package itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "weylsplit"


def _is_assert(node):
    if isinstance(node, ast.Raise):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"
    return isinstance(node, ast.Assert)


def test_no_assert_in_src():
    """A check that `python -O` strips could let a wrong answer through."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    bad = ["%s:%d" % (path.name, node.lineno) for path in paths
           for node in ast.walk(ast.parse(path.read_text(), str(path)))
           if _is_assert(node)]
    assert not bad, "assert statements in src: %s" % bad


def test_no_dataclasses_in_src():
    """Records are namedtuples: dataclasses and inspect cost every CLI run."""
    bad = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "dataclasses" for n in names):
                bad.append("%s:%d" % (path.name, node.lineno))
    assert not bad, "dataclasses imported in src: %s" % bad
