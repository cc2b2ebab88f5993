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
