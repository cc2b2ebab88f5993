"""Source-level checks on the package itself."""

import ast
import inspect
from pathlib import Path

import pytest

from weylsplit import build_diagram, crystal, ecposet, numbersgame, patternlat, wsf
from weylsplit.errors import DiagramMismatch, NotAWeight

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


def test_no_private_reads_across_modules():
    """A module reads only the public names of the package's other modules."""
    modules = {path.stem for path in SRC.glob("*.py")}
    bad = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for a in node.names:
                    if node.module is None and a.name in modules:
                        aliases.add(a.asname or a.name)
                    elif node.module is not None and a.name.startswith("_"):
                        bad.append("%s:%d %s" % (path.name, node.lineno, a.name))
        bad += ["%s:%d %s.%s" % (path.name, node.lineno, node.value.id, node.attr)
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")]
    assert not bad, "private names of other modules read in src: %s" % bad


def test_no_self_calls_in_the_crystal_layer():
    """No function of crystal.py, ecposet.py or wsf.py calls itself by name,
    so no walk there is bounded by the interpreter's recursion limit."""
    bad = []
    for name in ("crystal.py", "ecposet.py", "wsf.py"):
        path = SRC / name
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            bad += ["%s:%d %s" % (name, node.lineno, fn.name) for node in ast.walk(fn)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == fn.name]
    assert not bad, "self-calls in the crystal layer: %s" % bad


def _weight_entry_points():
    """(function, its weight parameters): every public function of the
    weight layers whose parameters start with d and name lam, mu or nu."""
    out = []
    for mod in (wsf, crystal, numbersgame, ecposet, patternlat):
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            params = list(inspect.signature(fn).parameters)
            weights = [p for p in params if p in ("lam", "mu", "nu")]
            if fn.__module__ == mod.__name__ and not name.startswith("_") \
                    and params[:1] == ["d"] and weights:
                out.append((fn, weights))
    return out


def test_every_weight_entry_point_reads_the_gate():
    """A new entry point that takes (d, weight) must read the weight through
    check_weight/check_dominant: a short weight or a float entry raises on
    A2, with every other argument valid."""
    d = build_diagram("A2")
    valid = {"lam": (1, 0), "mu": (1, 0), "nu": (1, 0), "nodes": (1,)}
    found = _weight_entry_points()
    assert {fn.__name__ for fn, _ in found} >= {
        "freudenthal", "kostant_multiplicity", "decompose", "rgf_exponents",
        "maximal_splitting_poset", "rgf_quotient"}
    for fn, weights in found:
        params = inspect.signature(fn).parameters.values()
        args = {p.name: valid[p.name] for p in params
                if p.name != "d" and p.default is inspect.Parameter.empty}
        for w in weights:
            for bad, error in (((1,), DiagramMismatch), ((1.0, 0), NotAWeight)):
                with pytest.raises(error):
                    fn(d, **dict(args, **{w: bad}))
