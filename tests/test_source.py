"""Source-level checks on the package itself."""

import ast
import inspect
from pathlib import Path

import pytest

from weylsplit import (DynkinDiagram, build_diagram, crystal, ecposet, numbersgame, patternlat,
                       wsf)
from weylsplit.errors import DiagramMismatch, MalformedPoset, NotAWeight

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


def _self_call(fn, node):
    """Whether node calls fn by name, or as a method through self or cls."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    if isinstance(f, ast.Name):
        return f.id == fn.name
    return isinstance(f, ast.Attribute) and f.attr == fn.name \
        and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")


def test_no_self_calls_in_src():
    """No function of the package calls itself, so no walk is bounded by the
    interpreter's recursion limit."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    bad = []
    for path in paths:
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bad += ["%s:%d %s" % (path.name, node.lineno, fn.name)
                        for node in ast.walk(fn) if _self_call(fn, node)]
    assert not bad, "self-calls in src: %s" % bad


# each table a poset derives from its inputs, and the one function that writes it
TABLE_WRITERS = dict.fromkeys(
    ("edges", "_global_rank", "_poset_comp", "n_poset_components", "comp_id", "rho", "lng",
     "wt"),
    "ColoredPoset._fill")
TABLE_WRITERS["tensor_ops"] = "TensorOps.closure"


def _attribute_stores(tree):
    """(enclosing function or class, attribute, line) of each attribute
    assignment target, the function named with its classes like Class.method."""
    stack = [(tree, "")]
    while stack:
        node, scope = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                stack.append((child, scope + "." + child.name if scope else child.name))
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Store):
                yield scope, child.attr, child.lineno
            stack.append((child, scope))


def test_each_poset_table_has_one_writer():
    """The edges and the derived tables of a ColoredPoset are assigned only in _fill, and
    a crystal's tensor_ops only where its closure builds it: a poset built
    another way (a blow-up, a crystal) cannot set up its state differently."""
    bad, seen = [], set()
    for path in sorted(SRC.glob("*.py")):
        for scope, attr, line in _attribute_stores(ast.parse(path.read_text(), str(path))):
            if attr in TABLE_WRITERS:
                if scope == TABLE_WRITERS[attr]:
                    seen.add(attr)
                else:
                    bad.append("%s:%d %s.%s" % (path.name, line, scope, attr))
    assert not bad, "poset tables written outside their writer: %s" % bad
    assert seen == set(TABLE_WRITERS)


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


def test_every_wsf_entry_point_reads_the_diagram_gate():
    """Every public function and constructor of wsf that takes a diagram d
    reads it through check_diagram: a type string or None in its place
    raises DiagramMismatch, with every other argument valid."""
    valid = {"lam": (1, 0), "mu": (1, 0), "expansion": {}, "terms": {(1, 0): 1}}
    found = {name: fn for name, fn in inspect.getmembers(wsf, inspect.isfunction)
             if fn.__module__ == wsf.__name__ and not name.startswith("_")
             and list(inspect.signature(fn).parameters)[:1] == ["d"]}
    assert {"freudenthal", "specialize", "kostant_multiplicity", "kostant_partition",
            "reconstruct", "dominant_weights_below", "weight_diagram"} <= set(found)
    found.update(WeylSymFn=wsf.WeylSymFn, unit=wsf.WeylSymFn.unit,
                 monomial=wsf.WeylSymFn.monomial)
    for fn in found.values():
        params = list(inspect.signature(fn).parameters)[1:]
        args = [valid[name] for name in params if name in valid]
        for bad in ("A2", None):
            with pytest.raises(DiagramMismatch):
                fn(bad, *args)


def test_every_coloring_reader_reads_the_gate():
    """A new function that takes a coloring (kappa) or a witness must read it
    through ColoringWitness.check: on Pi(omega_1) of A2, with every other
    argument valid, a kappa value of 1.0 and a kappa key that is no vertex id
    both raise MalformedPoset."""
    d = build_diagram("A2")
    p = crystal.minuscule_poset(d, (1, 0))
    valid = {"p": p, "nodes": (1, 2), "nu": (0, 0), "s_set": {2}}
    found = {}
    for mod in (ecposet, crystal):
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            params = inspect.signature(fn).parameters
            if fn.__module__ == mod.__name__ and not name.startswith("_") \
                    and ("kappa" in params or "witness" in params):
                found[name] = fn
    assert set(found) == {"verify_tau_kappa", "verify_subblock_coloring",
                          "verify_jnu_coloring", "tau_from_jnu_coloring"}
    for fn in found.values():
        params = inspect.signature(fn).parameters
        for bad in ({0: 1.0, 1: 2}, {0: 1, 1: 2, p.n: 1}):
            args = {name: valid[name] for name in params if name in valid}
            if "witness" in params:
                args["witness"] = ecposet.ColoringWitness({2}, bad, {0: 0, 1: 1})
            else:
                args["kappa"] = bad
            with pytest.raises(MalformedPoset):
                fn(**args)


def test_cli_reads_the_diagram_once():
    """main builds the diagram (and parses --weight over it) for every
    subcommand; a handler takes (args, d, lam) and never reads args.diagram."""
    tree = ast.parse((SRC / "cli.py").read_text())
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "build_diagram"]
    functions = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    main, = [fn for fn in functions if fn.name == "main"]
    assert len(calls) == 1 and main.lineno <= calls[0] <= main.end_lineno, calls
    handlers = [fn for fn in functions if fn.name.startswith("cmd_")]
    assert len(handlers) == 14
    for fn in handlers:
        assert [a.arg for a in fn.args.args] == ["args", "d", "lam"], fn.name
        reads = [node.lineno for node in ast.walk(fn)
                 if isinstance(node, ast.Attribute) and node.attr == "diagram"
                 and isinstance(node.value, ast.Name) and node.value.id == "args"]
        assert not reads, "%s reads args.diagram at %s" % (fn.name, reads)


def _functions(path):
    """Each function defined in path, by its name with its classes
    (Class.method), outside any other function."""
    out, stack = {}, [(ast.parse(path.read_text(), str(path)), "")]
    while stack:
        node, scope = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = scope + "." + child.name if scope else child.name
                if isinstance(child, ast.FunctionDef):
                    out[name] = child
                else:
                    stack.append((child, name))
    return out


def _calls(fn, name):
    """Lines of the calls in fn of a function or method called name."""
    return [node.lineno for node in ast.walk(fn) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def _raises(path, error, text):
    """Lines of path that raise error(...), or any error when error is None,
    with text in a string of the call."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and error in (None, getattr(node.exc.func, "id", None))
            and any(isinstance(c, ast.Constant) and text in str(c.value)
                    for c in ast.walk(node.exc))]


def test_play_fires_at_one_site():
    """"first", "all" and a fixed sequence are one walk: play fires at one
    site, and the CLI's numbers-game calls play once for every strategy."""
    fires = _calls(_functions(SRC / "numbersgame.py")["play"], "fire")
    assert len(fires) == 1, fires
    plays = _calls(_functions(SRC / "cli.py")["cmd_numbers_game"], "play")
    assert len(plays) == 1, plays


def test_node_rule_and_diagram_check_are_stated_once():
    """cartan states the node rule once, in _node_subset, and sub_weight,
    sub_diagram and check_node call it; a poset's diagram is read through
    ColoredPoset.checked_d, the one raise of "no diagram attached"."""
    where = {path.name: (_raises(path, "NotGCM", "out of range"),
                         _raises(path, "NotMStructured", "no diagram attached"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: len(lines) for name, (lines, _) in where.items() if lines} \
        == {"cartan.py": 1}, where
    assert {name: len(lines) for name, (_, lines) in where.items() if lines} \
        == {"ecposet.py": 1}, where
    cartan = _functions(SRC / "cartan.py")
    assert where["cartan.py"][0][0] in range(cartan["_node_subset"].lineno,
                                             cartan["_node_subset"].end_lineno + 1)
    ecposet_fns = _functions(SRC / "ecposet.py")
    checked = ecposet_fns["ColoredPoset.checked_d"]
    assert where["ecposet.py"][1][0] in range(checked.lineno, checked.end_lineno + 1)
    readers = [(cartan, name, "_node_subset") for name in
               ("sub_weight", "DynkinDiagram.sub_diagram", "RawGCMGraph.check_node")]
    readers += [(ecposet_fns, name, "checked_d") for name in
                ("ColoredPoset.is_m_structured", "ColoredPoset.wgf", "bowtie",
                 "verify_tau_kappa")]
    readers.append((_functions(SRC / "crystal.py"), "TensorOps.__init__", "checked_d"))
    for functions, name, callee in readers:
        assert _calls(functions[name], callee), "%s does not call %s" % (name, callee)
    assert not hasattr(ecposet.ColoredPoset, "wt_restricted")


def test_outside_poset_data_has_one_gate():
    """ColoredPoset.__init__ states the poset input rules once.  import_poset
    raises no DiagramMismatch and has no rule of its own for rank_n: it
    compares the name that rank_n is read into with no number literal, passes
    it to no type() or isinstance(), and lists it with no numbers to check.
    The constructor and build_poset read edges through _edge_list, the only
    map(tuple, edges); the constructor alone raises the color-count
    and the colors-versus-rank errors, and it calls check_diagram."""
    path = SRC / "ecposet.py"
    fns = _functions(path)
    imp = fns["import_poset"]
    assert not [node.lineno for node in ast.walk(imp) if isinstance(node, ast.Raise)
                and "DiagramMismatch" in ast.dump(node)]
    rank_n = {target.id for node in ast.walk(imp) if isinstance(node, ast.Assign)
              and "'rank_n'" in ast.unparse(node.value) for target in node.targets}
    assert rank_n == {"n_colors"}, rank_n

    def number(node):
        if isinstance(node, ast.UnaryOp):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) in (int, float)

    def names(nodes):
        return {node.id for node in nodes if isinstance(node, ast.Name)}

    for node in ast.walk(imp):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            assert not (names(sides) & rank_n and any(map(number, sides))), ast.unparse(node)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("type",
                                                                              "isinstance"):
            assert not names(node.args) & rank_n, ast.unparse(node)
        elif isinstance(node, ast.List):
            assert not names(node.elts) & rank_n, ast.unparse(node)
    init = fns["ColoredPoset.__init__"]
    for name in ("ColoredPoset.__init__", "build_poset"):
        assert _calls(fns[name], "_edge_list"), name
    assert _calls(init, "check_diagram")
    tuple_maps = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "map"
                  and [getattr(arg, "id", None) for arg in node.args] == ["tuple", "edges"]]
    edge_list = fns["_edge_list"]
    assert tuple_maps and all(edge_list.lineno <= line <= edge_list.end_lineno
                              for line in tuple_maps), tuple_maps
    for error, text in (("MalformedPoset", "color count"),
                        ("DiagramMismatch", "colors on a diagram of rank")):
        lines = _raises(path, error, text)
        assert len(lines) == 1 and init.lineno <= lines[0] <= init.end_lineno, (error, lines)


def test_the_numbers_game_states_no_graph_rule():
    """cartan holds the one GCM-graph class, RawGCMGraph, with the one s_i
    and the node rule, and DynkinDiagram extends it.  fire calls
    simple_reflection and reads no Cartan matrix, play reads a strategy's
    nodes through check_node, numbersgame defines no graph class (its only
    classes are its two records), only cartan reads _sparse_rows, and no
    "is not in 1.." node message is raised outside the node rule."""
    cartan_fns, game_fns = _functions(SRC / "cartan.py"), _functions(SRC / "numbersgame.py")
    assert DynkinDiagram.__bases__ == (numbersgame.RawGCMGraph,)
    assert numbersgame.RawGCMGraph.__module__ == "weylsplit.cartan"
    for name in ("simple_reflection", "act", "check_node"):
        assert "RawGCMGraph." + name in cartan_fns and "DynkinDiagram." + name not in cartan_fns
    fire = game_fns["fire"]
    assert _calls(fire, "simple_reflection")
    cartan_reads = [node.lineno for node in ast.walk(fire)
                    if isinstance(node, ast.Attribute) and node.attr == "cartan"]
    assert not cartan_reads, "fire reads the Cartan matrix at %s" % cartan_reads
    assert _calls(game_fns["play"], "check_node")
    tree = ast.parse((SRC / "numbersgame.py").read_text())
    assert {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)} \
        == {"GameRecord", "DiagramConstants"}
    readers = {path.name for path in SRC.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Attribute) and node.attr == "_sparse_rows"}
    assert readers == {"cartan.py"}, readers
    stray = {path.name: _raises(path, None, "is not in 1..") for path in SRC.glob("*.py")}
    assert not any(stray.values()), stray


def test_package_results_skip_the_public_constructor():
    """The package builds its WeylSymFn results through the trusted
    WeylSymFn._of: outside the class itself no source file calls
    WeylSymFn(...), and wsf and ecposet do call _of."""
    bad, trusted = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        inside = set()
        if path.name == "wsf.py":
            cls, = [node for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == "WeylSymFn"]
            inside = set(range(cls.lineno, cls.end_lineno + 1))
        bad += ["%s:%d" % (path.name, line) for line in _calls(tree, "WeylSymFn")
                if line not in inside]
        trusted[path.name] = len(_calls(tree, "_of"))
    assert not bad, "WeylSymFn(...) called in src: %s" % bad
    assert trusted["wsf.py"] and trusted["ecposet.py"], trusted
