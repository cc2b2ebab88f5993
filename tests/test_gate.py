"""Bad library input ends in a DomainError subclass, also under python -O.

Weights, numbers-game positions and strategies and lattice family
parameters are read through DynkinDiagram.check_weight, check_dominant and
cartan.int_tuple (the WeylSymFn constructor reads every key, and coeff its
weight, through check_weight);
nodes, node subsets J and a numbers-game strategy's nodes through the one
node rule, which check_node, sub_diagram and cartan.sub_weight (J with its
nu) share, and the nodes of numbersgame.fire, DynkinDiagram.act and
WeylSymFn.w_action through check_node; a coloring witness's S, kappa and
tau through ecposet.ColoringWitness.check, and the kappa of tau_from_jnu_coloring
through verify_jnu_coloring; a poset's diagram through
ColoredPoset.checked_d, so a poset without one raises NotMStructured; a
poset's vertices and colors through its one vertex and color rule
(ColoredPoset._vertex, _color), and a crystal product's vertices through
each factor's rule and its node through check_node; the diagram of every
wsf entry point, of build_crystal, decompose and branch, of the numbers
game's fire, play and rgf_exponents (any GCM graph for fire and play) and
of rgf_quotient through cartan.check_diagram; ecposet.recolor's sigma as a
dict or a callable, and verify_splitting's targets as a list or tuple.
Outside poset data goes through one gate, the ColoredPoset constructor,
which build_poset and import_poset call: the diagram through
cartan.check_diagram, the vertex count and a given color count as plain
ints >= 0, the edges read once (a generator too) as triples of plain ints,
and labels as None, a Columns or an iterable of n labels.
saturation_predicate
reads an empty J as empty, not as every node.  WeylSymFn.power takes only
a plain int exponent >= 0, and numbersgame.play only a plain int firing
cap >= 1.  ecposet.export_poset writes only json and dot.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylsplit
from weylsplit import build_diagram, crystal, wsf
from weylsplit.errors import NotAWeight

# (call, the DomainError subclass it ends in, or what it returns), on d = A2
# and p = Pi(omega_1)
PROBES = [
    # a 1-entry weight: zip truncated it, and these walks never ended
    ("wsf.freudenthal(d, (1,))", "DiagramMismatch"),
    ("wsf.dominant_weights_below(d, (1,))", "DiagramMismatch"),
    ("ecposet.maximal_splitting_poset(d, (1,))", "DiagramMismatch"),
    ("wsf.specialize(d, (1,))", "DiagramMismatch"),
    ("ecposet.verify_splitting(p, [(1,)])", "DiagramMismatch"),
    # silently wrong answers
    ("wsf.kostant_multiplicity(d, (1, 1), (0,))", "DiagramMismatch"),
    ("crystal.is_minuscule_weight(d, (1,))", "DiagramMismatch"),
    ("crystal.saturation_predicate(d, (-1, 0), (0, 0))", "NotDominant"),
    ("d.alpha(0)", "NotGCM"),
    ("d.omega(9)", "NotGCM"),
    ("d.dominant_rep((1, 0, 5))", "DiagramMismatch"),
    ("crystal.branch(d, (1, 1), (True,))", "NotGCM"),
    # bare IndexError, TypeError or ExactnessError
    ("wsf.weight_diagram(d, (1, 1, 1))", "DiagramMismatch"),
    ("crystal.build_crystal(d, (1,))", "DiagramMismatch"),
    ("d.weyl_orbit((1,))", "DiagramMismatch"),
    ("numbersgame.rgf_exponents(d, (1,))", "DiagramMismatch"),
    ("patternlat.symplectic_lattice(2, 1.5)", "InvalidFamilyParams"),
    ("patternlat.gt_lattice(3, (1, 0.5))", "InvalidFamilyParams"),
    ("numbersgame.play(d, (1, 1), 'bogus')", "IllegalFire"),
    ("numbersgame.play(d, (1,), 'first')", "DiagramMismatch"),
    # entries that are not plain ints, and a weight that is not a sequence
    ("wsf.freudenthal(d, (1.0, 0))", "NotAWeight"),
    ("wsf.freudenthal(d, 5)", "NotAWeight"),
    ("cartan.sub_weight(2, (1, 2.0), (0, 0))", "NotGCM"),
    ("cartan.sub_weight(2, (1, 2), (0, 0.0))", "NotAWeight"),
    # WeylSymFn.power(-1) returned 1; monomial kept any tuple as a weight key
    ("wsf.WeylSymFn.monomial(d, (1, 0)).power(-1)", "BadExponent"),
    ("wsf.WeylSymFn.monomial(d, (1, 0)).power(2.0)", "BadExponent"),
    ("wsf.WeylSymFn.monomial(d, (1,))", "DiagramMismatch"),
    ("wsf.WeylSymFn.monomial(d, (1.0, 0))", "NotAWeight"),
    # the constructor kept any tuple as a weight key, so a product with a
    # character truncated in wadd's zip or computed in floats
    ("wsf.WeylSymFn(d, {(1,): 1})", "DiagramMismatch"),
    ("wsf.WeylSymFn(d, {(1.0, 0): 1})", "NotAWeight"),
    ("wsf.WeylSymFn(d, {(1, 0): 1, (1, 0, 0): 0})", "DiagramMismatch"),
    # rgf_closed_form ended in a bare TypeError or ValueError
    ("patternlat.rgf_closed_form('C', 2, m=1.5)", "InvalidFamilyParams"),
    ("patternlat.rgf_closed_form('A', 2, lam=(1, 0.5))", "InvalidFamilyParams"),
    ("patternlat.rgf_closed_form('B', 2.0, m=1)", "InvalidFamilyParams"),
    ("patternlat.rgf_closed_form('C', 2)", "InvalidFamilyParams"),
    ("patternlat.rgf_closed_form('A', 2, lam=(-1, 0))", "InvalidFamilyParams"),
    # coloring witnesses: p's valid one is S = {2}, kappa {0: 1, 1: 2}, tau the
    # identity.  A tau value of 1.0 was a bare TypeError and True read as vertex
    # 1; 99 in S a bare IndexError (the sub-block verifier passed it) and -1 a
    # failed conclusion; kappa True read as color 1; a kappa key of -1 a bare
    # StopIteration
    ("ecposet.verify_tau_kappa(p, (1, 2), (0, 0), "
     "ecposet.ColoringWitness({2}, {0: 1, 1: 2}, {0: 0, 1: 1.0}))", "MalformedPoset"),
    ("ecposet.verify_tau_kappa(p, (1, 2), (0, 0), "
     "ecposet.ColoringWitness({2}, {0: 1, 1: 2}, {0: 0, 1: True}))", "MalformedPoset"),
    ("ecposet.verify_tau_kappa(p, (1, 2), (0, 0), "
     "ecposet.ColoringWitness({2, 99}, {0: 1, 1: 2}, {0: 0, 1: 1}))", "MalformedPoset"),
    ("ecposet.verify_tau_kappa(p, (1, 2), (0, 0), "
     "ecposet.ColoringWitness({2, -1}, {0: 1, 1: 2}, {0: 0, 1: 1}))", "MalformedPoset"),
    ("ecposet.verify_subblock_coloring(p, (1, 2), (0, 0), {2, 99}, {0: 1, 1: 2})",
     "MalformedPoset"),
    ("crystal.verify_jnu_coloring(p, (1, 2), (0, 0), {0: True, 1: 2})", "MalformedPoset"),
    ("crystal.tau_from_jnu_coloring(p, (1, 2), (0, 0), {-1: 2})", "MalformedPoset"),
    # plain-int kappas that are not (J,nu)-colorings: a bare KeyError (color
    # outside J), IndexError (color outside the diagram) and StopIteration
    ("crystal.tau_from_jnu_coloring(p, (1,), (0,), {0: 2})", "MalformedPoset"),
    ("crystal.tau_from_jnu_coloring(p, (1, 2), (0, 0), {0: 5})", "MalformedPoset"),
    ("crystal.tau_from_jnu_coloring(p, (1, 2), (0, 0), {0: 2})", "MalformedPoset"),
    # a node subset that is not a sequence was a bare TypeError
    ("crystal.branch(d, (1, 1), 1)", "NotGCM"),
    # play read True as 1, played 1.5 in floats, and None was a bare TypeError
    ("numbersgame.play(d, None)", "NotAWeight"),
    ("numbersgame.play(d, (1.5, 0))", "NotAWeight"),
    ("numbersgame.play(d, (True, 0))", "NotAWeight"),
    # a cap of 1.5 played as 2, True was kept as the cap, 0 a bare ValueError
    ("numbersgame.play(d, (1, 0), cap=1.5)", "IllegalFire"),
    ("numbersgame.play(d, (1, 0), cap=True)", "IllegalFire"),
    ("numbersgame.play(d, (1, 0), cap=0)", "IllegalFire"),
    # a poset with no diagram: bare AttributeErrors
    ("ecposet.verify_tau_kappa(ecposet.ColoredPoset(3, p.edges), (1, 2), (0, 0), "
     "ecposet.ColoringWitness({2}, {0: 1, 1: 2}, {0: 0, 1: 1}))", "NotMStructured"),
    ("ecposet.bowtie(ecposet.ColoredPoset(3, p.edges))", "NotMStructured"),
    ("crystal.crystal_product(ecposet.ColoredPoset(3, p.edges))", "NotMStructured"),
    # an empty J read as every node, and returned True
    ("crystal.saturation_predicate(d, (1, 0), (5, 5), ())", "DiagramMismatch"),
    # coeff kept any tuple: a short weight gave 0, a float entry matched 1
    ("wsf.WeylSymFn.monomial(d, (1, 0)).coeff((1,))", "DiagramMismatch"),
    ("wsf.WeylSymFn.monomial(d, (1, 0)).coeff((1.0, 0))", "NotAWeight"),
    # a bare ValueError
    ("ecposet.export_poset(p, 'xml')", "UnknownFormat"),
    # a strategy node had its own rule and error, IllegalFire
    ("numbersgame.play(d, (1, 1), (0,))", "NotGCM"),
    # node 0 read index -1, so each of these returned s_2's answer
    ("numbersgame.fire(d, (1, 1), 0)", "NotGCM"),
    ("d.act((0,), (1, 1))", "NotGCM"),
    ("wsf.WeylSymFn.monomial(d, (1, 0)).w_action((0,))", "NotGCM"),
    # a type string or None for the diagram was a bare AttributeError
    ("wsf.WeylSymFn('A2', {(1, 0): 1})", "DiagramMismatch"),
    ("wsf.WeylSymFn(None, {})", "DiagramMismatch"),
    ("wsf.freudenthal('A2', (1, 0))", "DiagramMismatch"),
    ("wsf.specialize('A2', (1, 0))", "DiagramMismatch"),
    ("wsf.kostant_multiplicity('A2', (1, 0), (1, 0))", "DiagramMismatch"),
    ("wsf.reconstruct('A2', {})", "DiagramMismatch"),
    ("crystal.build_crystal('A2', (1, 0))", "DiagramMismatch"),
    ("crystal.decompose('A2', (1, 0), (1, 0))", "DiagramMismatch"),
    ("crystal.branch('A2', (1, 0), (1,))", "DiagramMismatch"),
    ("numbersgame.play('A2', (1, 0))", "DiagramMismatch"),
    ("numbersgame.fire('A2', (1, 0), 1)", "DiagramMismatch"),
    ("numbersgame.rgf_exponents('A2', (1, 0))", "DiagramMismatch"),
    ("patternlat.rgf_quotient('A2', (1, 0))", "DiagramMismatch"),
    # a float sigma and a None target list were bare TypeErrors
    ("ecposet.recolor(p, 1.0)", "MalformedPoset"),
    ("ecposet.verify_splitting(p, None)", "MalformedPoset"),
    # a poset read -1 as its last vertex and color 0 as a row of zeros, and
    # vertex n or a float color was a bare IndexError or TypeError
    ("p.global_rank(-1)", "MalformedPoset"),
    ("p.global_rank(p.n)", "MalformedPoset"),
    ("p.m(-1, 0)", "MalformedPoset"),
    ("p.m(0, 0)", "MalformedPoset"),
    ("p.delta(1, 1.0)", "MalformedPoset"),
    ("p.comp_members(1, -1)", "MalformedPoset"),
    ("ecposet.chain_product_factorization(p, 1, -1)", "MalformedPoset"),
    ("ecposet.chain_product_factorization(p, 1.0, 0)", "MalformedPoset"),
    # on R(A2, (1, 1)), with 8 vertices, up and down read x as a Python index
    # and c unchecked: down(2, -1) returned vertex 7's answer, up(1.5, 0)
    # None, and vertex 8 was a bare IndexError
    ("crystal.build_crystal(d, (1, 1)).down(2, -1)", "MalformedPoset"),
    ("crystal.build_crystal(d, (1, 1)).up(1.5, 0)", "MalformedPoset"),
    ("crystal.build_crystal(d, (1, 1)).up(1, 8)", "MalformedPoset"),
    # the operators on p x p read x unchecked: a tuple of the wrong length
    # returned a tuple, and vertex 5 or node 7 was a bare IndexError
    ("crystal.raising(crystal.crystal_product(p, p), (0,), 1)", "MalformedPoset"),
    ("crystal.raising(crystal.crystal_product(p, p), (0, 0, 0), 1)", "MalformedPoset"),
    ("crystal.raising(crystal.crystal_product(p, p), (5, 0), 1)", "MalformedPoset"),
    ("crystal.lowering(crystal.crystal_product(p, p), (0, 0), 7)", "NotGCM"),
    ("crystal.raising(p, (0,), 1)", "MalformedPoset"),
    # the poset gate: a str entry was a bare TypeError from max, an edge that
    # is not a triple a bare ValueError, a non-iterable edge list, labels or
    # a non-int color count a bare TypeError, and a type string for the
    # diagram a bare AttributeError
    ("ecposet.ColoredPoset(3, [(0, 1, 1), (1, 2, 'a')])", "MalformedPoset"),
    ("ecposet.ColoredPoset(2, [(0, 1)], n_colors=1)", "MalformedPoset"),
    ("ecposet.ColoredPoset(2, [(0, 1, 1, 1)], n_colors=1)", "MalformedPoset"),
    ("ecposet.build_poset([(0, 1)], 1)", "MalformedPoset"),
    ("ecposet.ColoredPoset(2, [5], n_colors=1)", "MalformedPoset"),
    ("ecposet.ColoredPoset(2, None, n_colors=1)", "MalformedPoset"),
    ("ecposet.ColoredPoset(2, [(0, 1, 1)], n_colors=1.5)", "MalformedPoset"),
    ("ecposet.ColoredPoset(2, [(0, 1, 1)], n_colors='2')", "MalformedPoset"),
    ("ecposet.ColoredPoset(2, [(0, 1, 1)], labels=5)", "MalformedPoset"),
    ("ecposet.ColoredPoset(2, [(0, 1, 1)], diagram='A2')", "DiagramMismatch"),
    ("ecposet.build_poset([(0, 1, 1)], 1, diagram='A2')", "DiagramMismatch"),
    ("ecposet.import_poset(ecposet.export_poset(p), diagram='A2')", "DiagramMismatch"),
    # built silently: a negative color count, True read as 1, and more colors
    # than a diagram may have nodes, for each of which tables are built
    ("ecposet.ColoredPoset(1, [], n_colors=-1)", "MalformedPoset"),
    ("ecposet.ColoredPoset(2, [(0, 1, 1)], n_colors=True)", "MalformedPoset"),
    ("ecposet.ColoredPoset(1, [], n_colors=cartan.MAX_RANK + 1)", "MalformedPoset"),
    ("ecposet.ColoredPoset(2, [(0, 1, cartan.MAX_RANK + 1)])", "MalformedPoset"),
    # a generator of edges was spent inferring n or n_colors, so no edge was left
    ("ecposet.ColoredPoset(2, (e for e in [(0, 1, 1)])).edges", "returned ((0, 1, 1),)"),
    ("ecposet.build_poset((e for e in [(0, 1, 1)]), 1).edges", "returned ((0, 1, 1),)"),
]

# One interpreter for the whole table; each call gets a 1 s alarm, so a walk
# that never ends shows as "bare TimeoutError" instead of hanging the test.
RUNNER = """
import json, signal, sys
from weylsplit import build_diagram, cartan, crystal, ecposet, numbersgame, patternlat, wsf
from weylsplit.errors import DomainError


def timeout(*_):
    raise TimeoutError


signal.signal(signal.SIGALRM, timeout)
d = build_diagram("A2")
p = crystal.minuscule_poset(d, (1, 0))
for call in json.loads(sys.argv[1]):
    signal.alarm(1)
    try:
        got = "returned %r" % (eval(call),)
    except DomainError as e:
        got = type(e).__name__
    except Exception as e:
        got = "bare %s" % type(e).__name__
    finally:
        signal.alarm(0)
    print(json.dumps([call, got]))
"""


def test_bad_library_input_under_optimize():
    src = str(Path(weylsplit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-O", "-c", RUNNER,
                          json.dumps([call for call, _ in PROBES])],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    got = [tuple(json.loads(line)) for line in res.stdout.splitlines()]
    assert got == PROBES


# Hypothesis, in an interpreter under -O: a valid chain poset with one input
# spoiled ends in the named DomainError from both ColoredPoset and
# build_poset, and the unspoiled one builds the same from a generator of its
# edges as from the list.  A failure raises out of the run, with its example.
FUZZ = """
from hypothesis import given, settings, strategies as st
from weylsplit import build_diagram, ecposet
from weylsplit.errors import DiagramMismatch, DomainError, MalformedPoset

A2 = build_diagram("A2")
SMALL = st.integers(0, 5)
NOT_ITERABLE = st.one_of(st.integers(), st.floats(allow_nan=False), st.none())
NOT_INT = st.one_of(st.booleans(), st.floats(allow_nan=False), st.text(max_size=2), st.none())


@st.composite
def bad_edges(draw, edges):
    kind = draw(st.sampled_from(["whole", "edge", "arity", "entry"]))
    if kind == "whole":
        return draw(NOT_ITERABLE)
    edges, k = list(edges), draw(st.integers(0, len(edges) - 1))
    if kind == "edge":
        edges[k] = draw(NOT_ITERABLE)
    elif kind == "arity":
        size = draw(st.sampled_from([0, 1, 2, 4, 5]))
        edges[k] = draw(st.sampled_from([tuple, list]))(draw(st.lists(SMALL, min_size=size,
                                                                      max_size=size)))
    else:
        e = list(edges[k])
        e[draw(st.integers(0, 2))] = draw(NOT_INT)
        edges[k] = tuple(e)
    return edges


def table(p):
    return (p.n, p.n_colors, p.d, tuple(p.edges), p.wt, p.labels,
            [list(row) for rows in (p.comp_id, p.rho, p.lng) for row in rows])


def expect(error, make):
    try:
        got = make()
    except error:
        return
    except DomainError as e:
        raise RuntimeError("%s instead of %s" % (type(e).__name__, error.__name__))
    raise RuntimeError("built %r instead of raising %s" % (table(got), error.__name__))


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def fuzz(data):
    n = data.draw(st.integers(2, 6), label="n")
    edges = [data.draw(st.sampled_from([tuple, list]))((x, x + 1, data.draw(st.integers(1, 2))))
             for x in range(n - 1)]
    diagram = data.draw(st.sampled_from([None, A2]), label="diagram")
    n_colors = data.draw(st.sampled_from([None, 2]), label="n_colors")
    labels = data.draw(st.sampled_from([None, list(range(n)), tuple("abcdef"[:n])]), label="labels")
    args = dict(diagram=diagram, n_colors=n_colors, labels=labels)
    p = ecposet.ColoredPoset(n, edges, **args)
    if table(ecposet.ColoredPoset(n, (e for e in edges), **args)) != table(p):
        raise RuntimeError("a generator of edges built another poset")
    if table(ecposet.build_poset((e for e in edges), **args)) != table(p):
        raise RuntimeError("build_poset built another poset from a generator")
    spoil = data.draw(st.sampled_from(["edges", "n_colors", "labels", "diagram"]), label="spoil")
    error = MalformedPoset
    if spoil == "edges":
        edges = data.draw(bad_edges(edges), label="edges")
    elif spoil == "n_colors":
        args["n_colors"] = data.draw(st.one_of(NOT_INT.filter(lambda c: c is not None),
                                               st.integers(max_value=-1), st.lists(SMALL)),
                                     label="n_colors")
    elif spoil == "labels":
        args["labels"] = data.draw(st.one_of(NOT_ITERABLE.filter(lambda x: x is not None),
                                             st.lists(SMALL).filter(lambda x: len(x) != n)),
                                   label="labels")
    else:
        args["diagram"] = data.draw(st.sampled_from(["A2", 2, [[2, -1], [-1, 2]]]),
                                    label="diagram")
        error = DiagramMismatch
    expect(error, lambda: ecposet.ColoredPoset(n, edges, **args))
    expect(error, lambda: ecposet.build_poset(edges, **args))


fuzz()
"""


def test_poset_gate_fuzz_under_optimize():
    src = str(Path(weylsplit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-O", "-c", FUZZ], capture_output=True, text=True,
                         env=env, timeout=300)
    assert res.returncode == 0, res.stderr


def test_memo_keys_come_only_from_the_gate():
    """(1.0, 0) and (True, 0) equal (1, 0) as dict keys; neither reaches a memo."""
    d = build_diagram("A2")
    for call in (lambda: wsf.freudenthal(d, (1.0, 0)), lambda: wsf.freudenthal(d, (True, 0)),
                 lambda: crystal.build_crystal(d, (1.0, 0))):
        with pytest.raises(NotAWeight):
            call()
    assert not d.memo.get("freudenthal") and not d.memo.get("crystal")
    chi = wsf.freudenthal(d, (1, 0))
    assert {type(c) for w in chi.terms for c in w} == {int}
    assert wsf.specialize(d, (1, 0)) == ((1, 1, 1), 3)
