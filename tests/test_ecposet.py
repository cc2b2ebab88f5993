import itertools
import json
import time

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from weylsplit import build_diagram, crystal, ecposet as ec, patternlat, wsf
from weylsplit.errors import (DiagramMismatch, DomainError, ExactnessError,
                              MalformedPoset, NotAcyclic, NotChainProduct,
                              NotCovering, NotMStructured, NotRanked)

from conftest import (brute_adjacency, brute_chain_product_factorization, brute_color_tables,
                      brute_members, brute_poset_error, brute_ranks, brute_subblock_coloring,
                      coroot_pairing, load_fixture, sub_block_members)

A2 = build_diagram("A2")
G2 = build_diagram("G2")


def tableau_lattice():
    return ec.import_poset(load_fixture("gt_tableau_lattice.json"), diagram=A2)


def test_build_single_vertex():
    p = ec.build_poset([], 2, n_vertices=1, diagram=A2)
    assert p.wt == ((0, 0),)
    assert ec.structure_checks(p).m_structured
    # with no colors there are no component tables past the unused row 0
    empty = ec.ColoredPoset(3, [], n_colors=0)
    assert empty.wt == ((),) * 3
    assert [list(map(list, t)) for t in (empty.comp_id, empty.rho, empty.lng)] \
        == [[[0] * 3]] * 3


@pytest.mark.parametrize("make, error", [
    # wadd would zip the 1-tuple weights against A2's 2-tuple roots
    (lambda: ec.build_poset([(0, 1, 1)], 1, diagram=A2), DiagramMismatch),
    (lambda: ec.ColoredPoset(-2, []), MalformedPoset),
    (lambda: ec.ColoredPoset(2.5, []), MalformedPoset),
    (lambda: ec.ColoredPoset(True, []), MalformedPoset),
    (lambda: ec.ColoredPoset(3, [], labels=["a"]), MalformedPoset),
], ids=["colors_vs_rank", "negative_n", "float_n", "bool_n", "short_labels"])
def test_constructor_rejects_inconsistent_sizes(make, error):
    with pytest.raises(error):
        make()


def test_build_two_chain():
    p = ec.build_poset([(0, 1, 1), (1, 2, 1)], 1, diagram=build_diagram("A1"))
    assert p.m(1, 2) == 2 and p.m(1, 0) == -2


def test_build_errors():
    with pytest.raises(NotCovering):
        ec.build_poset([(0, 1, 1), (0, 2, 1), (1, 2, 1)], 1)
    with pytest.raises(NotAcyclic):
        ec.build_poset([(0, 1, 1), (1, 0, 1)], 1)
    with pytest.raises(NotRanked):
        # two paths of different lengths between the same endpoints
        ec.build_poset([(0, 1, 1), (1, 2, 1), (0, 3, 2), (3, 4, 2), (4, 2, 1)], 2)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_constructor_matches_brute_checks(data):
    """Same error class as the closure-first oracle, or the same tables."""
    n = data.draw(st.integers(1, 7), label="n")
    n_colors = data.draw(st.integers(1, 3), label="n_colors")
    color = st.integers(1, n_colors)
    kind = data.draw(st.sampled_from(["graded", "skipping", "ring", "any"]), label="kind")
    if kind in ("graded", "skipping"):
        # edges up one level only are ranked and covering unless repeated;
        # edges up two levels are often implied by a path
        steps = (1,) if kind == "graded" else (1, 2)
        level = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        pairs = [(u, v) for u in range(n) for v in range(n) if level[v] - level[u] in steps]
        chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
        edges = [(u, v, data.draw(color)) for u, v in chosen]
    elif kind == "ring":
        # a cycle of randomly oriented edges is ranked only if it goes up as
        # often as down; from five edges on it can fail that and still cover
        ring = data.draw(st.permutations(range(n)))[:data.draw(st.integers(min(5, n), n))]
        edges = [(u, v, data.draw(color)) if data.draw(st.booleans())
                 else (v, u, data.draw(color)) for u, v in zip(ring, ring[1:] + ring[:1])]
    else:
        vertex = st.integers(0, n - 1)
        edges = data.draw(st.lists(st.tuples(vertex, vertex, color), max_size=10))
    # at most one more edge, whose endpoints or color may be out of range
    edges += data.draw(st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n),
                                          st.integers(0, n_colors + 1)), max_size=1))
    want = brute_poset_error(n, edges, n_colors)
    try:
        p = ec.ColoredPoset(n, edges, n_colors=n_colors)
    except DomainError as e:
        assert type(e) is want, (edges, e)
        return
    assert want is None, edges
    assert p.edges == tuple(sorted(edges))
    # the adjacency lists hold the edge triples, in sorted order
    for x in range(n):
        assert p.out[x] == [e for e in p.edges if e[0] == x]
        assert p.inc[x] == [e for e in p.edges if e[1] == x]
    rank, comp_id, rho, lng = brute_color_tables(n, edges, n_colors)
    assert [p.global_rank(x) for x in range(n)] == rank
    assert [list(map(list, t)) for t in (p.comp_id, p.rho, p.lng)] == [comp_id, rho, lng]
    for c in range(1, n_colors + 1):
        for x in range(n):
            assert p.comp_members(c, x) == tuple(
                y for y in range(n) if comp_id[c][y] == comp_id[c][x])
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from((u, v) for u, v, _ in edges)
    assert sorted(nx.transitive_reduction(g).edges) == [(u, v) for u, v, _ in p.edges]
    # reach() walks the vertices in rank order: it must still be the closure
    assert p.reach() == [sum(1 << w for w in nx.descendants(g, v) | {v})
                         for v in range(n)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lazy_tables_match_eager_ones(data):
    """out, inc and the member lists are built on first read, and then equal
    brute_adjacency on the sorted edges and networkx's components of each color."""
    n = data.draw(st.integers(1, 8), label="n")
    n_colors = data.draw(st.integers(1, 4), label="n_colors")
    # edges up one level, no pair twice: ranked and covering
    level = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(n) if level[v] == level[u] + 1]
    chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=14, unique=True)) if pairs else []
    edges = [(u, v, data.draw(st.integers(1, n_colors))) for u, v in chosen]
    p = ec.ColoredPoset(n, edges, n_colors=n_colors)
    assert not {"out", "inc", "_members"} & set(vars(p))
    assert p._members == brute_members(n, edges, n_colors)
    assert p.out == brute_adjacency(n, p.edges, 0) and p.inc == brute_adjacency(n, p.edges, 1)


def _partition(keys):
    """The classes of vertices with equal keys, as a set of frozensets."""
    groups = {}
    for x, k in enumerate(keys):
        groups.setdefault(k, set()).add(x)
    return set(map(frozenset, groups.values()))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rank_and_components_matches_brute(data):
    """One pass over the edges, in any order, gives brute_ranks' ranks
    (NotRanked where it finds none), and keys whose classes are networkx's
    weakly connected components of the poset and of each color, on ranked,
    unranked and disconnected edge sets."""
    n = data.draw(st.integers(0, 9), label="n")
    n_colors = data.draw(st.integers(0, 3), label="n_colors")
    kind = data.draw(st.sampled_from(["graded", "apart", "any"]), label="kind")
    if kind == "any":
        pairs = [(u, v) for u in range(n) for v in range(n)]
    else:
        # up one level only: ranked; "apart" joins only vertices of one parity
        level = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        pairs = [(u, v) for u in range(n) for v in range(n) if level[v] == level[u] + 1
                 and (kind == "graded" or u % 2 == v % 2)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=14)) \
        if pairs and n_colors else []
    edges = [(u, v, data.draw(st.integers(1, n_colors))) for u, v in chosen]
    want = brute_ranks(n, edges)
    if want is None:
        with pytest.raises(NotRanked):
            ec.rank_and_components(n, edges, n_colors)
        return
    rank, keys = ec.rank_and_components(n, edges, n_colors)
    assert rank == want and len(keys) == n_colors + 1
    for c in range(n_colors + 1):
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from((u, v) for u, v, cc in edges if c in (0, cc))
        assert _partition(keys[c]) == set(map(frozenset, nx.weakly_connected_components(g)))


def test_valid_posets_build_no_adjacency(monkeypatch):
    """Ranks and components come from the edges alone: with the Adjacency
    constructor raising, constructor, closure and lattice posets still
    build, and read no out or inc of their own; read afterwards, out and
    inc equal the brute_adjacency oracle."""
    f = crystal.minuscule_poset(A2, (1, 0))
    f.is_fibrous()          # the factor's out and inc, which the closure reads

    def no_adjacency(*args):
        raise AssertionError("Adjacency built")

    monkeypatch.setattr(ec, "Adjacency", no_adjacency)
    p = ec.ColoredPoset(4, [(0, 1, 1), (0, 2, 2), (1, 3, 2), (2, 3, 1)], diagram=A2)
    prod = crystal.crystal_product(f, f)
    lat = patternlat.gt_lattice(3, (1, 1))
    assert [p.n, prod.n, lat.poset.n] == [4, 9, 8]
    assert p.n_poset_components == 1 and prod.n_poset_components == 2
    assert [p.global_rank(x) for x in range(4)] == [0, 1, 1, 2]
    assert not any({"out", "inc"} & set(vars(q)) for q in (p, prod, lat.poset))
    monkeypatch.undo()
    for q in (p, prod, lat.poset):
        assert q.out == brute_adjacency(q.n, q.edges, 0)
        assert q.inc == brute_adjacency(q.n, q.edges, 1)


@pytest.mark.parametrize("edges", [
    [(0, 1.0, 1), (1, 2, 1)],                   # float endpoint
    [(0, 1, 1), ("1", 2, 1)],                   # str endpoint
    [(0, 1, True), (1, 2, 1)],                  # bool color
    [[0, 1, 1], [1, 2.5, 1]],                   # float inside a list edge
    [(0, 1.7, 1), ("1", 2, True)],              # mixed: no sort is attempted
])
def test_constructor_rejects_non_int_entries(edges):
    with pytest.raises(MalformedPoset):
        ec.ColoredPoset(3, edges, n_colors=1)


def test_constructor_takes_list_edges():
    tuples = [(1, 2, 1), (0, 1, 1)]
    p = ec.ColoredPoset(3, tuples, n_colors=1)
    q = ec.ColoredPoset(3, [list(e) for e in tuples], n_colors=1)
    assert p.edges == q.edges == ((0, 1, 1), (1, 2, 1))
    assert all(type(e) is tuple for e in q.edges)
    assert q.out == p.out and q.inc == p.inc


def test_is_lattice_on_connected_posets():
    # the 2+2 bowtie a, b < c, d: a and b have no join
    bowtie = ec.build_poset([(0, 2, 1), (0, 3, 2), (1, 2, 2), (1, 3, 1)], 2)
    # c, d < a, b < e: a and b have the join e, but their common down-set
    # {c, d} has no greatest element
    topped = ec.build_poset([(2, 0, 1), (2, 1, 2), (3, 0, 2), (3, 1, 1),
                             (0, 4, 2), (1, 4, 1)], 2)
    # the four-element diamond, its ids against every linear extension
    diamond = ec.build_poset([(3, 1, 1), (3, 2, 2), (1, 0, 2), (2, 0, 1)], 2)
    assert bowtie.is_connected() and topped.is_connected()
    assert bowtie.is_lattice() is False
    assert topped.is_lattice() is False
    assert diamond.is_lattice() is True


def test_tableau_lattice_fixture_checks():
    p = tableau_lattice()
    sc = ec.structure_checks(p)
    assert sc.m_structured and sc.connected and sc.diamond_colored is True
    assert not sc.fibrous
    assert p.wgf() == wsf.freudenthal(A2, (1, 2))
    ok, cert = ec.verify_splitting(p, [(1, 2)])
    assert ok and cert is None
    ranks = ec.rank_function(p)
    assert max(ranks.values()) == 6


def test_minuscule_chain_checks():
    r1 = crystal.minuscule_poset(A2, (1, 0))
    sc = ec.structure_checks(r1)
    assert sc.fibrous and sc.primary and sc.m_structured


def test_primary_counterexample():
    # two length-2 chains of different colors sharing their middle vertex
    edges = [(0, 1, 1), (1, 2, 1), (3, 1, 2), (1, 4, 2)]
    p = ec.build_poset(edges, 2)
    assert p.is_fibrous()
    assert not p.is_primary()


def test_wgf_sum_product_laws():
    r1 = crystal.minuscule_poset(A2, (1, 0))
    r2 = crystal.minuscule_poset(A2, (0, 1))
    s = ec.disjoint_sum(r1, r2)
    assert s.wgf() == r1.wgf() + r2.wgf()
    q = ec.cartesian_product(r1, r2)
    assert q.wgf() == r1.wgf() * r2.wgf()
    assert ec.dual(r1).wgf() == r1.wgf().star()
    assert ec.bowtie(r1).wgf() == r1.wgf().bowtie()


def test_dual_and_bowtie_shapes():
    r1 = crystal.minuscule_poset(A2, (1, 0))
    r2 = crystal.minuscule_poset(A2, (0, 1))
    assert ec.colored_isomorphic(ec.dual(ec.dual(r1)), r1)
    # dual carries chi* = chi_{-w0 lambda}; bowtie fixes the poset
    assert ec.colored_isomorphic(ec.dual(r1), r2)
    assert ec.colored_isomorphic(ec.bowtie(r1), r1)
    assert not ec.colored_isomorphic(r1, r2)


def test_m_structured_products():
    r1 = crystal.minuscule_poset(A2, (1, 0))
    q = ec.cartesian_product(r1, r1)
    assert q.is_m_structured()
    assert ec.dual(q).is_m_structured()


def test_generalized_weight_diagram():
    rq = crystal.quasi_minuscule_poset(G2)
    gwd = ec.generalized_weight_diagram(rq)
    pi = wsf.weight_diagram(G2, (1, 0))
    assert gwd == pi
    single = ec.build_poset([], 2, n_vertices=1, diagram=G2)
    g1 = ec.generalized_weight_diagram(single)
    assert set(g1.weights) == {(0, 0)} and not g1.edges
    assert ec.minimally_indomitable(single) == [0]
    # Pi(P + P) = Pi(P)
    twice = ec.disjoint_sum(rq, rq)
    assert ec.generalized_weight_diagram(twice) == gwd
    dd = ec.minimally_indomitable(twice)
    assert len(dd) == 1 and twice.wt[dd[0]] == (1, 0)


@pytest.mark.parametrize("spec", [
    "A1", "A2", "A3", "A4", "B3", "C2", "C3", "D4", "G2", "A2+G2", "A1+A1",
    "cartan:[[2,0,-1],[0,2,-1],[-1,-1,2]]"])
def test_generalized_weight_diagram_is_pi(spec):
    """Pi(P) == Pi(lambda) for U(lambda), R(lambda) and the building blocks."""
    d = build_diagram(spec)
    gwd = ec.generalized_weight_diagram
    for lam in itertools.product(range(3), repeat=d.rank):
        if sum(lam) <= 2:
            pi = wsf.weight_diagram(d, lam)
            assert gwd(ec.maximal_splitting_poset(d, lam)) == pi
            assert gwd(crystal.build_crystal(d, lam)) == pi
    for lam in crystal.minuscule_dominant_weights(d):
        assert gwd(crystal.minuscule_poset(d, lam)) == wsf.weight_diagram(d, lam)
    if len(d.components) == 1:
        theta_s = d.constants().highest_short_root
        assert gwd(crystal.quasi_minuscule_poset(d)) == wsf.weight_diagram(d, theta_s)


def test_rank_function():
    single = ec.build_poset([], 2, n_vertices=1, diagram=G2)
    assert ec.rank_function(single) == {0: 0}
    r = crystal.build_crystal(G2, (0, 1))
    ranks = ec.rank_function(r)
    assert max(ranks.values()) == 10
    with pytest.raises(Exception):
        ec.rank_function(ec.disjoint_sum(single, single))


def test_rank_function_checks_the_bfs_ranks(monkeypatch):
    d = build_diagram("G2")
    r = crystal.build_crystal(d, (1, 0))
    # a wrong w0(lambda) shifts every weight rank off the poset's rank
    monkeypatch.setattr(d, "w0_weight", lambda lam: (-2, 1))
    with pytest.raises(ExactnessError, match="disagrees with poset rank"):
        ec.rank_function(r)


def _nx_isomorphic(p, q):
    """Colored digraph isomorphism by networkx's VF2 matcher."""
    def graph(r):
        g = nx.DiGraph()
        g.add_nodes_from(range(r.n))
        g.add_edges_from((u, v, {"color": c}) for u, v, c in r.edges)
        return g

    return nx.algorithms.isomorphism.DiGraphMatcher(
        graph(p), graph(q),
        edge_match=lambda a, b: a["color"] == b["color"]).is_isomorphic()


def _flip_one_color(p, k):
    """p with the color of its k-th edge moved to the next color."""
    edges = list(p.edges)
    u, v, c = edges[k]
    edges[k] = (u, v, c % p.n_colors + 1)
    return ec.ColoredPoset(p.n, edges, diagram=p.d)


def test_colored_isomorphic_matches_networkx():
    pairs = []
    for spec, lam in [("A2", (1, 0)), ("A2", (1, 1)), ("A2", (2, 1)),
                      ("B3", (0, 0, 1)), ("C3", (1, 0, 0)), ("G2", (1, 0)),
                      ("G2", (0, 1)), ("A2+G2", (1, 0, 1, 0))]:
        d = build_diagram(spec)
        r = crystal.build_crystal(d, lam)
        shift = {c: c % d.rank + 1 for c in range(1, d.rank + 1)}
        pairs += [(r, ec.dual(r)), (r, ec.recolor(r, shift)),
                  (ec.bowtie(r), r)]
        pairs += [(r, _flip_one_color(r, k)) for k in (0, len(r.edges) // 2)]
    got = [ec.colored_isomorphic(p, q) for p, q in pairs]
    assert got == [_nx_isomorphic(p, q) for p, q in pairs]
    assert True in got and False in got


def _crowns(lengths, perm):
    """Disjoint crowns, one per length k >= 2: k bottoms, k tops, bottom i
    below tops i and i + 1 mod k, all one color; vertex v is renamed perm[v].
    Every bottom and every top looks alike to the refinement, so a matcher
    has to back out of wrong choices."""
    edges, base = [], 0
    for k in lengths:
        for i in range(k):
            edges += [(base + i, base + k + i, 1), (base + i, base + k + (i + 1) % k, 1)]
        base += 2 * k
    return ec.build_poset([(perm[u], perm[v], c) for u, v, c in edges], 1,
                          n_vertices=base)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(6,), (3, 3), (2, 4), (2, 2, 2)]),
       st.sampled_from([(6,), (3, 3), (2, 4), (2, 2, 2)]),
       st.permutations(range(12)))
def test_colored_isomorphic_backtracks(p_lengths, q_lengths, perm):
    p = _crowns(p_lengths, list(range(12)))
    q = _crowns(q_lengths, perm)
    assert ec.colored_isomorphic(p, q) == _nx_isomorphic(p, q)


def test_colored_isomorphic_past_the_recursion_limit():
    r = crystal.build_crystal(A2, (10, 10))
    assert r.n == 1331
    assert ec.colored_isomorphic(r, r)
    assert ec.colored_isomorphic(ec.bowtie(r), r)


def test_maximal_splitting_poset():
    # minuscule: U(lambda) is Pi(lambda) itself
    u = ec.maximal_splitting_poset(A2, (1, 0))
    assert ec.colored_isomorphic(u, crystal.minuscule_poset(A2, (1, 0)))
    u0 = ec.maximal_splitting_poset(A2, (0, 0))
    assert u0.n == 1
    ug = ec.maximal_splitting_poset(G2, (0, 1))
    assert ug.n == 14
    assert ug.wgf() == wsf.freudenthal(G2, (0, 1))
    # each weight-0 vertex joins completely to the adjacent weight classes
    zero_ids = [v for v in range(ug.n) if ug.wt[v] == (0, 0)]
    assert len(zero_ids) == 2
    up_sets = [frozenset((w, c) for _, w, c in ug.out[v]) for v in zero_ids]
    down_sets = [frozenset((w, c) for w, _, c in ug.inc[v]) for v in zero_ids]
    assert up_sets[0] == up_sets[1] and down_sets[0] == down_sets[1]


def _same_as_generic(p, diagram=None):
    """p equals the generic constructor on its edges, and stores them alike.

    A blow-up fills its edge columns, out and inc only when they are read,
    so every other table (n, n_colors, d, labels, rank, components,
    comp_id, rho, lng, wt and the unset caches) is compared field by field,
    the adjacency as materialized views, and the edge columns and every
    row by value and by array typecode.  The member lists are read on both
    sides first, since vars() holds a cache only once it is built.  A
    lattice's producer sets _is_lattice on it, so the same is set on the
    generic poset where p has one.
    """
    generic = ec.ColoredPoset(p.n, list(p.edges), diagram=diagram,
                              n_colors=p.n_colors, labels=p.labels)
    if "_is_lattice" in vars(p):
        generic._is_lattice = p._is_lattice

    def tables(poset):
        return {k: v for k, v in vars(poset).items() if k not in ("edges", "out", "inc")}

    assert p._members == generic._members
    assert tables(p) == tables(generic)
    assert tuple(p.edges) == generic.edges and p.edges == generic.edges
    assert p.out == generic.out and p.inc == generic.inc

    def codes(poset):
        rows = [poset._global_rank, poset._poset_comp, *poset.comp_id, *poset.rho,
                *poset.lng, *poset.edges.columns()]
        return [r.typecode for r in rows]

    assert p.edges.columns() == generic.edges.columns() and codes(p) == codes(generic)


@pytest.mark.parametrize("spec, lam", [
    ("A1", (3,)), ("A2", (2, 2)), ("A3", (1, 1, 1)), ("B3", (1, 0, 1)),
    ("C2", (2, 1)), ("C3", (1, 1, 0)), ("D4", (0, 1, 0, 0)), ("D4", (1, 1, 1, 1)),
    # F4 (0,0,0,1) and A2+G2 have weights of multiplicity 2 with no edge of
    # some color: each copy is a singleton component of that color
    ("F4", (0, 0, 0, 1)), ("G2", (1, 1)), ("G2", (3, 3)),
    ("E6", (1, 0, 0, 0, 0, 1)), ("A2+G2", (1, 1, 1, 0)), ("A1+A1", (2, 1)),
    # one vertex and no edge; every vertex alone in color 2
    ("A2", (0, 0)), ("A1+A1", (2, 0))])
def test_maximal_splitting_poset_is_the_generic_poset(spec, lam):
    d = build_diagram(spec)
    u = ec.maximal_splitting_poset(d, lam)
    _same_as_generic(u, diagram=d)
    assert u.wgf() == wsf.freudenthal(d, lam)


@pytest.mark.parametrize("spec, lam", [
    ("A2", (0, 0)), ("A2", (1, 1)), ("G2", (2, 1)), ("F4", (0, 0, 0, 1)),
    ("A2+G2", (1, 1, 1, 0))])
def test_maximal_splitting_poset_answers_before_its_edges_exist(spec, lam):
    d = build_diagram(spec)
    u = ec.maximal_splitting_poset(d, lam)
    chi = wsf.freudenthal(d, lam)
    pi = wsf.weight_diagram(d, lam)
    assert len(u.edges) == sum(chi.coeff(mu) * chi.coeff(nu) for mu, _, nu in pi.edges)
    assert bool(u.edges) == bool(pi.edges)
    assert u.n == sum(chi.terms.values())
    assert u.labels == tuple(sorted((mu, j) for mu, k in chi.terms.items()
                                    for j in range(1, k + 1)))
    assert u.wgf() == chi
    # none of those answers filled an edge column or built an adjacency list
    assert u.edges._cols is None and "out" not in vars(u) and "inc" not in vars(u)
    assert len(tuple(u.edges)) == len(u.edges)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_blow_up_matches_constructor(data):
    n = data.draw(st.integers(1, 7), label="n")
    n_colors = data.draw(st.integers(1, 3), label="n_colors")
    # edges up one level, no pair twice: ranked and covering
    level = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(n) if level[v] == level[u] + 1]
    chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True)) if pairs else []
    q = ec.ColoredPoset(n, [(u, v, data.draw(st.integers(1, n_colors))) for u, v in chosen],
                        n_colors=n_colors)
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n), label="sizes")
    start = list(itertools.accumulate([0] + sizes))
    p = ec._blow_up(q, sizes)
    assert len(p.edges) == sum(sizes[x] * sizes[y] for x, y, _ in q.edges)
    assert bool(p.edges) == bool(q.edges)
    want = tuple(sorted(
        (a, b, c) for x, y, c in q.edges
        for a in range(start[x], start[x + 1]) for b in range(start[y], start[y + 1])))
    assert p.edges == want
    assert all(p.edges[i] == want[i] for i in range(-len(want), len(want)))
    assert hash(p.edges) == hash(want) and repr(p.edges) == repr(want)
    _same_as_generic(p)


def _gt(n, lam):
    """The gt lattice of size n on the first n - 1 entries of lam."""
    return patternlat.gt_lattice(n, tuple(lam[:n - 1]))


LATTICES = st.one_of(
    st.builds(_gt, st.integers(2, 4), st.lists(st.integers(0, 2), min_size=3, max_size=3)),
    st.builds(patternlat.symplectic_lattice, st.integers(2, 3), st.integers(0, 3)),
    st.builds(patternlat.odd_orth_lattice, st.integers(3, 4), st.integers(0, 2)),
    st.builds(lambda n, m, last: patternlat.even_orth_lattice(n, m, n - last),
              st.integers(4, 5), st.integers(0, 2), st.integers(0, 1)))


@settings(max_examples=60, deadline=None)
@given(LATTICES)
def test_lattice_matches_constructor(lat):
    """The pattern walk's trusted producer gives the poset that the checking
    constructor builds on the same edges, field by field and typecode by
    typecode, and its index is the position of each sorted pattern."""
    _same_as_generic(lat.poset, diagram=lat.diagram)
    assert lat.poset.n == len(lat.patterns) == len(lat.index)
    assert all(lat.index[t] == x for x, t in enumerate(lat.patterns))


FACTORS = [crystal.minuscule_poset(A2, (1, 0)), crystal.minuscule_poset(A2, (0, 1)),
           crystal.quasi_minuscule_poset(A2)]


def _some_poset(kind, data):
    """A poset from the constructor, a crystal_product closure, a blow-up or a
    pattern lattice."""
    if kind == "closure":
        k = data.draw(st.integers(1, 3), label="factors")
        return crystal.crystal_product(*data.draw(
            st.lists(st.sampled_from(FACTORS), min_size=k, max_size=k), label="which"))
    if kind == "lattice":
        return data.draw(LATTICES, label="lattice").poset
    n = data.draw(st.integers(1, 7), label="n")
    n_colors = data.draw(st.integers(1, 3), label="n_colors")
    # edges up one level, no pair twice: ranked and covering
    level = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(n) if level[v] == level[u] + 1]
    chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True)) if pairs else []
    q = ec.ColoredPoset(n, [(u, v, data.draw(st.integers(1, n_colors))) for u, v in chosen],
                        n_colors=n_colors)
    if kind == "constructor":
        return q
    return ec._blow_up(q, data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_adjacency_reads_as_the_oracle(data):
    """out and inc read as brute_adjacency's lists of triples, whole and row
    by row (negative rows too, and IndexError past either end); ends and
    ends_of read the other ends and colors of a row; and up and down give
    the first cover of each color that a scan of the oracle's rows finds,
    on constructor, crystal_product closure, blow-up and lattice posets."""
    kind = data.draw(st.sampled_from(["constructor", "closure", "blow-up", "lattice"]),
                     label="kind")
    p = _some_poset(kind, data)
    n, edges = p.n, tuple(p.edges)
    want_out, want_inc = brute_adjacency(n, edges, 0), brute_adjacency(n, edges, 1)
    for adj, want, end in ((p.out, want_out, 0), (p.inc, want_inc, 1)):
        assert len(adj) == n and adj == want and want == adj and list(adj) == want
        assert adj != want[:-1] and repr(adj) == repr(want)
        assert all(adj[x] == want[x] for x in range(-n, n))
        for x in (n, -n - 1):
            with pytest.raises(IndexError):
                adj[x]
        for x in range(n):
            ws, cs = adj.ends(x)
            assert (list(ws), list(cs)) == ([e[1 - end] for e in want[x]], [e[2] for e in want[x]])
            for c in range(1, p.n_colors + 1):
                assert adj.ends_of(x, c) == [e[1 - end] for e in want[x] if e[2] == c]
    for c in range(1, p.n_colors + 1):
        for x in range(n):
            assert p.up(c, x) == next((w for _, w, cc in want_out[x] if cc == c), None)
            assert p.down(c, x) == next((u for u, _, cc in want_inc[x] if cc == c), None)


def _reads_as(edges, want, data):
    """edges (any Columns) reads as the tuple want of equal-length tuples:
    len, items at every positive and negative index, slices, iteration, ==
    and != both ways, hash and repr."""
    assert len(edges) == len(want) and bool(edges) == bool(want)
    assert all(edges[i] == want[i] for i in range(-len(want), len(want)))
    for i in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            edges[i]
    for _ in range(3):
        cut = data.draw(st.slices(len(want)), label="slice")
        assert type(edges[cut]) is tuple and edges[cut] == want[cut]
    assert tuple(edges) == want and list(edges) == list(want)
    assert all(type(e) is tuple for e in edges)
    assert edges == want and want == edges and not edges != want and not want != edges
    # a tuple is never equal to a list, and neither is the container
    assert edges != list(want) and list(want) != edges
    if want:
        shorter, changed = want[:-1], want[:-1] + (want[-1][:-1] + (99,),)
        assert edges != shorter and shorter != edges and edges != changed
    assert hash(edges) == hash(want) and repr(edges) == repr(want)


CRYSTALS = [(A2, (1, 0)), (A2, (1, 1)), (A2, (2, 1)), (G2, (1, 0)), (G2, (0, 1)),
            (build_diagram("C2"), (1, 1)), (build_diagram("A1+A1"), (2, 1))]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_edge_columns_read_as_the_tuple_of_triples(data):
    """Every poset's edges, from the constructor, a crystal closure or a
    blow-up, read as the tuple of their sorted triples, each built apart
    from the columns; a blow-up's len fills no column.  A closure's labels
    read as the sorted tuple of the factor tuples that raising and lowering
    reach from its top."""
    kind = data.draw(st.sampled_from(["constructor", "closure", "blow-up"]), label="kind")
    if kind == "closure":
        d, lam = data.draw(st.sampled_from(CRYSTALS), label="crystal")
        p = crystal.build_crystal(d, lam)
        ops, ids = p.tensor_ops, {x: k for k, x in enumerate(p.labels)}
        want = tuple(sorted((ids[z], ids[x], i) for x in p.labels
                            for i in range(1, d.rank + 1)
                            for z in (ops.lowering(i, x),) if z is not None))
        _reads_as(p.edges, want, data)
        seen = {p.labels[max(range(p.n), key=p.global_rank)]}
        todo = list(seen)
        while todo:
            x = todo.pop()
            for op in (ops.lowering, ops.raising):
                for i in range(1, d.rank + 1):
                    z = op(i, x)
                    if z is not None and z not in seen:
                        seen.add(z)
                        todo.append(z)
        return _reads_as(p.labels, tuple(sorted(seen)), data)
    n = data.draw(st.integers(1, 7), label="n")
    n_colors = data.draw(st.integers(1, 3), label="n_colors")
    # edges up one level, no pair twice: ranked and covering
    level = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(n) if level[v] == level[u] + 1]
    chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True)) if pairs else []
    edges = [(u, v, data.draw(st.integers(1, n_colors))) for u, v in chosen]
    q = ec.ColoredPoset(n, edges, n_colors=n_colors)
    if kind == "constructor":
        return _reads_as(q.edges, tuple(sorted(edges)), data)
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n), label="sizes")
    start = list(itertools.accumulate([0] + sizes))
    p = ec._blow_up(q, sizes)
    assert len(p.edges) == sum(sizes[x] * sizes[y] for x, y, _ in edges)
    assert bool(p.edges) == bool(edges) and p.edges._cols is None
    _reads_as(p.edges, tuple(sorted(
        (a, b, c) for x, y, c in edges
        for a in range(start[x], start[x + 1]) for b in range(start[y], start[y + 1]))), data)


def test_rows_are_narrow_arrays_and_weights_shared():
    """Each row is an unsigned array as narrow as its values allow, and
    equal weights are one tuple."""
    chain = ec.ColoredPoset(300, [(x, x + 1, 1 + x % 2) for x in range(299)],
                            diagram=A2)
    assert chain.edges.columns()[0].typecode == chain._global_rank.typecode == "H"
    assert chain.edges.columns()[2].typecode == chain._poset_comp.typecode == "B"
    assert [r.typecode for r in chain.rho] == ["B", "H", "H"]
    assert [r.typecode for r in chain.comp_id] == ["B", "B", "B"]
    r = crystal.build_crystal(G2, (2, 1))
    assert len({id(w) for w in r.wt}) == len(set(r.wt)) < r.n


def test_vertex_and_color_rule():
    """global_rank, delta, m and comp_members take a vertex as a plain int in
    0..n-1 and a color as a plain int in 1..n_colors, and raise
    MalformedPoset for anything else (-1 used to read the last vertex, color
    0 a row of zeros, and vertex n ended in a bare IndexError)."""
    p = crystal.build_crystal(A2, (1, 1))
    for call in (lambda: p.global_rank(-1), lambda: p.global_rank(p.n),
                 lambda: p.global_rank(1.0), lambda: p.global_rank(True),
                 lambda: p.m(-1, 0), lambda: p.m(0, 0), lambda: p.m(3, 0),
                 lambda: p.delta(1, p.n), lambda: p.delta(1.0, 0),
                 lambda: p.comp_members(1, -1), lambda: p.comp_members(True, 0),
                 lambda: ec.chain_product_factorization(p, 1, -1),
                 lambda: ec.chain_product_factorization(p, 1.0, 0)):
        with pytest.raises(MalformedPoset):
            call()
    x = p.n - 1
    assert p.global_rank(x) == p._global_rank[x]
    assert p.m(2, x) + p.delta(2, x) == p.rho[2][x]
    assert x in p.comp_members(2, x)


def test_verify_splitting_examples():
    single = ec.build_poset([], 2, n_vertices=1, diagram=A2)
    assert ec.verify_splitting(single, [(0, 0)])[0]
    chain2 = ec.build_poset([(0, 1, 1), (1, 2, 1)], 2, diagram=A2)
    ok, cert = ec.verify_splitting(chain2, [(1, 0)])
    assert not ok and cert


def test_verify_tau_kappa_s_everything():
    r1 = crystal.minuscule_poset(A2, (1, 0))
    w = ec.ColoringWitness(S=frozenset(range(r1.n)), kappa={}, tau={})
    # works iff nu + wtJ dominant everywhere: pick a large nu
    ok, _ = ec.verify_tau_kappa(r1, (1, 2), (1, 1), w)
    assert ok
    ok2, why = ec.verify_tau_kappa(r1, (1, 2), (0, 0), w)
    assert not ok2 and "dominant" in why


def test_coloring_witness_defaults_are_fresh():
    w1, w2 = ec.ColoringWitness(S=frozenset()), ec.ColoringWitness(frozenset({0}))
    assert w1.kappa == w1.tau == w2.kappa == {}
    w1.kappa[0] = 1
    w1.tau[0] = 0
    assert w2.kappa == w2.tau == {} and w1.kappa is not w1.tau
    assert repr(w2) == "ColoringWitness(S=frozenset({0}), kappa={}, tau={})"


def test_verify_tau_kappa_rejects_non_invariant_wgf():
    # weights (-1, 0) and (1, 0): e^(-omega_1) + e^(omega_1) is not W-invariant
    p = ec.build_poset([(0, 1, 1)], 2, diagram=A2)
    assert sorted(p.wt) == [(-1, 0), (1, 0)]
    w = ec.ColoringWitness(S=frozenset(range(p.n)), kappa={}, tau={})
    ok, why = ec.verify_tau_kappa(p, (1, 2), (1, 1), w)
    assert not ok and why == "WGF restricted to J is not W_J-invariant"


def test_verify_tau_kappa_quasi_minuscule():
    for d in (A2, G2, build_diagram("B3")):
        q = crystal.quasi_minuscule_poset(d)
        nodes = tuple(range(1, d.rank + 1))
        w = crystal.quasi_minuscule_tau_kappa(d, q)
        ok, why = ec.verify_tau_kappa(q, nodes, (0,) * d.rank, w)
        assert ok, why
        # corrupt kappa on one vertex: rejected with that vertex reported
        victim = next(iter(w.kappa))
        bad = dict(w.kappa)
        bad[victim] = 1 + (bad[victim] % d.rank)
        wbad = ec.ColoringWitness(S=w.S, kappa=bad, tau=w.tau)
        ok2, why2 = ec.verify_tau_kappa(q, nodes, (0,) * d.rank, wbad)
        assert not ok2 and ("vertex %d" % victim) in why2
        # a kappa value equal to node 1 that is not a plain int is malformed
        one = min(x for x, k in w.kappa.items() if k == 1)
        for k in (1.0, True):
            wbad = ec.ColoringWitness(S=w.S, kappa={**w.kappa, one: k}, tau=w.tau)
            with pytest.raises(MalformedPoset, match="plain ints"):
                ec.verify_tau_kappa(q, nodes, (0,) * d.rank, wbad)


def test_chain_product_factorization():
    p = tableau_lattice()
    # color-1 components of a GT lattice factor as chain products
    seen = set()
    for x in range(p.n):
        key = p.comp_id[1][x]
        if key in seen:
            continue
        seen.add(key)
        members, chains, coords = ec.chain_product_factorization(p, 1, x)
        total = 1
        for c in chains:
            total *= len(c) + 1
        assert total == len(members)
    # a one-color diamond is the product of two 1-chains
    q = ec.build_poset([(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)], 1)
    _, chains, _ = ec.chain_product_factorization(q, 1, 0)
    assert sorted(len(c) for c in chains) == [1, 1]
    # a V-shaped component is not
    v = ec.build_poset([(0, 1, 1), (0, 2, 1)], 1)
    with pytest.raises(NotChainProduct):
        ec.chain_product_factorization(v, 1, 0)


def _factor_or_message(factor, p, color, x):
    try:
        return factor(p, color, x)
    except NotChainProduct as e:
        return str(e)


def _same_factorizations(p):
    """Every color component of p factors, or fails, as the chain-pair scan does."""
    for c in range(1, p.n_colors + 1):
        for x in dict(zip(p.comp_id[c], range(p.n))).values():
            got = _factor_or_message(ec.chain_product_factorization, p, c, x)
            assert got == _factor_or_message(brute_chain_product_factorization, p, c, x)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_chain_product_factorization_matches_chain_scan(data):
    if data.draw(st.booleans(), label="product"):
        # a chain product, perhaps with covers removed: still ranked and covering
        lengths = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        p, _ = chain_product(lengths, [1] * len(lengths))
        drop = data.draw(st.sets(st.integers(0, len(p.edges) - 1), max_size=2))
        n, edges = p.n, [e for i, e in enumerate(p.edges) if i not in drop]
    else:
        # random covers up one level, all of color 1
        n = data.draw(st.integers(1, 9), label="n")
        level = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        pairs = [(u, v) for u in range(n) for v in range(n) if level[v] == level[u] + 1]
        chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=14, unique=True)) \
            if pairs else []
        edges = [(u, v, 1) for u, v in chosen]
    _same_factorizations(ec.ColoredPoset(n, edges, n_colors=1))


def test_chain_product_factorization_sweep():
    from test_acceptance import _lattices
    for _, lat in _lattices():
        _same_factorizations(lat.poset)
    for spec, lam in [("G2", (1, 1)), ("B3", (1, 0, 1)), ("C3", (0, 1, 1)),
                      ("A2+G2", (1, 1, 1, 0))]:
        _same_factorizations(crystal.build_crystal(build_diagram(spec), lam))
    # colors 1 and 2 of this box are products of 2 and of 3 chains
    p, _ = chain_product([2, 1, 3, 1, 2], [1, 2, 1, 2, 2])
    _same_factorizations(p)


def test_subblock_vacuous_and_fibrous():
    p = tableau_lattice()
    ok, _ = ec.verify_subblock_coloring(p, (1, 2), (0, 0), set(range(p.n)), {})
    assert ok
    # fibrous case: chains are 1-factor products; nu = 0 sub-face is
    # everything strictly below the top of each chain
    rq = crystal.quasi_minuscule_poset(G2)
    top = max(range(rq.n), key=lambda v: rq.global_rank(v))
    kappa = {}
    for v in range(rq.n):
        if v == top:
            continue
        kappa[v] = next(c for _, _, c in rq.out[v])
    ok, why = ec.verify_subblock_coloring(rq, (1, 2), (0, 0), {top}, kappa)
    assert ok, why
    # a kappa value equal to node 1 that is not a plain int is malformed
    one = min(x for x, k in kappa.items() if k == 1)
    for k in (1.0, True):
        with pytest.raises(MalformedPoset, match="plain ints"):
            ec.verify_subblock_coloring(rq, (1, 2), (0, 0), {top}, {**kappa, one: k})


def test_subblock_failure_names_first_vertex_of_its_component():
    """A failing (kappa, component) is reported at its lowest id, as a
    vertex-by-vertex scan would."""
    from weylsplit import patternlat
    lat = patternlat.gt_lattice(3, (1, 2))
    p, top = lat.poset, lat.index[lat.max_pattern]
    kappa = lat.slantwise_coloring()
    failures = 0
    for v, k in itertools.product(sorted(kappa), (1, 2)):
        bad = {x: (k if x == v else c) for x, c in kappa.items()}
        ok, why = ec.verify_subblock_coloring(p, (1, 2), (0, 0), {top}, bad)
        if ok:
            continue
        failures += 1
        x = int(why.split("K(")[1].split(")")[0])
        same = [y for y in range(p.n) if y != top and bad[y] == bad[x]
                and p.comp_id[bad[x]][y] == p.comp_id[bad[x]][x]]
        assert x == min(same), (v, k, why)
    assert failures


def chain_product(lengths, colors):
    """The product of chains of these lengths, factor f's steps colored colors[f]."""
    box = list(itertools.product(*(range(ln + 1) for ln in lengths)))
    index = {v: i for i, v in enumerate(box)}
    edges = [(index[v], index[v[:f] + (v[f] + 1,) + v[f + 1:]], colors[f])
             for v in box for f in range(len(lengths)) if v[f] < lengths[f]]
    return ec.build_poset(edges, 2, n_vertices=len(box)), box


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_subblock_verifier_matches_every_order(data):
    lengths = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    m = len(lengths)
    colors = data.draw(st.lists(st.sampled_from((1, 1, 2)), min_size=m, max_size=m))
    p, box = chain_product(lengths, colors)
    # K(x) is a sub-block of the whole box for some order, or a box below
    # random caps; then a few vertices are moved into or out of S
    order = data.draw(st.permutations(range(m)))
    if data.draw(st.booleans()):
        b = data.draw(st.integers(1, sum(lengths) + 1))
        member = sub_block_members([lengths[f] for f in order], b)
    else:
        # b is what the lengths would need if this box were a sub-block
        caps = [data.draw(st.integers(0, ln)) for ln in lengths]
        b = max(1, sum(ln - c for ln, c in zip(lengths, caps)))

        def member(vec):
            return all(x <= caps[f] for x, f in zip(vec, order))
    keep = {v for v, vec in enumerate(box) if member and member([vec[f] for f in order])}
    for v in data.draw(st.lists(st.integers(0, len(box) - 1), max_size=2)):
        keep ^= {v}
    mixed = data.draw(st.sampled_from((False, False, True)))
    kappa = {v: data.draw(st.sampled_from((1, 1, 1, 2))) if mixed else 1 for v in keep}
    nu = (data.draw(st.sampled_from((b - 1, data.draw(st.integers(0, 5))))),
          data.draw(st.integers(0, 3)))
    s_set = set(range(len(box))) - keep
    args = (p, (1, 2), nu, s_set, kappa)
    assert ec.verify_subblock_coloring(*args) == brute_subblock_coloring(*args)


def test_subblock_verifier_boolean_lattice_k10():
    # trying every factor order would take 10! tries per verdict
    p, box = chain_product([1] * 10, [1] * 10)
    start = time.perf_counter()
    # the 1-sub-block is a facet: the last factor of some order held at 0
    facet = {v for v, vec in enumerate(box) if vec[3] == 0}
    assert ec.verify_subblock_coloring(p, (1,), (0,), set(range(p.n)) - facet,
                                       dict.fromkeys(facet, 1)) == (True, None)
    # everything but the top is no sub-block
    top = box.index((1,) * 10)
    kappa = {v: 1 for v in range(p.n) if v != top}
    assert ec.verify_subblock_coloring(p, (1,), (0,), {top}, kappa) == \
        (False, "K(0) is not a 1-sub-block of its 1-component")
    assert time.perf_counter() - start < 10


def test_lemma_3_4_invariants():
    p = tableau_lattice()
    sub, sel = A2.sub_diagram((1, 2))
    for x in range(p.n):
        for j in (1, 2):
            pairing = coroot_pairing(A2, p.wt[x], A2.alpha(j))
            assert p.m(j, x) == pairing
    # equal weights in a connected M-structured poset have equal rank
    by_wt = {}
    for x in range(p.n):
        by_wt.setdefault(p.wt[x], set()).add(p.global_rank(x))
    assert all(len(rs) == 1 for rs in by_wt.values())


def test_edge_minimality_of_fibrous_splitting_posets():
    for d, lam in [(A2, (1, 1)), (G2, (1, 0)), (G2, (0, 1))]:
        r = crystal.build_crystal(d, lam)
        assert ec.verify_splitting(r, [lam])[0]
        for drop in range(len(r.edges)):
            edges = [e for k, e in enumerate(r.edges) if k != drop]
            try:
                q = ec.ColoredPoset(r.n, edges, diagram=d)
            except Exception:
                continue
            assert not ec.verify_splitting(q, [lam])[0]


def test_json_round_trip_and_dot():
    p = tableau_lattice()
    blob = ec.export_poset(p, "json")
    again = ec.import_poset(blob, diagram=A2)
    assert ec.export_poset(again, "json") == blob
    data = json.loads(blob)
    assert data["rank_n"] == 2 and len(data["vertices"]) == 15
    dot = ec.export_poset(p, "dot")
    assert dot.count("->") == len(p.edges) == 23
    single = ec.build_poset([], 3, n_vertices=1, diagram=build_diagram("A3"))
    blob1 = json.loads(ec.export_poset(single))
    assert blob1 == {"rank_n": 3,
                     "vertices": [{"id": 0, "wt": [0, 0, 0]}], "edges": []}


@pytest.mark.parametrize("spec, lam", [
    ("A2", (1, 1)), ("G2", (2, 1)), ("B3", (1, 0, 1)),
    # weights of multiplicity 2 with no edge of some color
    ("F4", (0, 0, 0, 1)), ("A2+G2", (1, 1, 1, 0))])
def test_maximal_splitting_poset_export_import_round_trip(spec, lam):
    d = build_diagram(spec)
    # each export walks the edges of a fresh U(lambda)
    exports = {fmt: ec.export_poset(ec.maximal_splitting_poset(d, lam), fmt)
               for fmt in ("json", "dot")}
    u = ec.maximal_splitting_poset(d, lam)
    generic = ec.ColoredPoset(u.n, list(u.edges), diagram=d, n_colors=u.n_colors,
                              labels=u.labels)
    assert exports == {fmt: ec.export_poset(generic, fmt) for fmt in exports}
    again = ec.import_poset(exports["json"], diagram=d)
    assert again.edges == u.edges and u.edges == again.edges and again.wt == u.wt


def test_import_rejects_bad_weights():
    p = crystal.minuscule_poset(A2, (1, 0))
    data = json.loads(ec.export_poset(p))
    data["vertices"][0]["wt"] = [9, 9]
    with pytest.raises(NotMStructured):
        ec.import_poset(data, diagram=A2)


def test_rank_size_palindromic_and_rgf():
    from weylsplit import patternlat
    for d, lam in [(A2, (1, 2)), (G2, (0, 1))]:
        r = crystal.build_crystal(d, lam)
        hist = {}
        for v in range(r.n):
            hist[r.global_rank(v)] = hist.get(r.global_rank(v), 0) + 1
        coeffs = [hist.get(k, 0) for k in range(max(hist) + 1)]
        assert coeffs == coeffs[::-1]
        assert tuple(coeffs) == patternlat.rgf_quotient(d, lam)


def test_dual_is_identity_on_ids():
    r1 = crystal.minuscule_poset(A2, (1, 0))
    dd = ec.dual(ec.dual(r1))
    assert dd.edges == r1.edges and dd.labels == r1.labels


@pytest.mark.parametrize("spoil", [
    lambda d: d["vertices"][0].update(id=7),          # ids not dense
    lambda d: d["vertices"][1].update(id=0),          # duplicate id
    lambda d: d["vertices"][1].update(id="1"),        # id not an int
    lambda d: d.pop("rank_n"),
    lambda d: d.pop("vertices"),
    lambda d: d.pop("edges"),
    lambda d: d["vertices"][0].pop("wt"),
    lambda d: d["edges"][0].pop("color"),
    lambda d: d.update(rank_n="2"),                   # numbers must be plain ints
    lambda d: d.update(rank_n=2.0),
    lambda d: d["vertices"][1].update(id=True),
    lambda d: d["vertices"][0].update(wt=[1.0, 0]),
    lambda d: d["vertices"][0].update(wt=[None, 0]),
    lambda d: d["edges"][0].update(to=1.9),
    lambda d: d["edges"][0].update(color=True),
    lambda d: d.update(rank_n=-1),                    # rank_n must be >= 0
    lambda d: d["vertices"][0].update(wt=[0]),        # wt of length rank_n
    lambda d: d["vertices"][2].update(wt=[0, 0, 0]),
])
def test_import_rejects_malformed_json(spoil):
    data = json.loads(ec.export_poset(crystal.minuscule_poset(A2, (1, 0))))
    spoil(data)
    with pytest.raises(MalformedPoset):
        ec.import_poset(data, diagram=A2)


def test_import_checks_rank_n():
    with pytest.raises(MalformedPoset):
        ec.import_poset({"rank_n": -1, "vertices": [{"id": 0, "wt": []}], "edges": []})
    with pytest.raises(MalformedPoset):
        ec.import_poset({"rank_n": 1, "vertices": [{"id": 0, "wt": []}], "edges": []})
    three = {"rank_n": 3, "vertices": [{"id": 0, "wt": [0, 0, 0]}], "edges": []}
    with pytest.raises(DiagramMismatch):
        ec.import_poset(three, diagram=A2)
    assert ec.import_poset(three).wt == ((0, 0, 0),)
    assert ec.import_poset(three, diagram=build_diagram("A3")).n == 1


def test_import_reads_rank_n_through_the_gate():
    """A null rank_n is not passed on, where the constructor would infer it,
    and a rank_n past MAX_RANK is refused by the constructor, which builds
    its tables per color, also with no vertex whose wt length could differ."""
    for rank_n, vertices in [(None, [{"id": 0, "wt": []}]), (None, []), (65, [])]:
        with pytest.raises(MalformedPoset):
            ec.import_poset({"rank_n": rank_n, "vertices": vertices, "edges": []})
    with pytest.raises(MalformedPoset):
        ec.import_poset({"rank_n": None, "vertices": [{"id": 0, "wt": [0, 0]}], "edges": []},
                        diagram=A2)
    assert ec.import_poset({"rank_n": 64, "vertices": [], "edges": []}).n_colors == 64


@pytest.mark.parametrize("text", ['{"rank_n":2,', "", "[1, 2", "rank_n"])
def test_import_rejects_invalid_json_text(text):
    with pytest.raises(MalformedPoset):
        ec.import_poset(text, diagram=A2)
