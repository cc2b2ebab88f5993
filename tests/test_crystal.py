import gc
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from weylsplit import build_diagram, crystal as cr, ecposet as ec, wsf
from weylsplit.cartan import sub_weight
from weylsplit.errors import (DiagramMismatch, ExactnessError, NoExpression,
                              NotDominant, NotFibrous, NotGCM, NotIrreducible,
                              NotMinuscule, NotMStructured, NotPrimaryFactor)

from conftest import (brute_jnu_coloring, brute_omega_expression, brute_signature,
                      load_fixture)

A1 = build_diagram("A1")
A2 = build_diagram("A2")
A3 = build_diagram("A3")
C2 = build_diagram("C2")
G2 = build_diagram("G2")
UFIX = load_fixture("u_tables.json")


def _letter_posets(d):
    """The minuscule and quasi-minuscule posets of an irreducible diagram."""
    return ([cr.minuscule_poset(d, w) for w in cr.minuscule_dominant_weights(d)]
            + [cr.quasi_minuscule_poset(d)])


LETTER_POSETS = [_letter_posets(d) for d in (A2, build_diagram("B3"),
                                             build_diagram("C3"), G2)]


@st.composite
def factor_tuples(draw):
    """(factors, x) with 1-4 letter posets of one diagram and a vertex of each."""
    pool = draw(st.sampled_from(LETTER_POSETS))
    factors = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    x = tuple(draw(st.integers(0, f.n - 1)) for f in factors)
    return factors, x


def test_minuscule_poset_a2():
    r = cr.minuscule_poset(A2, (1, 0))
    assert r.n == 3
    # 3-chain, colors bottom-to-top 2 then 1
    bottom = next(v for v in range(3) if not r.inc[v])
    c_bottom = r.out[bottom][0][2]
    mid = r.out[bottom][0][1]
    c_top = r.out[mid][0][2]
    assert (c_bottom, c_top) == (2, 1)
    with pytest.raises(NotMinuscule):
        cr.minuscule_poset(A2, (1, 1))
    with pytest.raises(NotMinuscule):
        cr.minuscule_poset(G2, (1, 0))


def test_quasi_minuscule_posets():
    qg = cr.quasi_minuscule_poset(G2)
    assert qg.n == 7
    assert ec.verify_splitting(qg, [(1, 0)])[0]
    qa = cr.quasi_minuscule_poset(A2)
    assert qa.n == 8
    assert qa.wgf() == wsf.freudenthal(A2, (1, 1))
    for q in (qg, qa):
        sc = ec.structure_checks(q)
        assert sc.fibrous and sc.primary and sc.m_structured
    with pytest.raises(NotIrreducible):
        cr.quasi_minuscule_poset(build_diagram("A1+A1"))


def test_crystal_product_point_identity():
    r = cr.minuscule_poset(A2, (1, 0))
    point = ec.build_poset([], 2, n_vertices=1, diagram=A2)
    assert ec.colored_isomorphic(cr.crystal_product(r, point), r)
    assert ec.colored_isomorphic(cr.crystal_product(point, r), r)


def test_crystal_product_a2_components():
    r = cr.minuscule_poset(A2, (1, 0))
    p = cr.crystal_product(r, r)
    assert p.n == 9 and p.n_poset_components == 2
    sizes = {}
    for v in range(p.n):
        sizes[p._poset_comp[v]] = sizes.get(p._poset_comp[v], 0) + 1
    assert sorted(sizes.values()) == [3, 6]
    assert p.wgf() == r.wgf() * r.wgf()
    # the components carry chi_{2w1} and chi_{w2}
    exp = wsf.expand_in_bialternants(p.wgf())
    assert exp == {(2, 0): 1, (0, 1): 1}


def test_crystal_product_requires_fibrous():
    u = ec.maximal_splitting_poset(G2, (0, 1))   # not fibrous
    point = ec.build_poset([], 2, n_vertices=1, diagram=G2)
    with pytest.raises(NotFibrous):
        cr.crystal_product(u, point)


def test_raising_lowering_inverse():
    r = cr.minuscule_poset(A2, (1, 0))
    p = cr.crystal_product(r, r)
    for vid in range(p.n):
        x = p.labels[vid]
        for i in (1, 2):
            y = cr.lowering(p, x, i)
            if y is not None:
                assert cr.raising(p, y, i) == x
            z = cr.raising(p, x, i)
            if z is None:
                assert p.tensor_ops.signature(i, x)[0] == 0
    # maximal vertices raise to nothing in every color
    top = max(range(p.n), key=lambda v: p.global_rank(v))
    assert all(cr.raising(p, p.labels[top], i) is None for i in (1, 2))


@settings(max_examples=300, deadline=None)
@given(factor_tuples())
def test_signature_matches_two_scans(case):
    factors, x = case
    ops = cr.TensorOps(factors)
    for i in range(1, ops.d.rank + 1):
        for k in range(1, len(x) + 1):
            assert ops.signature(i, x[:k]) == brute_signature(factors, i, x[:k])
        y = ops.lowering(i, x)
        if y is not None:
            assert ops.raising(i, y) == x
        z = ops.raising(i, x)
        if z is not None:
            assert ops.lowering(i, z) == x


@pytest.mark.parametrize("spec, lam", [
    ("A2", (1, 1)), ("A2", (2, 1)), ("A2", (0, 3)), ("B3", (0, 0, 1)),
    ("B3", (1, 0, 0)), ("B3", (0, 1, 0)), ("C3", (1, 0, 0)), ("C3", (1, 1, 0)),
    ("G2", (1, 0)), ("G2", (0, 1)), ("G2", (2, 0)), ("A2+G2", (1, 0, 1, 0)),
    ("A2+G2", (1, 1, 0, 1))])
def test_closure_is_component_of_full_product(spec, lam):
    d = build_diagram(spec)
    r = cr.build_crystal(d, lam)
    full = cr.crystal_product(*r.tensor_ops.factors)
    seed = next(r.labels[v] for v in range(r.n) if r.wt[v] == lam)
    comp = next(c for c, verts in ec.components(full)
                if seed in (full.labels[v] for v in verts))
    assert comp.labels == r.labels
    assert comp.edges == r.edges


def test_raising_matches_edge_set():
    r = cr.minuscule_poset(A2, (1, 0))
    p = cr.crystal_product(r, r)
    ids = {p.labels[v]: v for v in range(p.n)}
    edges = set()
    for vid in range(p.n):
        for i in (1, 2):
            y = cr.raising(p, p.labels[vid], i)
            if y is not None:
                edges.add((vid, ids[y], i))
    assert edges == set(p.edges)


def test_lemma_5_9_unique_pair():
    r = cr.build_crystal(G2, (1, 0))
    p = cr.crystal_product(r, r)
    for c in (1, 2):
        comps = {}
        for v in range(p.n):
            comps.setdefault(p.comp_id[c][v], []).append(v)
        for members in comps.values():
            x1s = [p.labels[v] for v in members]
            special = [v for v in members
                       if r.rho[c][p.labels[v][0]] == r.delta(c, p.labels[v][1])]
            assert len(special) == 1
            top = max(members, key=lambda v: p.rho[c][v])
            assert r.delta(c, p.labels[top][0]) == 0
            bot = min(members, key=lambda v: p.rho[c][v])
            assert r.rho[c][p.labels[bot][1]] == 0


def test_omega_expressions():
    e = cr.omega_expression(A2, (1, 0))
    assert e.terms == ((1, 0),) and e.flavor == "minuscule"
    e = cr.omega_expression(G2, (0, 1))
    assert e.terms == ((1, 0), (-1, 1)) and e.flavor == "quasi-minuscule"
    e = cr.omega_expression(A2, (2, 0))
    assert e.terms == ((1, 0), (1, 0))
    # partial sums dominant
    for lam in [(1, 1), (2, 1), (0, 2)]:
        for d in (A2, C2, G2):
            expr = cr.omega_expression(d, lam)
            acc = (0, 0)
            for t in expr.terms:
                acc = tuple(a + b for a, b in zip(acc, t))
                assert d.is_dominant(acc)
            assert acc == lam


OMEGA_DIAGRAMS = [build_diagram(spec) for spec in
                  ["A1", "A2", "A3", "A4", "B3", "C3", "D4", "G2", "F4"]]


@st.composite
def _small_dominant_weights(draw):
    d = draw(st.sampled_from(OMEGA_DIAGRAMS))
    lam = draw(st.tuples(*[st.integers(0, 4 if d.rank <= 2 else 2)] * d.rank))
    return d, lam


@settings(max_examples=80, deadline=None)
@given(_small_dominant_weights())
def test_omega_expression_matches_deepening_search(case):
    d, lam = case
    if not any(lam):
        with pytest.raises(NoExpression):
            cr.omega_expression(d, lam)
        return
    assert cr.omega_expression(d, lam) == brute_omega_expression(d, lam)


def test_omega_expression_sweep():
    for d in OMEGA_DIAGRAMS:
        for lam in ([d.omega(k) for k in range(1, d.rank + 1)]
                    + [(2,) * d.rank, tuple(range(d.rank))]):
            if any(lam):
                assert cr.omega_expression(d, lam) == brute_omega_expression(d, lam)


def test_omega_expression_longer_than_the_recursion_limit():
    expr = cr.omega_expression(A1, (1201,))
    assert expr == cr.OmegaExpr(((1,),) * 1201, ((1,),) * 1201, "minuscule")


def test_equal_letters_share_one_factor():
    r = cr.build_crystal(A2, (3, 1))
    factors = r.tensor_ops.factors
    assert len(factors) == 4
    assert factors[1] is factors[2] is factors[3] is not factors[0]


def test_memoized_crystal_builds_no_unread_table():
    """R(lambda) in d.memo holds no adjacency or member list until one is
    read: decompose and branch read rho, lng and wt, export edges and wt."""
    lazy = {"out", "inc", "_members"}
    d = build_diagram("B3")
    lam = (1, 0, 1)
    r = cr.build_crystal(d, lam)
    assert d.memo["crystal"][lam] is r and not lazy & set(vars(r))
    cr.decompose(d, (0, 1, 0), lam)
    cr.branch(d, lam, (1, 3))
    ec.export_poset(r, "json")
    ec.export_poset(r, "dot")
    assert cr.build_crystal(d, lam) is r and not lazy & set(vars(r))
    r.comp_members(2, 0)
    r.up(1, 0)
    assert {"out", "_members"} <= set(vars(r)) and "inc" not in vars(r)


def test_crystal_bytes_per_vertex():
    """A memoized R(lambda) keeps only what it has been asked for, compactly.

    tracemalloc counts the bytes that build_crystal leaves allocated on a
    fresh diagram (constants built first).  On CPython 3.11 x86-64 that is
    76 per vertex of R(F4, (1,0,0,1)), 76 of R(A4, (1,1,1,1)) and 46 of
    R(G2, (3,2)), with the edges in int columns, the labels in one int
    column per factor, shared weight tuples and array rows; it was 149,
    150 and 142 with a tuple of factor ids per vertex, 503-518, 518 and 405
    with a tuple per edge and list rows as well, and 917 on F4 when out,
    inc and the member lists were built with every poset.
    """
    for spec, lam, bound in [("F4", (1, 0, 0, 1), 100), ("A4", (1, 1, 1, 1), 100),
                             ("G2", (3, 2), 60)]:
        d = build_diagram(spec)
        d.constants()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            r = cr.build_crystal(d, lam)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / r.n <= bound, (spec, held / r.n)


def test_crystal_labels_are_factor_columns():
    """R(lambda)'s labels are one narrow int column per factor position, and
    the constructor and the transforms keep them as they are."""
    r = cr.build_crystal(G2, (2, 1))
    assert isinstance(r.labels, ec.Columns)
    assert [col.typecode for col in r.labels.columns()] == ["B"] * len(r.tensor_ops.factors)
    for q in (ec.dual(r), ec.recolor(r, {1: 1, 2: 2}), ec.bowtie(r)):
        assert q.labels is r.labels
    assert ec.disjoint_sum(r, r).labels == tuple(r.labels) * 2


def test_build_crystal_examples():
    r = cr.build_crystal(G2, (0, 1))
    assert r.n == 14
    assert r.wgf() == wsf.freudenthal(G2, (0, 1))
    r0 = cr.build_crystal(G2, (0, 0))
    assert r0.n == 1
    r15 = cr.build_crystal(A2, (1, 2))
    assert r15.n == 15
    assert r15.wgf() == wsf.freudenthal(A2, (1, 2))


def test_build_crystal_structure(diagrams):
    for name, lam in [("A2", (1, 1)), ("C2", (1, 1)), ("G2", (0, 1)),
                      ("A3", (1, 0, 1)), ("B3", (0, 0, 1))]:
        d = diagrams[name]
        r = cr.build_crystal(d, lam)
        sc = ec.structure_checks(r)
        assert sc.fibrous and sc.m_structured and sc.connected
        assert cr.strongly_untangled(r)
        assert ec.verify_splitting(r, [lam])[0]


def test_build_crystal_reducible():
    d = build_diagram("A2+A1")
    r = cr.build_crystal(d, (1, 0, 1))
    assert r.n == 6
    assert r.wgf() == wsf.freudenthal(d, (1, 0, 1))
    # reducible diagrams give Cartesian product shapes
    a2part = cr.build_crystal(A2, (1, 0))
    a1part = cr.build_crystal(A1, (1,))
    assert r.n == a2part.n * a1part.n


def test_tensor_assoc_and_dual_laws():
    p1 = cr.minuscule_poset(A2, (1, 0))
    p2 = cr.minuscule_poset(A2, (0, 1))
    p3 = cr.quasi_minuscule_poset(A2)
    left = cr.crystal_product(cr.crystal_product(p1, p2), p3)
    # flatten nested labels for comparison via isomorphism only
    right = cr.crystal_product(p1, cr.crystal_product(p2, p3))
    flat = cr.crystal_product(p1, p2, p3)
    assert ec.colored_isomorphic(left, flat)
    assert ec.colored_isomorphic(right, flat)
    # (P1 x P2)* = P2* x P1*
    a = ec.dual(cr.crystal_product(p1, p2))
    b = cr.crystal_product(ec.dual(p2), ec.dual(p1))
    assert ec.colored_isomorphic(a, b)


def test_bowtie_self_isomorphism():
    for d, lam in [(A2, (1, 1)), (C2, (1, 0)), (G2, (0, 1)), (A3, (1, 0, 1))]:
        r = cr.build_crystal(d, lam)
        assert ec.colored_isomorphic(ec.bowtie(r), r)


def test_expression_independence():
    # two distinct valid words for C2 omega1+omega2 yield isomorphic components
    letters = sorted(C2.weyl_orbit((1, 0)))
    lam = (1, 1)
    r_min = cr.build_crystal(C2, lam)
    factor = cr.minuscule_poset(C2, (1, 0))
    words = []
    for w1 in letters:
        for w2 in letters:
            for w3 in letters:
                sums = [w1, tuple(a + b for a, b in zip(w1, w2))]
                sums.append(tuple(a + b for a, b in zip(sums[1], w3)))
                if all(C2.is_dominant(s) for s in sums) and sums[-1] == lam:
                    words.append((w1, w2, w3))
    assert len(words) >= 2
    ops = cr.TensorOps([factor] * 3)
    for word in words:
        seed = tuple(next(v for v in range(factor.n) if factor.wt[v] == mu)
                     for mu in word)
        comp = ops.closure([seed])
        assert ec.colored_isomorphic(comp, r_min)


def test_m_set_and_decompose():
    dec = cr.decompose(G2, (1, 0), (1, 0))
    assert dec == {(2, 0): 1, (0, 1): 1, (1, 0): 1, (0, 0): 1}
    assert cr.decompose(G2, (2, 1), (0, 0)) == {(2, 1): 1}
    got = cr.branch(A2, (1, 0), (1,))
    assert got == {(1,): 1, (0,): 1}


def test_decompose_matches_oracle(diagrams):
    for name in ["A2", "C2", "G2"]:
        d = diagrams[name]
        for nu in [(1, 0), (0, 1), (1, 1)]:
            for lam in [(1, 0), (0, 1), (2, 0)]:
                want = wsf.expand_in_bialternants(
                    wsf.freudenthal(d, nu) * wsf.freudenthal(d, lam))
                got = cr.decompose(d, nu, lam)
                assert got == want
                assert all(c >= 0 for c in got.values())


# types A-G of rank <= 3, and a reducible one; entries <= 1 at rank 3
PROPERTY_DIAGRAMS = [build_diagram(spec) for spec in
                     ["A1", "A2", "A3", "B3", "C2", "C3", "G2", "A1+A1"]]


@st.composite
def _two_dominant_weights(draw):
    d = draw(st.sampled_from(PROPERTY_DIAGRAMS))
    weight = st.tuples(*[st.integers(0, 1 if d.rank == 3 else 2)] * d.rank)
    return d, draw(weight), draw(weight)


@settings(max_examples=40, deadline=None)
@given(_two_dominant_weights())
def test_decompose_is_the_bialternant_expansion(case):
    """The crystal's M-set count against Freudenthal and the bialternant expansion."""
    d, lam, mu = case
    want = wsf.expand_in_bialternants(wsf.freudenthal(d, lam) * wsf.freudenthal(d, mu))
    assert cr.decompose(d, lam, mu) == want


def test_branch_rejects_nodes_out_of_range():
    for nodes in [(0,), (3,), (1, 5)]:
        with pytest.raises(NotGCM, match="node subset out of range"):
            cr.branch(A2, (1, 1), nodes)
    with pytest.raises(NotGCM, match="at least one node"):
        cr.branch(A2, (1, 1), ())


def test_branch_matches_oracle():
    for d, lam, nodes in [(A3, (1, 0, 1), (1, 2)), (A3, (0, 1, 0), (1, 3)),
                          (build_diagram("B3"), (0, 0, 1), (2, 3))]:
        want = wsf.expand_in_bialternants(
            wsf.freudenthal(d, lam).restrict(nodes))
        assert cr.branch(d, lam, nodes) == want


def test_jnu_colorings():
    qg = cr.quasi_minuscule_poset(G2)
    single = cr.crystal_product(qg)
    nodes, nu = (1, 2), (0, 0)
    kap = cr.jnu_coloring([qg], single, nodes, nu)
    assert cr.verify_jnu_coloring(single, nodes, nu, kap)[0]
    # M = whole poset: vacuous coloring
    big_nu = (9, 9)
    kap2 = cr.jnu_coloring([qg], single, nodes, big_nu)
    assert kap2 == {}
    assert cr.verify_jnu_coloring(single, nodes, big_nu, kap2)[0]
    # product of two copies of R(omega1) for G2, both components
    rw1 = cr.build_crystal(G2, (1, 0))
    prod = cr.crystal_product(rw1, rw1)
    kap3 = cr.jnu_coloring([rw1, rw1], prod, nodes, nu)
    assert cr.verify_jnu_coloring(prod, nodes, nu, kap3)[0]
    with pytest.raises(NotPrimaryFactor):
        cr.jnu_coloring([ec.maximal_splitting_poset(G2, (0, 1))], prod, nodes, nu)


def test_strongly_untangled_counterexample():
    # disjoint union that is fine, versus a connected tangle
    r = cr.minuscule_poset(A2, (1, 0))
    assert cr.strongly_untangled(r)
    # two 2-chains of the same color sharing the bottom: two maxima
    p = ec.build_poset([(0, 1, 1), (0, 2, 2), (1, 3, 2), (2, 4, 1)], 2,
                       diagram=A2)
    assert not cr.strongly_untangled(p)


def test_classifier(diagrams):
    mins = {"A1": [(1,)], "A2": [(1, 0), (0, 1)],
            "A3": [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
            "B3": [(0, 0, 1)], "C2": [(1, 0)], "C3": [(1, 0, 0)], "G2": []}
    for name, lams in mins.items():
        d = diagrams[name]
        for lam in lams:
            r = cr.minuscule_poset(d, lam)
            assert cr.classify_primary_plus(r) == ("minuscule", lam)
    for name in ["A1", "A2", "A3", "B3", "C2", "C3", "G2"]:
        d = diagrams[name]
        q = cr.quasi_minuscule_poset(d)
        lam = d.constants().highest_short_root
        assert cr.classify_primary_plus(q) == ("quasi-minuscule", lam)
    adj = cr.build_crystal(G2, (0, 1))
    assert cr.classify_primary_plus(adj)[0] == "neither"


def test_classify_without_diagram(monkeypatch):
    r = cr.minuscule_poset(A2, (1, 0))
    bare = ec.ColoredPoset(r.n, r.edges, n_colors=r.n_colors)
    assert bare.is_connected() and bare.is_fibrous()
    with pytest.raises(NotMStructured):
        bare.is_m_structured()
    assert cr.classify_primary_plus(bare) == ("neither", None)
    # any other error from the M-structure check propagates

    def broken(self):
        raise RuntimeError("broken check")

    monkeypatch.setattr(ec.ColoredPoset, "is_m_structured", broken)
    with pytest.raises(RuntimeError, match="broken check"):
        cr.classify_primary_plus(r)


def test_u_tables_fixture(diagrams):
    for name, rows in UFIX.items():
        d = diagrams[name]
        table = cr.u_table(d)
        for k, vals in rows.items():
            assert list(table[int(k)]) == vals
    with pytest.raises(NotIrreducible):
        cr.u_table(build_diagram("A1+A1"))


def test_saturation_predicate(diagrams):
    # G2 example: sum a_k u^(k) = (2,1) <= (3,3)
    assert cr.saturation_predicate(G2, (1, 0), (3, 3))
    assert not cr.saturation_predicate(G2, (1, 0), (1, 1))
    nodes = (1, 2)
    for lam, nu in [((1, 0), (3, 3)), ((1, 0), (2, 1)), ((0, 1), (3, 2)),
                    ((0, 1), (2, 2)), ((1, 1), (5, 3)), ((1, 1), (4, 2))]:
        pred = cr.saturation_predicate(G2, lam, nu)
        r = cr.build_crystal(G2, lam)
        full = len(cr.m_set(r, nodes, nu)) == r.n
        assert pred == full


def test_saturated_decompose_has_kostka_coefficients():
    # nu = 3w1+3w2 saturates G2 omega1; the decomposition
    # coefficients are then exactly the weight multiplicities
    nu = (3, 3)
    assert cr.saturation_predicate(G2, (1, 0), nu)
    dec = cr.decompose(G2, nu, (1, 0))
    chi = wsf.freudenthal(G2, (1, 0))
    want = {tuple(a + b for a, b in zip(nu, mu)): c
            for mu, c in chi.terms.items()}
    assert dec == want


def test_components_of_product_carry_factors():
    r = cr.minuscule_poset(A2, (1, 0))
    p = cr.crystal_product(r, r)
    comps = ec.components(p)
    assert sorted(c.n for c, _ in comps) == [3, 6]
    chis = sorted((c.n, wsf.expand_in_bialternants(c.wgf())) for c, _ in comps)
    assert chis[0][1] == {(0, 1): 1}
    assert chis[1][1] == {(2, 0): 1}
    # each component verifies a jnu coloring on its own
    for comp, _ in comps:
        kap = cr.jnu_coloring([r, r], comp, (1, 2), (0, 0))
        assert cr.verify_jnu_coloring(comp, (1, 2), (0, 0), kap)[0]


def test_tau_from_jnu_coloring():
    for d, lam in [(G2, (0, 1)), (A2, (1, 1)), (C2, (1, 1))]:
        r = cr.build_crystal(d, lam)
        full = tuple(range(1, d.rank + 1))
        for nodes, nu in [(full, (0,) * d.rank), ((1,), (1,)), ((1,), (0,))]:
            factors = r.tensor_ops.factors
            kap = cr.jnu_coloring(factors, r, nodes, nu)
            assert cr.verify_jnu_coloring(r, nodes, nu, kap)[0]
            wit = cr.tau_from_jnu_coloring(r, nodes, nu, kap)
            ok, why = ec.verify_tau_kappa(r, nodes, nu, wit)
            assert ok, (d.type_string(), lam, nodes, nu, why)


def test_u_tables_rank_four():
    want = {
        "B4": {1: (1, 1, 1, 2), 2: (2, 2, 2, 2), 3: (2, 2, 2, 2),
               4: (1, 1, 1, 1)},
        "C4": {1: (1, 1, 1, 1), 2: (2, 2, 2, 1), 3: (2, 2, 2, 1),
               4: (2, 2, 2, 1)},
        "D4": {1: (1, 1, 1, 1), 2: (2, 2, 2, 2), 3: (1, 1, 1, 1),
               4: (1, 1, 1, 1)},
        "F4": {1: (2, 2, 2, 2), 2: (3, 3, 4, 4), 3: (2, 2, 3, 3),
               4: (1, 1, 2, 2)},
        "A4": {k: (1, 1, 1, 1) for k in range(1, 5)},
    }
    for name, rows in want.items():
        d = build_diagram(name)
        assert cr.u_table(d) == rows


def test_rank_four_crystals():
    f4 = build_diagram("F4")
    qm = cr.quasi_minuscule_poset(f4)
    assert qm.n == 26
    assert ec.verify_splitting(qm, [(0, 0, 0, 1)])[0]
    assert cr.classify_primary_plus(qm) == ("quasi-minuscule", (0, 0, 0, 1))
    adj = cr.build_crystal(f4, (1, 0, 0, 0))
    assert adj.n == 52
    assert adj.wgf() == wsf.freudenthal(f4, (1, 0, 0, 0))
    assert cr.classify_primary_plus(adj)[0] == "neither"
    d4 = build_diagram("D4")
    for k in (1, 3, 4):
        r = cr.build_crystal(d4, d4.omega(k))
        assert r.n == 8
        assert cr.classify_primary_plus(r) == ("minuscule", d4.omega(k))


def test_branch_to_disconnected_subset():
    d4 = build_diagram("D4")
    for lam in [(0, 1, 0, 0), (1, 0, 0, 1)]:
        for nodes in [(1, 3), (1, 4), (3, 4), (1, 3, 4)]:
            want = wsf.expand_in_bialternants(
                wsf.freudenthal(d4, lam).restrict(nodes))
            assert cr.branch(d4, lam, nodes) == want


def test_non_dominant_input_raises():
    for call in (lambda: cr.omega_expression(G2, (-1, 1)),
                 lambda: cr.build_crystal(G2, (-1, 0)),
                 lambda: cr.decompose(G2, (-1, 0), (1, 0)),
                 lambda: cr.decompose(G2, (1, 0), (0, -1)),
                 lambda: cr.branch(G2, (-1, 0), (1,))):
        with pytest.raises(NotDominant):
            call()
    with pytest.raises(NoExpression):
        cr.omega_expression(G2, (0, 0))


def test_jnu_coloring_checks(monkeypatch):
    qg = cr.quasi_minuscule_poset(G2)
    prod = cr.crystal_product(qg, qg)
    with pytest.raises(NotDominant):
        cr.jnu_coloring([qg, qg], prod, (1, 2), (0, -1))
    # tables that make every color special at once are a library bug: every
    # vertex of `liar` claims the bottom of a length-3 chain in both colors,
    # and after the top of qg both become special
    liar = cr.quasi_minuscule_poset(G2)
    monkeypatch.setattr(liar, "rho", [[0] * liar.n] * 3)
    monkeypatch.setattr(liar, "lng", [[0] * liar.n] + [[3] * liar.n] * 2)
    monkeypatch.setattr(ec.ColoredPoset, "is_primary", lambda self: True)
    for coloring in (cr.jnu_coloring, brute_jnu_coloring):
        with pytest.raises(ExactnessError, match="special"):
            coloring([qg, liar], prod, (1, 2), (0, 0))


PRIMARY_POSETS = [[f for f in pool if f.is_primary()] for pool in LETTER_POSETS]


@st.composite
def _colored_products(draw):
    """(factors, product, J, nu): 1-3 primary letter posets of one diagram."""
    pool = draw(st.sampled_from(PRIMARY_POSETS))
    factors = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    rank = factors[0].n_colors
    nodes = draw(st.lists(st.integers(1, rank), min_size=1, max_size=rank, unique=True))
    nu = draw(st.tuples(*[st.integers(0, 2)] * len(nodes)))
    return factors, cr.crystal_product(*factors), sorted(nodes), nu


@settings(max_examples=60, deadline=None)
@given(_colored_products())
def test_jnu_coloring_matches_recursion(case):
    factors, prod, nodes, nu = case
    kap = cr.jnu_coloring(factors, prod, nodes, nu)
    assert kap == brute_jnu_coloring(factors, prod, nodes, nu)
    assert cr.verify_jnu_coloring(prod, nodes, nu, kap)[0]


def test_jnu_coloring_on_a_thousand_factors():
    r = cr.build_crystal(A1, (1101,))
    kap = cr.jnu_coloring(r.tensor_ops.factors, r, (1,), (0,))
    assert len(kap) == r.n - 1
    assert cr.verify_jnu_coloring(r, (1,), (0,), kap) == (True, None)


def _jnu_readers():
    """The seven functions that take a node subset J and a weight nu over it."""
    r = cr.build_crystal(A2, (1, 1))
    f = cr.minuscule_poset(A2, (1, 0))
    prod = cr.crystal_product(f)
    everything = ec.ColoringWitness(S=frozenset(range(r.n)))
    return {
        "verify_tau_kappa": lambda j, nu: ec.verify_tau_kappa(r, j, nu, everything),
        "verify_subblock_coloring":
            lambda j, nu: ec.verify_subblock_coloring(r, j, nu, set(range(r.n)), {}),
        "m_set": lambda j, nu: cr.m_set(r, j, nu),
        "jnu_coloring": lambda j, nu: cr.jnu_coloring([f], prod, j, nu),
        "tau_from_jnu_coloring": lambda j, nu: cr.tau_from_jnu_coloring(r, j, nu, {}),
        "verify_jnu_coloring": lambda j, nu: cr.verify_jnu_coloring(r, j, nu, {}),
        "saturation_predicate": lambda j, nu: cr.saturation_predicate(A2, (1, 1), nu, j),
    }


JNU_READERS = _jnu_readers()


@pytest.mark.parametrize("name", sorted(JNU_READERS))
@pytest.mark.parametrize("nodes, nu, error", [
    ((1, 3), (0, 0), NotGCM),
    ((0,), (0,), NotGCM),
    ((True,), (0,), NotGCM),
    # node 2 used to be dropped in silence, and the extra entry ignored
    ((1, 2), (0,), DiagramMismatch),
    ((1, 1), (0, 5), DiagramMismatch),
    ((1,), (-1,), NotDominant),
], ids=["node_3", "node_0", "node_true", "short_nu", "repeated_node_long_nu",
        "negative_nu"])
def test_jnu_readers_reject_bad_subweights(name, nodes, nu, error):
    with pytest.raises(error):
        JNU_READERS[name](nodes, nu)


# the readers of a node or a node subset without a nu, each given one node of A2
NODE_READERS = {
    "branch": lambda j: cr.branch(A2, (1, 1), (j,)),
    "restrict": lambda j: wsf.freudenthal(A2, (1, 0)).restrict((j,)),
    "sub_diagram": lambda j: A2.sub_diagram((1, j)),
    "check_node": A2.check_node,
    "alpha": A2.alpha,
    "omega": A2.omega,
}


@pytest.mark.parametrize("name", sorted(NODE_READERS))
@pytest.mark.parametrize("node", [0, 3, True], ids=["node_0", "node_3", "node_true"])
def test_node_readers_share_the_node_rule(name, node):
    """Node 0 would read the last row, True node 1: all raise NotGCM."""
    with pytest.raises(NotGCM, match="node subset"):
        NODE_READERS[name](node)
    assert NODE_READERS[name](2) is not None


def test_sub_weight_counts_a_repeated_node_once():
    assert sub_weight(3, (3, 1, 3), (4, 5)) == ((1, 3), {1: 4, 3: 5})
    assert sub_weight(2, (), ()) == ((), {})
    # every reader accepts J in any order, with repeats; {} is not a
    # (J,nu)-coloring of R(1,1), so tau_from_jnu_coloring gets a real one
    for name, read in JNU_READERS.items():
        if name != "tau_from_jnu_coloring":
            read((2, 1, 2), (0, 0))
    r = cr.build_crystal(A2, (1, 1))
    kap = cr.jnu_coloring(r.tensor_ops.factors, r, (2, 1, 2), (0, 0))
    cr.tau_from_jnu_coloring(r, (2, 1, 2), (0, 0), kap)


def test_build_crystal_checks_seed_weight(monkeypatch):
    real = cr._component_factors

    def wrong_seed(d, lam):
        factors, seeds = real(d, lam)
        return factors, [(s + 1) % f.n for f, s in zip(factors, seeds)]

    monkeypatch.setattr(cr, "_component_factors", wrong_seed)
    with pytest.raises(ExactnessError, match="seed weight"):
        cr.build_crystal(build_diagram("G2"), (1, 0))
