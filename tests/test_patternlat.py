import gc
import itertools
import tracemalloc

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from weylsplit import build_diagram, ecposet as ec, patternlat as pl, qpoly, wsf
from weylsplit.errors import ExactnessError, InvalidFamilyParams

from conftest import brute_patterns
from test_acceptance import _lattices


def all_nodes(d):
    return tuple(range(1, d.rank + 1))


def verify_all(lat):
    ok, cert = ec.verify_splitting(lat.poset, [lat.lam])
    assert ok, cert
    d = lat.diagram
    kap = lat.slantwise_coloring()
    ok, why = ec.verify_subblock_coloring(
        lat.poset, all_nodes(d), (0,) * d.rank,
        {lat.index[lat.max_pattern]}, kap)
    assert ok, why


def test_build_and_verify_peak_per_pattern():
    """Building and verifying symplectic_lattice(3, 5), 2 548 patterns, has a
    bounded traced peak.

    tracemalloc's peak over the build, verify_splitting, the slantwise
    coloring and verify_subblock_coloring is 359 bytes per pattern on
    CPython 3.11 x86-64, with the covers in int arrays handed straight to
    the poset, the adjacency and member lists held as offsets, equal rows
    shared by the patterns and the index a binary search over them; it was
    468 with a fresh row per pattern and an index dict, and 1 160 with lists
    of triples, the checking constructor's copies of them and member tuples.
    """
    gc.collect()
    tracemalloc.start()
    try:
        lat = pl.symplectic_lattice(3, 5)
        verify_all(lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lat.poset.n == 2548
    assert peak / lat.poset.n <= 450, peak / lat.poset.n


def test_gt_examples():
    lat = pl.gt_lattice(3, (1, 2))
    assert lat.poset.n == 15
    verify_all(lat)
    assert pl.gt_lattice(4, (0, 0, 0)).poset.n == 1
    lat2 = pl.gt_lattice(2, (3,))
    assert lat2.poset.n == 4      # a chain: chi_{3 omega_1} for A1


def test_symplectic_example():
    lat = pl.symplectic_lattice(2, 1)
    assert lat.poset.n == 5
    assert wsf.specialize(lat.diagram, lat.lam).dimension == 5
    verify_all(lat)


def test_odd_orth_example():
    lat = pl.odd_orth_lattice(3, 1)
    assert lat.poset.n == 8
    verify_all(lat)


def test_even_orth_examples():
    for node in (3, 4):
        lat = pl.even_orth_lattice(4, 1, node)
        assert lat.poset.n == 8
        verify_all(lat)


def test_family_param_validation():
    with pytest.raises(InvalidFamilyParams):
        pl.odd_orth_lattice(2, 1)
    with pytest.raises(InvalidFamilyParams):
        pl.even_orth_lattice(3, 1, 2)
    with pytest.raises(InvalidFamilyParams):
        pl.even_orth_lattice(4, 1, 2)
    with pytest.raises(InvalidFamilyParams):
        pl.symplectic_lattice(1, 1)
    with pytest.raises(InvalidFamilyParams):
        pl.gt_lattice(3, (1,))


def test_pattern_m_values_match_caches():
    cases = [pl.gt_lattice(3, (1, 2)), pl.gt_lattice(4, (1, 0, 1)),
             pl.symplectic_lattice(2, 2), pl.symplectic_lattice(3, 1),
             pl.odd_orth_lattice(3, 2), pl.even_orth_lattice(4, 1, 3),
             pl.even_orth_lattice(4, 1, 4), pl.even_orth_lattice(5, 1, 4)]
    for lat in cases:
        for v in range(lat.poset.n):
            assert lat.pattern_m_values(v) == lat.poset.wt[v]


def test_structure_checks_families():
    for lat in [pl.gt_lattice(3, (2, 1)), pl.symplectic_lattice(3, 1),
                pl.odd_orth_lattice(3, 1), pl.even_orth_lattice(4, 1, 4)]:
        sc = ec.structure_checks(lat.poset)
        assert sc.m_structured and sc.connected
        assert sc.diamond_colored is True
        # every i-component factors as a chain product
        for c in range(1, lat.diagram.rank + 1):
            seen = set()
            for x in range(lat.poset.n):
                key = lat.poset.comp_id[c][x]
                if key not in seen:
                    seen.add(key)
                    ec.chain_product_factorization(lat.poset, c, x)


def test_max_and_min_weights():
    lat = pl.gt_lattice(3, (1, 2))
    mx = lat.index[lat.max_pattern]
    assert lat.poset.wt[mx] == (1, 2)
    bottom = min(range(lat.poset.n), key=lambda v: lat.poset.global_rank(v))
    assert lat.poset.wt[bottom] == lat.diagram.w0_weight((1, 2))


def test_submaximal_vertex_color():
    for lat in [pl.gt_lattice(3, (1, 2)), pl.symplectic_lattice(2, 1),
                pl.odd_orth_lattice(3, 1)]:
        kap = lat.slantwise_coloring()
        mx = lat.index[lat.max_pattern]
        subs = [u for u, v, c in lat.poset.edges if v == mx]
        for u in subs:
            edge_color = next(c for a, v, c in lat.poset.edges
                              if a == u and v == mx)
            assert kap[u] == edge_color


def test_slantwise_prior_entries_maximal():
    # entries slantwise-prior to the least maximizable
    # position agree with the maximal pattern
    for lat in [pl.gt_lattice(3, (1, 2)), pl.symplectic_lattice(2, 2),
                pl.odd_orth_lattice(3, 1)]:
        order = pl._slantwise_positions(lat.shape)
        mx = lat.max_pattern
        for t in lat.patterns:
            if t == mx:
                continue
            for (r, k) in order:
                if t[r][k] < mx[r][k]:
                    lo, hi = pl._cell_bounds(lat.shape, t, r, k)
                    if lo <= mx[r][k] <= hi:
                        break
                    # not yet maximizable; keep scanning
                else:
                    assert t[r][k] == mx[r][k]


def test_rgf_closed_forms():
    # A2 lam=(1,2): [2][5][3]/[2] = [5][3], 15 elements
    got = pl.rgf_closed_form("A", 2, lam=(1, 2))
    assert got == (1, 2, 3, 3, 3, 2, 1)
    assert sum(got) == 15
    assert pl.rgf_closed_form("A", 2, lam=(0, 0)) == (1,)
    g2 = build_diagram("G2")
    assert pl.rgf_quotient(g2, (0, 1)) == (1, 1, 1, 1, 2, 2, 2, 1, 1, 1, 1)
    with pytest.raises(InvalidFamilyParams):
        pl.rgf_closed_form("D", 4, m=1)


@pytest.mark.parametrize("lam", [(1, 2, 3), (1,), ()])
def test_rgf_closed_form_a_checks_weight_length(lam):
    # an assert used to check this, so python -O returned the answer for
    # lam[:2] in silence: (1, 2, 3) gave the (1, 2) product
    with pytest.raises(InvalidFamilyParams):
        pl.rgf_closed_form("A", 2, lam=lam)


_EXPONENTS = st.lists(st.integers(1, 9), max_size=6)


@settings(max_examples=300, deadline=None)
@given(_EXPONENTS, _EXPONENTS, st.lists(st.integers(1, 3), max_size=6))
def test_quotient_rgf_matches_sympy(nums, free, cuts):
    # a free denominator rarely divides; one made of divisors of the
    # numerator exponents, such as (1-q^6)/(1-q^2), always does
    q = sympy.Symbol("q")

    def poly(exps):
        return sympy.Poly(sympy.prod([1 - q ** k for k in exps]), q)

    for dens in (free, [c // k for c, k in zip(nums, cuts) if c % k == 0]):
        quot, rem = poly(nums).div(poly(dens))
        if rem.is_zero:
            want = [int(c) for c in reversed(quot.all_coeffs())]
            assert qpoly.quotient_rgf(nums, dens) == want
        else:
            with pytest.raises(ValueError, match="inexact"):
                qpoly.quotient_rgf(nums, dens)
    assert qpoly.quotient_rgf(nums, nums) == [1]
    assert qpoly.quotient_rgf([], []) == [1]


def test_quotient_rgf_rejects_non_positive_exponents():
    for nums, dens in (([0], []), ([2], [0]), ([3, -1], [2]), ([0], [0])):
        with pytest.raises(ValueError, match="positive"):
            qpoly.quotient_rgf(nums, dens)


def test_rgf_triple_agreement_small():
    lat = pl.gt_lattice(3, (1, 2))
    assert lat.rgf() == pl.rgf_closed_form("A", 2, lam=(1, 2))
    assert lat.rgf() == pl.rgf_quotient(lat.diagram, lat.lam)
    sp = pl.symplectic_lattice(2, 1)
    assert sp.rgf() == pl.rgf_closed_form("C", 2, m=1)
    assert sp.rgf() == pl.rgf_quotient(sp.diagram, sp.lam)
    oo = pl.odd_orth_lattice(3, 1)
    assert oo.rgf() == pl.rgf_closed_form("B", 3, m=1)
    assert oo.rgf() == pl.rgf_quotient(oo.diagram, oo.lam)


def test_rgf_palindromic_unimodal():
    for lat in [pl.gt_lattice(4, (1, 1, 0)), pl.symplectic_lattice(3, 1),
                pl.even_orth_lattice(4, 2, 3)]:
        coeffs = list(lat.rgf())
        assert qpoly.is_palindromic(coeffs)
        assert qpoly.is_unimodal(coeffs)


def test_even_orth_recolor_relation():
    # the two D_n lattices are related by swapping colors n-1 and n
    a = pl.even_orth_lattice(4, 1, 3)
    b = pl.even_orth_lattice(4, 1, 4)
    swap = {1: 1, 2: 2, 3: 4, 4: 3}
    assert ec.colored_isomorphic(ec.recolor(a.poset, swap), b.poset)
    a5 = pl.even_orth_lattice(5, 1, 4)
    b5 = pl.even_orth_lattice(5, 1, 5)
    swap5 = {1: 1, 2: 2, 3: 3, 4: 5, 5: 4}
    assert ec.colored_isomorphic(ec.recolor(a5.poset, swap5), b5.poset)


def test_even_orth_d5_splitting():
    for node in (4, 5):
        lat = pl.even_orth_lattice(5, 1, node)
        assert lat.poset.n == 16
        verify_all(lat)


def test_min_max_closure():
    """Distributivity witness: patterns are closed under componentwise min/max.

    PatternLattice relies on this and marks every poset as a lattice.  Every
    pair is checked on the criterion-06 lattices and the D5 lattices of
    test_even_orth_d5_splitting;
    each one small enough for ColoredPoset.is_lattice is also rebuilt without
    the hint and checked by that predicate.
    """
    lattices = [lat for _, lat in _lattices()]
    lattices += [pl.even_orth_lattice(5, 1, node) for node in (4, 5)]
    for lat in lattices:
        # all patterns of one lattice share a shape, so flattening is faithful
        flat = [sum(t, ()) for t in lat.patterns]
        members = set(flat)
        for a, b in itertools.combinations(flat, 2):
            assert tuple(map(min, a, b)) in members
            assert tuple(map(max, a, b)) in members
        p = lat.poset
        if p.n <= ec.LATTICE_CHECK_LIMIT:
            plain = ec.ColoredPoset(p.n, p.edges, diagram=p.d, labels=p.labels)
            assert plain.is_lattice() is True


def test_max_pattern_checks(monkeypatch):
    lat = pl.gt_lattice(3, (1, 1))
    # with the least pattern as the target, no other pattern can move toward it
    lat.max_pattern = lat.patterns[0]
    with pytest.raises(ExactnessError, match="nothing to maximize"):
        lat.slantwise_coloring()
    # the walk still starts from the real least pattern
    extreme = pl._extreme_pattern
    monkeypatch.setattr(pl, "_extreme_pattern", lambda shape, top:
                        ((9, 9), (9,)) if top else extreme(shape, top))
    with pytest.raises(ExactnessError, match="not enumerated"):
        pl.gt_lattice(3, (1, 1))


# (family, n, lam or m, node): every family at small sizes, with the
# degenerate shapes m = 0, a zero weight, gt n = 2, sp 4, oo 4, eo 5 and eo 6
ORACLE_SHAPES = [
    ("gt", 2, (0,), None), ("gt", 2, (3,), None), ("gt", 3, (0, 0), None),
    ("gt", 3, (2, 0), None), ("gt", 3, (1, 2), None), ("gt", 4, (1, 0, 1), None),
    ("gt", 4, (0, 2, 0), None), ("sp", 2, 0, None), ("sp", 2, 3, None),
    ("sp", 3, 1, None), ("sp", 4, 1, None), ("oo", 3, 0, None), ("oo", 3, 2, None),
    ("oo", 4, 1, None), ("eo", 4, 0, 3), ("eo", 4, 2, 4), ("eo", 5, 1, 4),
    ("eo", 5, 1, 5), ("eo", 6, 1, 5), ("eo", 6, 1, 6)]


def family_lattice(family, n, a, node):
    if family == "gt":
        return pl.gt_lattice(n, a)
    if family == "eo":
        return pl.even_orth_lattice(n, a, node)
    return {"sp": pl.symplectic_lattice, "oo": pl.odd_orth_lattice}[family](n, a)


@pytest.mark.parametrize("case", ORACLE_SHAPES, ids=str)
def test_patterns_and_covers_match_brute(case):
    lat = family_lattice(*case)
    patterns, covers = brute_patterns(lat.shape)
    assert lat.patterns == tuple(patterns)
    got = {(lat.patterns[u], lat.patterns[v], c) for u, v, c in lat.poset.edges}
    assert len(got) == len(lat.poset.edges) and got == covers


def test_first_and_last_patterns_are_the_extremes():
    lattices = [lat for _, lat in _lattices()]
    lattices += [family_lattice(*case) for case in ORACLE_SHAPES]
    for lat in lattices:
        flat = [sum(t, ()) for t in lat.patterns]
        assert flat[0] == tuple(map(min, zip(*flat)))
        assert flat[-1] == tuple(map(max, zip(*flat)))
        assert lat.patterns[-1] == lat.max_pattern
