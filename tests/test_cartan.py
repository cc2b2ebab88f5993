import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from math import lcm

from weylsplit import DynkinDiagram, build_diagram, cartan, crystal
from weylsplit.errors import (DiagramTooLarge, ExactnessError, NotFiniteType, NotGCM,
                              OrbitTooLarge)

from conftest import (apply_mat, brute_numbering, brute_parabolic_orbit, brute_positive_roots,
                      brute_weyl_group, brute_weyl_orbit, coroot_pairing, fraction_inverse,
                      mat_det, norm2)


def rand_weight(rng, n, lo=-6, hi=6):
    return tuple(rng.randint(lo, hi) for _ in range(n))


def test_build_g2_from_cartan():
    d = build_diagram("cartan:[[2,-1],[-3,2]]")
    assert d.type_string() == "G2"
    assert d.inverse_cartan == ((Fraction(2), Fraction(1)),
                                (Fraction(3), Fraction(2)))


def test_affine_a1_rejected():
    with pytest.raises(NotFiniteType):
        build_diagram("cartan:[[2,-2],[-2,2]]")


def test_wrong_inverse_raises_exactness_error(monkeypatch):
    # the M * Q = denom * I check is a raise, so python -O keeps it
    right = cartan._invert_exact

    def wrong(m):
        det, adj = right(m)
        return det, ((adj[0][0] + det,) + adj[0][1:],) + adj[1:]

    monkeypatch.setattr(cartan, "_invert_exact", wrong)
    with pytest.raises(ExactnessError, match="M \\* Q differs"):
        build_diagram("A2")


def test_not_gcm():
    with pytest.raises(NotGCM):
        build_diagram("cartan:[[2,1],[1,2]]")
    with pytest.raises(NotGCM):
        build_diagram("cartan:[[2,-1],[0,2]]")
    with pytest.raises(NotGCM):
        build_diagram("cartan:[[1,0],[0,2]]")


@pytest.mark.parametrize("text", ["[[2,-1.5],[-1,2]]", "[[2.9]]",
                                  '[["2","-1"],["-1","2"]]', "[2,2]",
                                  "[[2,null],[0,2]]", "[[true,0],[0,2]]"])
def test_gcm_matrix_takes_only_int_rows(text):
    # neither truncated to an int matrix nor left to fail with a TypeError
    with pytest.raises(NotGCM, match="list of lists of ints"):
        cartan.gcm_matrix(json.loads(text))


def test_disjoint_sum_spec():
    d = build_diagram([("A", 2), ("A", 1)])
    assert d.rank == 3
    assert d.cartan == ((2, -1, 0), (-1, 2, 0), (0, 0, 2))
    assert len(d.components) == 2
    assert d.type_string() == "A2+A1"


def test_classification_all_seed_types():
    for spec in ["A1", "A4", "B3", "B4", "C2", "C3", "C4", "D4", "D5",
                 "E6", "E7", "E8", "F4", "G2"]:
        d = build_diagram(spec)
        assert d.type_string() == spec
    # B2 convention: the double-bond pair classifies as C2
    assert build_diagram("cartan:[[2,-2],[-1,2]]").type_string() == "C2"
    # D3 = A3
    assert build_diagram(
        "cartan:[[2,0,-1],[0,2,-1],[-1,-1,2]]").type_string() == "A3"


def test_simple_reflection_examples():
    g2 = build_diagram("G2")
    assert g2.simple_reflection(1, (1, 0)) == (-1, 1)
    assert g2.simple_reflection(2, (0, 1)) == (3, -1)
    for d in [g2, build_diagram("A3")]:
        for i in range(1, d.rank + 1):
            for j in range(1, d.rank + 1):
                if i != j:
                    assert d.simple_reflection(i, d.omega(j)) == d.omega(j)


def test_reflection_involution_random(diagrams):
    rng = random.Random(1)
    for d in diagrams.values():
        for _ in range(1000):
            mu = rand_weight(rng, d.rank)
            for i in range(1, d.rank + 1):
                assert d.simple_reflection(i, d.simple_reflection(i, mu)) == mu


def test_braid_relations(diagrams):
    rng = random.Random(2)
    for d in diagrams.values():
        for i in range(1, d.rank + 1):
            for j in range(1, d.rank + 1):
                if i == j:
                    continue
                m = d.coxeter_exponents[i - 1][j - 1]
                for _ in range(100):
                    mu = rand_weight(rng, d.rank)
                    out = mu
                    for _ in range(m):
                        out = d.simple_reflection(j, d.simple_reflection(i, out))
                    assert out == mu


def test_inner_product_invariance(diagrams):
    rng = random.Random(3)
    for d in diagrams.values():
        for _ in range(30):
            u = rand_weight(rng, d.rank)
            v = rand_weight(rng, d.rank)
            for i in range(1, d.rank + 1):
                assert d.inner_product(d.simple_reflection(i, u),
                                       d.simple_reflection(i, v)) \
                    == d.inner_product(u, v)


def test_root_coords_and_heights(diagrams):
    for d in diagrams.values():
        for i in range(1, d.rank + 1):
            coords = d.to_root_coords(d.alpha(i))
            assert coords == tuple(Fraction(int(j + 1 == i))
                                   for j in range(d.rank))
            assert d.height(d.alpha(i)) == 1


def test_g2_inner_products_and_heights():
    g2 = build_diagram("G2")
    assert norm2(g2, g2.alpha(1)) == 2
    assert norm2(g2, g2.alpha(2)) == 6
    assert g2.inner_product(g2.alpha(1), g2.alpha(2)) == -3
    assert g2.height((1, 0)) == 3
    assert g2.height((0, 1)) == 5
    assert g2.height((0, 0)) == 0


def test_orbits():
    g2 = build_diagram("G2")
    assert len(g2.weyl_orbit((1, 0))) == 6
    assert g2.weyl_orbit((0, 0)) == {(0, 0): None}
    a2 = build_diagram("A2")
    orb = a2.weyl_orbit((1, 1))
    assert len(orb) == 6
    assert all(p is not None for p in orb.values())
    assert sum(orb.values()) == 0
    # non-regular orbits report Indeterminate parity
    orb2 = a2.weyl_orbit((1, 0))
    assert all(p is None for p in orb2.values())


def test_orbit_parity_matches_brute(diagrams):
    # rho, and a non-dominant regular weight: the parity is det(w) relative to mu
    cases = [(name, diagrams[name].rho()) for name in ["A2", "C2", "G2"]]
    cases += [(name, diagrams[name].act((1, 2), (1, 2, 1))) for name in ["A3", "B3", "C3"]]
    for name, mu in cases:
        d = diagrams[name]
        assert d.is_strongly_dominant(d.dominant_rep(mu))
        got = d.weyl_orbit(mu)
        want = {}
        for g in brute_weyl_group(d):
            w = tuple(int(x) for x in apply_mat(g, mu))
            want[w] = int(mat_det(g))
        assert got == want


def test_orbit_cap(monkeypatch):
    d = build_diagram("A3")
    monkeypatch.setenv("WEYL_ORBIT_CAP", "3")
    with pytest.raises(OrbitTooLarge):
        d.weyl_orbit(d.rho())
    # the cap is exact, the message names the input, and a fixed point never raises
    d = build_diagram("B3")
    mu = (1, -3, 2)
    assert not d.is_dominant(mu)
    monkeypatch.delenv("WEYL_ORBIT_CAP")
    size = len(d.weyl_orbit(mu))
    monkeypatch.setenv("WEYL_ORBIT_CAP", str(size))
    assert len(d.weyl_orbit(mu)) == size
    monkeypatch.setenv("WEYL_ORBIT_CAP", str(size - 1))
    with pytest.raises(OrbitTooLarge, match=r"orbit of \(1, -3, 2\) exceeds cap %d"
                       % (size - 1)):
        d.weyl_orbit(mu)
    monkeypatch.setenv("WEYL_ORBIT_CAP", "1")
    assert d.weyl_orbit((0, 0, 0)) == {(0, 0, 0): None}


ORBIT_SPECS = ["A1", "A2", "A3", "A4", "C2", "C3", "C4", "B3", "D4", "D5", "G2",
               "F4", "E6", "A2+G2", "A1+A1", "cartan:[[2,0,-1],[0,2,-1],[-1,-1,2]]"]


def test_orbit_matches_brute():
    for spec in ORBIT_SPECS:
        d = build_diagram(spec)
        for mu in itertools.product(range(-1, 3), repeat=d.rank):
            # above rank 4, only weights of absolute coordinate sum <= 2, so E6 stays fast
            if d.rank > 4 and sum(map(abs, mu)) > 2:
                continue
            assert d.weyl_orbit(mu) == brute_weyl_orbit(d, mu), (spec, mu)


SMALL_SPECS = ["A1", "A2", "A3", "B3", "C2", "C3", "G2", "A1+A1", "A2+A1",
               "A1+G2", "A1+A1+A1"]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_orbit_matches_brute_random(data):
    d = build_diagram(data.draw(st.sampled_from(SMALL_SPECS)))
    # the same diagram with its nodes renumbered
    perm = data.draw(st.permutations(range(d.rank)))
    d = build_diagram([[d.cartan[i][j] for j in perm] for i in perm])
    mu = data.draw(st.tuples(*[st.integers(-4, 4)] * d.rank))
    assert d.weyl_orbit(mu) == brute_weyl_orbit(d, mu)


def stage_keys(top):
    """The (K, m) of the stages the orbit of top is composed from: K_0 all
    nodes, m_t the t-th nonzero node of top, K_t = K_(t-1) - m_t."""
    nodes, keys = list(range(1, len(top) + 1)), []
    for m, c in enumerate(top, 1):
        if c:
            keys.append((tuple(nodes), m))
            nodes.remove(m)
    return keys


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbit_table_replay_matches_a_fresh_walk(data):
    """Two dominant weights with one zero set share every stage: after the
    first orbit, the second is replayed from stored stage tables only, and
    gives the list (order included) that a fresh diagram gives, equal to the
    brute orbit."""
    spec = data.draw(st.sampled_from(SMALL_SPECS))
    d = build_diagram(spec)
    perm = data.draw(st.permutations(range(d.rank)))
    matrix = [[d.cartan[i][j] for j in perm] for i in perm]
    d = build_diagram(matrix)
    # two dominant weights with one zero set J, and a weight in the second orbit
    zero = data.draw(st.lists(st.booleans(), min_size=d.rank, max_size=d.rank))
    tops = [tuple(0 if z else data.draw(st.integers(1, 4)) for z in zero) for _ in "ab"]
    mu = d.act(data.draw(st.lists(st.integers(1, d.rank), max_size=6)), tops[1])
    d.weyl_orbit(tops[0])
    stored = dict(d.memo.get("orbit", {}))
    assert list(stored) == stage_keys(tops[0])
    got = list(d.weyl_orbit(mu).items())
    assert d.memo.get("orbit", {}) == stored
    assert all(d.memo["orbit"][key] is table for key, table in stored.items())
    assert got == list(build_diagram(matrix).weyl_orbit(mu).items())
    assert dict(got) == brute_weyl_orbit(d, mu)


def renumbered(data, specs):
    """A diagram drawn from specs, with its nodes renumbered."""
    d = build_diagram(data.draw(st.sampled_from(specs)))
    perm = data.draw(st.permutations(range(d.rank)))
    return build_diagram([[d.cartan[i][j] for j in perm] for i in perm])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_orbit_walk_finds_each_weight_once_at_its_level(data):
    """The orbit composed from the stages of a fresh diagram (every stage a
    miss) lists the brute orbit once over, as many weights as the product of
    the stage sizes, and puts each weight nu at level #{beta > 0 :
    <nu, beta^vee> < 0}; the replay from the stored stages gives the same
    list and levels."""
    d = renumbered(data, SMALL_SPECS)
    top = tuple(data.draw(st.lists(st.integers(0, 3), min_size=d.rank, max_size=d.rank)))
    orbit, levels = d._orbit(top)
    assert len(set(orbit)) == len(orbit) == len(levels)
    assert set(orbit) == set(brute_weyl_orbit(d, top))
    stages = d.memo.get("orbit", {})
    assert list(stages) == stage_keys(top)
    assert len(orbit) == math.prod(len(table[2]) for table in stages.values())
    roots = brute_positive_roots(d)
    for nu, level in zip(orbit, levels):
        assert sum(coroot_pairing(d, nu, beta) < 0 for beta in roots) == level, nu
    assert d._orbit(top) == (orbit, levels)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_each_stage_is_the_parabolic_orbit_once(data):
    """Stage (K, m), replayed from omega_m, lists the brute W_K-orbit of
    omega_m once over, each weight nu at level #{beta > 0 with support in K
    : <nu, beta^vee> < 0}."""
    d = renumbered(data, SMALL_SPECS)
    nodes = tuple(sorted(data.draw(st.sets(st.integers(1, d.rank), min_size=1))))
    m = data.draw(st.sampled_from(nodes))
    parents, steps, levels = d._stage(nodes, m, cartan.orbit_cap())
    weights = [d.omega(m)]
    for k, i in zip(parents, steps):
        assert i + 1 in nodes
        weights.append(d.simple_reflection(i + 1, weights[k]))
    assert len(set(weights)) == len(weights) == len(levels)
    assert set(weights) == brute_parabolic_orbit(d, d.omega(m), nodes)
    roots = [beta for beta in brute_positive_roots(d)
             if all(c == 0 or j in nodes for j, c in enumerate(d.to_root_coords(beta), 1))]
    for nu, level in zip(weights, levels):
        assert sum(coroot_pairing(d, nu, beta) < 0 for beta in roots) == level, nu
    assert d.memo["orbit"] == {(nodes, m): (parents, steps, levels)}


class _NoRows:
    """Stands in for a diagram's rows: building any weight of an orbit reads them."""

    def __getitem__(self, i):
        raise AssertionError("an orbit weight was built")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbit_cap_raises_before_any_weight_is_built(data):
    """A cap one below the orbit's size raises OrbitTooLarge, naming the
    weight, with the stages stored or not, and never reads the rows that
    building an orbit weight needs; at the size itself the orbit is built."""
    d = renumbered(data, SMALL_SPECS)
    top = tuple(data.draw(st.lists(st.integers(0, 3), min_size=d.rank, max_size=d.rank)))
    size = len(brute_weyl_orbit(d, top))
    fresh = build_diagram(d.cartan)
    assert len(d._orbit(top)[0]) == size        # stores every stage
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("WEYL_ORBIT_CAP", str(size - 1))
        for e in (d, fresh):
            rows, e._sparse_rows = e._sparse_rows, _NoRows()
            with pytest.raises(OrbitTooLarge, match="^%s$" % re.escape(
                    "orbit of %s exceeds cap %d" % (top, size - 1))):
                e._orbit(top)
            e._sparse_rows = rows
        mp.setenv("WEYL_ORBIT_CAP", str(size))
        assert d._orbit(top) == fresh._orbit(top)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_orbit_above_is_the_orbit_cut_at_the_floor(data):
    """_orbit_above(top, rc(top), floor) is the brute orbit of a regular top
    with its det parities, kept where every scaled root coordinate is at
    least floor's."""
    d = renumbered(data, SMALL_SPECS)
    top = tuple(data.draw(st.lists(st.integers(1, 3), min_size=d.rank, max_size=d.rank)))
    nu = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=d.rank, max_size=d.rank)))
    floor = d.root_coords_scaled(nu)
    want = {u: p for u, p in brute_weyl_orbit(d, top).items()
            if all(x >= f for x, f in zip(d.root_coords_scaled(u), floor))}
    assert d._orbit_above(top, d.root_coords_scaled(top), floor) == want


def test_orbit_table_honours_the_cap(monkeypatch):
    d = build_diagram("B3")
    # records the stages ((1, 2, 3), 1), 6 weights, and ((2, 3), 3), 4 weights
    size = len(d.weyl_orbit((1, 0, 2)))
    assert size == 24 and list(d.memo["orbit"]) == [((1, 2, 3), 1), ((2, 3), 3)]
    mu = d.act((1,), (3, 0, 1))
    assert not d.is_dominant(mu)
    monkeypatch.setenv("WEYL_ORBIT_CAP", str(size))
    assert len(d.weyl_orbit(mu)) == size
    monkeypatch.setenv("WEYL_ORBIT_CAP", str(size - 1))
    with pytest.raises(OrbitTooLarge, match=r"orbit of \(%d, %d, %d\) exceeds cap %d"
                       % (*mu, size - 1)):
        d.weyl_orbit(mu)
    # a stage walk the cap stops stores nothing: the first stage fits in 23,
    # the second would need 4 weights beside its 6 (6 * 4 > 23)
    fresh = build_diagram("B3")
    with pytest.raises(OrbitTooLarge):
        fresh.weyl_orbit(mu)
    assert list(fresh.memo["orbit"]) == [((1, 2, 3), 1)]
    monkeypatch.setenv("WEYL_ORBIT_CAP", "5")
    fresh = build_diagram("B3")
    with pytest.raises(OrbitTooLarge):
        fresh.weyl_orbit(mu)
    assert not fresh.memo.get("orbit")
    monkeypatch.delenv("WEYL_ORBIT_CAP")
    assert list(fresh.weyl_orbit(mu).items()) == list(d.weyl_orbit(mu).items())
    assert list(fresh.memo["orbit"]) == [((1, 2, 3), 1), ((2, 3), 3)]


def test_orbit_tables_stay_within_their_budget(monkeypatch):
    weights = list(itertools.product(range(-1, 3), repeat=3))
    want = [list(build_diagram("B3").weyl_orbit(mu).items()) for mu in weights]
    monkeypatch.setattr(cartan, "ORBIT_TABLE_STEPS", 10)
    d = build_diagram("B3")
    for _ in range(2):
        assert [list(d.weyl_orbit(mu).items()) for mu in weights] == want
        steps = [len(table[0]) for table in d.memo["orbit"].values()]
        assert sum(steps) <= 10
    # the stage of omega_2 under B3 has 12 weights, 11 steps: it is walked
    # every time, never stored
    assert steps and ((1, 2, 3), 2) not in d.memo["orbit"]


def test_diagram_constants_examples():
    g2 = build_diagram("G2")
    c = g2.constants()
    assert c.highest_root == (0, 1)
    assert c.highest_short_root == (1, 0)
    assert c.weyl_order == 12
    assert c.sigma0 == {1: 1, 2: 2}
    a2 = build_diagram("A2")
    assert a2.sigma0() == {1: 2, 2: 1}
    c2 = build_diagram("C2")
    assert len(c2.positive_roots()) == 4


def test_derived_results_live_on_the_diagram():
    d = build_diagram("A3")
    assert d.sub_diagram((2, 1))[0] is d.sub_diagram((1, 2))[0]
    assert crystal.build_crystal(d, (1, 0, 1)) is crystal.build_crystal(d, (1, 0, 1))
    fresh = build_diagram("A3")
    assert fresh == d and fresh.memo == {}


def test_full_sub_diagram_is_the_diagram():
    for spec in ["A3", "G2", "A2+G2"]:
        d = build_diagram(spec)
        assert d.sub_diagram(range(1, d.rank + 1))[0] is d


def test_positive_root_count_vs_brute():
    for spec in ["A1", "A2", "A3", "A4", "B3", "B4", "C2", "C3", "C4",
                 "D4", "F4", "G2", "A2+A1", "C2+G2"]:
        d = build_diagram(spec)
        assert len(d.positive_roots()) == len(brute_positive_roots(d))
        assert {r.root for r in d.positive_roots()} == set(brute_positive_roots(d))


@pytest.mark.parametrize("spec", ["A3", "B4", "C3", "D5", "E6", "E7", "E8", "F4", "G2"])
def test_weyl_order_and_root_count_match_sympy(spec):
    # sympy builds W and the roots from its own tables: an independent oracle
    from sympy.liealgebras.root_system import RootSystem
    from sympy.liealgebras.weyl_group import WeylGroup
    d = build_diagram(spec)
    # group_order() is a float on the classical types
    assert d.weyl_order() == int(WeylGroup(spec).group_order())
    assert 2 * len(d.positive_roots()) == len(RootSystem(spec).all_roots())


def test_positive_roots_match_brute_sets(diagrams):
    for d in diagrams.values():
        got = {r.root for r in d.positive_roots()}
        assert got == set(brute_positive_roots(d))


def test_mesh_size(diagrams):
    rng = random.Random(4)
    for d in diagrams.values():
        mesh = d.mesh_size
        assert mesh > 0
        for _ in range(200):
            mu = rand_weight(rng, d.rank)
            h = d.height(mu)
            if h > 0:
                assert h >= mesh


def test_sigma0_is_diagram_automorphism(diagrams):
    for d in diagrams.values():
        s = d.sigma0()
        assert all(s[s[i]] == i for i in s)
        for i in range(1, d.rank + 1):
            for j in range(1, d.rank + 1):
                assert d.cartan[s[i] - 1][s[j] - 1] == d.cartan[i - 1][j - 1]


def test_weight_parsing_errors():
    from weylsplit.cartan import parse_weight
    with pytest.raises(ValueError):
        parse_weight("1,2,3", 2)
    with pytest.raises(NotFiniteType):
        build_diagram("X9")
    with pytest.raises(ValueError):
        build_diagram("A-3")


def test_sigma0_nontrivial_families():
    d5 = build_diagram("D5")
    assert d5.sigma0() == {1: 1, 2: 2, 3: 3, 4: 5, 5: 4}
    d4 = build_diagram("D4")
    assert d4.sigma0() == {i: i for i in range(1, 5)}
    e6 = build_diagram("E6")
    assert e6.sigma0() == {1: 6, 6: 1, 3: 5, 5: 3, 2: 2, 4: 4}
    assert len(e6.positive_roots()) == 36
    a4 = build_diagram("A4")
    assert a4.sigma0() == {1: 4, 2: 3, 3: 2, 4: 1}


def test_root_lengths_relation():
    for spec in ["A3", "B3", "C3", "F4", "G2", "C2+G2"]:
        d = build_diagram(spec)
        for i in range(d.rank):
            for j in range(d.rank):
                assert d.cartan[j][i] * d.root_lengths[i] \
                    == d.cartan[i][j] * d.root_lengths[j] \
                    or d.cartan[i][j] == d.cartan[j][i] == 0
        # short simple roots have squared length 2 in every component
        for _, _, nodes in d.components:
            assert min(d.root_lengths[v - 1] for v in nodes) == 2


SCALED_SPECS = ["A1", "A2", "A4", "B3", "C3", "D4", "G2", "F4", "E6", "E8",
                "A2+G2", "B3+A1", "cartan:[[2,0,-1],[0,2,-1],[-1,-1,2]]"]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_scaled_forms_match_direct_fractions(data):
    d = build_diagram(data.draw(st.sampled_from(SCALED_SPECS)))
    weight = st.tuples(*[st.integers(-20, 20)] * d.rank)
    u, v = data.draw(weight), data.draw(weight)
    q = d.inverse_cartan
    n = d.rank
    coords = tuple(sum(Fraction(u[j]) * q[j][k] for j in range(n)) for k in range(n))
    assert d.to_root_coords(u) == coords
    assert all(type(c) is Fraction for c in d.to_root_coords(u))
    assert d.height(u) == sum(coords)
    # <omega_i, omega_j> = Q_ji * <alpha_i, alpha_i> / 2
    ip = sum(u[i] * v[j] * q[j][i] * d.root_lengths[i] / 2
             for i in range(n) for j in range(n))
    assert d.inner_product(u, v) == ip
    assert type(d.height(u)) is Fraction and type(d.inner_product(u, v)) is Fraction


SETUP_TYPES = (["A%d" % n for n in range(1, 9)] + ["B%d" % n for n in range(3, 9)]
               + ["C%d" % n for n in range(2, 9)] + ["D%d" % n for n in range(4, 9)]
               + ["E6", "E7", "E8", "F4", "G2", "A2+A1", "C2+G2", "B3+A2+G2", "D4+F4"])


def _relabelled(d, rng):
    p = list(range(d.rank))
    rng.shuffle(p)
    return build_diagram("cartan:" + json.dumps([[d.cartan[a][b] for b in p] for a in p]))


@pytest.fixture(scope="module")
def setup_diagrams():
    """Every finite type of rank up to 8, four sums, three relabellings of each."""
    rng = random.Random(18)
    base = [build_diagram(spec) for spec in SETUP_TYPES]
    return base + [_relabelled(d, rng) for d in base for _ in range(3)]


def test_each_template_is_built_once(monkeypatch):
    # with the matrices given, seed_cartan runs only to build a template
    matrices = [build_diagram(spec).cartan for spec in ("D5", "A3+A3", "B4+C4", "E6+A1")]
    calls = []
    seed = cartan.seed_cartan
    monkeypatch.setattr(cartan, "seed_cartan",
                        lambda letter, rank: calls.append((letter, rank)) or seed(letter, rank))
    cartan._template.cache_clear()
    rng = random.Random(19)
    for m in matrices * 2:
        types = sorted(c[:2] for c in DynkinDiagram(m).components)
        for _ in range(3):
            d = _relabelled(DynkinDiagram(m), rng)
            assert sorted(c[:2] for c in d.components) == types
    assert len(calls) == len(set(calls)) and {("D", 5), ("A", 3)} <= set(calls)
    tmpl, tnbrs, order, parent = cartan._template("D", 5)
    assert tmpl == seed("D", 5) and sorted(order) == list(range(5))
    assert all(type(part) is tuple for part in (tmpl, tnbrs, order, parent, *tmpl, *tnbrs))


def test_setup_matches_the_direct_routes(setup_diagrams):
    for d in setup_diagrams:
        n = d.rank
        # components: each numbered as the slot-by-slot search numbers it
        for ci, (letter, rk, nums) in enumerate(d.components):
            nodes = sorted(v - 1 for v in nums)
            assert brute_numbering(d.cartan, nodes) == (letter, rk, tuple(v - 1 for v in nums))
            assert all(d.component_of[v] == ci for v in nodes)
        assert all(d.component_of[i] == d.component_of[j] for i in range(n)
                   for j in range(n) if d.cartan[i][j])
        # inverse and the integer tables over denom
        q = fraction_inverse(d.cartan)
        assert d.inverse_cartan == q
        assert all(type(x) is Fraction for row in d.inverse_cartan for x in row)
        assert d.denom == lcm(*(x.denominator for row in q for x in row))
        assert d._q_cols == tuple(tuple(q[j][k] * d.denom for j in range(n))
                                  for k in range(n))
        assert d._heights_scaled == tuple(sum(row) * d.denom for row in q)
        assert d.gram_scaled == tuple(tuple(q[j][i] * d.root_lengths[i] / 2 * d.denom
                                            for j in range(n)) for i in range(n))
        prod = 1
        for row in q:
            prod *= sum(row).denominator
        assert d.mesh_size == Fraction(1, prod) and type(d.mesh_size) is Fraction
        # root lengths: M_ji <a_i,a_i> = M_ij <a_j,a_j>, short = 2 per component
        lengths = d.root_lengths
        assert all(type(x) is Fraction for x in lengths)
        assert all(d.cartan[j][i] * lengths[i] == d.cartan[i][j] * lengths[j]
                   for i in range(n) for j in range(n))
        for _, _, nums in d.components:
            assert min(lengths[v - 1] for v in nums) == 2


def test_invert_exact_matches_sympy():
    from sympy import Matrix
    for spec in SETUP_TYPES:
        m = build_diagram(spec).cartan
        n = len(m)
        det, adj = cartan._invert_exact(m)
        assert all(type(x) is int for row in adj for x in row) and type(det) is int
        assert det == Matrix(m).det()
        assert all(sum(m[i][k] * adj[k][j] for k in range(n)) == det * (i == j)
                   for i in range(n) for j in range(n))
        inv = Matrix(m).inv()
        assert build_diagram(spec).inverse_cartan == tuple(
            tuple(Fraction(int(inv[i, j].p), int(inv[i, j].q)) for j in range(n))
            for i in range(n))
    # det is det(m) whatever the sign of the row swaps
    assert cartan._invert_exact(((0, 1), (1, 0))) == (-1, ((0, -1), (-1, 0)))
    with pytest.raises(NotFiniteType, match="singular"):
        cartan._invert_exact(((2, -2), (-2, 2)))


@pytest.mark.parametrize("spec", ["A40", "B40", "C40", "D40"])
def test_rank_40_classical_types_build(spec):
    d = build_diagram(spec)
    assert d.type_string() == spec
    assert d.components == [(spec[0], 40, tuple(range(1, 41)))]
    e = _relabelled(d, random.Random(40))
    assert e.type_string() == spec
    (letter, rk, nums), = e.components
    assert brute_numbering(e.cartan, list(range(40))) == (letter, rk,
                                                          tuple(v - 1 for v in nums))


def test_rank_bound():
    assert build_diagram("A64").rank == cartan.MAX_RANK == 64
    for spec in ["A65", "A99999999999999", "E8+A57", [("A", 10 ** 12)]]:
        with pytest.raises(DiagramTooLarge):
            build_diagram(spec)
    with pytest.raises(DiagramTooLarge, match="rank 65 exceeds 64"):
        DynkinDiagram([[2 * (i == j) for j in range(65)] for i in range(65)])
