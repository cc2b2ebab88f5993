import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from weylsplit import build_diagram, wsf
from weylsplit.cartan import DynkinDiagram, wadd, wneg, wsub
from weylsplit.errors import (DiagramMismatch, ExactnessError, NotAWeight, NotDominant,
                              NotInvariant, OrbitTooLarge)

from conftest import (brute_dominant_weights_below, brute_kostant_multiplicity,
                      brute_partition_count, brute_weyl_dimension, coroot_pairing,
                      load_fixture, peel_bialternants, recursive_kostant_partition)

G2FIX = load_fixture("g2_reference.json")


def chi(d, lam):
    return wsf.freudenthal(d, tuple(lam))


def test_ring_ops():
    a2 = build_diagram("A2")
    e = wsf.WeylSymFn.monomial
    assert e(a2, (1, 0)) * e(a2, (0, 1)) == e(a2, (1, 1))
    assert (e(a2, (1, 0)) * wsf.WeylSymFn(a2)) == wsf.WeylSymFn(a2)
    g2 = build_diagram("G2")
    c1 = chi(g2, (1, 0))
    assert c1.w_action((2,)) == c1
    assert c1.w_action((1,)) == c1
    with pytest.raises(Exception):
        e(a2, (1, 0)) + e(g2, (1, 0))


def test_non_int_coefficients_raise():
    # a float or Fraction coefficient used to be truncated by int() in silence
    a2 = build_diagram("A2")
    for c in (0.5, 2.7, 1.0, Fraction(1, 2), Fraction(3), True):
        with pytest.raises(TypeError):
            wsf.WeylSymFn(a2, {(1, 0): c})
        with pytest.raises(TypeError):
            wsf.WeylSymFn.monomial(a2, (1, 0), c)
    assert wsf.WeylSymFn(a2, {(1, 0): 0}) == wsf.WeylSymFn(a2)
    assert wsf.WeylSymFn(a2, {(1, 0): -2}).terms == {(1, 0): -2}


def test_constructors_check_or_hand_over():
    """The public constructor copies its terms and reads every key through
    the gate; the trusted _of keeps the dict it is handed, with its zero
    coefficients deleted in place."""
    a2 = build_diagram("A2")
    for bad, error in (({(1,): 1}, DiagramMismatch), ({(1.0, 0): 1}, NotAWeight),
                       ({(True, 0): 1}, NotAWeight), ({(1, 0): 1, (1, 0, 0): 0}, DiagramMismatch),
                       ({"ab": 1}, NotAWeight)):
        with pytest.raises(error):
            wsf.WeylSymFn(a2, bad)
    terms = {(1, 0): 2, (0, 1): 0}
    f = wsf.WeylSymFn(a2, [((1, 0), 2), ((0, 1), 0)])
    assert f.terms == {(1, 0): 2} and {type(w) for w in f.terms} == {tuple}
    g = wsf.WeylSymFn._of(a2, terms)
    assert g.terms is terms and terms == {(1, 0): 2} and g == f
    h = f - f
    assert not h and h.terms == {}
    assert (f * 0).terms == {} and (f + f).terms == {(1, 0): 4}


@pytest.mark.parametrize("other", [0.5, 1, Fraction(1, 2), "x", None])
def test_foreign_operands_raise_type_error(other):
    # these used to end in AttributeError from reading other.d
    f = wsf.WeylSymFn.monomial(build_diagram("A2"), (1, 0))
    for op in (lambda: f + other, lambda: other + f, lambda: f - other,
               lambda: other - f):
        with pytest.raises(TypeError):
            op()
    if not isinstance(other, int):
        with pytest.raises(TypeError):
            f * other
        with pytest.raises(TypeError):
            other * f
    assert f * 3 == 3 * f == wsf.WeylSymFn.monomial(f.d, (1, 0), 3)


def test_weight_diagram_examples():
    g2 = build_diagram("G2")
    pi = wsf.weight_diagram(g2, (1, 0))
    assert len(pi.weights) == 7 and (0, 0) in pi.weights
    pi0 = wsf.weight_diagram(g2, (0, 0))
    assert set(pi0.weights) == {(0, 0)}
    a2 = build_diagram("A2")
    pi1 = wsf.weight_diagram(a2, (1, 0))
    assert set(pi1.weights) == {(1, 0), (-1, 1), (0, -1)}


def test_weight_diagram_structure(diagrams):
    for name in ["A2", "C2", "G2"]:
        d = diagrams[name]
        lam = tuple(1 for _ in range(d.rank))
        pi = wsf.weight_diagram(d, lam)
        # saturation: mu - k*alpha stays inside for 0 <= k <= <mu,alpha_vee>
        for mu in pi.weights:
            for r in d.positive_roots():
                pairing = coroot_pairing(d, mu, r.root)
                k = 0
                while k <= pairing:
                    assert tuple(a - k * b for a, b in zip(mu, r.root)) in pi.weights
                    k += 1
        # unique max lam, unique min w0(lam)
        tops = [m for m in pi.weights
                if not any((m, i, n) in set(pi.edges) for i in range(1, d.rank + 1)
                           for n in pi.weights)]
        srcs = {e[0] for e in pi.edges}
        dsts = {e[2] for e in pi.edges}
        assert [m for m in pi.weights if m not in srcs] == [lam]
        assert [m for m in pi.weights if m not in dsts] == [d.w0_weight(lam)]
        # color classes are chains: in/out degree per color <= 1
        for mu in pi.weights:
            for i in range(1, d.rank + 1):
                assert sum(1 for e in pi.edges if e[0] == mu and e[1] == i) <= 1
                assert sum(1 for e in pi.edges if e[2] == mu and e[1] == i) <= 1


def test_kostant_partition():
    a2 = build_diagram("A2")
    assert wsf.kostant_partition(a2, (0, 0)) == 1
    # alpha1 + alpha2 has omega coordinates (1,1)
    assert wsf.kostant_partition(a2, (1, 1)) == 2
    assert wsf.kostant_partition(a2, wneg(a2.alpha(1))) == 0
    roots = [r.root for r in a2.positive_roots()]
    rng = random.Random(6)
    for d in [a2, build_diagram("C2"), build_diagram("G2")]:
        roots = [r.root for r in d.positive_roots()]
        for _ in range(25):
            mu = tuple(rng.randint(-2, 4) for _ in range(d.rank))
            assert wsf.kostant_partition(d, mu) == \
                brute_partition_count(d, mu, roots)


@pytest.mark.parametrize("spec, lam", [("A3", (1, 1, 1)), ("B3", (1, 0, 1)), ("C3", (0, 1, 1)),
                                       ("G2", (2, 1)), ("A2+C2", (1, 1, 1, 1))])
def test_kostant_partition_matches_recursion(spec, lam):
    """Every target of the Kostant multiplicity formula below lam: the same
    counts, and the same (j, v) keys in d.memo["kostant"], as the recursion."""
    d = build_diagram(spec)
    rho = d.rho()
    targets = [wsub(w, wadd(mu, rho))
               for mu in wsf.dominant_weights_below(d, lam)
               for w in d.weyl_orbit(wadd(lam, rho))]
    memo = {}
    assert [wsf.kostant_partition(d, t) for t in targets] == \
        [recursive_kostant_partition(d, t, memo) for t in targets]
    assert d.memo["kostant"].keys() == memo.keys()


def test_kostant_partition_past_the_recursion_limit():
    """A50 has 1 275 positive roots, one level each: more than a recursion
    per root could descend."""
    d = build_diagram("A50")
    assert wsf.kostant_partition(d, d.alpha(1)) == 1
    assert wsf.kostant_partition(d, wadd(d.alpha(1), d.alpha(2))) == 2


def test_freudenthal_g2_reference_values():
    g2 = build_diagram("G2")
    c1 = chi(g2, (1, 0))
    assert sorted(c1.terms) == [tuple(w) for w in G2FIX["chi_w1_weights"]]
    assert set(c1.terms.values()) == {1}
    c2 = chi(g2, (0, 1))
    want = {tuple(w): m for w, m in G2FIX["chi_w2_terms"]}
    assert c2.terms == want
    assert sum(c2.terms.values()) == 14
    assert chi(g2, (0, 0)) == wsf.WeylSymFn.unit(g2)


def test_kostant_equals_freudenthal_small(diagrams):
    for name in ["A2", "C2", "G2"]:
        d = diagrams[name]
        for lam in [(1, 0), (0, 1), (1, 1), (2, 0)]:
            f = chi(d, lam)
            pi = wsf.weight_diagram(d, lam)
            for mu in pi.weights:
                assert wsf.kostant_multiplicity(d, lam, mu) == f.coeff(mu)
            # vanishing off Pi(lambda)
            outside = wadd(lam, d.alpha(1))
            assert wsf.kostant_multiplicity(d, lam, outside) == 0
            assert wsf.kostant_multiplicity(d, lam, lam) == 1


KOSTANT_SPECS = ["A1", "A2", "A3", "B3", "C2", "C3", "G2", "A1+A1", "A2+A1", "A1+G2"]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_kostant_multiplicity_matches_the_whole_orbit_sum(data):
    """The pruned walk against det(w) * P summed over the whole brute orbit,
    on renumbered diagrams, for a mu drawn either from the orbit of a
    dominant weight of Pi(lam) (mostly non-dominant) or from a box around
    it (mostly outside Pi(lam), and often off lam's lattice class)."""
    base = build_diagram(data.draw(st.sampled_from(KOSTANT_SPECS)))
    perm = data.draw(st.permutations(range(base.rank)))
    d = build_diagram([[base.cartan[i][j] for j in perm] for i in perm])
    lam = tuple(data.draw(st.lists(st.integers(0, 2), min_size=d.rank, max_size=d.rank)))
    if data.draw(st.booleans()):
        nu = data.draw(st.sampled_from(wsf.dominant_weights_below(d, lam)))
        mu = d.act(data.draw(st.lists(st.integers(1, d.rank), max_size=6)), nu)
    else:
        mu = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=d.rank,
                                      max_size=d.rank)))
    assert wsf.kostant_multiplicity(d, lam, mu) == brute_kostant_multiplicity(d, lam, mu)


# C3 renumbered, as the test above may draw it
C3_RENUMBERED = [[2, 0, -1], [0, 2, -2], [-1, -1, 2]]


@pytest.mark.parametrize("lam, mu", [((0, 0, 0), (-2, -4, -3)), ((2, 1, 0), (-4, -3, 2))])
def test_kostant_multiplicity_on_the_slowest_oracle_draws(lam, mu):
    """Two draws of the test above, pinned: its st.data() draws take no
    @example.  On a 2-core x86-64 machine an unmemoized
    brute_partition_count took 38.7 s and 10.7 s on them, the memoized one
    about 1 s and 0.1 s, and the library under a millisecond.  Both
    multiplicities are 0."""
    d = build_diagram(C3_RENUMBERED)
    assert wsf.kostant_multiplicity(d, lam, mu) == brute_kostant_multiplicity(d, lam, mu) == 0


def _no_partition_count(d, mu):
    raise AssertionError("a partition count was made for %s" % (mu,))


def test_kostant_multiplicity_outside_pi_counts_no_partition(monkeypatch):
    """A mu whose dominant representative is not below lambda has
    multiplicity 0, and no partition count is made: F4 (0,0,0,0) at
    (-2,-2,-2,-2) took 86.8 s and 3.2 million memo keys by the sum (so a
    count here fails at once instead of running)."""
    d = build_diagram("F4")
    monkeypatch.setattr(wsf, "_kostant_partition", _no_partition_count)
    assert wsf.kostant_multiplicity(d, (0, 0, 0, 0), (-2, -2, -2, -2)) == 0
    assert not d.memo.get("kostant")


@pytest.mark.parametrize("spec, lam, mu", [
    ("A2", (1, 0), (-1, -1)), ("A2", (1, 1), (3, -1)), ("A2", (0, 0), (1, -2)),
    ("B3", (1, 0, 0), (0, 0, 2)), ("B3", (0, 0, 1), (-1, 1, 1)),
    ("C2", (0, 1), (-2, 2)), ("G2", (1, 0), (0, -1)), ("G2", (0, 1), (-3, 0)),
    ("A1+A1", (1, 0), (1, 2)), ("A3", (0, 1, 0), (1, -2, 1))])
def test_kostant_multiplicity_outside_pi_matches_the_whole_orbit_sum(spec, lam, mu,
                                                                      monkeypatch):
    """Small mu outside Pi(lambda), against det(w) * P over the whole brute
    orbit: both 0, with no partition count made."""
    d = build_diagram(spec)
    assert d.dominant_rep(mu) not in wsf.dominant_weights_below(d, lam)
    want = brute_kostant_multiplicity(d, lam, mu)
    monkeypatch.setattr(wsf, "_kostant_partition", _no_partition_count)
    assert wsf.kostant_multiplicity(d, lam, mu) == 0 == want
    assert not d.memo.get("kostant")


def test_kostant_multiplicity_honours_the_orbit_cap(monkeypatch):
    """A WEYL_ORBIT_CAP below |W| raises the message that names lam + rho,
    even for a mu whose pruned walk takes only lam + rho itself."""
    d = build_diagram("B3")                 # |W| = 48
    lam = (1, 0, 1)
    want = [wsf.kostant_multiplicity(d, lam, mu) for mu in (lam, (0, 0, 1))]
    assert want == [1, 3]
    monkeypatch.setenv("WEYL_ORBIT_CAP", "48")
    assert [wsf.kostant_multiplicity(d, lam, mu) for mu in (lam, (0, 0, 1))] == want
    monkeypatch.setenv("WEYL_ORBIT_CAP", "47")
    for mu in (lam, (0, 0, 1), (5, 5, 5)):
        with pytest.raises(OrbitTooLarge, match=r"^orbit of \(2, 1, 2\) exceeds cap 47$"):
            wsf.kostant_multiplicity(d, lam, mu)


def test_alternant():
    a1 = build_diagram("A1")
    alt = wsf.alternant(a1, (1,))
    assert alt.terms == {(1,): 1, (-1,): -1}
    a2 = build_diagram("A2")
    assert not wsf.alternant(a2, (1, 0))    # boundary-dominant vanishes
    # denominator formula, expanded brute force
    rho = a2.rho()
    prod = wsf.WeylSymFn.monomial(a2, rho)
    for r in a2.positive_roots():
        prod = prod * (wsf.WeylSymFn.unit(a2)
                       - wsf.WeylSymFn.monomial(a2, wneg(r.root)))
    assert wsf.alternant(a2, rho) == prod
    assert len(wsf.alternant(a2, rho).terms) == 6


def test_defining_identity(diagrams):
    for name in ["A1", "A2", "C2", "G2", "A3", "B3", "C3"]:
        d = diagrams[name]
        rho = d.rho()
        arho = wsf.alternant(d, rho)
        lams = [lam for lam in _dominant_weights(d.rank, 4)]
        for lam in lams:
            assert arho * chi(d, lam) == wsf.alternant(d, wadd(lam, rho))


def _dominant_weights(rank, total):
    if rank == 0:
        yield ()
        return
    for head in range(total + 1):
        for rest in _dominant_weights(rank - 1, total - head):
            yield (head,) + rest


def test_denominator_formula(diagrams):
    for d in diagrams.values():
        rho = d.rho()
        prod = wsf.WeylSymFn.monomial(d, rho)
        for r in d.positive_roots():
            prod = prod * (wsf.WeylSymFn.unit(d)
                           - wsf.WeylSymFn.monomial(d, wneg(r.root)))
        assert wsf.alternant(d, rho) == prod


def test_expand_in_bialternants():
    g2 = build_diagram("G2")
    c1 = chi(g2, (1, 0))
    assert wsf.expand_in_bialternants(c1) == {(1, 0): 1}
    exp = wsf.expand_in_bialternants(c1 * c1)
    assert exp == {(2, 0): 1, (0, 1): 1, (1, 0): 1, (0, 0): 1}
    dims = [wsf.specialize(g2, lam).dimension for lam in exp]
    assert sum(dims) == 49
    # monomial function has top coefficient 1 at lambda
    z = wsf.monomial_wsf(g2, (1, 1))
    assert wsf.expand_in_bialternants(z)[(1, 1)] == 1
    with pytest.raises(NotInvariant):
        wsf.expand_in_bialternants(wsf.WeylSymFn.monomial(g2, (1, 0)))


def test_expand_reconstruct_roundtrip(diagrams):
    rng = random.Random(7)
    for name in ["A2", "C2", "G2"]:
        d = diagrams[name]
        for _ in range(5):
            combo = {}
            for _ in range(3):
                lam = (rng.randint(0, 2), rng.randint(0, 2))
                combo[lam] = rng.randint(-3, 3)
            combo = {k: v for k, v in combo.items() if v}
            fn = wsf.reconstruct(d, combo)
            assert wsf.expand_in_bialternants(fn) == combo


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_expansion_matches_the_peel(data):
    """The unitriangular solve gives the peel's expansion of integer
    combinations of characters of nested weights, over several diagrams.
    Half of the combinations cancel the term of f at one dominant weight mu,
    which the solve must then find as a constituent below the others."""
    spec = data.draw(st.sampled_from(["A2", "C2", "G2", "B3", "A3", "A2+G2", "D4"]))
    d = build_diagram(spec)
    top = tuple(data.draw(st.lists(st.integers(0, 2 if d.rank < 4 else 1),
                                   min_size=d.rank, max_size=d.rank)))
    below = wsf.dominant_weights_below(d, top)
    combo = data.draw(st.dictionaries(st.sampled_from(below), st.integers(-3, 3), max_size=4))
    if data.draw(st.booleans(), label="cancel"):
        # the coefficient that leaves f no term at mu
        mu = data.draw(st.sampled_from(below), label="mu")
        combo[mu] = -sum(c * wsf.dominant_multiplicities(d, lam).get(mu, 0)
                         for lam, c in combo.items() if lam != mu)
    f = wsf.reconstruct(d, combo)
    got = wsf.expand_in_bialternants(f)
    assert got == peel_bialternants(f) == {m: c for m, c in combo.items() if c}


def test_expansion_finds_a_cancelled_constituent():
    """chi_(1,1) - 2 chi_(0,0) of A2 has no term at (0,0), whose multiplicity
    in chi_(1,1) is 2; the solve still finds the constituent (0,0)."""
    a2 = build_diagram("A2")
    f = chi(a2, (1, 1)) - 2 * chi(a2, (0, 0))
    assert (0, 0) not in f.terms
    assert wsf.expand_in_bialternants(f) == peel_bialternants(f) == {(1, 1): 1, (0, 0): -2}


def test_monomial_and_elementary():
    g2 = build_diagram("G2")
    zero = (0, 0)
    assert wsf.monomial_wsf(g2, zero) == wsf.WeylSymFn.unit(g2)
    assert wsf.elementary_wsf(g2, zero) == wsf.WeylSymFn.unit(g2)
    z1 = wsf.monomial_wsf(g2, (1, 0))
    assert len(z1.terms) == 6
    assert chi(g2, (1, 0)) == z1 + wsf.monomial_wsf(g2, zero)
    a2 = build_diagram("A2")
    psi = wsf.elementary_wsf(a2, (1, 1))
    assert psi == chi(a2, (1, 0)) * chi(a2, (0, 1))
    assert wsf.expand_in_bialternants(psi) == {(1, 1): 1, (0, 0): 1}


def test_involutions_and_restrict():
    g2 = build_diagram("G2")
    f = chi(g2, (0, 1)) + 2 * wsf.WeylSymFn.monomial(g2, (1, 2))
    assert f.star().star() == f
    for lam in [(1, 0), (0, 1), (1, 1)]:
        assert chi(g2, lam).bowtie() == chi(g2, lam)
    a2 = build_diagram("A2")
    # chi*(lambda) = chi(-w0 lambda)
    assert chi(a2, (1, 0)).star() == chi(a2, (0, 1))
    r = chi(a2, (1, 0)).restrict((1,))
    a1 = build_diagram("A1")
    assert r == chi(a1, (1,)) + chi(a1, (0,))


def test_specialize_g2():
    g2 = build_diagram("G2")
    s1 = wsf.specialize(g2, (1, 0))
    assert list(s1.dynkin_polynomial) == G2FIX["dynkin_poly_w1"]
    assert s1.dimension == 7
    s2 = wsf.specialize(g2, (0, 1))
    assert list(s2.dynkin_polynomial) == G2FIX["dynkin_poly_w2"]
    assert s2.dimension == 14
    s0 = wsf.specialize(g2, (0, 0))
    assert s0.dynkin_polynomial == (1,) and s0.dimension == 1


def test_g2_dimension_formula():
    g2 = build_diagram("G2")
    for a in range(4):
        for b in range(3):
            want = ((2 * a + 3 * b + 5) * (a + 3 * b + 4) * (a + 2 * b + 3)
                    * (a + b + 2) * (b + 1) * (a + 1)) // 120
            assert wsf.specialize(g2, (a, b)).dimension == want


def test_dynkin_polynomial_symmetry(diagrams):
    from weylsplit import qpoly
    for name in ["A3", "B3", "C2", "G2"]:
        d = diagrams[name]
        for lam in _dominant_weights(d.rank, 2):
            poly = wsf.specialize(d, lam).dynkin_polynomial
            assert qpoly.is_palindromic(list(poly))
            assert qpoly.is_unimodal(list(poly))


def test_chi_positive_exactly_on_pi(diagrams):
    for name in ["A2", "G2", "B3"]:
        d = diagrams[name]
        lam = tuple(1 for _ in range(d.rank))
        f = chi(d, lam)
        pi = wsf.weight_diagram(d, lam)
        assert set(f.terms) == set(pi.weights)
        assert all(c > 0 for c in f.terms.values())


def test_w_invariance_of_characters(diagrams):
    for d in diagrams.values():
        lam = tuple(1 if i == 0 else 0 for i in range(d.rank))
        f = chi(d, lam)
        assert f.is_invariant()
        for i in range(1, d.rank + 1):
            assert f.w_action((i,)) == f


def test_reducible_diagram_characters():
    d = build_diagram("A2+A1")
    f = chi(d, (1, 0, 1))
    a2 = build_diagram("A2")
    a1 = build_diagram("A1")
    dim = wsf.specialize(d, (1, 0, 1)).dimension
    assert dim == wsf.specialize(a2, (1, 0)).dimension \
        * wsf.specialize(a1, (1,)).dimension
    assert sum(f.terms.values()) == dim


A3_PERMUTED = "cartan:[[2,0,-1],[0,2,-1],[-1,-1,2]]"     # classical node 2 is node 3


@pytest.mark.parametrize("spec, top", [
    ("A1", 2), ("A2", 2), ("A3", 2), ("A4", 2), ("B3", 2), ("B4", 2),
    ("C2", 2), ("C3", 2), ("C4", 2), ("D4", 2), ("G2", 2), ("A2+G2", 2),
    (A3_PERMUTED, 2), ("F4", 1), ("E6", 1)])
def test_dominant_weights_below_matches_box(spec, top):
    d = build_diagram(spec)
    for lam in itertools.product(range(top + 1), repeat=d.rank):
        assert wsf.dominant_weights_below(d, lam) \
            == brute_dominant_weights_below(d, lam), lam


def test_non_dominant_weight_raises():
    g2 = build_diagram("G2")
    lam = (-1, 0)
    for fn in (wsf.dominant_weights_below, wsf.dominant_multiplicities,
               wsf.specialize, wsf.alternant, wsf.monomial_wsf,
               wsf.elementary_wsf, wsf.freudenthal, wsf.weight_diagram):
        with pytest.raises(NotDominant):
            fn(g2, lam)
    with pytest.raises(NotDominant):
        wsf.kostant_multiplicity(g2, lam, (0, 0))


def test_as_int_is_exact():
    assert wsf._as_int(12, 4) == 3
    assert wsf._as_int(-6, 3) == -2
    with pytest.raises(ExactnessError):
        wsf._as_int(7, 2)


@pytest.mark.parametrize("spec, lam", [
    ("G2", (2, 1)), ("B4", (1, 0, 0, 1)), ("A2+G2", (1, 1, 1, 1))])
def test_cold_freudenthal_takes_no_dominant_rep(monkeypatch, spec, lam):
    # the inner sum reads membership off the orbits already written, and each
    # orbit is walked from the dominant weight the walk holds, so no
    # dominant_rep call is left
    d = build_diagram(spec)
    calls = []
    real = DynkinDiagram.dominant_rep

    def counted(self, mu):
        calls.append(tuple(mu))
        return real(self, mu)

    monkeypatch.setattr(DynkinDiagram, "dominant_rep", counted)
    wsf.dominant_multiplicities(d, lam)
    assert calls == []


@pytest.mark.parametrize("spec, lam", [
    ("G2", (2, 1)), ("B3", (1, 0, 1)), ("A2+G2", (1, 0, 0, 1))])
def test_freudenthal_and_dominant_multiplicities_share_one_memo(spec, lam):
    d1, d2 = build_diagram(spec), build_diagram(spec)
    chi1 = wsf.freudenthal(d1, lam)
    mult1 = wsf.dominant_multiplicities(d1, lam)
    mult2 = wsf.dominant_multiplicities(d2, lam)
    chi2 = wsf.freudenthal(d2, lam)
    assert chi1 == chi2 and mult1 == mult2
    assert mult1 == {mu: c for mu, c in chi1.terms.items() if d1.is_dominant(mu)}
    assert d1.memo["freudenthal"] == {lam: mult1}
    assert d2.memo["freudenthal"] == {lam: mult2}
    # the returned terms are the caller's own, from a cold call or a memo hit
    want = dict(chi1.terms)
    for d, got in ((d1, chi1), (d2, chi2)):
        got.terms[lam] = 99
        again = wsf.freudenthal(d, lam)
        assert again.terms == want
        again.terms.clear()
        assert wsf.freudenthal(d, lam).terms == want
    # and so are the dominant multiplicities (mult1 a memo hit, mult2 cold)
    want_mult = dict(mult1)
    for d, got in ((d1, mult1), (d2, mult2)):
        got[lam] = 99
        assert wsf.dominant_multiplicities(d, lam) == want_mult
        assert wsf.freudenthal(d, lam).terms == want


CHAR_SPECS = ["A1", "A2", "A3", "A4", "B3", "B4", "C2", "C3", "C4", "D4", "G2",
              "F4", "A1+A1", "A2+G2", "A1+B3"]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_character_properties_random(data):
    base = build_diagram(data.draw(st.sampled_from(CHAR_SPECS)))
    base_lam = data.draw(st.tuples(*[st.integers(0, 2)] * base.rank))
    dim = brute_weyl_dimension(base, base_lam)
    assume(dim <= 1200)         # keeps the Kostant route quick on F4 and B4
    # the same diagram as a cartan: matrix, node i being node perm[i] of base
    perm = data.draw(st.permutations(range(base.rank)))
    matrix = [[base.cartan[i][j] for j in perm] for i in perm]
    d = build_diagram("cartan:" + str(matrix).replace(" ", ""))
    lam = tuple(base_lam[i] for i in perm)
    f = chi(d, lam)
    assert sum(f.terms.values()) == dim
    assert set(f.terms) == wsf.weight_diagram(d, lam).weights
    assert f.is_invariant()
    if d.weyl_order() <= wsf.WEYL_GROUP_CAP:
        for mu, c in f.terms.items():
            if d.is_dominant(mu):
                assert wsf.kostant_multiplicity(d, lam, mu) == c, mu
        assert wsf.kostant_multiplicity(d, lam, wadd(lam, d.alpha(1))) == 0
    want = {tuple(mu[i] for i in perm): c for mu, c in chi(base, base_lam).terms.items()}
    assert f.terms == want
