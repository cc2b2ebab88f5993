import itertools
import random
from fractions import Fraction

import pytest

from weylsplit import DynkinDiagram, build_diagram
from weylsplit import numbersgame as ng
from weylsplit.errors import ExactnessError, IllegalFire, NotDominant, NotGCM

from conftest import (brute_positive_roots, brute_weyl_group, dense_fire, inversion_roots,
                      norm2)

FINITE_TYPES = (["A%d" % n for n in range(1, 9)] + ["B%d" % n for n in range(3, 9)]
                + ["C%d" % n for n in range(2, 9)] + ["D%d" % n for n in range(4, 9)]
                + ["E6", "E7", "E8", "F4", "G2"])
SUMS = ["A2+A1", "C2+G2", "B3+A2+G2", "A1+A1+A1", "D4+F4"]
# affine, hyperbolic, and a non-symmetric 3 x 3 graph with a zero pair
RAW_CARTANS = ([[2, -2], [-2, 2]], [[2, -3], [-3, 2]],
               [[2, -1, 0], [-3, 2, -2], [0, -1, 2]])


def _roots(d):
    return ng.enumerate_positive_roots(d, ng.longest_word(d).word)


def _permuted(d, rng):
    """d with its nodes relabelled at random, as a cartan: spec."""
    p = list(range(d.rank))
    rng.shuffle(p)
    m = [[d.cartan[p[a]][p[b]] for b in range(d.rank)] for a in range(d.rank)]
    return build_diagram("cartan:" + str(m).replace(" ", ""))


@pytest.fixture(scope="module")
def many_diagrams():
    """Every finite type of rank up to 8, the sums and three relabellings of each."""
    rng = random.Random(17)
    base = [build_diagram(spec) for spec in FINITE_TYPES + SUMS]
    return base + [_permuted(d, rng) for d in base for _ in range(3)]


def test_fire_c2_examples():
    c2 = build_diagram("C2")
    assert ng.fire(c2, (1, 1), 1) == (-1, 2)
    assert ng.fire(c2, (-1, 2), 2) == (3, -2)


def test_fire_is_the_dense_row_formula(many_diagrams):
    """fire equals the dense-row oracle in value on int and mixed
    int/Fraction positions, and in each entry's type on int positions."""
    rng = random.Random(35)
    graphs = many_diagrams + [ng.RawGCMGraph(m) for m in RAW_CARTANS]
    for d in graphs:
        for _ in range(3):
            ints = tuple(rng.randint(-5, 5) for _ in range(d.rank))
            mixed = tuple(rng.choice((x, Fraction(x, rng.randint(2, 5)))) for x in ints)
            for pos, i in itertools.product((ints, mixed), range(1, d.rank + 1)):
                pos = pos[:i - 1] + (abs(pos[i - 1]) + 1,) + pos[i:]
                got, want = ng.fire(d, pos, i), dense_fire(d, pos, i)
                assert got == want, (d.cartan, pos, i)
                if all(type(x) is int for x in pos):
                    assert list(map(type, got)) == list(map(type, want)), (d.cartan, pos, i)


def test_fire_keeps_the_type_of_an_unmoved_entry():
    # node 3 is no neighbour of node 1, so its int 7 is not touched
    a3 = build_diagram("A3")
    got = ng.fire(a3, (Fraction(1, 2), 5, 7), 1)
    assert got == (Fraction(-1, 2), Fraction(11, 2), 7) and type(got[2]) is int
    rec = ng.play(a3, (Fraction(1, 2), 5, 7), (1,))
    assert rec.to_json_dict()["terminal"] == ["-1/2", "11/2", 7]


def test_fire_twice_illegal():
    for spec in ["A2", "C2", "G2"]:
        d = build_diagram(spec)
        pos = ng.fire(d, (1, 1), 1)
        with pytest.raises(IllegalFire):
            ng.fire(d, pos, 1)


def test_play_c2_all_sequences():
    c2 = build_diagram("C2")
    recs = ng.play(c2, (1, 1), "all")
    assert len(recs) == 2
    for r in recs:
        assert len(r.fired) == 4
        assert r.terminal == (-1, -1)
        assert not r.diverged


def test_play_g2_given_sequence():
    g2 = build_diagram("G2")
    rec = ng.play(g2, (1, 1), (1, 2, 1, 2, 1, 2))
    assert rec.fired_numbers() == (1, 2, 5, 3, 4, 1)
    assert rec.terminal == (-1, -1)


def test_play_rejects_nodes_out_of_range():
    a2 = build_diagram("A2")
    for seq in [(0,), (3,), (1, 5), (-1,)]:
        with pytest.raises(NotGCM, match="not in 1..2"):
            ng.play(a2, (1, 1), seq)


def test_records_are_plain_namedtuples():
    a2 = build_diagram("A2")
    rec = ng.play(a2, (1, 1))
    assert (rec.diverged, rec.cap) == (False, 0)
    assert repr(rec).startswith("GameRecord(initial=(1, 1), fired=(1, 2, 1),")
    assert not hasattr(rec, "__dict__")
    root = a2.positive_roots()[0]
    assert root == ng.PositiveRoot(root.root, root.alpha_coords, root.length_class)
    assert hash(root) == hash((root.root, root.alpha_coords, root.length_class))


def test_play_from_zero():
    for spec in ["A1", "G2"]:
        d = build_diagram(spec)
        rec = ng.play(d, (0,) * d.rank)
        assert rec.fired == ()
        assert rec.terminal == rec.initial


def test_divergence_reported_not_raised():
    # diagnostics-only mode on a raw GCM graph that is not finite type
    from weylsplit.cartan import DynkinDiagram
    with pytest.raises(Exception):
        DynkinDiagram([[2, -2], [-2, 2]])
    # on a finite-type diagram a tiny cap also reports divergence cleanly
    g2 = build_diagram("G2")
    rec = ng.play(g2, (5, 7), cap=2)
    assert rec.diverged and rec.cap == 2


def test_longest_word_examples():
    g2 = build_diagram("G2")
    lw = ng.longest_word(g2)
    assert lw.length == 6 and lw.sigma0 == {1: 1, 2: 2}
    a2 = build_diagram("A2")
    lw = ng.longest_word(a2)
    assert lw.length == 3 and lw.sigma0 == {1: 2, 2: 1}
    a1 = build_diagram("A1")
    lw = ng.longest_word(a1)
    assert lw.word == (1,) and lw.sigma0 == {1: 1}


def test_positive_roots_g2():
    g2 = build_diagram("G2")
    roots = _roots(g2)
    assert [r.alpha_coords for r in roots] == \
        [(1, 0), (3, 1), (2, 1), (3, 2), (1, 1), (0, 1)]
    shorts = {r.alpha_coords for r in roots if r.length_class == "short"}
    assert shorts == {(1, 0), (2, 1), (1, 1)}


def test_positive_roots_small():
    a1 = build_diagram("A1")
    assert [r.alpha_coords for r in _roots(a1)] == [(1,)]
    c2 = build_diagram("C2")
    got = {r.alpha_coords for r in _roots(c2)}
    assert got == {(1, 0), (0, 1), (1, 1), (2, 1)}
    # derived oracle: reflection closure
    want = {tuple(int(c) for c in c2.to_root_coords(r))
            for r in brute_positive_roots(c2)}
    assert got == want


def test_root_closure_property(diagrams):
    for d in diagrams.values():
        roots = _roots(d)
        have = {r.alpha_coords for r in roots}
        for r in roots:
            if sum(r.alpha_coords) == 1:
                continue
            assert any(
                tuple(a - int(j == i) for j, a in enumerate(r.alpha_coords))
                in have for i in range(d.rank)), r


def test_rgf_exponents_g2():
    g2 = build_diagram("G2")
    for a, b in [(0, 0), (1, 1), (2, 3), (4, 0)]:
        want = [a + 1, a + b + 2, 2 * a + 3 * b + 5, a + 2 * b + 3,
                a + 3 * b + 4, b + 1]
        assert ng.rgf_exponents(g2, (a, b)) == want
    a1 = build_diagram("A1")
    for m in range(5):
        assert ng.rgf_exponents(a1, (m,)) == [m + 1]


def test_weyl_order(diagrams):
    assert build_diagram("G2").weyl_order() == 12
    assert build_diagram("A1").weyl_order() == 2
    assert build_diagram("B3").weyl_order() == 48
    for d in diagrams.values():
        assert d.weyl_order() == len(brute_weyl_group(d))
    assert build_diagram("A2+A1").weyl_order() == 12
    # classical orders beyond the brute group's reach
    for spec, order in [("E6", 51_840), ("E7", 2_903_040), ("E8", 696_729_600),
                        ("F4", 1_152), ("D5", 1_920), ("B8", 10_321_920),
                        ("C8", 10_321_920)]:
        assert build_diagram(spec).weyl_order() == order


def test_e8_constants_build_no_diagram_and_play_once(monkeypatch):
    d = build_diagram("E8")
    built, played = [], []
    init, play = DynkinDiagram.__init__, ng.play
    monkeypatch.setattr(DynkinDiagram, "__init__",
                        lambda self, cartan: built.append(cartan) or init(self, cartan))
    monkeypatch.setattr(ng, "play", lambda *a, **k: played.append(a) or play(*a, **k))
    d.constants()
    assert built == [] and len(played) == 1


def test_strong_convergence_rank2_exhaustive():
    for spec in ["A1", "A2", "C2", "G2", "A1+A1"]:
        d = build_diagram(spec)
        for pos in itertools.product([-1, 0, 1, 2], repeat=d.rank):
            recs = ng.play(d, pos, "all")
            terminals = {r.terminal for r in recs}
            lengths = {len(r.fired) for r in recs}
            assert len(terminals) == 1 and len(lengths) == 1
            assert not any(r.diverged for r in recs)


def test_play_strategies_are_one_walk():
    # "first" is the first record of "all"; a record ends terminal whenever its
    # position has no positive node, even at exactly cap firings; and a
    # terminal record's word, replayed as a sequence, gives the same record
    for spec in ["A1", "A2", "C2", "G2", "A1+A1"]:
        d = build_diagram(spec)
        for pos in itertools.product([-1, 0, 1, 2], repeat=d.rank):
            for cap in range(1, 9):
                recs = ng.play(d, pos, "all", cap)
                assert ng.play(d, pos, "first", cap) == recs[0], (spec, pos, cap)
                for r in recs:
                    stuck = all(x <= 0 for x in r.terminal)
                    assert r.diverged != stuck, (spec, pos, cap, r)
                    if not r.diverged:
                        assert ng.play(d, pos, r.fired, cap) == r, (spec, pos, cap, r)


def test_longest_word_length_is_root_count():
    for spec in ["A1", "A2", "A3", "A4", "B3", "B4", "C2", "C3", "C4",
                 "D4", "F4", "G2", "A2+A1", "C2+G2"]:
        d = build_diagram(spec)
        assert ng.longest_word(d).length == len(_roots(d))


def test_terminal_is_w0_of_dominant(diagrams):
    rng = random.Random(5)
    for d in diagrams.values():
        for _ in range(50):
            lam = tuple(rng.randint(0, 9) for _ in range(d.rank))
            rec = ng.play(d, lam)
            assert not rec.diverged
            assert rec.terminal == d.w0_weight(lam)


def test_game_record_shape():
    c2 = build_diagram("C2")
    rec = ng.play(c2, (1, 1))
    assert len(rec.trace) == len(rec.fired) + 1
    j = rec.to_json_dict()
    assert set(j) == {"initial", "fired", "trace", "terminal"}


def test_raw_gcm_diagnostics_mode():
    # admissibility experiment: convergence from a nonzero dominant position
    # happens exactly on finite-type graphs
    affine = ng.RawGCMGraph([[2, -2], [-2, 2]])
    rec = ng.play(affine, (1, 1), cap=500)
    assert rec.diverged
    hyper = ng.RawGCMGraph([[2, -3], [-3, 2]])
    assert ng.play(hyper, (1, 0), cap=200).diverged
    finite = ng.RawGCMGraph([[2, -1], [-3, 2]])
    out = ng.play(finite, (1, 1), cap=500)
    assert not out.diverged and out.terminal == (-1, -1)
    with pytest.raises(Exception):
        ng.RawGCMGraph([[2, -1], [0, 2]])


def test_play_all_affine_diverges():
    affine = ng.RawGCMGraph([[2, -2], [-2, 2]])
    recs = ng.play(affine, (1, 0), "all")
    assert len(recs) == 1
    rec = recs[0]
    assert rec.diverged and len(rec.fired) == rec.cap == ng.DEFAULT_FIRING_CAP
    assert len(rec.trace) == len(rec.fired) + 1 and rec.terminal == rec.trace[-1]


def test_play_all_lists_reduced_words_in_order():
    # from rho every maximal play is a reduced word for w0; A3 has 16 of them
    a3 = build_diagram("A3")
    recs = ng.play(a3, a3.rho(), "all")
    words = [r.fired for r in recs]
    assert len(set(words)) == 16 and words == sorted(words)
    for r in recs:
        assert not r.diverged and len(r.fired) == 6
        assert r.trace == ng.play(a3, a3.rho(), r.fired).trace


def test_rgf_exponents_rejects_non_dominant():
    with pytest.raises(NotDominant):
        ng.rgf_exponents(build_diagram("G2"), (-1, 0))


def test_longest_word_checks_the_game(monkeypatch):
    real = ng.play
    monkeypatch.setattr(ng, "play", lambda d, start: real(d, start, cap=2))
    with pytest.raises(ExactnessError, match="diverged"):
        ng.longest_word(build_diagram("G2"))


def test_positive_roots_reject_a_repeated_root():
    # seven alternating letters on A2 go once around its six roots
    with pytest.raises(ExactnessError, match="repeated root"):
        ng.enumerate_positive_roots(build_diagram("A2"), (1, 2) * 3 + (1,))


def test_transpose_fires_the_same_word(many_diagrams):
    # M and M^T share their Coxeter matrix, so the first-positive-node game
    # makes the same choices on both
    for d in many_diagrams:
        dT = ng.RawGCMGraph(tuple(zip(*d.cartan)))
        assert ng.longest_word(dT).word == ng.longest_word(d).word, d


def test_positive_roots_are_the_inversion_sequence(many_diagrams):
    for d in many_diagrams:
        word = ng.longest_word(d).word
        roots = d.positive_roots()
        assert [r.root for r in roots] == inversion_roots(d, word), d
        assert [r.alpha_coords for r in roots] == \
            [d.root_lattice_coords(r.root) for r in roots]
        # short roots have squared length 2 in every component
        assert [r.length_class for r in roots] == \
            ["short" if norm2(d, r.root) == 2 else "long" for r in roots]


def test_play_rejects_a_cap_below_one():
    g2 = build_diagram("G2")
    for cap in [0, -3]:
        for strategy in ["first", "all", (1, 2)]:
            with pytest.raises(IllegalFire, match="below 1"):
                ng.play(g2, (1, 1), strategy, cap=cap)
