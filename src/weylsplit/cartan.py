"""Dynkin diagrams, exact weight/root coordinate algebra, and Weyl orbits.

Conventions used throughout the package:

* A weight is a tuple of ints: coefficients on the fundamental weights
  (omega coordinates).  Node indices are 1-based, matching the classical
  numbering of Dynkin diagram nodes; the B series starts
  at rank 3 and the C series at rank 2, so the two-node double-bond diagram
  classifies as C2.
* Every public entry point reads a weight from its caller once, through
  DynkinDiagram.check_weight or check_dominant, and goes on with the tuple
  they return.  One rule, _node_subset, reads nodes: a node subset J is a
  sequence of plain ints in 1..rank (NotGCM otherwise), sorted with repeats
  dropped.  check_node is its one-node case, sub_weight reads J with its
  weight nu through it, and sub_diagram reads J through it too.
* The i-th simple root, in omega coordinates, is row i of the Cartan matrix.
* RawGCMGraph is the one GCM-graph class: the matrix, check_node and
  simple_reflection, the one formula for s_i.  Firing node i in the numbers
  game is s_i, and numbersgame.fire calls it.  DynkinDiagram extends
  RawGCMGraph with the rank bound and the finite-type set-up.
* All arithmetic is exact: ints and fractions.Fraction, never floats.  A
  diagram is set up in ints (the inverse Cartan matrix as det and adjugate,
  root lengths from an integer symmetrizer); its public inverse_cartan,
  root_lengths and mesh_size are Fractions built once from those ints.
* A diagram has total rank at most MAX_RANK.  A larger type string or sum
  raises DiagramTooLarge before any matrix is built, and a larger matrix
  before its set-up.
* Short simple roots are normalized to squared length 2 in each connected
  component.
* Heights, the Gram matrix of the fundamental weights and root coordinates
  are held as integers over one denominator per diagram (``denom``, the
  least common denominator of the inverse Cartan matrix).  The ``*_scaled``
  methods return these integer numerators for the hot loops; ``height``,
  ``inner_product`` and ``to_root_coords`` build a Fraction from them only
  at the public edge.
"""

import json
import os
import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub

from .errors import (DiagramMismatch, DiagramTooLarge, ExactnessError, NotAWeight,
                     NotDominant, NotFiniteType, NotGCM, OrbitTooLarge)

DEFAULT_ORBIT_CAP = 10 ** 6
# steps of stage tables a diagram keeps, over all its stages; past it, stages
# are walked without being recorded (7 bytes a step)
ORBIT_TABLE_STEPS = 1 << 16
# greatest total rank of a diagram
MAX_RANK = 64
# numbers-game firings before a play is reported as diverged; defined here so
# the CLI can show it without loading numbersgame
DEFAULT_FIRING_CAP = 10_000


def _check_rank(rank):
    if rank > MAX_RANK:
        raise DiagramTooLarge("diagram rank %d exceeds %d" % (rank, MAX_RANK))


def orbit_cap():
    cap = os.environ.get("WEYL_ORBIT_CAP")
    return int(cap) if cap else DEFAULT_ORBIT_CAP


# ---------------------------------------------------------------------------
# weight helpers (weights are plain int tuples in omega coordinates)

def wadd(u, v):
    return tuple(map(add, u, v))


def wsub(u, v):
    return tuple(map(sub, u, v))


def wneg(u):
    return tuple(-a for a in u)


def zero_weight(n):
    return (0,) * n


def int_tuple(seq, error, what, fractions=False):
    """seq as a tuple of plain ints; error(...) for anything else.

    bool, float, Fraction and str entries are rejected, not converted, and
    so is a seq that is not iterable; with fractions, Fraction entries pass
    too.  what names seq in the message.
    """
    kinds = {int, Fraction} if fractions else {int}
    try:
        out = tuple(seq)
    except TypeError:
        out = None
    if out is None or not set(map(type, out)) <= kinds:
        raise error("%s must be a sequence of plain ints%s, not %r"
                    % (what, " or Fractions" if fractions else "", seq))
    return out


def _node_subset(rank, nodes):
    """A node subset J of 1..rank, sorted, with a repeated node counted once.

    The one node rule: J is read through int_tuple (NotGCM unless it is a
    sequence of plain ints), and a node outside 1..rank raises NotGCM.  J
    may be empty.
    """
    nodes = int_tuple(nodes, NotGCM, "node subset J")
    for j in nodes:
        if not 1 <= j <= rank:
            raise NotGCM("node subset out of range: %r not in 1..%d" % (j, rank))
    return tuple(sorted(set(nodes)))


def sub_weight(rank, nodes, nu):
    """Check a node subset J of 1..rank and a dominant weight nu over it.

    Returns J as _node_subset reads it (sorted, a repeated node counted
    once; NotGCM for a node that is not a plain int in 1..rank) and the map
    j -> nu_j, nu read in that order.  Then raises NotAWeight for a nu entry
    that is not a plain int, DiagramMismatch unless nu has one entry per
    node of J, and NotDominant for a negative entry.
    """
    nodes = _node_subset(rank, nodes)
    nu = int_tuple(nu, NotAWeight, "nu")
    if len(nu) != len(nodes):
        raise DiagramMismatch("nu has %d entries for %d nodes in J" % (len(nu), len(nodes)))
    if any(c < 0 for c in nu):
        raise NotDominant("nu %s has a negative entry" % (nu,))
    return nodes, dict(zip(nodes, nu))


# ---------------------------------------------------------------------------
# seed Cartan matrices with classical node numbering

# least and greatest rank of each finite type (None: unbounded), in the
# order components are matched against them
_FINITE_RANKS = {"A": (1, None), "B": (3, None), "C": (2, None), "D": (4, None),
                 "E": (6, 8), "F": (4, 4), "G": (2, 2)}


def _finite_types(rank):
    """The letters of the finite types of this rank, in matching order."""
    return [letter for letter, (lo, hi) in _FINITE_RANKS.items()
            if lo <= rank <= (rank if hi is None else hi)]


def seed_cartan(letter, rank):
    """Cartan matrix for one irreducible type, nodes numbered classically."""
    n = rank
    if letter not in _finite_types(n):
        raise NotFiniteType("no finite type %s%d" % (letter, rank))
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, mij=-1, mji=-1):
        m[i - 1][j - 1] = mij
        m[j - 1][i - 1] = mji

    if letter in ("A", "B", "C"):
        for i in range(1, n):
            bond(i, i + 1)
        if letter == "B":
            bond(n - 1, n, -2, -1)   # alpha_{n-1} long, alpha_n short
        if letter == "C":
            bond(n - 1, n, -1, -2)   # alpha_{n-1} short, alpha_n long
    elif letter == "D":
        for i in range(1, n - 1):
            bond(i, i + 1)
        m[n - 1][n - 2] = m[n - 2][n - 1] = 0
        bond(n - 2, n)
    elif letter == "E":
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        for a, b in zip(chain, chain[1:]):
            bond(a, b)
        bond(2, 4)
    elif letter == "F":
        bond(1, 2)
        bond(2, 3, -2, -1)           # alpha_2 long, alpha_3 short
        bond(3, 4)
    elif letter == "G":
        bond(1, 2, -1, -3)           # alpha_1 short, alpha_2 long
    return tuple(tuple(row) for row in m)


@lru_cache(maxsize=None)     # one key per finite type of rank <= MAX_RANK
def _template(letter, rank):
    """(matrix, neighbour lists, breadth-first slot order, parent slots) of a seed.

    Built once per finite type; every part is a tuple, so the cached value
    cannot be changed by a caller.
    """
    tmpl = seed_cartan(letter, rank)
    tnbrs = tuple(tuple(t2 for t2 in range(rank) if t2 != t and tmpl[t][t2])
                  for t in range(rank))
    order, parent = [0], [None] * rank
    for t in order:          # seeds are connected, so this reaches all slots
        for t2 in tnbrs[t]:
            if t2 and parent[t2] is None:
                parent[t2] = t
                order.append(t2)
    return tmpl, tnbrs, tuple(order), tuple(parent)


def _match_component(cartan, nodes):
    """Classify one connected component against the finite-type seeds.

    Returns (letter, rank, numbering) where numbering[t] is the 0-based node
    of the component playing the role of classical node t+1.  Template slots
    are placed in breadth-first order from slot 0: slot 0 takes the nodes of
    its degree, every later slot the unused neighbours of its parent's image
    that agree with the matrix on every slot placed so far.  Extending every
    partial numbering this way, slot by slot, reaches every isomorphism onto
    the template.  Of these (at most six, the automorphisms of D4) the least
    numbering, compared slot by slot, is kept, so relabelled matrices keep
    one numbering.
    """
    k = len(nodes)
    sub = [[cartan[a][b] for b in nodes] for a in nodes]
    nbrs = [[c2 for c2 in range(k) if c2 != c and sub[c][c2]] for c in range(k)]
    for letter in _finite_types(k):
        tmpl, tnbrs, order, parent = _template(letter, k)
        partial = [[None] * k]      # each: template slot -> component-local index
        for pos, t in enumerate(order):
            placed = order[:pos]
            partial = [assign[:t] + [c] + assign[t + 1:] for assign in partial
                       for c in (nbrs[assign[parent[t]]] if pos else range(k))
                       if c not in assign and len(nbrs[c]) == len(tnbrs[t])
                       and all(tmpl[t][t2] == sub[c][assign[t2]]
                               and tmpl[t2][t] == sub[assign[t2]][c] for t2 in placed)]
        if partial:
            return letter, k, tuple(nodes[c] for c in min(partial))
    return None


def _invert_exact(m):
    """(det, adj) of an integer matrix m, in ints, with m * adj = det * I.

    Fraction-free Gauss-Jordan on [m | I] (Bareiss, Math. Comp. 22, 1968).
    Let P be the row order the pivot search leaves, A = [Pm | P], A_k the
    leading k x k block of Pm and d_k = det A_k (d_0 = 1).  Claim: after k
    steps the working matrix W_k is d_k R_k, where R_k is A with columns
    0..k-1 reduced to unit vectors by row operations.  Every entry of d_k R_k
    is a minor of A: in a row i < k it is det A_k with column i replaced by
    column j of A (Cramer's rule), in a row i >= k it is the determinant of
    A_k bordered by row i and column j (the Schur complement, that is
    Sylvester's identity).  Step k divides the pivot row by R_k[k][k] =
    d_(k+1) / d_k and clears column k elsewhere, so
    d_(k+1) R_(k+1)[i][j] = (p W_k[i][j] - W_k[i][k] W_k[k][j]) / d_k with
    the pivot p = W_k[k][k] = d_(k+1), and the pivot row stays W_k[k].  Both
    sides are minors, hence integers, and the division is exact.  A zero
    column below the pivots makes m singular.  At the end W_n = [d_n I |
    d_n m^-1], and d_n = det(Pm) is det m up to the sign of the row swaps.
    """
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev, sign = 1, 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise NotFiniteType("Cartan matrix is singular")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        top = a[col]
        p = top[col]
        for r in range(n):
            if r != col:
                row = a[r]
                f = row[col]
                if f:
                    a[r] = [(p * x - f * y) // prev for x, y in zip(row, top)]
                elif p != prev:
                    a[r] = [p * x // prev for x in row]
        prev = p
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in a)


def gcm_matrix(cartan):
    """The matrix as int tuples; NotGCM unless it is a generalized Cartan matrix.

    Only a list or tuple of lists or tuples of ints is read: bool, float,
    str and None entries are rejected, not converted.
    """
    seq = (list, tuple)
    if not isinstance(cartan, seq) or not all(isinstance(r, seq) for r in cartan) \
            or not set(map(type, chain.from_iterable(cartan))) <= {int}:
        raise NotGCM("Cartan matrix must be a list of lists of ints")
    cartan = tuple(map(tuple, cartan))
    n = len(cartan)
    if n == 0 or any(len(row) != n for row in cartan):
        raise NotGCM("Cartan matrix must be square and nonempty")
    for i in range(n):
        if cartan[i][i] != 2:
            raise NotGCM("diagonal entries must equal 2")
        for j in range(n):
            if i != j:
                if cartan[i][j] > 0:
                    raise NotGCM("off-diagonal entries must be <= 0")
                if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                    raise NotGCM("M_ij = 0 must imply M_ji = 0")
    return cartan


_MIJ_FROM_PRODUCT = {0: 2, 1: 3, 2: 4, 3: 6}


def _canonical_rule(cartan):
    """The table _children reads: for each node f (0-based), its neighbours
    i > f with row i's entries M_if..M_i,i-1."""
    n = len(cartan)
    return tuple(tuple((i, cartan[i][f:i]) for i in range(f + 1, n) if cartan[i][f])
                 for f in range(n))


def _children(canonical, v):
    """The (i, v_i) of the steps v -> s_i v that an orbit walk takes.

    Snow's canonical-parent rule ("Weyl group orbits", ACM TOMS 16,
    1990): the walk goes down from a dominant top, and takes s_i v only
    when v_i > 0 and i is the first negative coordinate of s_i v.  For
    j < i, coordinate j of s_i v is v_j - v_i M_ij >= v_j, since M_ij <= 0.
    So with f the first negative coordinate of v, every i < f with v_i > 0
    passes, and an i > f passes only when it neighbours f (else
    coordinate f stays negative) and v_j - v_i M_ij >= 0 for f <= j < i:
    the lower entries of row i, which canonical (the matrix's
    _canonical_rule table) holds.  The test comes before s_i v is built.
    Indices are 0-based.  A stage walk (DynkinDiagram._stage) reads the
    rule over a node subset K by passing K's coordinates of v and the
    table of the matrix restricted to K.

    Why each weight of the orbit is found exactly once: the level of u
    = w(top), for w of least length, is that length, the number of
    positive roots beta with <u, beta^vee> < 0.  A u other than top has
    a negative coordinate; let m be the first.  Then s_m u, its one
    canonical parent, is one level up: s_m permutes the positive roots
    other than alpha_m, so s_m u pairs negatively with s_m of those
    that u pairs negatively with, alpha_m dropped.  By induction on the
    level the walk finds s_m u, and from it takes node m, since
    (s_m u)_m = -u_m > 0 and m is u's first negative coordinate; no
    other v leads to u, since the rule makes v = s_m u.  Every step goes
    one level down, so the walk, breadth-first, lists the orbit level by
    level.
    """
    for f, c in enumerate(v):
        if c > 0:
            yield f, c
        elif c:
            break
    else:
        return
    tail = v[f:]
    for i, low in canonical[f]:
        c = v[i]
        if c > 0:
            for a, x in zip(low, tail):
                if x < c * a:
                    break
            else:
                yield i, c


class RawGCMGraph:
    """A GCM graph: its matrix, its simple reflections and the node rule.

    The base class of DynkinDiagram, with no finite-type requirement and no
    rank bound.  Built from a bare matrix it is the numbers game's
    diagnostics mode: fire and play accept it, so the admissibility
    experiment (convergence from a nonzero dominant position iff finite
    type) runs on any GCM graph, with no convergence guarantee.
    """

    def __init__(self, cartan):
        self.cartan = gcm_matrix(cartan)
        self.rank = len(self.cartan)
        # the nonzero (j, M_ij) of each row: s_i moves only node i and its neighbours
        self._sparse_rows = tuple(tuple((j, a) for j, a in enumerate(row) if a)
                                  for row in self.cartan)

    def check_node(self, i):
        """i when it is a plain int in 1..rank; NotGCM otherwise.

        The one-node case of the node rule, _node_subset.
        """
        return _node_subset(self.rank, (i,))[0]

    def simple_reflection(self, i, mu):
        """s_i(mu) = mu - mu_i * alpha_i: the one formula for s_i.

        Firing node i in the numbers game (numbersgame.fire) is this map.
        mu may hold ints and Fractions; only node i and its neighbours
        change, so an entry j with M_ij = 0 keeps its value and its type.
        i and mu are read unchecked, as on every hot inner call.
        """
        c = mu[i - 1]
        if c == 0:
            return tuple(mu)
        out = list(mu)
        for j, a in self._sparse_rows[i - 1]:
            out[j] -= c * a
        return tuple(out)

    def act(self, word, mu):
        """Apply s_{i_k} ... s_{i_1} for word = (i_1, ..., i_k).

        Each node of word is read through check_node (NotGCM unless it is a
        plain int in 1..rank); mu is read unchecked.
        """
        return self._act([self.check_node(i) for i in word], mu)

    def _act(self, word, mu):
        """act with the nodes of word read unchecked."""
        for i in word:
            mu = self.simple_reflection(i, mu)
        return mu


class DynkinDiagram(RawGCMGraph):
    """A validated finite-type GCM graph; the single source of Cartan data.

    A RawGCMGraph (so it shares that class's s_i and node rule) of rank at
    most MAX_RANK whose every component is of finite type.  Immutable after
    construction and safe to share.  Derived root-system constants
    (positive roots, longest word, sigma_0, Weyl order) are computed lazily
    through the numbers-game engine and cached.  Every other derived result
    lives in ``memo``, a dict from kind to that kind's results: "kostant"
    (wsf, partition counts), "freudenthal" (wsf, the dominant
    multiplicities of each lambda, shared by freudenthal and
    dominant_multiplicities), "roots" (wsf, the positive roots with their
    Gram images, for Freudenthal), "crystal" (the R(lambda) posets), "sub"
    (the diagrams sub_diagram built on proper node subsets, by node tuple)
    and "orbit" (the stage tables that every orbit is composed from, by
    (K, m); see _stage and _orbit).
    The results are freed with the diagram; an equal diagram built afresh
    starts with an empty memo.
    """

    def __init__(self, cartan):
        super().__init__(cartan)
        _check_rank(self.rank)
        cartan, n = self.cartan, self.rank

        # connected components of the underlying graph, and along the same
        # walk <a_w,a_w> / <a_s,a_s> as num[w] / den[w], since
        # M_wv * <a_v,a_v> = M_vw * <a_w,a_w>
        seen, comps, num, den = [False] * n, [], [1] * n, [1] * n
        for s in range(n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w, a in self._sparse_rows[v]:
                    if not seen[w]:
                        seen[w] = True
                        num[w], den[w] = num[v] * cartan[w][v], den[v] * a
                        stack.append(w)
            comps.append(sorted(comp))

        self.components = []      # (letter, rank, nodes 1-based in classical order)
        comp_of = [None] * n
        lengths = [None] * n
        for ci, comp in enumerate(comps):
            match = _match_component(cartan, comp)
            if match is None:
                raise NotFiniteType("component %s is not of finite type"
                                    % [v + 1 for v in comp])
            letter, rk, numbering = match
            self.components.append((letter, rk, tuple(v + 1 for v in numbering)))
            # squared lengths normalized so short = 2: the component is of
            # finite type, so each is 1, 2 or 3 times the shortest and the
            # division is exact
            common = lcm(*(den[v] for v in comp))
            scaled = {v: num[v] * (common // den[v]) for v in comp}
            shortest = min(scaled.values())
            for v in comp:
                comp_of[v] = ci
                lengths[v] = 2 * scaled[v] // shortest

        self.component_of = tuple(comp_of)
        # the canonical-parent rule of the orbit walks (see _children)
        self._canonical = _canonical_rule(cartan)
        self.coxeter_exponents = tuple(
            tuple(1 if i == j else _MIJ_FROM_PRODUCT[cartan[i][j] * cartan[j][i]]
                  for j in range(n))
            for i in range(n))

        # integer numerators over one denominator: Q = M^-1 = q_num / denom.
        # The least common denominator of adj / det is det / g with g the gcd
        # of det and every entry of adj; det > 0 for finite type.
        det, adj = _invert_exact(cartan)
        g = gcd(det, *chain.from_iterable(adj))
        self.denom = det // g
        q_num = [[x // g for x in row] for row in adj]
        # root coordinates of mu are Q^T mu, so keep the columns of Q
        self._q_cols = tuple(zip(*q_num))
        # <omega_i, rho_vee> = sum_k Q_ik
        self._heights_scaled = tuple(sum(row) for row in q_num)
        # <omega_i, omega_j> = Q_ji * <a_i,a_i> / 2, and <a_i,a_i> / 2 is 1, 2 or 3
        self.gram_scaled = tuple(tuple(q_num[j][i] * (lengths[i] // 2) for j in range(n))
                                 for i in range(n))

        # sanity: M * Q = denom * I exactly
        for i, row in enumerate(self._sparse_rows):
            for j, col in enumerate(self._q_cols):
                if sum(a * col[k] for k, a in row) != (self.denom if i == j else 0):
                    raise ExactnessError("M * Q differs from %d * I at (%d, %d)"
                                         % (self.denom, i + 1, j + 1))

        # the public exact values, built once from the integers
        self.inverse_cartan = tuple(tuple(Fraction(x, self.denom) for x in row)
                                    for row in q_num)
        self.root_lengths = tuple(map(Fraction, lengths))
        prod = 1
        for h in self._heights_scaled:
            prod *= self.denom // gcd(h, self.denom)
        self.mesh_size = Fraction(1, prod)

        self._constants = None
        self.memo = {}

    # -- basic data -------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, DynkinDiagram) and self.cartan == other.cartan

    def __hash__(self):
        return hash(self.cartan)

    def __repr__(self):
        return "DynkinDiagram(%s)" % self.type_string()

    def type_string(self):
        return "+".join("%s%d" % (letter, rk) for letter, rk, _ in self.components)

    def alpha(self, i):
        """Simple root alpha_i in omega coordinates (row i of M)."""
        return self.cartan[self.check_node(i) - 1]

    def omega(self, i):
        i = self.check_node(i)
        return tuple(int(i == j + 1) for j in range(self.rank))

    def rho(self):
        return (1,) * self.rank

    def is_dominant(self, mu):
        return all(c >= 0 for c in mu)

    def check_weight(self, mu):
        """mu as a tuple of rank plain ints: the one gate for weights.

        Raises NotAWeight unless mu is a sequence of plain ints, and
        DiagramMismatch unless it has rank entries.  Every public entry point
        that takes a weight reads it through here (or check_dominant) before
        any memo read, so no memo key is a float, a bool or a short tuple,
        and no zip truncates a short weight.  The hot inner calls
        (simple_reflection, act, wadd, wsub) take checked weights unchecked.
        """
        mu = int_tuple(mu, NotAWeight, "a weight")
        if len(mu) != self.rank:
            raise DiagramMismatch("weight %s does not have %d entries" % (mu, self.rank))
        return mu

    def check_dominant(self, mu):
        """The checked weight mu (check_weight); NotDominant unless dominant."""
        mu = self.check_weight(mu)
        if not self.is_dominant(mu):
            raise NotDominant("weight %s is not dominant" % (mu,))
        return mu

    def is_strongly_dominant(self, mu):
        return all(c > 0 for c in mu)

    # -- exact coordinate algebra ------------------------------------------

    def root_coords_scaled(self, mu):
        """denom times the coefficients of mu on the simple roots (Q^T mu)."""
        return tuple(sum(map(mul, mu, col)) for col in self._q_cols)

    def height_scaled(self, mu):
        """denom * ht(mu)."""
        return sum(map(mul, mu, self._heights_scaled))

    def inner_product_scaled(self, u, v):
        """denom * <u, v>."""
        return sum(a * sum(g * b for g, b in zip(row, v))
                   for a, row in zip(u, self.gram_scaled) if a)

    def root_lattice_coords(self, mu):
        """Integer coefficients of mu on the simple roots; None off the root lattice."""
        den = self.denom
        rc = self.root_coords_scaled(mu)
        if any(c % den for c in rc):
            return None
        return tuple(c // den for c in rc)

    def to_root_coords(self, mu):
        """Coefficients of mu on the simple roots: Q^T applied to mu, exact."""
        return tuple(Fraction(c, self.denom) for c in self.root_coords_scaled(mu))

    def height(self, mu):
        """ht(mu) = <mu, rho_vee> = sum of the root coordinates of mu."""
        return Fraction(self.height_scaled(mu), self.denom)

    def inner_product(self, u, v):
        return Fraction(self.inner_product_scaled(u, v), self.denom)

    def dominant_rep(self, mu):
        """The unique dominant weight in the W-orbit of mu."""
        mu = self.check_weight(mu)
        while not self.is_dominant(mu):
            mu = self.simple_reflection(next(i for i, c in enumerate(mu, 1) if c < 0), mu)
        return mu

    # -- orbits -------------------------------------------------------------

    def weyl_orbit(self, mu):
        """Orbit of mu with det(w) parities, relative to mu.

        Returns dict weight -> parity in {1, -1, None}, in the order of
        _orbit's composed replay from the dominant representative top of mu:
        the weights u_1 ... u_s(top), each u_t running over the weights of
        stage t in the order of that stage's walk, u_1 slowest and u_s
        fastest, so top comes first (see _orbit).  This is not level by
        level; the dict is the same as a set of items whatever the order.
        The level _orbit gives a weight is the length of the minimal w with
        w(top) = weight.  When every coordinate of top is positive, w is
        unique, det(w) = (-1)^level, and the parity of a weight is
        (-1)^(level(weight) - level(mu)), so mu itself gets 1.  The parity
        is None (Indeterminate) for every element exactly when top has a
        zero coordinate, that is when mu is non-regular.  Raises
        OrbitTooLarge, naming mu, when the orbit holds more weights than the
        cap (see _orbit).
        """
        mu = self.check_weight(mu)
        top = self.dominant_rep(mu)
        orbit, levels = self._orbit(top, mu)
        if not self.is_strongly_dominant(top):
            return dict.fromkeys(orbit)
        signs = (-1, 1) if levels[orbit.index(mu)] % 2 else (1, -1)
        return {w: signs[level % 2] for w, level in zip(orbit, levels)}

    def _stage(self, nodes, m, limit):
        """Stage (K, m) of the orbits: the orbit of omega_m under W_K, as steps.

        nodes is K, a sorted tuple of nodes (1-based), and m one of them.
        Returns (parents, steps, levels): weight 0 is omega_m, and weight k
        >= 1 is s_i of weight parents[k - 1], i = steps[k - 1] the node's
        0-based index in the full numbering, so replaying the steps from any
        weight x gives u(x) for the u that the walk reaches.  levels[k] is
        the level of weight k, levels[0] = 0, and len(levels) is the size of
        the stage.  A stage walked afresh with more than limit weights
        returns None: its walk stops there and stores nothing.

        The walk is _children's, read over the nodes of K only: it runs on
        the K-coordinates of the weights, with the rows and the rule table
        of the matrix restricted to K.  Why that is the walk of the W_K-orbit
        of omega_m: for i in K, s_i changes coordinate j by -v_i M_ij, so
        under W_K the K-coordinates of a weight change exactly as the
        coordinates of the sub-diagram on K do.  The stabilizer of a
        dominant weight is generated by the simple reflections that fix it
        (Humphreys, Introduction to Lie Algebras and Representation Theory,
        10.3, Lemma B), so W_K fixes omega_m in the subgroup W_(K - m), and
        the sub-diagram's Weyl group fixes the K-projection of omega_m (its
        fundamental weight of m) in that same subgroup.  So taking the
        K-coordinates is one to one on the orbit, the sub-diagram's walk by
        the rule finds each weight once (the proof of _children), and the
        level of a weight is the length of the minimal coset representative
        u in W_K^(K - m) that takes omega_m there.  The s_i read along the
        weight's chain of canonical parents form a word of that length for
        some w' with w'(omega_m) equal to the weight; w' lies in u W_(K - m)
        and is no longer than u, the one shortest element of that coset, so
        w' = u and the word is a reduced word of u.

        Stages live in memo["orbit"] under (K, m), shared by every orbit
        whose composition meets them (see _orbit).  A diagram keeps at most
        ORBIT_TABLE_STEPS steps over all its stages; past that, a stage is
        walked on every call without being stored.
        """
        tables = self.memo.setdefault("orbit", {})
        table = tables.get((nodes, m))
        if table is not None:
            return table
        from array import array
        idx = [k - 1 for k in nodes]
        sub = [[self.cartan[a][b] for b in idx] for a in idx]
        rows = [[(q, a) for q, a in enumerate(row) if a] for row in sub]
        canonical = _canonical_rule(sub)
        walk = [tuple(int(k == m) for k in nodes)]
        # a level is at most the 4 096 positive roots of a rank-64 diagram
        parents, steps, levels = array("i"), array("b"), array("H", [0])
        for k, v in enumerate(walk):        # walk grows as it finds weights
            level = levels[k] + 1
            for p, c in _children(canonical, v):
                w = list(v)
                for q, a in rows[p]:
                    w[q] -= c * a
                walk.append(tuple(w))
                parents.append(k)
                steps.append(idx[p])
                levels.append(level)
            if len(walk) > limit:
                return None
        table = parents, steps, levels
        if sum(len(t[0]) for t in tables.values()) + len(parents) <= ORBIT_TABLE_STEPS:
            tables[(nodes, m)] = table
        return table

    def _orbit(self, top, mu=None):
        """The orbit of a checked dominant weight top: (weights, levels).

        The trusted form of weyl_orbit, for callers that already hold a
        dominant weight.  weights lists the orbit once over, and levels[k]
        is the level of weights[k]: the length of the minimal w with w(top)
        = weights[k], that is #{beta > 0 : <weights[k], beta^vee> < 0}.
        Raises OrbitTooLarge, naming mu (default top), when the orbit holds
        more weights than the cap, which orbit_cap reads from the
        WEYL_ORBIT_CAP environment variable (default DEFAULT_ORBIT_CAP) at
        each call.

        The orbit is composed from stage tables (_stage).  Let m_1 < ... <
        m_s be the nonzero nodes of top, K_0 all nodes, K_t = K_(t-1) - m_t,
        so K_s is the zero set J of top, and stage t is (K_(t-1), m_t).  The
        replay starts from [top] and replays stage s from it; then it replays
        stage s - 1 from each weight obtained, and so on out to stage 1.  The
        list so far is group 0 of the next stage, and each step k -> j of
        that stage, s_i, applied to every weight of group k in order, appends
        group j, so weights[k] is u_1 ... u_s(top) with the index of u_1 in
        its stage varying slowest and that of u_s fastest; a weight's level
        is the sum of its stage levels.  Why each weight appears once, at its
        level: for J in K, every w in W^J (the minimal representatives of
        W / W_J) factors uniquely as w = u v with u in W^K and v in W_K^J,
        and l(w) = l(u) + l(v) (Bjorner and Brenti, Combinatorics of Coxeter
        Groups, Prop. 2.4.4).  Along K_0, ..., K_s that gives w = u_1 ...
        u_s, u_t in W_(K_(t-1))^(K_t), uniquely, with lengths adding.  The
        stabilizer of omega_(m_t) in W_(K_(t-1)) is W_(K_t), so u_t runs
        over the weights of stage t, and replaying the stage applies a
        reduced word of u_t.  The replay therefore lists w(top) for every w
        in W^J once, and w -> w(top) is one to one on W^J since W_J is the
        stabilizer of top.  The size of the orbit is the product of the
        stage sizes, so the cap is checked on that product before any weight
        of the orbit is built; a stage walked afresh may hold at most the
        cap over the product of the stages before it, so a miss stops as
        soon as the product is sure to exceed the cap.
        """
        cap = orbit_cap()
        stages, nodes, size = [], tuple(range(1, self.rank + 1)), 1
        for m, c in enumerate(top, 1):
            if c:
                stage = self._stage(nodes, m, cap // size)
                if stage is None:           # more than cap // size weights
                    size = cap + 1
                    break
                stages.append(stage)
                size *= len(stage[2])
                nodes = tuple(k for k in nodes if k != m)
        if size > cap:
            raise OrbitTooLarge("orbit of %s exceeds cap %d"
                                % (top if mu is None else mu, cap))
        rows = self._sparse_rows
        orbit, levels = [top], [0]
        append = orbit.append
        for parents, steps, stage_levels in reversed(stages):
            n = len(orbit)
            if n == 1:      # stage s, from top alone, without a slice per weight
                for k, i in zip(parents, steps):
                    v = orbit[k]
                    c = v[i]
                    w = list(v)
                    for j, a in rows[i]:
                        w[j] -= c * a
                    append(tuple(w))
            else:           # step k -> j maps group k of the list to group j
                for k, i in zip(parents, steps):
                    row, start = rows[i], k * n
                    for v in orbit[start:start + n]:
                        c = v[i]
                        w = list(v)
                        for j, a in row:
                            w[j] -= c * a
                        append(tuple(w))
            levels = [a + b for a in stage_levels for b in levels]
        return orbit, levels

    def _orbit_above(self, top, top_rc, floor):
        """The weights u of the orbit of top with rc(u) >= floor, with parities.

        top is a checked strongly dominant weight, so w -> w(top) is one to
        one and det(w) = (-1)^level; rc(u) is denom times the root
        coordinates of u (root_coords_scaled), top_rc that of top, and floor
        a tuple compared with rc coordinate by coordinate.  Returns dict u ->
        det(w).  The walk is the breadth-first walk down from top by the
        rule of _children over all nodes, pruned:
        s_i lowers only coordinate i of rc, by denom * v_i, and a step whose
        coordinate i drops below floor_i is not taken.  The cut is exact:
        rc only falls along a step, so a weight lies below its canonical
        parent, every weight on the chain of canonical parents from top
        down to a u with rc(u) >= floor has rc >= floor too, and the walk
        reaches u.  Raises OrbitTooLarge, naming top, when |W| exceeds the
        cap (see _orbit).
        """
        cap = orbit_cap()
        if self.weyl_order() > cap:
            raise OrbitTooLarge("orbit of %s exceeds cap %d" % (top, cap))
        if any(x < f for x, f in zip(top_rc, floor)):
            return {}                   # every weight of the orbit lies below top
        rows, den, canonical = self._sparse_rows, self.denom, self._canonical
        found, walk = {top: 1}, [(top, list(top_rc))]
        sign, level_end = -1, 1         # the parity of the next level
        for k, (v, rc) in enumerate(walk):
            if k == level_end:
                sign, level_end = -sign, len(walk)
            for i, c in _children(canonical, v):
                r = rc[i] - den * c
                if r >= floor[i]:
                    w = list(v)
                    for j, a in rows[i]:
                        w[j] -= c * a
                    w = tuple(w)
                    found[w] = sign
                    rc_w = rc.copy()
                    rc_w[i] = r
                    walk.append((w, rc_w))
        return found

    # -- derived constants (delegating to the numbers game) ------------------

    def constants(self):
        if self._constants is None:
            from . import numbersgame
            self._constants = numbersgame.DiagramConstants(self)
        return self._constants

    def positive_roots(self):
        return self.constants().positive_roots

    def sigma0(self):
        return self.constants().sigma0

    def w0_weight(self, mu):
        """w_0(mu), computed from sigma_0."""
        s = self.sigma0()
        out = [0] * self.rank
        for i in range(self.rank):
            out[s[i + 1] - 1] = -mu[i]
        return tuple(out)

    def weyl_order(self):
        return self.constants().weyl_order

    # -- subdiagrams ----------------------------------------------------------

    def sub_diagram(self, nodes):
        """Diagram on a subset of nodes (1-based, sorted); returns (diagram, nodes).

        The full node set gives this diagram itself, so it shares this memo.
        Any other diagram is built once per node set and kept in memo["sub"],
        so a restriction keeps its own memo hits.  nodes is read by the node
        rule, _node_subset (NotGCM unless it is a sequence of plain ints in
        1..rank); an empty subset raises NotGCM too, since a diagram needs a
        node.
        """
        nodes = _node_subset(self.rank, nodes)
        if not nodes:
            raise NotGCM("a node subset must hold at least one node")
        if len(nodes) == self.rank:
            return self, nodes
        subs = self.memo.setdefault("sub", {})
        if nodes not in subs:
            subs[nodes] = DynkinDiagram([[self.cartan[a - 1][b - 1] for b in nodes]
                                         for a in nodes])
        return subs[nodes], nodes

    def project(self, mu, nodes):
        """Projection of mu onto the sub-lattice for the given nodes.

        nodes is a J that sub_diagram or sub_weight already returned, and mu
        a checked weight: like the other hot inner calls, project reads both
        unchecked.
        """
        return tuple(mu[j - 1] for j in nodes)


def check_diagram(d, cls=DynkinDiagram):
    """d when it is a DynkinDiagram (an instance of cls); DiagramMismatch otherwise.

    The one diagram gate: every public entry point of wsf, crystal,
    numbersgame and patternlat that takes a diagram reads it through here,
    so a type string or None in its place raises a named error instead of a
    bare AttributeError.  The numbers game's fire and play pass
    cls=RawGCMGraph, since they play any GCM graph.
    """
    if not isinstance(d, cls):
        raise DiagramMismatch("%r is not a %s" % (d, cls.__name__))
    return d


# ---------------------------------------------------------------------------
# diagram spec parsing: "G2", "A3+A1", or "cartan:[[2,-1],[-3,2]]"

# any capital letter parses: `seed_cartan` alone knows which types are finite
_TYPE_RE = re.compile(r"^([A-Z])(\d+)$")


def build_diagram(spec):
    """Build a diagram from a type string, (letter, rank) pairs, or a matrix."""
    if isinstance(spec, DynkinDiagram):
        return spec
    if isinstance(spec, str):
        spec = spec.strip()
        if spec.startswith("cartan:"):
            return DynkinDiagram(json.loads(spec[len("cartan:"):]))
        parts = []
        for piece in spec.split("+"):
            m = _TYPE_RE.match(piece.strip())
            if not m:
                raise ValueError("cannot parse diagram spec %r" % spec)
            parts.append((m.group(1), int(m.group(2))))
        spec = parts
    if spec and isinstance(spec[0], (tuple, list)) and spec and \
            all(len(p) == 2 and isinstance(p[0], str) for p in spec):
        _check_rank(sum(int(rk) for _, rk in spec))
        blocks = [seed_cartan(letter, int(rk)) for letter, rk in spec]
        n = sum(len(b) for b in blocks)
        m = [[0] * n for _ in range(n)]
        off = 0
        for b in blocks:
            k = len(b)
            for i in range(k):
                for j in range(k):
                    m[off + i][off + j] = b[i][j]
            off += k
        return DynkinDiagram(m)
    return DynkinDiagram(spec)


def parse_weight(text, rank):
    """The CLI's comma-separated weight text as a tuple of rank ints.

    Every field is read by int, which accepts whitespace around it.  An
    empty field ("1,,0", "1,0,"), a field int cannot read and a text with
    other than rank fields raise ValueError: the CLI's usage error, exit 2.
    """
    parts = text.split(",")
    if len(parts) != rank:
        raise ValueError("weight %r has wrong length for rank %d" % (text, rank))
    return tuple(map(int, parts))
