"""The group ring Z[Lambda] and the ring of Weyl symmetric functions.

Weight diagrams, Kostant's partition function, Weyl bialternants through
the Freudenthal recurrence and through the Kostant multiplicity formula,
expansion in the bialternant basis, involutions, restriction to
subdiagrams, and Dynkin polynomial / dimension specializations.

Everything is exact; characters are finite dicts from weight tuples to
nonzero ints.
"""

from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from heapq import heappop, heappush
from operator import mul

from . import numbersgame, qpoly
from .cartan import check_diagram, wadd, wneg, wsub, zero_weight
from .errors import (BadExponent, DiagramMismatch, ExactnessError, NotAnExpansion,
                     NotInvariant, OrbitTooLarge)

# Orbit-sum routes stay desk scale, F4's group the largest allowed: the
# alternant writes all of W, and Kostant's pruned walk still visits every
# w(lam + rho) above mu + rho, nearly all of W for a low mu, with a partition
# count each.  Freudenthal has no such cap.
WEYL_GROUP_CAP = 1152


class WeylSymFn:
    """An element of Z[Lambda]: finite map weight -> nonzero integer.

    WeylSymFn(d, terms) is the public constructor: it reads d through
    check_diagram, copies terms, reads every key through d.check_weight
    (NotAWeight, DiagramMismatch) and raises TypeError for a coefficient
    that is not a plain int.  Every result the package builds itself goes
    through the trusted _of instead.
    """

    __slots__ = ("d", "terms")

    def __init__(self, d, terms=()):
        d = check_diagram(d)
        terms = dict(terms)
        if not set(map(type, terms.values())) <= {int}:
            raise TypeError("WeylSymFn coefficients must be plain ints")
        self.d = d
        self.terms = {m: c for m, c in zip(map(d.check_weight, terms), terms.values()) if c}

    @classmethod
    def _of(cls, d, terms):
        """The trusted constructor: a WeylSymFn over the dict terms itself.

        For results the package builds: every key of terms is a checked
        weight of d and every value a plain int, so nothing is read again
        and nothing is copied.  The caller hands terms over and keeps no
        use of it.  Zero coefficients are deleted from terms in place, so
        every stored coefficient stays nonzero.
        """
        if 0 in terms.values():
            for m in [m for m, c in terms.items() if not c]:
                del terms[m]
        out = object.__new__(cls)
        out.d, out.terms = d, terms
        return out

    @classmethod
    def monomial(cls, d, mu, coeff=1):
        return cls(d, {mu: coeff})

    @classmethod
    def unit(cls, d):
        return cls._of(check_diagram(d), {zero_weight(d.rank): 1})

    def _check(self, other):
        if self.d != other.d:
            raise DiagramMismatch("operands live over different diagrams")

    def __eq__(self, other):
        return isinstance(other, WeylSymFn) and self.d == other.d \
            and self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, WeylSymFn):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return WeylSymFn._of(self.d, out)

    def __sub__(self, other):
        if not isinstance(other, WeylSymFn):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) - c
        return WeylSymFn._of(self.d, out)

    def __mul__(self, other):
        if isinstance(other, int):
            return WeylSymFn._of(self.d, {m: c * other for m, c in self.terms.items()})
        if not isinstance(other, WeylSymFn):
            return NotImplemented
        self._check(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = wadd(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return WeylSymFn._of(self.d, out)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        bits = ["%+d*e%s" % (c, list(m)) for m, c in self.sorted_terms()]
        return "WeylSymFn(" + " ".join(bits[:8]) + (" ..." if len(bits) > 8 else "") + ")"

    def sorted_terms(self):
        return sorted(self.terms.items())

    def coeff(self, mu):
        """The coefficient of e^mu, mu read through d.check_weight."""
        return self.terms.get(self.d.check_weight(mu), 0)

    def power(self, k):
        """self ** k for a plain int k >= 0; BadExponent otherwise."""
        if type(k) is not int or k < 0:
            raise BadExponent("exponent must be a plain int >= 0, not %r" % (k,))
        out = WeylSymFn.unit(self.d)
        for _ in range(k):
            out = out * self
        return out

    def w_action(self, word):
        """Transport coefficients along w = s_{i_k} ... s_{i_1}.

        The nodes of word are read once, through d.check_node.
        """
        d = self.d
        word = [d.check_node(i) for i in word]
        out = {}
        for m, c in self.terms.items():
            out[d._act(word, m)] = c
        return WeylSymFn._of(d, out)

    def is_invariant(self):
        """Full check that every coefficient is constant on simple reflections."""
        for m, c in self.terms.items():
            for i in range(1, self.d.rank + 1):
                if self.terms.get(self.d.simple_reflection(i, m), 0) != c:
                    return False
        return True

    def star(self):
        """Dualizing involution e^mu -> e^(-mu)."""
        return WeylSymFn._of(self.d, {wneg(m): c for m, c in self.terms.items()})

    def bowtie(self):
        """Bow tie involution e^mu -> e^(w0(mu))."""
        return WeylSymFn._of(self.d, {self.d.w0_weight(m): c for m, c in self.terms.items()})

    def restrict(self, nodes):
        """Project each weight onto the subdiagram for the given nodes."""
        sub, sel = self.d.sub_diagram(nodes)
        out = {}
        for m, c in self.terms.items():
            key = self.d.project(m, sel)
            out[key] = out.get(key, 0) + c
        return WeylSymFn._of(sub, out)


# ---------------------------------------------------------------------------
# weight diagrams Pi(lambda)

class WeightDiagram(namedtuple("WeightDiagram", "weights edges")):
    """A weight diagram: its weights and its colored edges (two frozensets).

    Each edge is a triple (mu, i, nu) with nu = mu + alpha_i.  The type holds
    Pi(lambda) (weight_diagram) and the generalized weight diagram Pi(P) of an
    M-structured poset (ecposet.generalized_weight_diagram) alike.
    """
    __slots__ = ()


def dominant_weights_below(d, lam):
    """All dominant nu <= lam, by a walk down positive roots.

    Stembridge, "The partial order of dominant weights" (Adv. Math. 136,
    1998): every dominant nu <= lam is reached from lam through dominant
    weights, each step subtracting one positive root.  The list is sorted
    lexicographically by the root coordinates of lam - nu, so lam comes
    first.
    """
    lam = check_diagram(d).check_dominant(lam)
    # mu - root is dominant exactly when mu_j >= root_j wherever root_j > 0,
    # since mu >= 0 covers the other coordinates; test that before building it
    steps = [(r.root, r.alpha_coords, [(j, c) for j, c in enumerate(r.root) if c > 0])
             for r in d.positive_roots()]
    depth = {lam: (0,) * d.rank}     # nu -> root coordinates of lam - nu
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            k = depth[mu]
            for root, coords, pos in steps:
                for j, c in pos:
                    if mu[j] < c:
                        break
                else:
                    nu = wsub(mu, root)
                    if nu not in depth:
                        depth[nu] = wadd(k, coords)
                        nxt.append(nu)
        frontier = nxt
    return sorted(depth, key=depth.__getitem__)


def weight_diagram(d, lam):
    """Pi(lambda): union of the orbits of the dominant weights below lambda."""
    weights = set()
    for nu in dominant_weights_below(d, lam):
        weights.update(d._orbit(nu)[0])
    edges = set()
    for mu in weights:
        for i, a in enumerate(d.cartan, start=1):       # alpha_i is row i
            nu = wadd(mu, a)
            if nu in weights:
                edges.add((mu, i, nu))
    return WeightDiagram(frozenset(weights), frozenset(edges))


def _dot(u, v):
    return sum(map(mul, u, v))


def _as_int(num, den):
    """num / den, which the exact algebra guarantees to be an integer."""
    q, r = divmod(num, den)
    if r:
        raise ExactnessError("%s/%s is not an integer" % (num, den))
    return q


# ---------------------------------------------------------------------------
# Kostant partition function

def _root_string(v, root):
    """v, v - root, v - 2 root, ... while every coordinate stays >= 0."""
    while True:
        yield v
        v = tuple(x - y for x, y in zip(v, root))
        if any(x < 0 for x in v):
            return


def kostant_partition(d, mu):
    """Number of ways mu = sum k_alpha * alpha over positive roots, k >= 0.

    mu is read through the gate; the count is `_kostant_partition`'s.
    """
    return _kostant_partition(d, check_diagram(d).check_weight(mu))


def _kostant_partition(d, mu):
    """kostant_partition of a checked weight mu.

    With the positive roots beta_0, ..., beta_top in a fixed order, P_j(v)
    counts the ways using beta_0 .. beta_j only: P_j(v) = sum over the root
    string v - k beta_j (k >= 0, coordinates >= 0) of P_(j-1), where
    P_(j-1)(0) = 1 and P_(-1)(v) = 0 for v != 0.  d.memo["kostant"] holds
    P_j(v) under (j, v) for nonzero v.  A forward pass collects, level by
    level from j = top down, the nonzero (j, v) this call needs and the
    memo lacks, keeping the root string of each; the values are then
    summed over those strings bottom-up from j = 0, so each level reads
    only the level below it.  No recursion: the walk is as long as the
    number of positive roots, with no bound from the interpreter's stack.
    """
    vec = d.root_lattice_coords(mu)
    if vec is None or any(c < 0 for c in vec):
        return 0
    if not any(vec):
        return 1
    roots = tuple(r.alpha_coords for r in d.positive_roots())
    memo = d.memo.setdefault("kostant", {})
    top = len(roots) - 1
    if (top, vec) in memo:
        return memo[(top, vec)]
    need = [{} for _ in roots]      # per level j: v -> its beta_j root string
    need[top][vec] = None
    for j in range(top, -1, -1):
        level = need[j]
        for v in level:
            level[v] = string = tuple(_root_string(v, roots[j]))
            if j:
                need[j - 1].update(dict.fromkeys(
                    cur for cur in string if any(cur) and (j - 1, cur) not in memo))
    for j, level in enumerate(need):
        for v, string in level.items():
            memo[(j, v)] = sum(memo.get((j - 1, cur), 0) if any(cur) else 1
                               for cur in string)
    return memo[(top, vec)]


# ---------------------------------------------------------------------------
# Weyl bialternants

def _gram_roots(d):
    """(alpha, G alpha, <alpha, alpha>) for each positive root alpha, scaled
    by d.denom, so that <alpha, nu> = G alpha . nu (G is symmetric).

    Built on first use and kept in d.memo["roots"].
    """
    roots = d.memo.get("roots")
    if roots is None:
        roots = []
        for r in d.positive_roots():
            g_alpha = tuple(_dot(row, r.root) for row in d.gram_scaled)
            roots.append((r.root, g_alpha, _dot(r.root, g_alpha)))
        roots = d.memo["roots"] = tuple(roots)
    return roots


def _freudenthal_walk(d, lam):
    """Freudenthal's recurrence fused with its own orbit expansion.

    The dominant weights mu of Pi(lambda) are taken by depth(mu) =
    ht(lam) - ht(mu), ties lexicographic.  As soon as d_{lam,mu} is known,
    the whole orbit of mu is written into the character dict ``out``, so
    ``out`` holds exactly the orbits of the dominant weights already done.

    The inner sum runs over nu = mu + k*alpha for k >= 1 and positive
    alpha.  nu lies in Pi(lambda) exactly when its dominant representative
    nu+ is one of the dominant weights walked.  nu+ is at least nu, which
    is strictly above mu, so nu+ has smaller depth than mu and, if walked,
    was done before mu.  Hence nu lies in Pi(lambda) exactly when it is
    already in ``out``, and ``out[nu]`` is its multiplicity.  Pi(lambda) is
    saturated, so the alpha-string stops at the first nu outside it.

    Stores the dominant multiplicities in d.memo["freudenthal"][lam] and
    returns them together with the character dict.  Its callers pass a
    checked lambda.
    """
    doms = dominant_weights_below(d, lam)
    doms.sort(key=lambda m: (-d.height_scaled(m), m))   # by depth, ties lexicographic
    # every inner product below is scaled by d.denom; the scale cancels in val
    rho = d.rho()
    top = wadd(lam, rho)
    top_norm = d.inner_product_scaled(top, top)
    pos_roots = _gram_roots(d)
    mult, out = {lam: 1}, dict.fromkeys(d._orbit(lam)[0], 1)
    for mu in doms[1:]:         # doms[0] is lam, the one dominant weight of depth 0
        total = 0
        for alpha, g_alpha, aa in pos_roots:
            nu, a_nu = mu, _dot(mu, g_alpha)
            while True:
                nu, a_nu = wadd(nu, alpha), a_nu + aa    # nu = mu + k alpha
                m_nu = out.get(nu)
                if m_nu is None:
                    break
                total += a_nu * m_nu
        shifted = wadd(mu, rho)
        denom = top_norm - d.inner_product_scaled(shifted, shifted)
        val = _as_int(2 * total, denom)
        if val <= 0:
            raise ExactnessError("Freudenthal multiplicity %d at %s is not positive"
                                 % (val, mu))
        mult[mu] = val
        out.update(dict.fromkeys(d._orbit(mu)[0], val))
    d.memo.setdefault("freudenthal", {})[lam] = mult
    return mult, out


def dominant_multiplicities(d, lam):
    """Freudenthal's recurrence: d_{lam,mu} for dominant mu in Pi(lambda).

    Reads d.memo["freudenthal"], which freudenthal shares.  A miss runs
    the one walk, _freudenthal_walk, which also writes every orbit (and so
    raises OrbitTooLarge where freudenthal would).  The caller gets a fresh
    dict, so mutating it cannot change a later answer.
    """
    lam = check_diagram(d).check_dominant(lam)
    got = d.memo.get("freudenthal", {}).get(lam)
    return dict(got if got is not None else _freudenthal_walk(d, lam)[0])


def freudenthal(d, lam):
    """chi_lambda via the Freudenthal recurrence, expanded W-invariantly.

    A cold call returns the character the fused walk builds; a memo hit
    expands the stored dominant multiplicities over their orbits.
    """
    lam = check_diagram(d).check_dominant(lam)
    mult = d.memo.get("freudenthal", {}).get(lam)
    if mult is None:
        return WeylSymFn._of(d, _freudenthal_walk(d, lam)[1])
    out = {}
    for rep, c in mult.items():
        out.update(dict.fromkeys(d._orbit(rep)[0], c))
    return WeylSymFn._of(d, out)


def kostant_multiplicity(d, lam, mu):
    """d_{lam,mu} by the Kostant multiplicity formula.

    Sums det(w) * P(w(lam + rho) - (mu + rho)) over W, taking only the w
    that can contribute: P vanishes unless w(lam + rho) lies at or above mu
    + rho in every root coordinate, and d._orbit_above walks exactly those
    w(lam + rho) (a pruned canonical-parent walk; see its proof), with
    det(w) = (-1)^level since lam + rho is regular.  A mu outside
    Pi(lambda), that is one whose dominant representative is not below
    lambda (lambda minus it not a sum of simple roots), has multiplicity 0,
    returned without a partition count.  The walk still runs first, so a
    |W| over the orbit cap raises OrbitTooLarge whatever mu is.
    """
    lam, mu = check_diagram(d).check_dominant(lam), d.check_weight(mu)
    _check_group_cap(d)
    rho = d.rho()
    shifted = wadd(lam, rho)
    target = wadd(mu, rho)
    above = d._orbit_above(shifted, d.root_coords_scaled(shifted),
                           d.root_coords_scaled(target))
    gap = d.root_lattice_coords(wsub(lam, d.dominant_rep(mu)))
    if gap is None or any(c < 0 for c in gap):
        return 0
    return sum(parity * _kostant_partition(d, wsub(w, target))
               for w, parity in above.items())


def _check_group_cap(d):
    if d.weyl_order() > WEYL_GROUP_CAP:
        raise OrbitTooLarge("|W| = %d exceeds the orbit-sum cap %d; "
                            "use freudenthal" % (d.weyl_order(), WEYL_GROUP_CAP))


def alternant(d, lam):
    """A(e^lambda) = sum det(w) e^{w(lambda)}; zero unless strongly dominant."""
    lam = check_diagram(d).check_dominant(lam)
    _check_group_cap(d)
    if not d.is_strongly_dominant(lam):
        return WeylSymFn._of(d, {})
    return WeylSymFn._of(d, d.weyl_orbit(lam))


def monomial_wsf(d, lam):
    """zeta_lambda: the orbit indicator function."""
    lam = check_diagram(d).check_dominant(lam)
    return WeylSymFn._of(d, dict.fromkeys(d.weyl_orbit(lam), 1))


def elementary_wsf(d, lam):
    """psi_lambda: product of fundamental bialternant powers."""
    lam = check_diagram(d).check_dominant(lam)
    out = WeylSymFn.unit(d)
    for i, a in enumerate(lam, start=1):
        if a:
            out = out * freudenthal(d, d.omega(i)).power(a)
    return out


def expand_in_bialternants(f):
    """Expand a W-invariant element as sum of c_lambda chi_lambda.

    Raises NotInvariant when the input fails the (full) orbit-constancy
    check.  Each chi_lambda is the sum of d_{lambda,mu} zeta_mu over the
    dominant mu <= lambda, with d_{lambda,lambda} = 1, and an invariant f is
    the sum of its coefficient at mu times zeta_mu over its dominant mu.  So
    the c_lambda solve a unitriangular system in f's dominant coefficients
    alone, solved here by decreasing height.  When m has the greatest height
    of the dominant weights left, no constituent left lies strictly above m
    (it would have a greater height), so the coefficient c left at m is c_m;
    c times m's dominant multiplicities is then subtracted, which touches
    only m and weights strictly below it, taken later.
    """
    if not isinstance(f, WeylSymFn):
        raise TypeError("expected WeylSymFn")
    if f and not f.is_invariant():
        raise NotInvariant("input is not W-invariant")
    d = f.d
    rest = {m: c for m, c in f.terms.items() if d.is_dominant(m)}
    # by height, then in the order first seen; a sorted list is a heap
    heap = sorted((-d.height_scaled(m), k, m) for k, m in enumerate(rest))
    out = {}
    while heap:
        m = heappop(heap)[2]
        c = rest[m]
        if c:
            out[m] = c
            for mu, k in dominant_multiplicities(d, m).items():
                if mu not in rest:
                    heappush(heap, (-d.height_scaled(mu), len(rest), mu))
                    rest[mu] = 0
                rest[mu] -= c * k
    return out


def reconstruct(d, expansion):
    """Inverse of expand_in_bialternants: sum c_lambda chi_lambda.

    d is read by `cartan.check_diagram`, then expansion as a mapping
    (NotAnExpansion otherwise); each lambda is read by freudenthal, and a
    coefficient that is not a plain int raises TypeError, as WeylSymFn's
    product does.
    """
    out = WeylSymFn._of(check_diagram(d), {})
    if not isinstance(expansion, Mapping):
        raise NotAnExpansion("expansion %r is not a mapping" % (expansion,))
    for lam, c in expansion.items():
        out = out + c * freudenthal(d, lam)
    return out


Specialization = namedtuple("Specialization", [
    "dynkin_polynomial",         # coefficient list, index = exponent
    "dimension",
])


def specialize(d, lam):
    """Dynkin polynomial and dimension, each computed two independent ways.

    Route one sums d_{lam,mu} q^<mu+lam, rho_vee>; route two is the quotient
    of products with exponents read off the numbers game.  The two must
    agree exactly.
    """
    lam = check_diagram(d).check_dominant(lam)
    den = d.denom
    ht_lam = d.height_scaled(lam)
    deg = _as_int(2 * ht_lam, den)
    coeffs = [0] * (deg + 1)
    heights = d._heights_scaled         # the height of mu is sum(mu * heights) / den
    for mu, c in freudenthal(d, lam).terms.items():
        coeffs[_as_int(sum(map(mul, mu, heights)) + ht_lam, den)] += c
    nums = numbersgame.rgf_exponents(d, lam)
    dens = numbersgame.rgf_exponents(d, zero_weight(d.rank))
    quot = qpoly.quotient_rgf(nums, dens)
    if quot != coeffs:
        raise ExactnessError("Dynkin polynomial routes disagree")
    dim = sum(coeffs)
    prod_dim = Fraction(1)
    for c in nums:
        prod_dim *= c
    for e in dens:
        prod_dim /= e
    if prod_dim != dim:
        raise ExactnessError("dimension routes disagree: %s != %s" % (prod_dim, dim))
    return Specialization(tuple(coeffs), dim)
