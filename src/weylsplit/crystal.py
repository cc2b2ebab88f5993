"""Crystalline splitting posets.

Minuscule and quasi-minuscule building blocks, the crystal product of
fibrous posets with its raising/lowering operators, product expressions
over the minuscule/quasi-minuscule alphabet, lazy construction of the
connected component R(lambda), (J,nu)-colorings of products of primary
posets, tensor/branching decomposition, and the saturation tables.

Both operators follow the tensor product rule (Kashiwara, Duke Math. J. 63,
1991): one scan of the i-signature of a factor tuple gives delta_i with its
first argmax, where raising acts, and rho_i with its last argmax, where
lowering acts.  The two operators are mutually inverse, so a closure walks
down from its seeds by lowering alone and records every edge once.
"""

from array import array
from collections import namedtuple
from itertools import accumulate, chain, repeat

from . import ecposet, wsf
from .cartan import check_diagram, sub_weight, wadd, wsub, zero_weight
from .errors import (DiagramMismatch, ExactnessError, MalformedPoset, NoExpression,
                     NotFibrous, NotIrreducible, NotMinuscule, NotMStructured,
                     NotPrimaryFactor)

EXHAUSTIVE_UNTANGLED_LIMIT = 4


# ---------------------------------------------------------------------------
# building blocks

def is_minuscule_weight(d, lam):
    """Dominant, nonzero, and all coroot pairings lie in {0, +-1}.

    <lam, beta_vee> = 2<lam,beta>/<beta,beta> <= 1 is tested as
    2<lam,beta> <= <beta,beta>, in the integers scaled by denom: both
    <beta,beta> and denom are positive.  A weight that fails check_weight
    raises; a non-dominant one gives False.
    """
    lam = d.check_weight(lam)
    if not d.is_dominant(lam) or not any(lam):
        return False
    ip = d.inner_product_scaled
    return all(2 * ip(lam, r.root) <= ip(r.root, r.root) for r in d.positive_roots())


def minuscule_poset(d, lam):
    """R(lambda) = Pi(lambda) for dominant minuscule lambda."""
    if not is_minuscule_weight(d, lam):
        raise NotMinuscule("%s is not dominant minuscule" % (lam,))
    return ecposet.weight_poset(d, lam)


def quasi_minuscule_poset(d):
    """Pi(theta_s) with the zero weight split into one vertex per short simple root."""
    if len(d.components) != 1:
        raise NotIrreducible("quasi-minuscule poset needs an irreducible diagram")
    pi = wsf.weight_diagram(d, d.constants().highest_short_root)
    verts = sorted(w for w in pi.weights if any(w))
    short_simple = [i for i in range(1, d.rank + 1) if d.alpha(i) in pi.weights]
    labels = verts + [("bar", i) for i in short_simple]
    ids = {v: k for k, v in enumerate(labels)}
    edges = [(ids[mu], ids[nu], i) for mu, i, nu in pi.edges if any(mu) and any(nu)]
    for i in short_simple:
        neg = tuple(-c for c in d.alpha(i))
        edges.append((ids[neg], ids[("bar", i)], i))
        edges.append((ids[("bar", i)], ids[d.alpha(i)], i))
    return ecposet.ColoredPoset(len(labels), edges, diagram=d, labels=labels)


def quasi_minuscule_tau_kappa(d, poset):
    """The explicit splitting witness for a quasi-minuscule poset.

    Pairs each -alpha_i with its middle-rank vertex, fixes the remaining
    short roots, and colors a fixed vertex by any edge above it; S is the
    top vertex.  Feeds ecposet.verify_tau_kappa directly.
    """
    top = max(range(poset.n), key=poset._global_rank.__getitem__)
    s_set = frozenset([top])
    by_label = {poset.labels[v]: v for v in range(poset.n)}
    tau, kappa = {}, {}
    for v in range(poset.n):
        if v == top:
            continue
        lab = poset.labels[v]
        if isinstance(lab, tuple) and lab and lab[0] == "bar":
            i = lab[1]
            tau[v] = by_label[tuple(-c for c in d.alpha(i))]
            kappa[v] = i
            continue
        neg_simple = next((i for i in range(1, d.rank + 1)
                           if tuple(-c for c in d.alpha(i)) == lab), None)
        if neg_simple is not None and ("bar", neg_simple) in by_label:
            tau[v] = by_label[("bar", neg_simple)]
            kappa[v] = neg_simple
        else:
            tau[v] = v
            kappa[v] = next(c for _, _, c in poset.out[v])
    return ecposet.ColoringWitness(S=s_set, kappa=kappa, tau=tau)


# ---------------------------------------------------------------------------
# crystal product machinery (flat-tuple index formulas)

class TensorOps:
    """Raising/lowering operators on a flat tuple of fibrous factors."""

    def __init__(self, factors):
        if not factors:
            raise NotFibrous("need at least one factor")
        d = factors[0].checked_d()
        for f in factors:
            if f.checked_d() != d:
                raise DiagramMismatch("factors over different diagrams")
            if not f.is_fibrous():
                raise NotFibrous("crystal product factors must be fibrous")
        self.factors = list(factors)
        self.d = d
        # _pairs[i][q][v] = (delta_i, m_i) of vertex v of factor q, read off
        # the factor's rho and lng rows once; equal pairs are one tuple
        shared, per_factor = {}, {}
        for f in self.factors:
            if id(f) not in per_factor:
                rows = per_factor[id(f)] = [None]
                for i in range(1, d.rank + 1):
                    pairs = [(l - r, 2 * r - l) for r, l in zip(f.rho[i], f.lng[i])]
                    rows.append(list(map(shared.setdefault, pairs, pairs)))
        self._pairs = [None] + [[per_factor[id(f)][i] for f in self.factors]
                                for i in range(1, d.rank + 1)]

    def wt(self, x):
        out = zero_weight(self.d.rank)
        for f, v in zip(self.factors, x):
            out = wadd(out, f.wt[v])
        return out

    def signature(self, i, x):
        """(delta_i, first, rho_i, last) of a tuple or prefix, in one scan.

        This is the tensor product rule read off the i-signature.  With
        val_q = delta_i(x_q) - (m_i(x_1) + ... + m_i(x_{q-1})), delta_i(x) is
        the largest val_q and `first` the first index attaining it.  Since
        rho_i - delta_i = m_i on every factor, rho_i(x) = val_q + m_i(x) for
        every q attaining it, where m_i(x) is the total; `last` is the last
        index attaining it.
        """
        best = first = last = None
        pref = 0
        for q, (pairs, v) in enumerate(zip(self._pairs[i], x)):
            delta, m = pairs[v]
            val = delta - pref
            if best is None or val > best:
                best, first, last = val, q, q
            elif val == best:
                last = q
            pref += m
        return best, first, best + pref, last

    def raising(self, i, x):
        """Raise factor `first`, or None when delta_i(x) = 0.

        The factor has an i-cover above it.  If first = 0, delta_i(x_0) =
        delta_i(x) > 0.  Otherwise val_first > val_{first-1}, that is
        delta_i(x_first) > delta_i(x_{first-1}) + m_i(x_{first-1}) =
        rho_i(x_{first-1}) >= 0.  On a fibrous factor delta_i > 0 means
        x_first is not the top of its i-chain.
        """
        dl, q, _, _ = self.signature(i, x)
        if dl <= 0:
            return None
        return x[:q] + (self.factors[q]._up(i, x[q]),) + x[q + 1:]

    def lowering(self, i, x):
        """Lower factor `last`, or None when rho_i(x) = 0.

        The factor has an i-cover below it.  If last is the final index,
        rho_i(x_last) = rho_i(x) > 0.  Otherwise val_last > val_{last+1},
        that is delta_i(x_last) + m_i(x_last) = rho_i(x_last) >
        delta_i(x_{last+1}) >= 0.

        Raising and lowering are mutually inverse.  Lowering x at r = last
        adds 1 to val_r and 2 to every later val_q, which were at most
        delta_i(x) - 1; so r is the first argmax of the new signature, with
        value delta_i(x) + 1 > 0, and raising moves x_r back up.  Raising x
        at q = first subtracts 1 from val_q and 2 from every later val_p;
        every earlier val_p was at most delta_i(x) - 1, so q is the last
        argmax, the new rho_i is rho_i(x) + 1 > 0, and lowering moves x_q
        back down.
        """
        _, _, rh, r = self.signature(i, x)
        if rh <= 0:
            return None
        return x[:r] + (self.factors[r]._down(i, x[r]),) + x[r + 1:]

    def closure(self, seeds):
        """Everything reached from the distinct seed tuples by lowering, as a
        poset built through the trusted `ecposet.ColoredPoset._of`.

        The walk is in level order: the seeds first, then the vertices in
        the order they are first reached, each numbered then.  Processing x
        records, for each color i with z = lowering(i, x) defined, the edge
        z -> x of color i, as the walk number of z and the color, in one run
        per x.  Since raising and lowering are mutually inverse, these are
        exactly the raising edges of the vertices reached, each once.  When
        every tuple is a seed (crystal_product) this is the whole product; a
        seed of R(lambda) is the highest-weight vertex of its component (see
        build_crystal), and the whole component lies below it.  The poset's
        vertices are the tuples reached, in sorted order; its labels hold
        them as one column per factor position (an `ecposet.Columns`, which
        reads as the tuple of the tuples), and its `tensor_ops` is this
        object.  What it hands `_fill` is what the constructor finds on the
        same edges:

        - The edges.  A lowering moves one factor x_r to its cover below, so
          z != x; the factor holds no vertex pair twice, so neither does the
          product, and one pair has one color.  The walk ids are renumbered
          once, in sorted tuple order.  The runs, taken in the new order of
          their upper ends, list the edges by v and, within a run, by color;
          a stable counting sort by the new lower end then sorts them by (u,
          v, c).
        - Ranks.  A lowering moves one factor one rank down in that factor,
          so the sum of the factor ranks falls by one on every edge, and
          every path of lowerings from a seed s to x has the same length,
          that sum at s minus that at x.  With one seed, the level at which
          the walk first reaches x is that length, its depth; each edge goes
          one level down, so the walk has processed x before any lowering of
          x.  rank = (greatest depth) - depth rises by one on every edge and
          is 0 at a deepest vertex; the poset is connected, so that is the
          constructor's rank.
        - Components: with one seed, every vertex is reached from it along
          recorded edges, so there is one.
        - Color-i components.  Lowering is a function and raising its
          inverse, so a vertex has at most one i-edge below it and one
          above: each i-component is a chain, an i-string.  Its key is the
          walk number of its top t, which no recorded i-edge enters from
          above.  t keeps the key it was numbered with; any other member z is
          lowering(i, x) of the member x above it, processed before z, and
          takes x's key when that edge is recorded: t's, by induction on
          depth.
        - With many seeds the levels are not depths, and a component may
          hold several seeds, so the ranks and keys are computed from the
          sorted edges by `ecposet.rank_and_components`, the constructor's
          own pass.
        """
        n_colors = self.d.rank
        found = list(seeds)
        num = {x: k for k, x in enumerate(found)}
        depth = array("I", bytes(4 * len(found)))
        keys = [array("I", range(len(found))) for _ in range(n_colors)]     # by color - 1
        ups = array("B", bytes(len(found)))     # edges up from each vertex, one per color at most
        runs, lows, colors = array("I", [0]), array("I"), array("B")
        for k, x in enumerate(found):       # found grows as the walk reaches more
            for i in range(1, n_colors + 1):
                z = self.lowering(i, x)
                if z is not None:
                    j = num.get(z)
                    if j is None:
                        j = num[z] = len(found)
                        found.append(z)
                        depth.append(depth[k] + 1)
                        ups.append(0)
                        for key in keys:
                            key.append(j)
                    keys[i - 1][j] = keys[i - 1][k]
                    ups[j] += 1
                    lows.append(j)
                    colors.append(i)
            runs.append(len(lows))
        n = len(found)
        found.sort()
        order = array("I", map(num.__getitem__, found))     # the walk id of each sorted tuple
        del num
        labels = ecposet.Columns.of(found, [f.n - 1 for f in self.factors])
        del found
        where = array("I", bytes(4 * n))
        for x, k in enumerate(order):
            where[k] = x
        pos = array("I", accumulate(map(ups.__getitem__, order), initial=0))
        us = array("I", chain.from_iterable(map(repeat, range(n), map(ups.__getitem__, order))))
        vs, cs = array("I", bytes(4 * len(lows))), array("B", bytes(len(lows)))
        for x, k in enumerate(order):
            for e in range(runs[k], runs[k + 1]):
                u = where[lows[e]]
                at = pos[u]
                pos[u] = at + 1
                vs[at] = x
                cs[at] = colors[e]
        del where, pos, runs, lows, colors
        edges = ecposet.Columns.of_columns((us, vs, cs), (n - 1, n - 1, n_colors))
        if len(seeds) == 1:
            top = depth[-1]             # level order reaches the deepest vertex last
            rank = map(top.__sub__, map(depth.__getitem__, order))
            comp = bytes(n)
            keys = [map(key.__getitem__, order) for key in keys]
        else:
            rank, (comp, *keys) = ecposet.rank_and_components(n, zip(us, vs, cs), n_colors)
        poset = ecposet.ColoredPoset._of(self.d, n_colors, n, labels, edges, rank, comp, keys)
        poset.tensor_ops = self
        return poset


def crystal_product(*factors):
    """The full crystal product, materialized over all factor tuples."""
    ops = TensorOps(list(factors))
    tuples = [()]
    for f in ops.factors:
        tuples = [t + (v,) for t in tuples for v in range(f.n)]
    return ops.closure(tuples)


def _apply(op, product, x, i):
    """op(i, x) of the product's TensorOps, i read by check_node (NotGCM)
    and x as a tuple or list of one vertex per factor, each read by that
    factor's vertex rule (MalformedPoset, as for a poset that is not a
    crystal product)."""
    ops = getattr(product, "tensor_ops", None)
    if ops is None or not isinstance(x, (tuple, list)) or len(x) != len(ops.factors):
        raise MalformedPoset("%r is not one vertex per factor of a crystal product" % (x,))
    return op(ops, ops.d.check_node(i), tuple(map(ecposet.ColoredPoset._vertex, ops.factors, x)))


def raising(product, x, i):
    """Raising operator on a product vertex (factor tuple); None if undefined."""
    return _apply(TensorOps.raising, product, x, i)


def lowering(product, x, i):
    """Lowering operator on a product vertex (factor tuple); None if undefined."""
    return _apply(TensorOps.lowering, product, x, i)


# ---------------------------------------------------------------------------
# the Omega alphabet and product expressions

OmegaExpr = namedtuple("OmegaExpr", [
    "terms",            # mu_1, ..., mu_p (full-rank weights)
    "dominant_reps",    # \hat{mu}_q
    "flavor",           # "minuscule" | "quasi-minuscule"
])


def minuscule_dominant_weights(d):
    """Dominant minuscule weights of an irreducible diagram (fundamental)."""
    return [d.omega(k) for k in range(1, d.rank + 1)
            if is_minuscule_weight(d, d.omega(k))]


def _alphabet(d, flavor):
    """Letters in the fixed total order, with their dominant representatives."""
    if flavor == "minuscule":
        reps = minuscule_dominant_weights(d)
    else:
        reps = [d.constants().highest_short_root]
    reps.sort(key=lambda r: (d.height(r), r))
    letters = []
    for rep in reps:
        for w in sorted(d.weyl_orbit(rep)):
            letters.append((w, rep))
    return letters


def omega_expression(d, lam):
    """Shortest, then letter-order-least, expression of lambda.

    The word (mu_1, ..., mu_p) has every partial sum dominant and all terms
    minuscule or all quasi-minuscule.  The flavor is minuscule exactly when
    the coset of lambda modulo the root lattice contains a minuscule class.

    Three passes over level sets, with no search.  Forward, L_0 = {0} and
    L_k holds the dominant t + w for t in L_{k-1} and each letter w: the
    dominant partial sums of the words of k letters.  p is the least k with
    lambda in L_k, so p is the shortest length.  Backward, A_p = {lambda}
    and A_k keeps the s in L_k with s + w in A_{k+1} for some letter w: the
    partial sums of the words of length p that end at lambda.  Then the walk
    from s_0 = 0 takes, at each step, the least letter w with s_k + w in
    A_{k+1}; one exists because s_k is in A_k.

    This is the letter-order-least word of length p, letter by letter:
    words of length p that share the prefix mu_1 ... mu_k and can be
    completed are exactly those whose next partial sum s_k + w lies in
    A_{k+1}, since every member of A_{k+1} reaches lambda in the letters
    left, through dominant sums.  So the least completable next letter is
    the one the walk takes, and induction on k gives the whole word.
    """
    lam = d.check_dominant(lam)
    if not any(lam):
        raise NoExpression("the zero weight has no nonempty expression")
    if len(d.components) != 1:
        raise NotIrreducible("omega expressions are per irreducible component")
    minus = minuscule_dominant_weights(d)
    flavor = "quasi-minuscule"
    if any(d.root_lattice_coords(wsub(lam, m)) is not None for m in minus):
        flavor = "minuscule"
    letters = _alphabet(d, flavor)
    max_len = max(4, 2 * int(d.height(wadd(lam, lam))) + 2)
    acc = zero_weight(d.rank)
    levels = [{acc}]
    while lam not in levels[-1]:
        if len(levels) > max_len:
            raise NoExpression("no %s expression for %s within %d letters"
                               % (flavor, lam, max_len))
        levels.append({s for s in (wadd(t, w) for t in levels[-1] for w, _ in letters)
                       if d.is_dominant(s)})
    levels[-1] = {lam}
    for k in range(len(levels) - 2, 0, -1):
        levels[k] &= {wsub(t, w) for t in levels[k + 1] for w, _ in letters}
    word = []
    for alive in levels[1:]:
        w, rep = next((w, rep) for w, rep in letters if wadd(acc, w) in alive)
        word.append((w, rep))
        acc = wadd(acc, w)
    return OmegaExpr(tuple(w for w, _ in word), tuple(rep for _, rep in word), flavor)


# ---------------------------------------------------------------------------
# R(lambda)

def _component_factors(d, lam):
    """Per component, primary-plus factor posets and the seed element ids.

    Equal dominant representatives share one factor poset, built once per
    call.  A factor's labels are the weights of the subdiagram, so the seed
    of the letter mu is the vertex labelled mu.  On an irreducible d the
    subdiagram is d itself, and the factor is used as built.
    """
    factors, seeds = [], []
    for letter, rk, nodes in d.components:
        sub, sel = d.sub_diagram(nodes)
        lam_sub = d.project(lam, sel)
        if not any(lam_sub):
            continue
        expr = omega_expression(sub, lam_sub)
        built = {}
        for mu, rep in zip(expr.terms, expr.dominant_reps):
            f = built.get(rep)
            if f is None:
                if expr.flavor == "minuscule":
                    fsub = minuscule_poset(sub, rep)
                else:
                    fsub = quasi_minuscule_poset(sub)
                f = built[rep] = fsub if sub is d else _inflate(fsub, d, sel)
            factors.append(f)
            seeds.append(f.labels.index(mu))
    return factors, seeds


def _inflate(p, d, sel):
    """View a subdiagram poset as a full-diagram poset (colors relabeled)."""
    edges = [(u, v, sel[c - 1]) for u, v, c in p.edges]
    return ecposet.ColoredPoset(p.n, edges, diagram=d, labels=p.labels)


def build_crystal(d, lam):
    """The crystalline splitting poset R(lambda).

    The connected component of the seed, walked down from it by lowering;
    the full product of the factors is never materialized.  The seed x has
    wt(x_q) = mu_q, the q-th letter of the omega expression.  Each x_q ends
    every i-chain through it, so delta_i(x_q) = max(0, -<mu_q, alpha_i^v>):
    minuscule chains have length <= 1, and the middle vertex of a length-2
    chain of a quasi-minuscule poset has weight 0, since beta + alpha_i
    with <beta, alpha_i^v> = 0 is longer than a short root beta != 0.  The
    partial sums s_{q-1} and s_{q-1} + mu_q are dominant, so val_q =
    delta_i(x_q) - <s_{q-1}, alpha_i^v> <= 0 and no raising applies to x.
    So x is the highest-weight vertex of its component, which in a product
    of the crystals B(mu_q-hat) is B(lambda), all of it below x under
    lowering (Kashiwara).  The one-seed closure builds the poset through
    the trusted `ColoredPoset._of`, with the ranks and keys its docstring
    proves; R(0) is one vertex with no factor, built by the checking
    constructor.  Results are cached in d.memo (posets are immutable).  d is
    read by `cartan.check_diagram`.
    """
    lam = check_diagram(d).check_dominant(lam)
    memo = d.memo.setdefault("crystal", {})
    got = memo.get(lam)
    if got is not None:
        return got
    if not any(lam):
        poset = ecposet.ColoredPoset(1, [], diagram=d, labels=[()])
    else:
        factors, seeds = _component_factors(d, lam)
        ops = TensorOps(factors)
        seed = tuple(seeds)
        if ops.wt(seed) != lam:
            raise ExactnessError("seed weight %s is not %s" % (ops.wt(seed), lam))
        poset = ops.closure([seed])
    memo[lam] = poset
    return poset


# ---------------------------------------------------------------------------
# refined splitting data

def m_set(p, nodes, nu):
    """M_{J,nu}(p) = vertices with delta_j <= nu_j for all j in J, ascending.

    J and nu are read by `sub_weight`.  One pass per node j of J over its
    rho and lng rows marks the vertices with delta_j = l_j - rho_j > nu_j;
    the unmarked ones are the set, and an empty J marks none.
    """
    _, nu_of = sub_weight(p.n_colors, nodes, nu)
    out = bytearray(p.n)
    for j, bound in nu_of.items():
        for x, r, l in zip(range(p.n), p.rho[j], p.lng[j]):
            if l - r > bound:
                out[x] = 1
    return [x for x, o in enumerate(out) if not o]


def decompose(d, nu, lam):
    """Expansion of chi_nu * chi_lambda from M_{I,nu}(R(lambda)); d is read
    by `cartan.check_diagram`."""
    nu = check_diagram(d).check_dominant(nu)
    r = build_crystal(d, lam)
    nodes = tuple(range(1, d.rank + 1))
    out = {}
    for x in m_set(r, nodes, nu):
        w = wadd(nu, r.wt[x])
        out[w] = out.get(w, 0) + 1
    return out


def branch(d, lam, nodes):
    """Branching of chi_lambda to the subdiagram on the given nodes.

    Nodes are 1-based; sub_diagram sorts them and raises NotGCM for one
    that is not a plain int in 1..rank (row 0 would otherwise read as the
    last node, and True as node 1), and for an empty subset.  d is read by
    `cartan.check_diagram`.
    """
    _, nodes = check_diagram(d).sub_diagram(nodes)
    r = build_crystal(d, lam)
    out = {}
    for x in m_set(r, nodes, (0,) * len(nodes)):
        w = d.project(r.wt[x], nodes)
        out[w] = out.get(w, 0) + 1
    return out


# ---------------------------------------------------------------------------
# (J,nu)-colorings of crystal products of primary posets

def jnu_coloring(factors, poset, nodes, nu):
    """kappa on poset minus M_{J,nu}, by the single-factor and product rules.

    poset must carry factor-tuple labels (as produced by crystal_product or
    build_crystal over the given factors).  Free choices are resolved as the
    smallest color.

    One forward pass over the prefixes of each tuple carries, per color j,
    the running delta_j and m_j sum of TensorOps.signature.  delta_j of a
    prefix is the running maximum of val_q, so the K-set {j in J : delta_j >
    nu_j} only grows with the prefix: kappa(x) is decided at the first
    prefix with a nonempty K-set and kept by every longer one, and a tuple
    whose whole K-set is empty lies in M_{J,nu}.  There the new factor v
    gives the special colors j of the K-set, those with rho_j(v) >= 2 or
    l_j(v) - rho_j(prefix before v) >= 2; kappa is the one special color,
    else the least of the K-set.  On the first factor the prefix before it
    is empty with rho_j = 0, so the special colors are its long chains
    through v, and a primary factor has at most one long chain on which v
    is not the top.
    """
    nodes, nu_of = sub_weight(poset.n_colors, nodes, nu)
    for f in factors:
        if not f.is_primary():
            raise NotPrimaryFactor("all factors must be primary")
    TensorOps(factors)                  # the factor checks of a crystal product
    out = {}
    for vid, x in enumerate(poset.labels):
        delta, pref = dict.fromkeys(nodes, 0), dict.fromkeys(nodes, 0)
        for f, v in zip(factors, x):
            rho_before = {j: delta[j] + pref[j] for j in nodes}
            for j in nodes:
                rho, lng = f.rho[j][v], f.lng[j][v]
                delta[j] = max(delta[j], lng - rho - pref[j])
                pref[j] += 2 * rho - lng
            k_set = [j for j in nodes if delta[j] > nu_of[j]]
            if k_set:
                special = [j for j in k_set
                           if max(f.rho[j][v], f.lng[j][v] - rho_before[j]) >= 2]
                if len(special) > 1:
                    raise ExactnessError("colors %s are all special at %s" % (special, x))
                out[vid] = special[0] if special else min(k_set)
                break
    return out


def tau_from_jnu_coloring(p, nodes, nu, kappa):
    """The pairing a (J,nu)-coloring induces on a fibrous M-structured poset.

    tau(x) is the element of the chain comp_j(x), j = kappa(x), at rank
    l_j - 1 - nu_j - rho_j(x); together with kappa it satisfies the
    tau/kappa splitting hypotheses, with S = M_{J,nu}(p).  J and nu are
    read by `sub_weight` first; then kappa must pass `verify_jnu_coloring`
    (which reads it through `ColoringWitness.check`), or MalformedPoset is
    raised with the verifier's reason.
    """
    _, nu_of = sub_weight(p.n_colors, nodes, nu)
    ok, why = verify_jnu_coloring(p, nodes, nu, kappa)
    if not ok:
        raise MalformedPoset("kappa is not a (J,nu)-coloring: %s" % why)
    tau = {}
    for x, j in kappa.items():
        want = p.lng[j][x] - 1 - nu_of[j] - p.rho[j][x]
        tau[x] = next(y for y in p.comp_members(j, x) if p.rho[j][y] == want)
    s_set = frozenset(set(range(p.n)) - set(kappa))
    return ecposet.ColoringWitness(S=s_set, kappa=dict(kappa), tau=tau)


def verify_jnu_coloring(p, nodes, nu, kappa):
    """(ok, reason): is kappa a (J,nu)-coloring of the fibrous poset p?

    kappa is read through `ColoringWitness.check`: a key that is not a
    vertex id of p, or a key or value that is not a plain int, raises
    MalformedPoset; J and nu are then read by `m_set`.  A poset that is not
    fibrous, or a kappa whose keys are not exactly the complement of
    M_{J,nu}, gets (False, reason).  The rest is the sub-block criterion,
    `ecposet.verify_subblock_coloring` with S = M_{J,nu}, read for chains.

    On a fibrous poset every color-j component is a chain: each vertex has
    at most one j-cover above it and one below.  For x outside M_{J,nu} the
    (J,nu)-condition asks that kappa(x) = j lie in K_{J,nu}(x) = {j in J :
    delta_j(x) > nu_j} and that K(x), the members y of comp_j(x) outside
    M_{J,nu} with kappa(y) = j, be the chain minus its top nu_j + 1
    members.  A chain of length l is a product of one chain, whose
    coordinate is rho_j, so its (nu_j + 1)-sub-block holds the members of
    rank at most l - nu_j - 1: exactly the chain minus its top nu_j + 1
    members.  And x lies in K(x), so once K(x) is that sub-block, rho_j(x)
    <= l - nu_j - 1 forces delta_j(x) = l - rho_j(x) > nu_j, and kappa(x)
    lies in K_{J,nu}(x).  So the two conditions agree vertex by vertex.
    """
    kappa = ecposet.ColoringWitness((), kappa).check(p).kappa
    mem = m_set(p, nodes, nu)
    if not p.is_fibrous():
        return False, "the poset is not fibrous, so its components are not chains"
    if set(kappa) != set(range(p.n)).difference(mem):
        return False, "kappa domain is not the complement of M_{J,nu}"
    return ecposet.verify_subblock_coloring(p, nodes, nu, mem, kappa)


# ---------------------------------------------------------------------------
# structure classifiers

def strongly_untangled(p):
    """Every J-component has exactly one maximal element.

    All subsets are tested up to EXHAUSTIVE_UNTANGLED_LIMIT colors; beyond
    it, all pairs plus the full color set.
    """
    n = p.n_colors
    if n <= EXHAUSTIVE_UNTANGLED_LIMIT:
        subsets = []
        for mask in range(1, 1 << n):
            subsets.append([j + 1 for j in range(n) if mask >> j & 1])
    else:
        subsets = [[i, j] for i in range(1, n + 1) for j in range(i, n + 1)]
        subsets.append(list(range(1, n + 1)))
    for js in subsets:
        if not _unique_max_components(p, js):
            return False
    return True


def _unique_max_components(p, js):
    """Whether no two maximal vertices of the J-edges share a J-component.

    Every component has a maximal vertex, so then it has exactly one.
    """
    jedges = [(u, v, 1) for u, v, c in p.edges if c in js]
    _, (comp, _) = ecposet.rank_and_components(p.n, jedges, 1)
    tops = [comp[x] for x in set(range(p.n)).difference(u for u, _, _ in jedges)]
    return len(tops) == len(set(tops))


def classify_primary_plus(p):
    """Combinatorial classifier: minuscule / quasi-minuscule / neither."""
    neither = ("neither", None)
    if not (p.is_connected() and p.edges and p.is_fibrous()):
        return neither
    try:
        if not p.is_m_structured():
            return neither
    except NotMStructured:
        return neither
    maxes = p.maximal_vertices()
    if len(maxes) != 1:
        return neither
    lam = p.wt[maxes[0]]
    d = p.d

    def untangled(products):
        """Whether each pair i < j with M_ij M_ji in products has unique
        maximal {i, j}-components.  In a GCM the product is 0 exactly when
        both entries are 0, and 1 exactly when both are -1."""
        return all(_unique_max_components(p, [i, j])
                   for i in range(1, p.n_colors + 1) for j in range(i + 1, p.n_colors + 1)
                   if d.cartan[i - 1][j - 1] * d.cartan[j - 1][i - 1] in products)

    if all(p.lng[i][x] <= 1 for i in range(1, p.n_colors + 1)
           for x in range(p.n)):
        return ("minuscule", lam) if untangled((0,)) else neither

    # quasi-minuscule shape conditions
    for x in range(p.n):
        for i in range(1, p.n_colors + 1):
            if p.lng[i][x] < 2:
                continue
            if p.lng[i][x] != 2:
                return neither
            comp = p.comp_members(i, x)
            x0 = next(v for v in comp if p.rho[i][v] == 0)
            x1 = next(v for v in comp if p.rho[i][v] == 1)
            x2 = next(v for v in comp if p.rho[i][v] == 2)
            for j in range(1, p.n_colors + 1):
                if j == i:
                    continue
                if p.delta(j, x0) != 0 or p.rho[j][x2] != 0:
                    return neither
                if p.lng[j][x1] != 0:
                    return neither
    return ("quasi-minuscule", lam) if untangled((0, 1)) else neither


# ---------------------------------------------------------------------------
# saturation tables

def u_table(d):
    """u_i^(k): longest i-component length in Pi(omega_k), as max coordinate."""
    if len(d.components) != 1:
        raise NotIrreducible("u-tables are per irreducible diagram")
    out = {}
    for k in range(1, d.rank + 1):
        pi = wsf.weight_diagram(d, d.omega(k))
        out[k] = tuple(max(w[i] for w in pi.weights) for i in range(d.rank))
    return out


def saturation_predicate(d, lam, nu, nodes=None):
    """M_{J,nu}(R(lambda)) fills R(lambda) iff sum a_k u_j^(k) <= nu_j on J.

    nodes is J, None (the default) for every node; () is the empty J, on
    which nu must be () too.  J and nu are read by `sub_weight`.
    """
    lam = d.check_dominant(lam)
    table = u_table(d)
    nodes, nu_of = sub_weight(d.rank, range(1, d.rank + 1) if nodes is None else nodes, nu)
    for j in nodes:
        total = sum(a * table[k][j - 1] for k, a in enumerate(lam, start=1) if a)
        if total > nu_of[j]:
            return False
    return True
