"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's own derivations: a
numbers-game firing reads the whole dense Cartan row, the Weyl group is
closed as a set of exact matrices, partition counts come
from bounded enumeration (and, with their memo keys, from a recursion per
positive root), positive roots from reflection closure or by
reflecting each simple root along a word, Weyl orbits (and the orbits of
a parabolic subgroup W_K) from a search that tries every simple reflection
on every element, crystal signatures from
separate forward and suffix scans, Kostant multiplicities from a sum over
the whole orbit, bialternant expansions from peeling whole characters off
the top, omega expressions from a deepening depth-first search,
(J,nu)-colorings from a recursion on the prefix length
that rescans each prefix's signature, and colored posets are checked
against their full transitive closure, their adjacency against lists of
the triples at each end, and their component member lists
against networkx's weakly connected components of each color.  The
inverse Cartan matrix comes from Fraction Gauss-Jordan, component
numberings from a slot-by-slot backtracking search, chain-product factorizations from growing chains and
scanning every chain pair, sub-block colorings from trying every factor
order, and pattern lattices from filtering every array in a box by the interlacing
inequalities.
"""

import functools
import json
from fractions import Fraction
from itertools import permutations, product
from importlib import resources

import networkx as nx
import pytest

from weylsplit import build_diagram, crystal as cr, ecposet, wsf
from weylsplit.cartan import _finite_types, orbit_cap, seed_cartan, wadd, wsub
from weylsplit.errors import (ExactnessError, NotAcyclic, NotChainProduct, NotCovering,
                             NotRanked, OrbitTooLarge)


@pytest.fixture(scope="session")
def diagrams():
    names = ["A1", "A2", "A3", "B3", "C2", "C3", "G2"]
    return {name: build_diagram(name) for name in names}


def load_fixture(name):
    return json.loads(resources.files("weylsplit.fixtures").joinpath(name).read_text())


# ---------------------------------------------------------------------------
# firing by the dense Cartan row

def dense_fire(d, position, i):
    """Fire node i of d: lambda_j - M_ij * lambda_i for every j, zeros included."""
    row, v = d.cartan[i - 1], position[i - 1]
    return tuple(p - m * v for p, m in zip(position, row))


# ---------------------------------------------------------------------------
# brute-force Weyl group as exact matrices on omega coordinates

def reflection_matrix(d, i):
    """Matrix of s_i acting on column vectors of omega coordinates."""
    n = d.rank
    m = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    # s_i(e_j) has coordinates e_j - delta_{ij,...}: column j is s_i(omega_j)
    cols = [d.simple_reflection(i, tuple(int(j == c) for j in range(n)))
            for c in range(n)]
    for r in range(n):
        for c in range(n):
            m[r][c] = Fraction(cols[c][r])
    return tuple(tuple(row) for row in m)


def mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n))
                 for r in range(n))


def mat_det(a):
    m = [list(row) for row in a]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def brute_weyl_group(d):
    """All group elements as matrices, by closure under the generators."""
    gens = [reflection_matrix(d, i) for i in range(1, d.rank + 1)]
    ident = tuple(tuple(Fraction(int(r == c)) for c in range(d.rank))
                  for r in range(d.rank))
    group = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = mat_mul(s, g)
                if h not in group:
                    group.add(h)
                    nxt.append(h)
        frontier = nxt
    return group


def apply_mat(m, v):
    return tuple(sum(m[r][c] * v[c] for c in range(len(v))) for r in range(len(v)))


def norm2(d, u):
    """<u, u>, exact."""
    return d.inner_product(u, u)


def coroot_pairing(d, mu, alpha):
    """<mu, alpha_vee> = 2<mu, alpha>/<alpha, alpha> for a root alpha (as a weight)."""
    return 2 * d.inner_product(mu, alpha) / d.inner_product(alpha, alpha)


@functools.cache
def brute_positive_roots(d):
    """Reflection closure of the simple roots, intersected with the cone.

    Kept per diagram (equal diagrams share one entry), as a tuple.
    """
    group = brute_weyl_group(d)
    roots = set()
    for i in range(1, d.rank + 1):
        a = d.alpha(i)
        for g in group:
            roots.add(tuple(int(x) for x in apply_mat(g, a)))
    pos = []
    for r in roots:
        coords = d.to_root_coords(r)
        if all(c >= 0 for c in coords):
            pos.append(r)
    return tuple(pos)


def inversion_roots(d, word):
    """beta_j = s_{i_1} ... s_{i_(j-1)}(alpha_{i_j}) in omega coordinates.

    Each root is reflected afresh from its simple root with d.act, which
    applies the letters of its argument from the first to the last.
    """
    return [d.act(word[:j][::-1], d.alpha(i)) for j, i in enumerate(word)]


def brute_weyl_dimension(d, lam):
    """Weyl's dimension formula over the reflection-closure positive roots.

    For alpha = sum c_i alpha_i, <mu, alpha_vee> is proportional to
    sum c_i mu_i |alpha_i|^2, so each factor <lam + rho, alpha_vee> /
    <rho, alpha_vee> is a ratio of two such sums.
    """
    out = Fraction(1)
    for alpha in brute_positive_roots(d):
        coords = d.to_root_coords(alpha)
        num = sum(c * (a + 1) * ln for c, a, ln in zip(coords, lam, d.root_lengths))
        out *= num / sum(c * ln for c, ln in zip(coords, d.root_lengths))
    return out


def brute_partition_count(d, mu, roots):
    """Direct enumeration of nonnegative combinations of positive roots."""
    coords = d.to_root_coords(mu)
    if any(c.denominator != 1 or c < 0 for c in coords):
        return 0
    target = tuple(int(c) for c in coords)
    vecs = [tuple(int(c) for c in d.to_root_coords(r)) for r in roots]

    def count(idx, rest):
        if not any(rest):
            return 1
        if idx == len(vecs):
            return 0
        total, cur = 0, rest
        while True:
            total += count(idx + 1, cur)
            cur = tuple(a - b for a, b in zip(cur, vecs[idx]))
            if any(x < 0 for x in cur):
                break
        return total

    return count(0, target)


def recursive_kostant_partition(d, mu, memo):
    """wsf.kostant_partition as one recursion per positive root, the last
    root first, filling memo with the same (j, v) keys."""
    vec = d.root_lattice_coords(mu)
    if vec is None or any(c < 0 for c in vec):
        return 0
    roots = tuple(r.alpha_coords for r in d.positive_roots())

    def f(j, v):
        if not any(v):
            return 1
        if j < 0:
            return 0
        if (j, v) not in memo:
            total, cur = 0, v
            while True:
                total += f(j - 1, cur)
                cur = tuple(x - y for x, y in zip(cur, roots[j]))
                if any(x < 0 for x in cur):
                    break
            memo[(j, v)] = total
        return memo[(j, v)]

    return f(len(roots) - 1, vec)


def brute_kostant_multiplicity(d, lam, mu):
    """Kostant's multiplicity formula summed over the whole brute orbit.

    sum of det(w) * P(w(lam + rho) - (mu + rho)) over every element of
    brute_weyl_orbit(lam + rho), whose parities are det(w) since lam + rho
    is dominant and regular, with P by brute_partition_count.
    """
    roots = brute_positive_roots(d)
    shifted, target = tuple(a + 1 for a in lam), tuple(a + 1 for a in mu)
    return sum(det * brute_partition_count(d, wsub(w, target), roots)
               for w, det in brute_weyl_orbit(d, shifted).items())


def brute_dominant_weights_below(d, lam):
    """All dominant nu <= lam from the whole box of root coordinates.

    nu = lam - sum k_a alpha_a for 0 <= k_a <= (root coordinate a of lam),
    in lexicographic order of k.  A partial k is cut only when the later
    k_a cannot add enough to some coordinate of nu to make it nonnegative,
    so the result is exactly the dominant part of the box.
    """
    n = d.rank
    box = [int(c) for c in d.to_root_coords(lam)]
    # gain[i][j]: the most that k_i, ..., k_{n-1} can still add to nu_j
    gain = [[0] * n for _ in range(n + 1)]
    for i in reversed(range(n)):
        for j in range(n):
            gain[i][j] = gain[i + 1][j] + box[i] * max(0, -d.cartan[i][j])
    out = []

    def descend(i, nu):
        if any(c + g < 0 for c, g in zip(nu, gain[i])):
            return
        if i == n:
            out.append(nu)
            return
        for v in range(box[i] + 1):
            descend(i + 1, tuple(c - v * a for c, a in zip(nu, d.cartan[i])))

    descend(0, tuple(lam))
    return out


def brute_weyl_orbit(d, mu, cap=None):
    """Orbit of mu with det(w) parities, by breadth-first search from mu.

    Tries every simple reflection on every element.  Parities alternate
    along the search; they are all None when a reflection fixes an element
    or an element is reached along paths of both parities, which happens
    exactly when mu is non-regular.
    """
    cap = cap or orbit_cap()
    mu = tuple(mu)
    parities = {mu: 1}
    frontier = [mu]
    indeterminate = False
    while frontier:
        nxt = []
        for v in frontier:
            pv = parities[v]
            for i in range(1, d.rank + 1):
                w = d.simple_reflection(i, v)
                if w == v:
                    indeterminate = True      # stabilized by a reflection
                    continue
                if w in parities:
                    if pv is not None and parities[w] == pv:
                        indeterminate = True
                    continue
                parities[w] = None if pv is None else -pv
                nxt.append(w)
                if len(parities) > cap:
                    raise OrbitTooLarge("orbit of %s exceeds cap %d" % (mu, cap))
        frontier = nxt
    if indeterminate:
        return {w: None for w in parities}
    return parities


def brute_parabolic_orbit(d, mu, nodes):
    """The orbit of mu under W_K, K = nodes (1-based), as a set, by a
    search that tries every s_k, k in K, on every element."""
    seen, frontier = {tuple(mu)}, [tuple(mu)]
    while frontier:
        nxt = []
        for v in frontier:
            for k in nodes:
                w = d.simple_reflection(k, v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def peel_bialternants(f):
    """The bialternant expansion of an invariant f, by peeling whole characters.

    Round by round, the terms of greatest height left are dominant (the
    support of an invariant is W-stable, and s_i raises the height of a
    weight with a negative entry i), so each is a constituent, and its
    whole character is subtracted from what is left.
    """
    d, out, rem = f.d, {}, f
    while rem:
        top = max(d.height_scaled(m) for m in rem.terms)
        layer = [m for m in rem.terms if d.height_scaled(m) == top]
        assert all(d.is_dominant(m) for m in layer), layer
        for m in layer:
            c = rem.terms.get(m, 0)
            if c:
                out[m] = c
                rem = rem - c * wsf.freudenthal(d, m)
    return out


# ---------------------------------------------------------------------------
# colored posets: every check in its original order, on the full closure

def brute_adjacency(n, edges, end):
    """Per vertex, the edges whose end-th entry it is, in the order of edges:
    the lists of triples that ColoredPoset.out (end 0) and inc (end 1) read as."""
    rows = [[] for _ in range(n)]
    for e in edges:
        rows[e[end]].append(e)
    return rows


def brute_ranks(n, edges):
    """Ranks that go up by one along every edge and start at 0 in each
    connected component, or None when no such ranks exist."""
    nbrs = [[] for _ in range(n)]
    for u, v, _ in edges:
        nbrs[u].append((v, 1))
        nbrs[v].append((u, -1))
    rank = [None] * n
    for s in range(n):
        if rank[s] is not None:
            continue
        rank[s] = 0
        comp, stack = [s], [s]
        while stack:
            x = stack.pop()
            for y, step in nbrs[x]:
                if rank[y] is None:
                    rank[y] = rank[x] + step
                    comp.append(y)
                    stack.append(y)
                elif rank[y] != rank[x] + step:
                    return None
        lo = min(rank[x] for x in comp)
        for x in comp:
            rank[x] -= lo
    return rank


def brute_poset_error(n, edges, n_colors):
    """The error class ColoredPoset(n, edges, n_colors=n_colors) must raise, or None.

    The checks run in this order: endpoint range, color range and loops,
    edge by edge in sorted order; then a repeated vertex pair; then a
    directed cycle; then an edge implied by a longer path, found on the
    full transitive closure; and only then ranking.
    """
    edges = sorted((int(u), int(v), int(c)) for u, v, c in edges)
    for u, v, c in edges:
        if not (0 <= u < n and 0 <= v < n):
            return NotAcyclic
        if not 1 <= c <= n_colors:
            return NotCovering
        if u == v:
            return NotAcyclic
    if len({(u, v) for u, v, _ in edges}) != len(edges):
        return NotCovering
    succ = [{v for u2, v, _ in edges if u2 == u} for u in range(n)]
    above = []          # above[x]: the vertices at the end of a nonempty path from x
    for x in range(n):
        seen, stack = set(), list(succ[x])
        while stack:
            y = stack.pop()
            if y not in seen:
                seen.add(y)
                stack.extend(succ[y])
        above.append(seen)
    if any(x in above[x] for x in range(n)):
        return NotAcyclic
    if any(v in above[w] for u in range(n) for v in succ[u] for w in succ[u]):
        return NotCovering
    if brute_ranks(n, edges) is None:
        return NotRanked
    return None


def brute_color_tables(n, edges, n_colors):
    """(rank, comp_id, rho, lng) of a valid poset, one rescan of the edges per color.

    comp_id numbers the color-c components in the order of their smallest
    members.
    """
    edges = sorted(edges)
    rank = brute_ranks(n, edges)
    comp_id, rho, lng = ([[0] * n for _ in range(n_colors + 1)] for _ in range(3))
    for c in range(1, n_colors + 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v, cc in edges:
            if cc == c:
                parent[find(u)] = find(v)
        groups = {}
        for x in range(n):
            groups.setdefault(find(x), []).append(x)
        for gid, members in enumerate(groups.values()):
            lo = min(rank[x] for x in members)
            hi = max(rank[x] for x in members)
            for x in members:
                comp_id[c][x] = gid
                rho[c][x] = rank[x] - lo
                lng[c][x] = hi - lo
    return rank, comp_id, rho, lng


def brute_members(n, edges, n_colors):
    """Per color 1..n_colors, the member tuples of each component: the weakly
    connected components of that color's subgraph (networkx), each in
    ascending order, listed in the order of their smallest members (the
    unused row 0 is ()); `ColoredPoset._members` indexed as comp_id numbers."""
    members = [()]
    for c in range(1, n_colors + 1):
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from((u, v) for u, v, cc in edges if cc == c)
        members.append(sorted(tuple(sorted(k)) for k in nx.weakly_connected_components(g)))
    return members


def brute_signature(factors, i, x):
    """(delta_i, first argmax, rho_i, last argmax) of a factor tuple, in two scans.

    delta_i scans prefix sums of m_i forward; rho_i adds each factor's rho_i
    to a suffix sum of m_i, read from its own array.
    """
    best, first, pref = None, None, 0
    for q, (f, v) in enumerate(zip(factors, x)):
        val = -pref + f.delta(i, v)
        if best is None or val > best:
            best, first = val, q
        pref += f.m(i, v)
    suffixes = [0] * (len(x) + 1)
    for r in range(len(x) - 1, -1, -1):
        suffixes[r] = suffixes[r + 1] + factors[r].m(i, x[r])
    top, last = None, None
    for r, (f, v) in enumerate(zip(factors, x)):
        val = f.rho[i][v] + suffixes[r + 1]
        if top is None or val >= top:
            top, last = val, r
    return best, first, top, last


# ---------------------------------------------------------------------------
# omega expressions by deepening search, (J,nu)-colorings by recursion

def brute_omega_expression(d, lam):
    """omega_expression by a depth-first search deepened one letter at a time.

    At each depth the letters are tried in order, so the first word found is
    the shortest, then letter-order-least; one memo of dead (partial sum,
    letters left) pairs is shared across depths.  Recursion depth is the word
    length, so keep lam small.
    """
    lam = tuple(lam)
    minus = cr.minuscule_dominant_weights(d)
    flavor = "quasi-minuscule"
    if any(d.root_lattice_coords(wsub(lam, m)) is not None for m in minus):
        flavor = "minuscule"
    letters = cr._alphabet(d, flavor)
    dead = set()

    def dfs(acc, depth):
        if depth == 0:
            return [] if acc == lam else None
        if (acc, depth) in dead:
            return None
        for w, rep in letters:
            nxt = wadd(acc, w)
            if d.is_dominant(nxt):
                tail = dfs(nxt, depth - 1)
                if tail is not None:
                    return [(w, rep)] + tail
        dead.add((acc, depth))
        return None

    max_len = max(4, 2 * int(d.height(wadd(lam, lam))) + 2)
    for depth in range(1, max_len + 1):
        word = dfs((0,) * d.rank, depth)
        if word is not None:
            return cr.OmegaExpr(tuple(w for w, _ in word),
                                tuple(rep for _, rep in word), flavor)
    return None


def brute_jnu_coloring(factors, poset, nodes, nu):
    """jnu_coloring by recursion on the prefix length, each prefix's
    signature rescanned by brute_signature."""
    nu_of = dict(zip(sorted(set(nodes)), nu))

    def kappa_prefix(x, upto):
        k_set = [j for j in nu_of if brute_signature(factors, j, x[:upto])[0] > nu_of[j]]
        if not k_set:
            return None
        f, v = factors[upto - 1], x[upto - 1]
        if upto == 1:
            long_ones = [j for j in k_set if f.lng[j][v] >= 2]
            return long_ones[0] if long_ones else min(k_set)
        prev = kappa_prefix(x, upto - 1)
        if prev is not None:
            return prev
        special = [j for j in k_set
                   if max(f.rho[j][v],
                          f.lng[j][v] - brute_signature(factors, j, x[:upto - 1])[2]) >= 2]
        if len(special) > 1:
            raise ExactnessError("colors %s are all special at %s" % (special, x))
        return special[0] if special else min(k_set)

    out = {}
    for vid, x in enumerate(poset.labels):
        k = kappa_prefix(x, len(factors))
        if k is not None:
            out[vid] = k
    return out


# ---------------------------------------------------------------------------
# diagram set-up by the direct routes

def fraction_inverse(m):
    """Exact inverse of an integer matrix by Fraction Gauss-Jordan."""
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(a[i][n + j] for j in range(n)) for i in range(n))


def brute_numbering(cartan, nodes):
    """(letter, rank, numbering) of one component: template slots are filled
    in order 0, 1, ..., each by the least unused node that keeps every entry
    among the filled slots equal, so the first full fill is the least."""
    k = len(nodes)
    sub = [[cartan[a][b] for b in nodes] for a in nodes]
    for letter in _finite_types(k):
        tmpl = seed_cartan(letter, k)
        assign = []

        def fill(t):
            if t == k:
                return True
            for c in range(k):
                if c not in assign and all(
                        tmpl[t][t2] == sub[c][c2] and tmpl[t2][t] == sub[c2][c]
                        for t2, c2 in enumerate(assign + [c])):
                    assign.append(c)
                    if fill(t + 1):
                        return True
                    assign.pop()
            return False

        if fill(0):
            return letter, k, tuple(nodes[c] for c in assign)
    return None


# ---------------------------------------------------------------------------
# chain products by growing chains and scanning every pair

def brute_chain_product_factorization(p, color, x):
    """chain_product_factorization by growing each chain and scanning chain pairs.

    The join irreducibles (one lower cover) are grown into chains greedily in
    rho order, every pair of chains is tested element by element against the
    up-set bitmasks, and each coordinate counts the chain members below a
    vertex.  Same results and the same NotChainProduct messages as the
    library's one down-set pass.
    """
    members = p.comp_members(color, x)
    index = {v: i for i, v in enumerate(members)}
    loc_out = {v: [w for _, w, c in p.out[v] if c == color and w in index]
               for v in members}
    loc_in = {v: [w for w, _, c in p.inc[v] if c == color and w in index]
              for v in members}
    order = sorted(members, key=lambda v: p.rho[color][v])
    reach = {v: 1 << index[v] for v in members}
    for v in reversed(order):
        for w in loc_out[v]:
            reach[v] |= reach[w]
    irr = sorted((v for v in members if len(loc_in[v]) == 1),
                 key=lambda v: p.rho[color][v])
    used = set()
    chains = []
    for v in irr:
        if v in used:
            continue
        chain = [v]
        used.add(v)
        grew = True
        while grew:
            grew = False
            for w in irr:     # rho order, so the immediate successor is hit first
                if w not in used and reach[chain[-1]] >> index[w] & 1:
                    chain.append(w)
                    used.add(w)
                    grew = True
                    break
        chains.append(tuple(chain))
    for a in range(len(chains)):
        for b in range(len(chains)):
            if a != b:
                for u in chains[a]:
                    for w in chains[b]:
                        if reach[u] >> index[w] & 1 or reach[w] >> index[u] & 1:
                            raise NotChainProduct(
                                "join irreducibles are not a union of chains")
    coords = {}
    seen = set()
    for v in members:
        vec = tuple(sum(1 for u in chain if reach[u] >> index[v] & 1)
                    for chain in chains)
        coords[v] = vec
        seen.add(vec)
    box = 1
    for chain in chains:
        box *= len(chain) + 1
    if len(seen) != len(members) or box != len(members):
        raise NotChainProduct("component is not a chain product")
    for v in members:
        for w in loc_out[v]:
            dv = [b - a for a, b in zip(coords[v], coords[w])]
            if sorted(dv) != sorted([0] * (len(chains) - 1) + [1]):
                raise NotChainProduct("covers are not unit coordinate steps")
    return members, tuple(chains), coords


# ---------------------------------------------------------------------------
# sub-block colorings by trying every factor order

def sub_block_members(lengths, b):
    """Membership test of the b-sub-block of a chain product whose factors
    have these lengths in this order; None when the sub-block is empty."""
    if b > sum(lengths):
        return None
    suffix, q = 0, len(lengths) - 1
    while not suffix < b <= suffix + lengths[q]:
        suffix += lengths[q]
        q -= 1
    need = b - suffix
    return lambda vec: not any(vec[q + 1:]) and lengths[q] - vec[q] >= need


def brute_subblock_coloring(p, nodes, nu, s_set, kappa):
    """verify_subblock_coloring by trying every order of each component's factors."""
    nu_of = dict(zip(sorted(nodes), nu))
    s_set = frozenset(s_set)
    for x in range(p.n):
        if x in s_set:
            continue
        k = kappa.get(x)
        if k not in nu_of:
            return False, "kappa(%d) missing or outside J" % x
        members, chains, coords = brute_chain_product_factorization(p, k, x)
        kx = frozenset(y for y in members if y not in s_set and kappa.get(y) == k)
        lengths = [len(c) for c in chains]
        for perm in permutations(range(len(chains))):
            member = sub_block_members([lengths[i] for i in perm], nu_of[k] + 1)
            got = frozenset(v for v in members
                            if member and member([coords[v][i] for i in perm]))
            if got == kx:
                break
        else:
            return False, "K(%d) is not a %d-sub-block of its %d-component" \
                % (x, nu_of[k] + 1, k)
    return True, None


# ---------------------------------------------------------------------------
# pattern lattices by filtering every array in a box

def brute_patterns(shape):
    """(patterns, covers) of a pattern lattice from its defining inequalities.

    Every array whose outer row is the fixed special linear row, or has
    entries in 0..m, and whose inner entries lie in 0..s_0 * m is tried,
    and kept when it meets the inequalities as the patternlat module
    docstring writes them.  Covers are the pairs of kept arrays that differ
    by +1 in a single variable entry, colored by that entry's row (the even
    orthogonal outer row by its spin slot).
    """
    rows, m = shape.n_drawn_rows, shape.bound
    s0 = 2 if shape.double_outer else 1
    lengths = [shape.outer_len - r for r in range(rows)]
    fixed = shape.outer_fixed is not None
    outer = [shape.outer_fixed] if fixed else product(range(m + 1), repeat=lengths[0])

    def split(outer_row, flat):
        t, at = [outer_row], 0
        for n in lengths[1:]:
            t.append(tuple(flat[at:at + n]))
            at += n
        return tuple(t)

    def is_pattern(t):
        if not fixed and not (0 <= t[0][0] and t[0][-1] <= m and
                              all(a <= b for a, b in zip(t[0], t[0][1:]))):
            return False
        return all((s0 if r == 0 else 1) * t[r][k] <= t[r + 1][k]
                   <= (s0 if r == 0 else 1) * t[r][k + 1]
                   for r in range(rows - 1) for k in range(lengths[r + 1]))

    def color(r, k):
        if shape.family == "eo" and r == 0:
            return shape.spin_node if k % 2 == 0 else 2 * shape.n - 1 - shape.spin_node
        return rows - r

    patterns = sorted(t for o, flat in product(outer, product(range(s0 * m + 1),
                                                                repeat=sum(lengths[1:])))
                      for t in (split(o, flat),) if is_pattern(t))
    members = set(patterns)
    covers = set()
    for t in patterns:
        for r in range(1 if fixed else 0, rows):
            for k in range(lengths[r]):
                u = t[:r] + (t[r][:k] + (t[r][k] + 1,) + t[r][k + 1:],) + t[r + 1:]
                if u in members:
                    covers.add((t, u, color(r, k)))
    return patterns, covers
