"""Edge-colored ranked posets and the splitting verifiers.

A ColoredPoset stores a Hasse diagram with edges colored by node indices
and caches, per vertex and color, the component rank rho_i, component
length l_i, depth delta_i = l_i - rho_i, m_i = 2 rho_i - l_i, and the
weight wt(x) = sum m_i(x) omega_i.  All of these follow from the rank of
each vertex and from which vertices share a component (of the poset, and
of each color), and one method, `ColoredPoset._fill`, writes every one of
them, the edges, the global ranks and the poset components included.  A
poset is set up by assigning its four inputs (d, n_colors, n, labels) and
calling `_fill` with its edges; everything else is a cache built when
first read.  On top of that live the structure predicates (M-structured,
fibrous, primary, diamond-colored), weight generating functions, poset
transforms, generalized weight diagrams, the unique maximal splitting
poset, and the splitting verifiers.

The unique maximal splitting poset U(lambda) is the blow-up of Pi(lambda):
d_{lambda,mu} copies of each weight mu, and a complete bipartite block for
each edge.  Only Pi(lambda) goes through the constructor's checks; U(lambda)
reads its ranks and components off Pi(lambda)'s ranks, components and
lng rows, as `_blow_up` proves sound, and passes them to the same fill.

Edges are triples (u, v, c) of plain ints, sorted, and every poset keeps
them in one Columns: three machine-int columns that read as the tuple of
the triples, each triple built when it is read.  The per-vertex rows
(global ranks, poset components, and comp_id, rho and lng per color) are
unsigned `array` rows as narrow as their values allow, and equal weights
share one tuple in `wt`.  The ranks and the components of the poset and
of each color come from one pass over the edges (`rank_and_components`),
with no adjacency.  The adjacency `out[u]` and `inc[v]` is an Adjacency
over the edge columns: n + 1 offsets, since sorted edges make out[u] one
run, and for inc a counting-sort permutation of the edge ids as well.  It
reads as the lists of the triples in sorted-edge order, each row built
when it is read, and the package's own readers take the other ends and
colors of a row from the columns, no triple built.  The `up` and `down`
rows (per color, the first cover above and below each vertex), the member
lists of the components and the reachability masks are built only when
first read, so a poset that is only asked for ranks, weights and edges
never holds them.  A blow-up's columns are filled the first time an edge
is read; their length is the sum of the block sizes, so `len(u.edges)`
costs no edge.  Trusted producers (`_blow_up`, the pattern lattices) hand
`_fill` their columns, ranks and component keys through `ColoredPoset._of`;
every caller with outside data goes through the checking constructor.

Posets are immutable after construction; every cache is computed once.
"""

from array import array
from collections import Counter, namedtuple
from collections.abc import Sequence
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import eq

from . import wsf
from .cartan import MAX_RANK, check_diagram, sub_weight, wadd, wsub
from .errors import (DiagramMismatch, ExactnessError, MalformedPoset,
                     NotAcyclic, NotChainProduct, NotConnected, NotCovering,
                     NotMStructured, NotRanked, UnknownFormat)

LATTICE_CHECK_LIMIT = 900


def _has_bound(closure, common, from_top):
    """Whether some z in the bitmask common has closure[z] == common.

    Over the up-sets such a z is the join of a pair, over the down-sets its
    meet.  Joins are scanned from the lowest id and meets from the highest: when the
    ids follow a linear extension (as on pattern lattices), both are found at
    the first bit.
    """
    m = common
    while m:
        z = m.bit_length() - 1 if from_top else (m & -m).bit_length() - 1
        if closure[z] == common:
            return True
        m ^= 1 << z
    return False


def _find(parent, x):
    """Root of x in a union-find array, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


# unsigned array typecodes, narrowest first, each with the first int it cannot hold
_CODES = tuple((1 << 8 * array(code).itemsize, code) for code in "BHIQ")


def _code(hi):
    """The narrowest unsigned typecode that holds 0..hi; OverflowError past the widest."""
    for lim, code in _CODES:
        if hi < lim:
            return code
    raise OverflowError("%d does not fit an unsigned array row" % hi)


def _row(values, hi):
    """values, all in 0..hi, as an array of the narrowest unsigned typecode."""
    if hi < 256 and not isinstance(values, array):     # bytes(array) would copy its buffer
        return array("B", bytes(values))    # bytes reads ints about 4 times faster
    return array(_code(hi), values)


class Columns(Sequence):
    """Equal-length int columns that read as the tuple of their rows.

    A poset's sorted edges are three columns u, v and c, and the labels of
    a crystal closure one column per factor position.  It reads as the
    tuple of the row tuples that it holds: the same len, items (negative
    indices too), slices (tuples of rows), iteration, == (against a Columns
    column by column, against anything else as that tuple compares), hash
    and repr.  Each row tuple is built when it is read.  The columns are
    `_row` arrays, as narrow as their values allow.  Either they are given,
    or `fill` returns them on the first read; the length is known before
    either.
    """

    __slots__ = ("_len", "_cols", "_fill")

    def __init__(self, length, cols=None, fill=None):
        self._len, self._cols, self._fill = length, cols, fill

    @classmethod
    def of(cls, rows, his):
        """The columns of the tuples rows, in their order; column k holds ints in 0..his[k]."""
        cols = zip(*rows) if rows else [()] * len(his)
        return cls(len(rows), tuple(map(_row, cols, his)))

    @classmethod
    def of_columns(cls, cols, his):
        """The equal-length int sequences cols; column k holds ints in 0..his[k]."""
        return cls(len(cols[0]), tuple(map(_row, cols, his)))

    def columns(self):
        """The columns, filled on the first call."""
        if self._cols is None:
            self._cols, self._fill = self._fill(), None
        return self._cols

    def __len__(self):
        return self._len

    def __iter__(self):
        return zip(*self.columns())

    def __getitem__(self, i):
        cols = self.columns()
        if isinstance(i, slice):
            return tuple(zip(*[col[i] for col in cols]))
        return tuple([col[i] for col in cols])

    def __eq__(self, other):
        if isinstance(other, Columns):
            return self._len == other._len and self.columns() == other.columns()
        if isinstance(other, tuple):
            return self._len == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))


class Groups(Sequence):
    """The ids 0..len(key)-1 grouped by key, each group in ascending order.

    Group g, g in 0..m-1, holds the ids i with key[i] == g.  It reads as
    the tuple of those ids, and the whole as the list of those tuples.
    What it holds is m + 1 offsets into a counting sort of the ids by key,
    which keeps each group ascending; when key is nondecreasing (is_sorted),
    the ids are already in that order, and only the offsets are kept.
    """

    __slots__ = ("_off", "_perm")

    def __init__(self, key, m, is_sorted=False):
        counts = Counter(key)
        off = _row(accumulate(map(counts.get, range(m), repeat(0)), initial=0), len(key))
        perm = None
        if not is_sorted:
            code, pos = _code(max(len(key) - 1, 0)), off[:-1]
            perm = array(code, bytes(len(key) * array(code).itemsize))
            for i, g in enumerate(key):
                perm[pos[g]] = i
                pos[g] += 1
        self._off, self._perm = off, perm

    def ids(self, g):
        """The ids of group g, ascending: a range, or an array slice."""
        a, b = self._off[g], self._off[g + 1]
        return range(a, b) if self._perm is None else self._perm[a:b]

    def __len__(self):
        return len(self._off) - 1

    def __getitem__(self, g):
        return tuple(self.ids(range(len(self))[g]))     # list indexing: negatives, IndexError

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        if isinstance(other, (Groups, list)):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return repr(list(self))


class Adjacency(Groups):
    """One end of a poset's sorted edges, per vertex: out or inc.

    The Groups of the edge ids by their u (out) or v (inc): the edges are
    sorted by (u, v, c), so out[x] is one run of ids and needs only the
    offsets, while inc needs the counting sort as well, which keeps each
    row in sorted-edge order.  Row x reads as the list of its triples,
    built when it is read, and the whole as the list of the rows.  `ends(x)`
    reads a row as the other ends and the colors of its edges, no triple
    built.
    """

    __slots__ = ("_end", "_other", "_colors")

    def __init__(self, edges, n, end):
        cols = edges.columns()
        super().__init__(cols[end], n, is_sorted=not end)
        self._end, self._other, self._colors = end, cols[1 - end], cols[2]

    def ends(self, x):
        """(w, c) of vertex x: the other end and the color of each of its
        edges, in sorted-edge order, as two int sequences."""
        if self._perm is None:
            a, b = self._off[x], self._off[x + 1]
            return self._other[a:b], self._colors[a:b]
        ids = self.ids(x)
        return list(map(self._other.__getitem__, ids)), list(map(self._colors.__getitem__, ids))

    def ends_of(self, x, c):
        """The other ends of x's color-c edges, in sorted-edge order."""
        other, colors = self._other, self._colors
        return [other[e] for e in self.ids(x) if colors[e] == c]

    def __getitem__(self, x):
        x = range(len(self))[x]
        w, c = self.ends(x)
        if self._end:
            return list(zip(w, repeat(x), c))
        return list(zip(repeat(x), w, c))


def rank_and_components(n, edges, n_colors):
    """(rank, keys) of the ranked relation edges, triples (u, v, c) on n vertices.

    keys[0] is equal on two vertices exactly when they lie in one component
    of the poset, and keys[c], c = 1..n_colors, exactly when they lie in one
    color-c component; every component is ranked so that its lowest vertices
    have rank 0.  One pass over the edges, in any order, fills them all.

    The poset components of the edges read so far are member lists merged
    by size (Tarjan, J. ACM 22, 1975), so a vertex moves at most log2 n
    times.  Each list is keyed by its head, its first vertex, at which each
    member points, and lift[x] is rank(x) - rank(head).  An edge u -> v that
    joins two lists moves the shorter into the longer, adding one shift to
    its lifts so that lift[v] = lift[u] + 1; the edges read before keep
    their steps of one.  An edge inside one list must already have lift[v]
    = lift[u] + 1.  If it has not, the edges read before join u to v by a
    path whose up edges minus down edges is lift[v] - lift[u], so no ranks
    raise that path and this edge by one each, and NotRanked is raised.  At
    the end each list is shifted so that its lowest rank is 0.  The color
    components are path-halving union-finds, filled in the same loop and
    keyed by root.
    """
    head, lift = list(range(n)), [0] * n
    members = {x: [x] for x in range(n)}     # by head
    parents = [None] + [list(range(n)) for _ in range(n_colors)]
    for u, v, c in edges:
        hu, hv, shift = head[u], head[v], lift[u] + 1 - lift[v]
        if hu != hv:
            if len(members[hu]) < len(members[hv]):
                hu, hv, shift = hv, hu, -shift      # move u's list instead
            for x in members[hv]:
                head[x] = hu
                lift[x] += shift
            members[hu] += members.pop(hv)
        elif shift:
            raise NotRanked("rank conflict on edge %d->%d" % (u, v))
        parent = parents[c]
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        parent[u] = v
    for m in members.values():
        lo = min(map(lift.__getitem__, m))
        if lo:
            for x in m:
                lift[x] -= lo
    return lift, [head] + [[_find(parent, x) for x in range(n)] for parent in parents[1:]]


def _closure(out, order):
    """Bitmask closure over the Adjacency out, filled from the top of a
    topological order."""
    r = [0] * len(out)
    for v in reversed(order):
        m = 1 << v
        for w in out.ends(v)[0]:
            m |= r[w]
        r[v] = m
    return r


def _check_covering(n, edges):
    """Raise NotAcyclic on a directed cycle, NotCovering on an edge that a
    longer path implies, for the sorted Columns edges on n vertices; the
    constructor's diagnosis of an unranked relation."""
    out = Adjacency(edges, n, 0)
    indeg = Counter(edges.columns()[1])
    order = [v for v in range(n) if not indeg[v]]
    for v in order:                     # order grows as vertices free up
        for w in out.ends(v)[0]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    if len(order) != n:
        raise NotAcyclic("edge relation has a directed cycle")
    r = _closure(out, order)
    for u in range(n):
        ws = out.ends(u)[0]
        acc = 0
        for w in ws:
            acc |= r[w] & ~(1 << w)
        for v in ws:
            if acc >> v & 1:
                raise NotCovering("edge %d->%d is implied by a longer path" % (u, v))


def _labels(labels):
    """Labels as a poset keeps them: None, a Columns as it is, any other
    iterable as a tuple; MalformedPoset for anything else."""
    try:
        return labels if labels is None or isinstance(labels, Columns) else tuple(labels)
    except TypeError:
        raise MalformedPoset("labels %r are not iterable" % (labels,)) from None


_NOT_TRIPLES = "edges must be (u, v, c) triples of plain ints (not bool, float or str)"


def _edge_list(edges):
    """edges, read once from any iterable, as a sorted list of tuples of plain ints.

    The constructor's reading of outside edges, which `build_poset` shares:
    MalformedPoset when edges or an edge is not iterable, or an entry is not
    a plain int.  The entries are checked before the sort compares them.  An
    edge that is not a triple fails to unpack in the constructor's loop.
    """
    try:
        edges = list(map(tuple, edges))
    except TypeError:
        raise MalformedPoset(_NOT_TRIPLES) from None
    if not set(map(type, chain.from_iterable(edges))) <= {int}:
        raise MalformedPoset(_NOT_TRIPLES)
    edges.sort()
    return edges


class ColoredPoset:
    """Finite ranked poset with covering edges colored by 1..n_colors.

    The constructor is the one gate for outside poset data, and it states
    each input rule once, in this order.  diagram is None or a DynkinDiagram
    (`cartan.check_diagram`, DiagramMismatch).  n_vertices is a plain int >=
    0.  edges are read once (`_edge_list`), into a list of triples of plain
    ints.  n_colors is then the diagram's rank, or else the largest edge
    color, when not given; given, it is a plain int >= 0.  It must equal the
    rank of a diagram (DiagramMismatch), and like a diagram's rank it is at
    most cartan.MAX_RANK, since tables are built per color.  labels are
    None, a Columns, or an iterable of n labels.  Anything else raises
    MalformedPoset, also under python -O.  Then come the structure checks:
    endpoints in range and no loop (NotAcyclic), colors in 1..n_colors and
    no pair twice (NotCovering), and a ranking (NotRanked, or the cycle or
    implied edge that `_check_covering` finds).  The transforms, the
    importer and `build_poset` build through here; only trusted producers
    skip it (`_of`).

    Its tables, all written by `_fill`:

    - edges: the sorted triples (u, v, c) in one Columns.
    - _global_rank and _poset_comp: per vertex, its rank and the number of
      its poset component (n_poset_components of them), each one `_row`.
    - comp_id, rho and lng: per color c = 1..n_colors, row c holds per
      vertex the number of its color-c component, rho_c and l_c, each row
      a `_row`; row 0 is one shared row of zeros, so colors index from 1.
    - wt: a tuple of weight tuples, equal weights one shared tuple.
    - labels: the labels given, as a tuple (a Columns is kept as it is), or None.

    A vertex is a plain int in 0..n-1 and a color a plain int in
    1..n_colors: global_rank, delta, m and comp_members read their
    arguments by that one rule (`_vertex`, `_color`) and raise
    MalformedPoset for anything else.  The package's own loops, which hold
    valid ids, read the rows directly.
    """

    def __init__(self, n_vertices, edges, diagram=None, n_colors=None, labels=None):
        self.d = diagram if diagram is None else check_diagram(diagram)
        if type(n_vertices) is not int or n_vertices < 0:
            raise MalformedPoset("vertex count %r is not an int >= 0" % (n_vertices,))
        self.n = n = n_vertices
        edges = _edge_list(edges)
        try:                    # an edge that is not a triple fails to unpack
            if n_colors is None:
                n_colors = diagram.rank if diagram else max((c for _, _, c in edges), default=0)
            elif type(n_colors) is not int or n_colors < 0:
                raise MalformedPoset("color count %r is not an int >= 0" % (n_colors,))
            if diagram is not None and n_colors != diagram.rank:
                raise DiagramMismatch("%d colors on a diagram of rank %d"
                                      % (n_colors, diagram.rank))
            if n_colors > MAX_RANK:     # tables are built per color: bounded as a rank is
                raise MalformedPoset("%d colors, more than MAX_RANK %d" % (n_colors, MAX_RANK))
            self.n_colors = n_colors
            self.labels = _labels(labels)
            if labels is not None and len(self.labels) != n:
                raise MalformedPoset("%d labels for %d vertices" % (len(self.labels), n))
            repeated = False
            pu = pv = None
            for u, v, c in edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise NotAcyclic("edge endpoint out of range")
                if not 1 <= c <= n_colors:
                    raise NotCovering("edge color %d out of range" % c)
                if u == v:
                    raise NotAcyclic("loop edge at vertex %d" % u)
                repeated = repeated or (u == pu and v == pv)
                pu, pv = u, v
        except ValueError:
            raise MalformedPoset(_NOT_TRIPLES) from None
        if repeated:
            raise NotCovering("multiple edges between a vertex pair")

        cols = Columns.of(edges, (n - 1, n - 1, n_colors))
        # Ranking raises each edge by one rank and each longer path by at
        # least two, so a ranked poset is acyclic and no path implies an edge:
        # the cycle and closure checks are needed only if ranking fails.
        try:
            rank, keys = rank_and_components(n, edges, n_colors)
        except NotRanked:
            _check_covering(n, cols)
            raise
        self._fill(cols, rank, keys[0], keys[1:])

    _is_lattice = None      # unknown until is_lattice() or a producer sets it

    @classmethod
    def _of(cls, diagram, n_colors, n, labels, edges, rank, comp, keys):
        """The poset that a trusted producer describes, with no check, sort
        or union-find: edges a Columns of sorted triples, rank, comp and keys
        as `_fill` reads them.  Each producer proves in its docstring that
        they are what the constructor finds on those edges, so the result
        equals ColoredPoset(n, edges, diagram, n_colors, labels).
        """
        p = cls.__new__(cls)
        p.d, p.n_colors, p.n, p.labels = diagram, n_colors, n, _labels(labels)
        p._fill(edges, rank, comp, keys)
        return p

    def _fill(self, edges, rank, comp, keys):
        """Store the Columns edges and write every derived table from the
        ranks and the component keys.

        The tables are the edges, the global ranks, the poset components
        and their count, comp_id, rho, lng and wt; no other code assigns
        them.  comp is equal on x and y exactly when they lie in one
        component of the poset, and keys holds one row per color c =
        1..n_colors, equal on x and y exactly when they lie in one color-c
        component K: `rank_and_components` gives both to the constructor,
        `_blow_up` reads them off q, and `patternlat.PatternLattice` off its
        walk.  Whatever the keys are, every
        component is numbered by its smallest member; for x in K, rho_c(x)
        = rank(x) - min rank(K), l_c(x) = max rank(K) - min rank(K) and
        wt(x)_c = m_c(x) = 2 rho_c(x) - l_c(x).  rho_c and l_c lie in
        0..max rank and a component number below the count, so each `_row`
        is as wide as that bound needs.  No member list is built here;
        `_members` groups them from comp_id when first read.  Each vertex's
        weight tuple is shared as soon as it is built, so no list of
        unshared tuples is ever held.
        """
        n = self.n
        self.edges = edges
        rank = list(rank)
        top = max(rank, default=0)
        self._global_rank = _row(rank, top)
        first = {}
        comp = [first.setdefault(k, len(first)) for k in comp]
        self._poset_comp = _row(comp, len(first))
        self.n_poset_components = len(first)
        zero = _row(bytes(n), 0)
        self.comp_id, self.rho, self.lng = [zero], [zero], [zero]   # 1-based color
        m_rows = []
        for key in keys:
            gid = {}            # numbers each component by its smallest member
            comp_id = [gid.setdefault(k, len(gid)) for k in key]
            lo, hi = [top] * len(gid), [0] * len(gid)
            for g, r in zip(comp_id, rank):
                if r < lo[g]:
                    lo[g] = r
                if r > hi[g]:
                    hi[g] = r
            span = [h - l for h, l in zip(hi, lo)]
            rho = [r - lo[g] for r, g in zip(rank, comp_id)]
            self.comp_id.append(_row(comp_id, len(gid)))
            self.rho.append(_row(rho, top))
            self.lng.append(_row(map(span.__getitem__, comp_id), top))
            m_rows.append([2 * r - span[g] for r, g in zip(rho, comp_id)])
        shared = {}
        self.wt = tuple([shared.setdefault(w, w) for w in zip(*m_rows)]
                        if m_rows else [()] * n)        # zip(*[]) is empty

    # -- construction helpers ------------------------------------------------

    @cached_property
    def out(self):
        """out[u]: the edges from u, in sorted-edge order (an Adjacency)."""
        return Adjacency(self.edges, self.n, 0)

    @cached_property
    def inc(self):
        """inc[v]: the edges into v, in sorted-edge order (an Adjacency)."""
        return Adjacency(self.edges, self.n, 1)

    @cached_property
    def _ups(self):
        return self._cover_rows(self.out)

    @cached_property
    def _downs(self):
        return self._cover_rows(self.inc)

    def _cover_rows(self, adj):
        """Row c, c = 1..n_colors: per vertex x, the other end of the first
        color-c edge of adj[x] in sorted-edge order, or n when x has none;
        row 0 is None.  Each row is a `_row`."""
        n = self.n
        rows = [[n] * n for _ in range(self.n_colors)]
        for x in range(n):
            ws, cs = adj.ends(x)
            for w, c in zip(reversed(ws), reversed(cs)):     # the first one written last
                rows[c - 1][x] = w
        return [None] + [_row(r, n) for r in rows]

    @cached_property
    def _members(self):
        """_members[c][g]: the color-c component numbered g, in ascending id
        order; row c is the Groups of the vertices by comp_id[c]."""
        return [()] + [Groups(comp_id, max(comp_id, default=-1) + 1)
                       for comp_id in self.comp_id[1:]]

    @cached_property
    def _reach(self):
        return _closure(self.out, sorted(range(self.n), key=self._global_rank.__getitem__))

    def reach(self):
        """Bitmask closure: reach()[v] has bit w set iff v <= w."""
        return self._reach

    # -- elementary accessors --------------------------------------------------

    def _vertex(self, x):
        """x when it is a vertex: a plain int in 0..n-1; MalformedPoset otherwise."""
        if type(x) is not int or not 0 <= x < self.n:
            raise MalformedPoset("vertex %r is not an id in 0..%d" % (x, self.n - 1))
        return x

    def _color(self, c):
        """c when it is a color: a plain int in 1..n_colors; MalformedPoset otherwise."""
        if type(c) is not int or not 1 <= c <= self.n_colors:
            raise MalformedPoset("color %r is not an id in 1..%d" % (c, self.n_colors))
        return c

    def delta(self, c, x):
        c, x = self._color(c), self._vertex(x)
        return self.lng[c][x] - self.rho[c][x]

    def m(self, c, x):
        c, x = self._color(c), self._vertex(x)
        return 2 * self.rho[c][x] - self.lng[c][x]

    def global_rank(self, x):
        return self._global_rank[self._vertex(x)]

    def comp_members(self, c, x):
        """The color-c component of x, in ascending id order.

        The first call groups every component of every color from comp_id.
        """
        c, x = self._color(c), self._vertex(x)
        return self._members[c][self.comp_id[c][x]]

    def up(self, c, x):
        """The unique color-c cover above x, or None (chain components only)."""
        return self._up(self._color(c), self._vertex(x))

    def down(self, c, x):
        """The unique color-c cover below x, or None (chain components only)."""
        return self._down(self._color(c), self._vertex(x))

    def _up(self, c, x):
        """up(c, x) for a valid color and vertex, read unchecked."""
        w = self._ups[c][x]
        return None if w == self.n else w

    def _down(self, c, x):
        w = self._downs[c][x]
        return None if w == self.n else w

    def is_connected(self):
        return self.n_poset_components <= 1

    def maximal_vertices(self):
        return [v for v in range(self.n) if not self.out.ends(v)[0]]

    def checked_d(self):
        """The diagram; NotMStructured("no diagram attached") when there is none.

        Every reader that needs the poset's diagram reads it through here.
        """
        if self.d is None:
            raise NotMStructured("no diagram attached")
        return self.d

    # -- structure predicates ----------------------------------------------------

    def is_fibrous(self):
        """No vertex has two edges of one color out of it, or two into it."""
        for adj in (self.out, self.inc):
            for v in range(self.n):
                cs = adj.ends(v)[1]
                if len(set(cs)) != len(cs):
                    return False
        return True

    def is_m_structured(self):
        cartan = self.checked_d().cartan
        for u, v, c in self.edges:
            if wadd(self.wt[u], cartan[c - 1]) != self.wt[v]:
                return False
        return True

    def is_primary(self):
        """Fibrous, and long components of different colors meet only at a top.

        Literal form of the definition: when comp_i(x) is a chain of length
        >= 2, every non-top vertex y on it has delta_j(y) = 0 whenever
        l_j(y) >= 2, for all j != i.
        """
        if not self.is_fibrous():
            return False
        rho, lng = self.rho, self.lng
        for x in range(self.n):
            for i in range(1, self.n_colors + 1):
                if lng[i][x] < 2 or lng[i][x] == rho[i][x]:
                    continue            # x is not a non-top vertex of a long chain
                for j in range(1, self.n_colors + 1):
                    if j != i and lng[j][x] >= 2 and lng[j][x] != rho[j][x]:
                        return False
        return True

    def is_lattice(self):
        if self._is_lattice is not None:
            return self._is_lattice
        if self.n > LATTICE_CHECK_LIMIT:
            return None
        if not self.is_connected():
            self._is_lattice = self.n <= 1
            return self._is_lattice
        up = self.reach()
        down = [0] * self.n
        for v in range(self.n):
            m = up[v]
            while m:
                low = m & -m
                down[low.bit_length() - 1] |= 1 << v
                m ^= low
        self._is_lattice = all(
            _has_bound(up, up[x] & up[y], False)
            and _has_bound(down, down[x] & down[y], True)
            for x in range(self.n) for y in range(x + 1, self.n))
        return self._is_lattice

    def diamond_condition(self):
        """In every diamond, parallel edges carry equal colors."""
        out = self.out
        for b in range(self.n):
            ws, cs = out.ends(b)
            for a in range(len(ws)):
                s, i = ws[a], cs[a]
                for bb in range(a + 1, len(ws)):
                    t, j = ws[bb], cs[bb]
                    tops = dict(zip(*out.ends(s)))
                    for w, l in zip(*out.ends(t)):
                        k = tops.get(w)
                        if k is None:
                            continue
                        # b -i-> s -k-> w and b -j-> t -l-> w
                        if i != l or j != k:
                            return False
        return True

    # -- weight generating functions ------------------------------------------------

    def wgf(self):
        d = self.checked_d()
        out = {}
        for x in range(self.n):
            w = self.wt[x]
            out[w] = out.get(w, 0) + 1
        return wsf.WeylSymFn._of(d, out)


StructureChecks = namedtuple("StructureChecks", [
    "m_structured", "fibrous", "primary", "connected",
    "diamond_colored",      # True / False / None (not a lattice or unknown)
])


def structure_checks(p):
    lat = p.is_lattice()
    diamond = p.diamond_condition() if lat else None
    return StructureChecks(
        m_structured=p.is_m_structured(),
        fibrous=p.is_fibrous(),
        primary=p.is_primary(),
        connected=p.is_connected(),
        diamond_colored=diamond,
    )


def build_poset(edges, n_colors, n_vertices=None, diagram=None, labels=None):
    """The checked poset on edges, which are read once, by the constructor's
    rule; n_vertices defaults to one more than the largest endpoint.  Its
    tables are built as the constructor builds them, the caches on first read.
    """
    if n_vertices is None:
        edges = _edge_list(edges)
        n_vertices = 1 + max(chain.from_iterable(e[:2] for e in edges), default=-1)
    return ColoredPoset(n_vertices, edges, diagram=diagram, n_colors=n_colors, labels=labels)


# ---------------------------------------------------------------------------
# transforms

def dual(p):
    return ColoredPoset(p.n, [(v, u, c) for u, v, c in p.edges], diagram=p.d,
                        n_colors=p.n_colors, labels=p.labels)


def recolor(p, sigma):
    """sigma: dict or callable on 1-based colors; MalformedPoset for anything else."""
    f = sigma.get if isinstance(sigma, dict) else sigma
    if not callable(f):
        raise MalformedPoset("recoloring %r is not a dict or a callable" % (sigma,))
    return ColoredPoset(p.n, [(u, v, f(c)) for u, v, c in p.edges], diagram=p.d,
                        n_colors=p.n_colors, labels=p.labels)


def bowtie(p):
    """The sigma0-recolored dual."""
    s0 = p.checked_d().sigma0()
    return ColoredPoset(p.n, [(v, u, s0[c]) for u, v, c in p.edges], diagram=p.d,
                        n_colors=p.n_colors, labels=p.labels)


def components(p):
    """Connected components as posets, with labels and id maps preserved.

    Returns a list of (poset, vertex_map) where vertex_map[new_id] is the
    original vertex id.
    """
    out = []
    for ci in range(p.n_poset_components):
        verts = [v for v in range(p.n) if p._poset_comp[v] == ci]
        back = {v: k for k, v in enumerate(verts)}
        edges = [(back[u], back[v], c) for u, v, c in p.edges
                 if u in back and v in back]
        labels = [p.labels[v] for v in verts] if p.labels is not None else None
        out.append((ColoredPoset(len(verts), edges, diagram=p.d,
                                 n_colors=p.n_colors, labels=labels),
                    tuple(verts)))
    return out


def disjoint_sum(p, q):
    if p.d is not None and q.d is not None and p.d != q.d:
        raise DiagramMismatch("disjoint sum over different diagrams")
    edges = list(p.edges) + [(u + p.n, v + p.n, c) for u, v, c in q.edges]
    labels = None
    if p.labels is not None and q.labels is not None:
        labels = tuple(p.labels) + tuple(q.labels)
    return ColoredPoset(p.n + q.n, edges, diagram=p.d or q.d,
                        n_colors=max(p.n_colors, q.n_colors), labels=labels)


def cartesian_product(p, q):
    if p.d is not None and q.d is not None and p.d != q.d:
        raise DiagramMismatch("product over different diagrams")
    def pid(u, v):
        return u * q.n + v
    edges = []
    for u, v, c in p.edges:
        for x in range(q.n):
            edges.append((pid(u, x), pid(v, x), c))
    for u in range(p.n):
        for x, y, c in q.edges:
            edges.append((pid(u, x), pid(u, y), c))
    labels = tuple((a, b) for a in (p.labels or range(p.n))
                   for b in (q.labels or range(q.n)))
    return ColoredPoset(p.n * q.n, edges, diagram=p.d or q.d,
                        n_colors=max(p.n_colors, q.n_colors), labels=labels)


# ---------------------------------------------------------------------------
# generalized weight diagrams and indomitable sets

def generalized_weight_diagram(p):
    """Pi(P): the weights of p and the weight triples of its edges."""
    if not p.is_m_structured():
        raise NotMStructured("weight diagram needs an M-structured poset")
    edges = frozenset((p.wt[u], c, p.wt[v]) for u, v, c in p.edges)
    return wsf.WeightDiagram(frozenset(p.wt), edges)


def prominent_vertices(p):
    return [x for x in range(p.n)
            if all(p.lng[c][x] == p.rho[c][x] for c in range(1, p.n_colors + 1))]


def minimally_indomitable(p):
    """Pare the prominent vertices to one representative per maximal weight."""
    if not p.is_m_structured():
        raise NotMStructured("indomitable sets need an M-structured poset")
    prom = prominent_vertices(p)
    wts = {p.wt[x] for x in prom}

    def leq(mu, nu):
        """mu <= nu in the root order: nu - mu a nonnegative integer root sum."""
        diff = p.d.root_lattice_coords(wsub(nu, mu))
        return diff is not None and min(diff) >= 0

    kept_wts = [w for w in wts if not any(w != w2 and leq(w, w2) for w2 in wts)]
    out = []
    for w in sorted(kept_wts):
        out.append(min(x for x in prom if p.wt[x] == w))
    return out


def rank_function(p):
    """Weight-theoretic ranks on a connected M-structured poset.

    rank(t) = <wt(t) - w0(lambda), rho_vee> where lambda is any weight of
    maximal height; checked against the ranks the poset was built with.
    """
    if not p.is_connected():
        raise NotConnected("rank function formula needs a connected poset")
    if not p.is_m_structured():
        raise NotMStructured("rank function formula needs M-structure")
    d = p.d
    top_ht = max(d.height(w) for w in p.wt)
    lam = next(w for w in p.wt if d.height(w) == top_ht)
    w0lam = d.w0_weight(d.dominant_rep(lam))
    out = {}
    for x in range(p.n):
        r = d.height(wsub(p.wt[x], w0lam))
        if r != p._global_rank[x]:
            raise ExactnessError("weight rank %s disagrees with poset rank %d at %d"
                                 % (r, p._global_rank[x], x))
        out[x] = int(r)
    return out


# ---------------------------------------------------------------------------
# the unique maximal splitting poset U(lambda)

def weight_poset(d, lam):
    """Pi(lambda) as a colored poset, its weights numbered in sorted order."""
    pi = wsf.weight_diagram(d, lam)
    weights = sorted(pi.weights)
    ids = {w: x for x, w in enumerate(weights)}
    edges = [(ids[mu], ids[nu], i) for mu, i, nu in pi.edges]
    return ColoredPoset(len(weights), edges, diagram=d, labels=weights)


def maximal_splitting_poset(d, lam):
    """U(lambda): d_{lam,mu} symbols per weight, complete bipartite edges.

    The blow-up of Pi(lambda) by the multiplicities: the symbol (mu, j) is
    copy j of the weight mu.
    """
    counts = wsf.freudenthal(d, lam).terms
    q = weight_poset(d, lam)
    sizes = [counts[w] for w in q.labels]
    labels = [(w, j) for w, k in zip(q.labels, sizes) for j in range(1, k + 1)]
    return _blow_up(q, sizes, labels)


def _blow_up(q, sizes, labels=None):
    """q with sizes[x] >= 1 interchangeable copies of each vertex x.

    The copies of x are numbered consecutively, x by x, and each edge
    x -c-> y of q becomes the complete bipartite block of c-edges from the
    copies of x to the copies of y.  The result equals ColoredPoset on the
    blown-up edges, but its ranks and components are read off q's instead
    of found by `rank_and_components` from the edges, because q already
    passed every check.  Let f send a copy to its vertex of q; f is onto and
    nondecreasing.

    - Each edge (a, b, c) comes from the edge (f(a), f(b), c) of q, so its
      endpoints and color are in range and a != b; and each pair (a, b)
      comes from at most one edge of q, once, so no pair repeats.
    - rank(f(b)) = rank(f(a)) + 1 on every edge, so the rank of q composed
      with f ranks the blow-up; it is then acyclic, and covering because no
      longer path can join the ends of an edge.
    - A path of q lifts to one between any copies of its ends, and two
      copies of a vertex with an edge meet through a copy of a neighbour.
      So a component of q (of the poset, or of one color) with an edge
      lifts to one component on all the copies of its vertices, and a lone
      vertex to one singleton per copy.  So a copy a may take as its key
      q's component of f(a) when f(a) has an edge there, and ~a, which no
      component id equals, when it has none.  A vertex has a c-edge exactly
      when l_c > 0, since its c-component then has two ranks; so q's lng
      rows tell which vertices have an edge, and no adjacency of q is built.

    Given those ranks and keys, `ColoredPoset._fill` writes every table
    exactly as the constructor does; since the copies are numbered x by x,
    it numbers each component by its first copy, as the constructor numbers
    it by its smallest member.

    The edges are a Columns whose length is the sum of sizes[x] * sizes[y]
    over q's edges, one block per edge with no pair repeated.  Its columns
    are filled the first time an edge is read, out and inc the first time
    those are, so a caller that needs only n, labels, wgf() or len(edges)
    allocates no edge.  The copies are numbered x by x and q.out[x] is
    sorted by (y, c), so each copy a of x, walked through the blocks of
    q.out[x], gives the next run of sorted triples (a, b, c), and every copy
    of x gives the same run of b and of c: each run is built once per x
    from q.out's ends and copied into the columns, no triple built.
    """
    n = sum(sizes)
    fibre, of = [], []
    for x, k in enumerate(sizes):
        fibre.append(range(len(of), len(of) + k))
        of += [x] * k

    def keys(comp, has_edge):
        return [comp[x] if has_edge[x] else ~a for a, x in enumerate(of)]

    def columns():
        us, vs, cs = _row((), n - 1), _row((), n - 1), _row((), q.n_colors)
        for x in range(q.n):
            ys, ccs = q.out.ends(x)
            run_b = _row(chain.from_iterable(map(fibre.__getitem__, ys)), n - 1)
            run_c = _row(chain.from_iterable(map(repeat, ccs, map(sizes.__getitem__, ys))),
                         q.n_colors)
            for a in fibre[x]:
                us += _row((a,), n - 1) * len(run_b)
                vs += run_b
                cs += run_c
        return us, vs, cs

    # lng[0] is the zero row before color 1, so every vertex has a column
    return ColoredPoset._of(
        q.d, q.n_colors, n, labels,
        Columns(sum(sizes[x] * sizes[y] for x, y, _ in q.edges), fill=columns),
        map(q._global_rank.__getitem__, of),
        keys(q._poset_comp, list(map(any, zip(*q.lng)))),
        [keys(q.comp_id[c], q.lng[c]) for c in range(1, q.n_colors + 1)])


# ---------------------------------------------------------------------------
# splitting verifiers

def verify_splitting(p, targets):
    """Is p an M-structured poset with WGF = sum chi_lambda over targets?

    targets is a list or tuple of dominant weights, each read by freudenthal;
    anything else raises MalformedPoset.
    """
    if not isinstance(targets, (list, tuple)):
        raise MalformedPoset("targets %r are not a list or tuple of weights" % (targets,))
    try:
        if not p.is_m_structured():
            return False, {"reason": "not M-structured"}
    except NotMStructured:
        return False, {"reason": "no diagram"}
    want = wsf.WeylSymFn._of(p.d, {})
    for lam in targets:
        want = want + wsf.freudenthal(p.d, lam)
    got = p.wgf()
    if got == want:
        return True, None
    cert = {}
    for m in set(got.terms) | set(want.terms):
        if got.coeff(m) != want.coeff(m):
            cert[m] = (got.coeff(m), want.coeff(m))
    return False, cert


class ColoringWitness(namedtuple("ColoringWitness", "S kappa tau")):
    """A splitting witness: the vertex set S, the coloring kappa (vertex to
    color) on the rest of the poset and the pairing tau (vertex to vertex)."""
    __slots__ = ()

    def __new__(cls, S, kappa=None, tau=None):
        # an omitted kappa or tau is a fresh {} per witness, never a shared one
        return super().__new__(cls, S, {} if kappa is None else kappa,
                               {} if tau is None else tau)

    def check(self, p):
        """This witness with S as a frozenset, read for the poset p.

        Raises MalformedPoset unless every member of S, key and value of
        kappa and key and value of tau is a plain int (1.0 and True would
        match 1), and every vertex among them (S, kappa's keys, tau's keys
        and values) is an id of p.  A kappa value is a color: an int color
        outside J is a verdict of the verifier that reads it, not an error.
        """
        S, kappa, tau = self
        if not all(type(x) is int
                   for x in (*S, *kappa, *kappa.values(), *tau, *tau.values())):
            raise MalformedPoset("witness S, kappa and tau must hold plain ints")
        for x in (*S, *kappa, *tau, *tau.values()):
            if not 0 <= x < p.n:
                raise MalformedPoset("witness vertex %d is not an id in 0..%d"
                                     % (x, p.n - 1))
        return self._replace(S=frozenset(S))


def verify_tau_kappa(p, nodes, nu, witness):
    """Check the tau/kappa splitting hypotheses, then the conclusion identity.

    nodes is the subset J (1-based), nu a dominant weight of the subdiagram
    (tuple over J in increasing order), both checked by `sub_weight`; the
    witness (S, kappa, tau) is checked first by `ColoringWitness.check`.
    Returns (ok, report).
    """
    witness = witness.check(p)
    sel, nu_of = sub_weight(p.n_colors, nodes, nu)
    d = p.checked_d()
    sub = d.sub_diagram(sel)[0]
    nu = tuple(nu_of.values())
    rest = [x for x in range(p.n) if x not in witness.S]
    if sorted(witness.tau) != sorted(rest) or sorted(witness.tau.values()) != sorted(rest):
        return False, "tau is not a bijection of R minus S"
    for x in rest:
        if witness.kappa.get(x) not in nu_of:
            return False, "kappa(%d) missing or outside J" % x
    for s in witness.S:
        if not sub.is_dominant(wadd(nu, d.project(p.wt[s], sel))):
            return False, "nu + wtJ not dominant at vertex %d" % s
    for x in rest:
        k = witness.kappa[x]
        t = sel.index(k)
        coef = 1 + nu_of[k] + 2 * p.rho[k][x] - p.lng[k][x]
        want = wsub(wadd(nu, d.project(p.wt[x], sel)),
                    tuple(coef * sub.cartan[t][j] for j in range(sub.rank)))
        got = wadd(nu, d.project(p.wt[witness.tau[x]], sel))
        if got != want:
            return False, "tau/kappa identity fails at vertex %d" % x
    wgf_j = p.wgf().restrict(sel)
    if not wgf_j.is_invariant():
        return False, "WGF restricted to J is not W_J-invariant"
    # hypotheses hold; verify the conclusion by direct expansion
    lhs = wsf.freudenthal(sub, nu) * wgf_j
    rhs = wsf.WeylSymFn._of(sub, {})
    for s in witness.S:
        rhs = rhs + wsf.freudenthal(sub, wadd(nu, d.project(p.wt[s], sel)))
    if lhs != rhs:
        return False, "conclusion identity failed (unexpected)"
    return True, None


# ---------------------------------------------------------------------------
# chain products and sub-block verification

def chain_product_factorization(p, color, x):
    """Factor comp_color(x) as a product of chains, or raise NotChainProduct.

    Returns (members, chains, coords) where chains is a tuple of chains of
    join irreducibles (each a tuple of vertices, bottom to top, ordered by
    their bottoms in rho order) and coords maps each member to its
    coordinate vector: coordinate k counts the members of chain k below or
    at it.  The join irreducibles are the members with exactly one lower
    cover; by Birkhoff's theorem a finite distributive lattice is the
    lattice of down-sets of its irreducibles, so it is a product of chains
    exactly when they form pairwise incomparable chains.  The rest of the
    check is direct: the coordinate map must be a bijection onto the full
    box and covers must be unit steps.

    One pass in rho order sets down[v] to v's bit and the down-sets of its
    lower covers, all of which come earlier since a cover raises rho by 1.
    An irreducible v is tested against the irreducibles seen so far: those
    below it must be none (v starts a chain) or exactly the members of one
    chain so far (v tops it).  This holds for every v exactly when the
    irreducibles form pairwise incomparable chains.  If they do, everything
    below v on its own chain has lower rho and was seen, and nothing on
    another chain is below v.  Conversely, every member of v's chain seen so
    far is below v, so each chain is a chain.  If an irreducible u were
    below an irreducible v of another chain, u has lower rho and was seen,
    so v would see u's bit outside its own chain's mask.  And two
    irreducibles cannot top one chain: once the first joins the chain's
    mask, the second matches it only if it lies above the first.

    Every cover u -> v has down[u] inside down[v], so coords[v] - coords[u]
    has no negative entry, and it is a unit step exactly when the
    coordinate sums differ by 1.
    """
    members = p.comp_members(color, x)
    inc = p.inc
    below = {v: inc.ends_of(v, color) for v in members}
    down, masks, chains, irr = {}, [], [], 0
    for i, v in enumerate(sorted(members, key=p.rho[color].__getitem__)):
        down[v] = 1 << i
        for u in below[v]:
            down[v] |= down[u]
        if len(below[v]) == 1:
            seen = down[v] & irr
            if not seen:
                masks.append(0)
                chains.append([])
            elif seen not in masks:
                raise NotChainProduct("join irreducibles are not a union of chains")
            k = masks.index(seen)
            masks[k] |= 1 << i
            chains[k].append(v)
            irr |= 1 << i
    coords = {v: tuple((down[v] & m).bit_count() for m in masks) for v in members}
    box = 1
    for chain in chains:
        box *= len(chain) + 1
    if len(set(coords.values())) != len(members) or box != len(members):
        raise NotChainProduct("component is not a chain product")
    for v in members:
        for u in below[v]:
            if sum(coords[v]) != sum(coords[u]) + 1:
                raise NotChainProduct("covers are not unit coordinate steps")
    return members, tuple(map(tuple, chains)), coords


def verify_subblock_coloring(p, nodes, nu, s_set, kappa):
    """Sub-block coloring criterion: K(x) is a (nu_k+1)-sub-block of comp_k(x).

    nodes is the subset J, nu is indexed like the subdiagram weight (both
    checked by `sub_weight`), s_set the vertex set S, kappa the coloring on
    the complement (both checked first by `ColoringWitness.check`).

    Factor order inside a chain product is not canonical, so the shape is
    read off the maxima of K(x)'s coordinates instead of tried per order.
    For factor lengths l_1, ..., l_m in some order, the b-sub-block fixes
    the factors after some q at 0, caps factor q at l_q - (b - s) with s
    their total length and s < b <= s + l_q, and leaves the factors before
    q free.  So its coordinate maxima are 0 on Z (the factors after q, and q
    itself when its cap is 0), strictly between 0 and the length on at most
    one factor q (the set P), and the full length on the rest, since every
    chain has length >= 1; and b is sum_Z l + (l_q - max_q), or sum_Z l when
    P is empty.  Conversely, when K(x) has such maxima and as many members
    as the box below them, K(x) is that box (distinct members have distinct
    coordinates), which is the b-sub-block for the order free factors, q,
    then Z.  K(x) holds x, so it is never the empty sub-block of b > sum l.
    """
    s_set, kappa, _ = ColoringWitness(s_set, kappa).check(p)
    _, nu_of = sub_weight(p.n_colors, nodes, nu)
    passed = set()      # (k, component): the verdict depends on nothing else
    for x in range(p.n):
        if x in s_set:
            continue
        k = kappa.get(x)
        if k not in nu_of:
            return False, "kappa(%d) missing or outside J" % x
        ckey = (k, p.comp_id[k][x])
        if ckey in passed:
            continue
        members, chains, coords = chain_product_factorization(p, k, x)
        kx = [coords[y] for y in members if y not in s_set and kappa.get(y) == k]
        b = nu_of[k] + 1
        lengths = [len(c) for c in chains]
        tops = [max(col) for col in zip(*kx)]       # kx holds x, so it is not empty
        fixed = sum(ln for ln, t in zip(lengths, tops) if t == 0)
        capped = [ln - t for ln, t in zip(lengths, tops) if 0 < t < ln]
        box = 1
        for t in tops:
            box *= t + 1
        if len(capped) > 1 or fixed + sum(capped) != b or len(kx) != box:
            return False, "K(%d) is not a %d-sub-block of its %d-component" % (x, b, k)
        passed.add(ckey)
    return True, None


# ---------------------------------------------------------------------------
# colored poset isomorphism (refinement + backtracking)

def _refine(p):
    # per vertex, the (other end, color) pairs of its out and in edges
    outs = [list(zip(*p.out.ends(v))) for v in range(p.n)]
    incs = [list(zip(*p.inc.ends(v))) for v in range(p.n)]
    sig = [(p._global_rank[v], tuple(sorted(c for _, c in outs[v])),
            tuple(sorted(c for _, c in incs[v])))
           for v in range(p.n)]
    colors = {s: i for i, s in enumerate(sorted(set(sig)))}
    cur = [colors[s] for s in sig]
    for _ in range(p.n):
        sig = [(cur[v],
                tuple(sorted((c, cur[w]) for w, c in outs[v])),
                tuple(sorted((c, cur[w]) for w, c in incs[v])))
               for v in range(p.n)]
        colors = {s: i for i, s in enumerate(sorted(set(sig)))}
        nxt = [colors[s] for s in sig]
        if nxt == cur:
            break
        cur = nxt
    return cur


def colored_isomorphic(p, q):
    """Edge- and color-preserving digraph isomorphism at desk scale."""
    if p.n != q.n or len(p.edges) != len(q.edges):
        return False
    cp, cq = _refine(p), _refine(q)
    if sorted(cp) != sorted(cq):
        return False
    cand = {v: [w for w in range(q.n) if cq[w] == cp[v]] for v in range(p.n)}
    order = sorted(range(p.n), key=lambda v: len(cand[v]))
    match = {}
    used = set()
    q_edges = set(q.edges)

    def compatible(v, w):
        for x, c in zip(*p.out.ends(v)):
            if x in match and (w, match[x], c) not in q_edges:
                return False
        for x, c in zip(*p.inc.ends(v)):
            if x in match and (match[x], w, c) not in q_edges:
                return False
        return True

    # stack[k] iterates the candidates of order[k] not yet tried; match holds
    # the choices of the levels below the top one
    stack = [iter(cand[order[0]])] if order else []
    while stack:
        v = order[len(stack) - 1]
        if v in match:                  # back at this level: undo its choice
            used.discard(match.pop(v))
        w = next((w for w in stack[-1] if w not in used and compatible(v, w)), None)
        if w is None:
            stack.pop()
            continue
        match[v] = w
        used.add(w)
        if len(stack) == p.n:
            return True
        stack.append(iter(cand[order[len(stack)]]))
    return not order


# ---------------------------------------------------------------------------
# serialization

def export_poset(p, fmt="json"):
    """p as compact JSON text or a Graphviz dot digraph; UnknownFormat otherwise."""
    if fmt == "json":
        import json
        data = {
            "rank_n": p.n_colors,
            "vertices": [{"id": v, "wt": list(p.wt[v])} for v in range(p.n)],
            "edges": [{"from": u, "to": v, "color": c} for u, v, c in p.edges],
        }
        return json.dumps(data, separators=(",", ":"), sort_keys=False)
    if fmt == "dot":
        lines = ["digraph poset {", "  rankdir=BT;"]
        for v in range(p.n):
            lines.append('  v%d [label="%s"];' % (v, ",".join(map(str, p.wt[v]))))
        for u, v, c in p.edges:
            lines.append('  v%d -> v%d [label="%d"];' % (u, v, c))
        lines.append("}")
        return "\n".join(lines)
    raise UnknownFormat("unknown export format %r" % (fmt,))


def import_poset(data, diagram=None):
    """The poset of export_poset's JSON, as text or parsed.

    Its vertices must be the ids 0..n-1, each once, and every id and wt
    entry a plain int; rank_n, the edges and the diagram are read by the
    constructor.  Each stored wt must then have rank_n entries
    (MalformedPoset) and equal the recomputed one (NotMStructured).
    """
    import json
    try:
        if isinstance(data, str):
            data = json.loads(data)
        n_colors = data["rank_n"]
        wts = [(v["id"], tuple(v["wt"])) for v in data["vertices"]]
        edges = [(e["from"], e["to"], e["color"]) for e in data["edges"]]
    except (KeyError, TypeError, json.JSONDecodeError) as e:
        raise MalformedPoset("bad poset JSON (%s: %s)"
                             % (type(e).__name__, e)) from None
    numbers = chain.from_iterable((vid,) + wt for vid, wt in wts)
    if n_colors is None or not set(map(type, numbers)) <= {int}:   # null is not inferred
        raise MalformedPoset("rank_n is null, or an id or a wt entry is not a plain int")
    if sorted(vid for vid, _ in wts) != list(range(len(wts))):
        raise MalformedPoset("vertex ids must be 0..%d, each once" % (len(wts) - 1))
    p = ColoredPoset(len(wts), edges, diagram=diagram, n_colors=n_colors)
    for vid, wt in wts:
        if len(wt) != n_colors:
            raise MalformedPoset("wt of id %d has %d entries, rank_n is %d"
                                 % (vid, len(wt), n_colors))
        if wt != p.wt[vid]:
            raise NotMStructured("stored wt disagrees with recomputed wt at id %d" % vid)
    return p
