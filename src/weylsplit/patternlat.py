"""Splitting distributive lattices of Gelfand-type ideal patterns.

Four families: special linear (Gelfand--Tsetlin), odd orthogonal,
symplectic, and even orthogonal.  A pattern is a triangular integer array
of "drawn rows", longest row first, drawn[r] of length L - r:

* the outer row drawn[0] holds the fixed boundary sums for the special
  linear family, and 0 <= drawn[0][0] <= ... <= drawn[0][L-1] <= m otherwise;
* s_r * drawn[r][k] <= drawn[r+1][k] <= s_r * drawn[r][k+1], with s_0 = 2
  for the symplectic family (its outer row is doubled) and s_r = 1 otherwise;
* the even orthogonal outer row interleaves the two spin rows: odd slots
  belong to one color, even slots to the other.

`_cell_bounds` is the one statement of these inequalities: all the bounds
on one cell given the others.  Edges raise a single entry by one, colored
by its row (`_cell_color`).  Every bound is a monotone function of
neighbouring entries, so the patterns are closed under componentwise min
and max and form a diamond-colored distributive lattice
(tests/test_patternlat.py::test_min_max_closure checks this pair by pair).

The lattice is the closure of the least pattern P under covers.  A raised
entry meets only inequalities that its own bounds hold, so t -> t + e_(r,k)
is a cover exactly when t[r][k] is below its upper bound.  Every pattern t
is reached.  Down the rows t[r+1][k] >= s_r t[r][k] >= s_r P[r][k] =
P[r+1][k], so t >= P; if t != P, take a cell where t > P.  If it cannot be
lowered, a lower bound is tight there.  The constant 0 is not, as t exceeds
P >= 0 there, so it is a neighbour, and that neighbour exceeds P too:
* above: s_(r-1) t[r-1][k] > t[r][k] - 1 >= P[r][k] = s_(r-1) P[r-1][k];
* below: t[r+1][k-1] > s_r (t[r][k] - 1) >= s_r P[r][k] >= P[r+1][k-1]
  (the halved outer bounds of the symplectic family say the same).
So the neighbour is not a fixed entry, and r + 2k falls by one; following
tight lower bounds ends at a cell of t that can be lowered.  The lowered
pattern has a smaller entry sum, so the walk reaches it by induction, and t
is one of its covers.

The closed m-values, the slantwise-least-maximizable vertex coloring and
the A/B/C rank generating function products live here too.
"""

from array import array
from collections import namedtuple
from itertools import repeat

from . import ecposet, numbersgame, qpoly
from .cartan import build_diagram, int_tuple, zero_weight
from .errors import ExactnessError, InvalidFamilyParams


class FamilyShape(namedtuple("FamilyShape", [
        "family",            # "gt" | "oo" | "sp" | "eo"
        "n",                 # diagram rank (gt: rank n-1 on size-n patterns)
        "bound",             # m, or the largest fixed boundary entry for gt
        "outer_fixed",       # fixed outer row for gt, else None
        "outer_len", "n_drawn_rows",
        "double_outer",      # symplectic comparison scale
        "lam",               # the split dominant weight
        "diagram",
        "spin_node"],        # eo: the color owning the odd outer slots
        defaults=(0,))):
    """Static description of one lattice family instance."""
    __slots__ = ()


def _shape(family, n, m=None, lam=None, node=None):
    if not {type(x) for x in (n, m, node) if x is not None} <= {int}:
        raise InvalidFamilyParams("n, m and node must be plain ints")
    if family == "gt":
        lam = int_tuple(lam, InvalidFamilyParams, "the gt weight")
        if n < 2 or len(lam) != n - 1 or any(a < 0 for a in lam):
            raise InvalidFamilyParams("gt needs size n >= 2 and a dominant weight")
        d = build_diagram([("A", n - 1)])
        fixed = tuple(sum(lam[k - 1] for k in range(n + 1 - j, n)) for j in range(1, n + 1))
        return FamilyShape("gt", n - 1, fixed[-1], fixed, n, n, False, lam, d)
    if m is None or m < 0:
        raise InvalidFamilyParams("bound m must be a nonnegative integer")
    if family == "oo":
        if n < 3:
            raise InvalidFamilyParams("odd orthogonal needs n >= 3")
        d = build_diagram([("B", n)])
        lam = tuple(m if i == n else 0 for i in range(1, n + 1))
        return FamilyShape("oo", n, m, None, n, n, False, lam, d)
    if family == "sp":
        if n < 2:
            raise InvalidFamilyParams("symplectic needs n >= 2")
        d = build_diagram([("C", n)])
        lam = tuple(m if i == n else 0 for i in range(1, n + 1))
        return FamilyShape("sp", n, m, None, n, n, True, lam, d)
    if family == "eo":
        if n < 4:
            raise InvalidFamilyParams("even orthogonal needs n >= 4")
        if node not in (n - 1, n):
            raise InvalidFamilyParams("node must be n-1 or n")
        d = build_diagram([("D", n)])
        lam = tuple(m if i == node else 0 for i in range(1, n + 1))
        return FamilyShape("eo", n, m, None, n - 1, n - 1, False, lam, d,
                           spin_node=node)
    raise InvalidFamilyParams("unknown family %r" % family)


def _cell_color(shape, r, k):
    """Color (real row index) of drawn cell (r, k)."""
    if r == 0:
        if shape.family == "gt":
            return None                     # fixed boundary row
        if shape.family == "eo":
            other = (2 * shape.n - 1) - shape.spin_node
            return shape.spin_node if k % 2 == 0 else other
        return shape.n                      # oo / sp: the outer row is row n
    return shape.n_drawn_rows - r


def _cells(shape):
    """The variable drawn cells (r, k, color), row by row."""
    return [(r, k, c) for r in range(shape.n_drawn_rows)
            for k in range(shape.outer_len - r)
            for c in (_cell_color(shape, r, k),) if c is not None]


def _cell_bounds(shape, drawn, r, k):
    """Integer bounds of drawn cell (r, k) given the rest of the pattern.

    Every inequality of the module docstring that names the cell is here.
    Boundary positions absent from the array impose the constants 0 below
    and the bound m above; the symplectic outer row stores raw entries with
    the doubling applied only inside comparisons, so its own bounds use
    exact halves.
    """
    if r == 0:
        below = drawn[1] if shape.n_drawn_rows > 1 else ()
        lo = below[k - 1] if k >= 1 else 0
        hi = below[k] if k < len(below) else (
            2 * shape.bound if shape.double_outer else shape.bound)
        if shape.double_outer:
            return -(-lo // 2), hi // 2
        return lo, hi
    above = drawn[r - 1]
    s = 2 if (shape.double_outer and r == 1) else 1
    lo, hi = s * above[k], s * above[k + 1]
    if r + 1 < shape.n_drawn_rows:
        below = drawn[r + 1]
        if k >= 1:
            lo = max(lo, below[k - 1])
        if k < len(below):
            hi = min(hi, below[k])
    return lo, hi


def _extreme_pattern(shape, top):
    """The least (top = 0) or greatest (top = 1) pattern.

    The outer row is fixed, all 0 or all m; below it each entry takes the
    bound set by the entry above at k + top.  The rows stay weakly
    increasing, so this is a pattern, and it bounds every pattern.
    """
    rows = [shape.outer_fixed or (top * shape.bound,) * shape.outer_len]
    for r in range(1, shape.n_drawn_rows):
        s = 2 if (shape.double_outer and r == 1) else 1
        above = rows[-1]
        rows.append(tuple(s * above[k + top] for k in range(len(above) - 1)))
    return tuple(rows)


def _slantwise_positions(shape):
    """Variable drawn cells, SE to NW along diagonals, bottom of the array first."""
    return sorted(((r, k) for r, k, _ in _cells(shape)),
                  key=lambda rk: (-rk[0] - rk[1], -rk[1]))


class PatternLattice:
    """One ideal-pattern lattice with its colored poset and indexing.

    The walk of the module docstring is breadth-first from the least
    pattern P, recording each cover (pattern id, color) in int arrays, and
    the poset is built from them through the trusted `ColoredPoset._of`,
    with no triple list.  What it hands `_fill` is what the constructor
    finds on the same edges:

    - The edges, in the ids of the sorted patterns, sorted: each pattern's
      covers are one run, in ascending order.  Patterns compare row by
      row, so a bump in a higher row (smaller r), or further right in the
      same row, gives the larger pattern: bumped in the reverse of the
      cell order, the covers of t come out ascending.  No pair repeats,
      since the covers of t are distinct bumps of t.
    - Ranks: a cover raises the entry sum by one, so rank(t) is the entry
      sum of t minus that of P.  Breadth-first discovery gives a pattern
      the rank of its finder plus one, which is that, and so visits the
      patterns by rank: every pattern is visited after all of its lower
      covers were, and with them every cover into it was recorded.
    - Components: the walk reaches every pattern from P, so there is one.
    - Color-c components: a c-edge moves one cell of color c, and each
      color lies in one drawn row, or among the outer row's slots for the
      even orthogonal family, whose bounds read only other rows.  So with
      the cells of other colors fixed, each c-cell ranges over an interval
      of its own, the patterns that agree off the c-cells form a box, and
      unit steps inside it are its c-edges: the c-component of t is that
      box.  Its key is the walk id of its least member b.  b has no lower
      c-cover, and keeps its own id; any other member has a lower c-cover
      in the box, visited before it, so the key passed down each c-cover
      is b's, by induction on rank.
    """

    def __init__(self, shape):
        self.shape = shape
        self.diagram = d = shape.diagram
        self.lam = shape.lam
        self.patterns, self.index, edges, rank, keys = _walk(shape)
        self.poset = ecposet.ColoredPoset._of(d, d.rank, len(rank), self.patterns, edges,
                                              rank, bytes(len(rank)), keys)
        self.poset._is_lattice = True       # closed under componentwise min and max
        self.max_pattern = _extreme_pattern(shape, 1)
        if self.max_pattern not in self.index:
            raise ExactnessError("max pattern %s not enumerated" % (self.max_pattern,))

    # -- closed m-values ---------------------------------------------------

    def pattern_m_values(self, t):
        """m_i(t) from the per-cell bound formulas; equals the poset caches."""
        if isinstance(t, int):
            t = self.patterns[t]
        out = [0] * self.diagram.rank
        for r, k, color in _cells(self.shape):
            lo, hi = _cell_bounds(self.shape, t, r, k)
            out[color - 1] += 2 * t[r][k] - lo - hi
        return tuple(out)

    # -- slantwise coloring ---------------------------------------------------

    def slantwise_coloring(self):
        """kappa(t) = row of the slantwise-least maximizable position of t."""
        mx = self.max_pattern
        order = _slantwise_positions(self.shape)
        out = {}
        for vid, t in enumerate(self.patterns):
            if t == mx:
                continue
            for r, k in order:
                target = mx[r][k]
                if t[r][k] >= target:
                    continue
                lo, hi = _cell_bounds(self.shape, t, r, k)
                if lo <= target <= hi:
                    out[vid] = _cell_color(self.shape, r, k)
                    break
            else:
                raise ExactnessError("pattern %s has nothing to maximize" % (t,))
        return out

    def rgf(self):
        ranks = self.poset._global_rank
        coeffs = [0] * (max(ranks) + 1)
        for r in ranks:
            coeffs[r] += 1
        return tuple(coeffs)


def _bump(t, r, k):
    row = list(t[r])
    row[k] += 1
    return t[:r] + (tuple(row),) + t[r + 1:]


def _walk(shape):
    """(patterns, index, edges, rank, keys) of the lattice, as PatternLattice
    reads them: the sorted patterns, the id of each, the sorted edge
    Columns, and the ranks and color-c component keys in pattern id order,
    as int arrays.  The walk's own tables are gone when it returns."""
    cells = _cells(shape)[::-1]         # so each pattern's covers ascend
    found = [_extreme_pattern(shape, 0)]
    ids = {found[0]: 0}
    rank, keys = [0], [[0] for _ in range(shape.diagram.rank)]     # keys by color - 1
    cover_at, cover_id, cover_c = array("I", [0]), array("I"), array("B")
    for i, t in enumerate(found):       # found grows as the walk reaches more
        for r, k, c in cells:
            if t[r][k] < _cell_bounds(shape, t, r, k)[1]:
                u = _bump(t, r, k)
                j = ids.get(u)
                if j is None:
                    j = ids[u] = len(found)
                    found.append(u)
                    rank.append(rank[i] + 1)
                    for key in keys:
                        key.append(j)
                key = keys[c - 1]
                key[j] = key[i]
                cover_id.append(j)
                cover_c.append(c)
        cover_at.append(len(cover_id))
    n = len(found)
    order = sorted(range(n), key=found.__getitem__)
    patterns = tuple(map(found.__getitem__, order))
    where = array("I", [0]) * n
    for x, i in enumerate(order):
        where[i] = x
        ids[found[i]] = x               # ids becomes the index of the sorted patterns
    us, vs, cs = array("I"), array("I"), array("B")
    for x, i in enumerate(order):
        a, b = cover_at[i], cover_at[i + 1]
        us.extend(repeat(x, b - a))
        vs.extend(map(where.__getitem__, cover_id[a:b]))
        cs.extend(cover_c[a:b])
    return (patterns, ids,
            ecposet.Columns.of_columns((us, vs, cs), (n - 1, n - 1, shape.diagram.rank)),
            array("I", map(rank.__getitem__, order)),
            [array("I", map(key.__getitem__, order)) for key in keys])


# ---------------------------------------------------------------------------
# constructors

def gt_lattice(n, lam):
    """Special linear ideal patterns of size n-1 bounded by lam."""
    return PatternLattice(_shape("gt", n, lam=lam))


def odd_orth_lattice(n, m):
    return PatternLattice(_shape("oo", n, m=m))


def symplectic_lattice(n, m):
    return PatternLattice(_shape("sp", n, m=m))


def even_orth_lattice(n, m, node):
    return PatternLattice(_shape("eo", n, m=m, node=node))


# ---------------------------------------------------------------------------
# closed-form rank generating functions (A/B/C products)

def _lam_sum(lam, i, j):
    return sum(lam[k - 1] for k in range(i, j + 1))


def rgf_closed_form(family, n, lam=None, m=None):
    """Explicit q-integer product for the A, B, C families.

    Returns the coefficient tuple of the polynomial.  The A form takes the
    diagram rank n and any dominant lam; B and C take the pattern size n
    and the multiple m of the end-node weight.  n, m and lam are read
    through `int_tuple`; n must be at least 1 and no entry negative.
    """
    if family not in ("A", "B", "C"):
        raise InvalidFamilyParams("closed product only for families A, B, C")
    if family == "A":
        n = int_tuple((n,), InvalidFamilyParams, "n")[0]
        lam = int_tuple(lam, InvalidFamilyParams, "the A weight")
        if len(lam) != n:
            raise InvalidFamilyParams("A form needs a weight of length n = %d" % n)
    else:
        n, m = int_tuple((n, m), InvalidFamilyParams, "(n, m)")
        lam = tuple(m if k == n else 0 for k in range(1, n + 1))
    if n < 1 or any(a < 0 for a in lam):
        raise InvalidFamilyParams("closed product needs n >= 1 and a dominant weight")
    nums, dens = [], []
    if family == "A":
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                nums.append(_lam_sum(lam, i, j) + j + 1 - i)
                dens.append(j + 1 - i)
    else:
        for i in range(1, n):
            for j in range(i, n):
                nums.append(_lam_sum(lam, i, j) + j + 1 - i)
                dens.append(j + 1 - i)
        if family == "B":
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    nums.append(_lam_sum(lam, i, n) + _lam_sum(lam, j, n - 1)
                                + 2 * n + 1 - i - j)
                    dens.append(2 * n + 1 - i - j)
        else:
            for i in range(1, n + 1):
                for j in range(i + 1, n + 2):
                    nums.append(_lam_sum(lam, i, n) + _lam_sum(lam, j, n)
                                + 2 * n + 2 - i - j)
                    dens.append(2 * n + 2 - i - j)
    # equal lengths, so prod [a]_q / prod [b]_q = prod(1-q^a) / prod(1-q^b)
    return tuple(qpoly.quotient_rgf(nums, dens))


def rgf_quotient(d, lam):
    """The general quotient-of-products form with numbers-game exponents.

    d is read by `cartan.check_diagram`, in rgf_exponents, before anything
    else reads it.
    """
    nums = numbersgame.rgf_exponents(d, lam)
    dens = numbersgame.rgf_exponents(d, zero_weight(d.rank))
    return tuple(qpoly.quotient_rgf(nums, dens))
