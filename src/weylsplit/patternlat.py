"""Splitting distributive lattices of Gelfand-type ideal patterns.

Four families: special linear (Gelfand--Tsetlin), odd orthogonal,
symplectic, and even orthogonal.  A pattern is a triangular integer array
read here in "drawn rows", longest row first:

* drawn[0] is the outer row (fixed boundary sums for the special linear
  family; a weakly increasing row bounded by m otherwise);
* drawn[r+1][k] always sits between drawn[r][k] and drawn[r][k+1], with
  the outer-row values doubled in the symplectic comparison;
* for the even orthogonal family the outer row interleaves the two spin
  rows: odd slots belong to one color, even slots to the other.

Edges increment a single entry, colored by the row of that entry; the
componentwise order makes each family a diamond-colored distributive
lattice.  Distributivity holds by construction: every bound is a monotone
function of neighbouring entries, so the patterns are closed under
componentwise min and max (checked pair by pair on the acceptance and
pattern-lattice test lattices by tests/test_patternlat.py::
test_min_max_closure).  The closed m-value formulas and the
slantwise-least-maximizable vertex coloring live here too, along with the
explicit rank generating function products for the A/B/C families.
"""

from collections import namedtuple

from . import ecposet, numbersgame, qpoly
from .cartan import build_diagram
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
    if family == "gt":
        if n < 2 or len(lam) != n - 1 or any(a < 0 for a in lam):
            raise InvalidFamilyParams("gt needs size n >= 2 and a dominant weight")
        d = build_diagram([("A", n - 1)]) if n >= 2 else None
        fixed = tuple(sum(lam[k - 1] for k in range(n + 1 - j, n)) for j in range(1, n + 1))
        return FamilyShape("gt", n - 1, fixed[-1], fixed, n, n, False,
                           tuple(lam), d)
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


def _cell_bounds(shape, drawn, r, k):
    """Integer bounds of drawn cell (r, k) given the rest of the pattern.

    Boundary positions absent from the array impose the constants 0 below
    and the bound m above; the symplectic outer row stores raw entries with
    the doubling applied only inside comparisons, so its own bounds use
    exact halves.
    """
    rows = drawn
    if r == 0:
        below = rows[1] if shape.n_drawn_rows > 1 else ()
        lo = below[k - 1] if k >= 1 else 0
        hi = below[k] if k < len(below) else (
            2 * shape.bound if shape.double_outer else shape.bound)
        if shape.double_outer:
            return -(-lo // 2), hi // 2
        return lo, hi
    above = rows[r - 1]
    s = 2 if (shape.double_outer and r == 1) else 1
    lo, hi = s * above[k], s * above[k + 1]
    if r + 1 < shape.n_drawn_rows:
        below = rows[r + 1]
        if k >= 1:
            lo = max(lo, below[k - 1])
        if k < len(below):
            hi = min(hi, below[k])
    return lo, hi


def _enumerate(shape):
    """All patterns, by row-wise backtracking with already-placed bounds."""
    out = []

    def place_outer():
        if shape.outer_fixed is not None:
            yield shape.outer_fixed
            return
        row = [0] * shape.outer_len

        def grow(k, low):
            if k == shape.outer_len:
                yield tuple(row)
                return
            for v in range(low, shape.bound + 1):
                row[k] = v
                yield from grow(k + 1, v)

        yield from grow(0, 0)

    def fill(rows, r):
        if r == shape.n_drawn_rows:
            out.append(tuple(rows))
            return
        length = shape.outer_len - r
        row = [0] * length
        s = 2 if (shape.double_outer and r == 1) else 1
        above = rows[-1]

        def cell(k):
            if k == length:
                fill(rows + [tuple(row)], r + 1)
                return
            for v in range(s * above[k], s * above[k + 1] + 1):
                row[k] = v
                cell(k + 1)

        cell(0)

    for outer in place_outer():
        fill([outer], 1)
    return out


def _max_pattern(shape):
    """The componentwise maximum: fill each drawn row maximally, downward."""
    if shape.outer_fixed is not None:
        rows = [shape.outer_fixed]
    else:
        rows = [(shape.bound,) * shape.outer_len]
    for r in range(1, shape.n_drawn_rows):
        s = 2 if (shape.double_outer and r == 1) else 1
        above = rows[-1]
        rows.append(tuple(s * above[k + 1] for k in range(len(above) - 1)))
    return tuple(rows)


def _slantwise_positions(shape):
    """Variable drawn cells, SE to NW along diagonals, bottom of the array first."""
    cells = []
    top = shape.n_drawn_rows
    for r in range(shape.n_drawn_rows):
        if shape.family == "gt" and r == 0:
            continue
        for k in range(shape.outer_len - r):
            i, j = top - r, k + 1
            cells.append((i - j, -j, r, k))
    cells.sort()
    return [(r, k) for _, _, r, k in cells]


class PatternLattice:
    """One ideal-pattern lattice with its colored poset and indexing."""

    def __init__(self, shape):
        self.shape = shape
        self.diagram = shape.diagram
        self.lam = shape.lam
        patterns = sorted(_enumerate(shape))
        index = {t: i for i, t in enumerate(patterns)}
        edges = []
        for t in patterns:
            for r in range(shape.n_drawn_rows):
                for k in range(shape.outer_len - r):
                    color = _cell_color(shape, r, k)
                    if color is None:
                        continue
                    bumped = _bump(t, r, k)
                    j = index.get(bumped)
                    if j is not None:
                        edges.append((index[t], j, color))
        # monotone interlacing bounds: closed under componentwise min and max
        self.poset = ecposet.ColoredPoset(
            len(patterns), edges, diagram=shape.diagram, labels=patterns,
            is_lattice_hint=True)
        self.patterns = tuple(patterns)
        self.index = index
        self.max_pattern = _max_pattern(shape)
        if self.max_pattern not in index:
            raise ExactnessError("max pattern %s not enumerated" % (self.max_pattern,))

    # -- closed m-values ---------------------------------------------------

    def pattern_m_values(self, t):
        """m_i(t) from the per-cell bound formulas; equals the poset caches."""
        if isinstance(t, int):
            t = self.patterns[t]
        n = self.diagram.rank
        out = [0] * n
        for r in range(self.shape.n_drawn_rows):
            for k in range(self.shape.outer_len - r):
                color = _cell_color(self.shape, r, k)
                if color is None:
                    continue
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
        length = max(self.poset.global_rank(v) for v in range(self.poset.n))
        coeffs = [0] * (length + 1)
        for v in range(self.poset.n):
            coeffs[self.poset.global_rank(v)] += 1
        return tuple(coeffs)


def _bump(t, r, k):
    row = list(t[r])
    row[k] += 1
    return t[:r] + (tuple(row),) + t[r + 1:]


# ---------------------------------------------------------------------------
# constructors

def gt_lattice(n, lam):
    """Special linear ideal patterns of size n-1 bounded by lam."""
    return PatternLattice(_shape("gt", n, lam=tuple(lam)))


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
    and the multiple m of the end-node weight.
    """
    nums, dens = [], []
    if family == "A":
        lam = tuple(lam)
        if len(lam) != n:
            raise InvalidFamilyParams("A form needs a weight of length n = %d" % n)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                nums.append(_lam_sum(lam, i, j) + j + 1 - i)
                dens.append(j + 1 - i)
    elif family in ("B", "C"):
        lam = tuple(m if k == n else 0 for k in range(1, n + 1))
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
    else:
        raise InvalidFamilyParams("closed product only for families A, B, C")
    # equal lengths, so prod [a]_q / prod [b]_q = prod(1-q^a) / prod(1-q^b)
    return tuple(qpoly.quotient_rgf(nums, dens))


def rgf_quotient(d, lam):
    """The general quotient-of-products form with numbers-game exponents."""
    nums = numbersgame.rgf_exponents(d, lam)
    dens = numbersgame.rgf_exponents(d, tuple(0 for _ in lam))
    return tuple(qpoly.quotient_rgf(nums, dens))
