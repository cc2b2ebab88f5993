"""The numbers game on Dynkin diagrams.

Firing, game sequences, convergence, the one reduced word for the longest
Weyl group element and the positive roots read off it, rank generating
function exponents, and the Weyl group order.  Positions are ints or
Fractions, and a node fires only while its number is positive.  The game
runs on cartan's GCM graphs and states none of their rules again: firing
node i is the graph's simple_reflection s_i, a strategy's nodes are read by
its check_node, and a bare matrix is played as a cartan.RawGCMGraph (also
importable from here).
"""

from collections import namedtuple

from .cartan import DEFAULT_FIRING_CAP, RawGCMGraph, check_diagram, int_tuple
from .errors import DiagramMismatch, ExactnessError, IllegalFire, NotAWeight


class GameRecord(namedtuple("GameRecord", [
        "initial", "fired",
        "trace",               # positions, length == len(fired) + 1
        "terminal",            # final position (last trace entry)
        "diverged", "cap"], defaults=(False, 0))):
    __slots__ = ()

    def fired_numbers(self):
        """Number at each fired node at the moment it was fired."""
        return tuple(self.trace[j][self.fired[j] - 1] for j in range(len(self.fired)))

    def to_json_dict(self):
        def plain(pos):
            return [x if isinstance(x, int) else str(x) for x in pos]
        out = {
            "initial": plain(self.initial),
            "fired": list(self.fired),
            "trace": [plain(p) for p in self.trace],
            "terminal": plain(self.terminal),
        }
        if self.diverged:
            out["diverged"] = self.cap
        return out


def fire(d, position, i):
    """Fire node i: lambda_j -> lambda_j - M_ij * lambda_i.

    Firing is the simple reflection s_i: fire reads node i through
    d.check_node (NotGCM unless it is a plain int in 1..rank), raises
    IllegalFire unless its number is positive, then returns
    d.simple_reflection(i, position).  The position is read unchecked.  The
    game's own walks (play, and through it longest_word and constants(), and
    rgf_exponents) fire nodes they chose themselves, so they call
    d.simple_reflection unchecked.  d is read by `cartan.check_diagram`, as
    any RawGCMGraph.
    """
    i = check_diagram(d, RawGCMGraph).check_node(i)
    v = position[i - 1]
    if v <= 0:
        raise IllegalFire("node %d has nonpositive number %s" % (i, v))
    return d.simple_reflection(i, position)


def _positive_nodes(d, position):
    return [i for i in range(1, d.rank + 1) if position[i - 1] > 0]


def play(d, position, strategy="first", cap=DEFAULT_FIRING_CAP):
    """Play the numbers game.

    strategy: "first" (lowest positive node), a sequence of nodes, or "all"
    (exhaustive enumeration of every maximal legal play; returns a list of
    GameRecords in deterministic order).  The three are one depth-first
    walk: the strategy only picks the nodes tried from each position.  A
    position with no node to try ends a terminal record; that is checked
    before the cap, so a game that ends at exactly cap firings is terminal.
    The cap applies to "first" and "all", never to a sequence, and
    divergence is reported via the record's diverged flag, never as an
    error.  Any other strategy is an explicit sequence.  Before anything is
    fired it raises IllegalFire unless it is a sequence of plain ints, and
    NotGCM for a node outside 1..rank (d.check_node, the node rule); it
    raises IllegalFire for a node whose number is nonpositive when its turn
    comes.  A cap that is not a plain int >= 1 raises IllegalFire.  The
    position is read through int_tuple: NotAWeight unless it is a sequence
    of plain ints and Fractions (1.5 and True are rejected, not played), and
    DiagramMismatch unless it has rank entries.  A node "first" or "all"
    picks has a positive number, so it fires as d.simple_reflection,
    unchecked; a node of a sequence fires through fire.  d is read by
    `cartan.check_diagram`, as any RawGCMGraph.
    """
    check_diagram(d, RawGCMGraph)
    if type(cap) is not int or cap < 1:
        raise IllegalFire("firing cap %r is below 1 or not a plain int" % (cap,))
    position = int_tuple(position, NotAWeight, "a position", fractions=True)
    if len(position) != d.rank:
        raise DiagramMismatch("position %s does not have %d entries" % (position, d.rank))
    seq = None
    if strategy not in ("first", "all"):
        seq = tuple(d.check_node(i) for i in int_tuple(
            strategy, IllegalFire, 'a strategy other than "first" or "all"'))
        cap = len(seq)      # the sequence runs out before this cap is reached
    # depth-first over shared fired/trace lists; todo[k] holds the nodes
    # still to fire from trace[k], lowest last so pop() takes it first
    records, fired, trace, todo = [], [], [position], []
    while True:
        pos, k = trace[-1], len(fired)
        if seq is None:
            nodes = _positive_nodes(d, pos)[:1 if strategy == "first" else None]
        else:
            nodes = list(seq[k:k + 1])
        if not nodes:
            records.append(GameRecord(position, tuple(fired), tuple(trace), pos))
        elif k >= cap:
            records.append(GameRecord(position, tuple(fired), tuple(trace), pos, True, cap))
            nodes = []
        if not nodes and strategy != "all":
            return records[0]       # one record: no stack to unwind
        todo.append(nodes[::-1])
        while not todo[-1]:
            todo.pop()
            if not todo:
                return records
            fired.pop()
            trace.pop()
        i = todo[-1].pop()
        fired.append(i)
        trace.append(d.simple_reflection(i, trace[-1]) if seq is None
                     else fire(d, trace[-1], i))


def _primes(n):
    out, p = [], 2
    while len(out) < n:
        if all(p % q for q in out):
            out.append(p)
        p += 1
    return out


LongestWord = namedtuple("LongestWord", [
    "word",
    "sigma0",              # 1-based node permutation
    "length",
])


def longest_word(d):
    """Reduced word for w_0 from the distinct-prime strongly dominant game.

    The terminal position satisfies w_0(sum m_i omega_i) = -sum m_i
    omega_{sigma0(i)}, so distinct primes let sigma_0 be read off
    unambiguously.
    """
    start = tuple(_primes(d.rank))
    rec = play(d, start)
    if rec.diverged:        # finite type: the game ends after |Phi+| firings
        raise ExactnessError("the longest-word game diverged on %s" % (d.cartan,))
    sigma = {}
    for j in range(1, d.rank + 1):
        val = -rec.terminal[j - 1]
        i = start.index(val) + 1
        sigma[i] = j
    return LongestWord(rec.fired, sigma, len(rec.fired))


PositiveRoot = namedtuple("PositiveRoot", [
    "root",                # omega coordinates
    "alpha_coords",        # integer coefficients on the simple roots
    "length_class",        # "short" or "long"
])


def enumerate_positive_roots(d, word):
    """The positive roots in the order of word, longest_word(d).word.

    The j-th letter i_j gives beta_j = s_{i_1} ... s_{i_(j-1)}(alpha_{i_j}),
    which has the length class of alpha_{i_j}.  vecs[a] holds w(alpha_a) in
    root coordinates followed by omega coordinates, for the prefix w read
    so far; w <- w s_i takes it to vecs[a] - M_ai * vecs[i], since
    s_i(alpha_a) = alpha_a - M_ai alpha_i.

    Proof that these are the roots: firing i is s_i, so after u = s_{i_k}
    ... s_{i_1} node i holds <lambda, u^-1(alpha_i)^vee>, positive from a
    strongly dominant lambda exactly when l(s_i u) > l(u) (Bjorner-Brenti,
    Combinatorics of Coxeter Groups, GTM 231).  So each firing lengthens u,
    the game stops at w_0 with a reduced word, and its inversion sequence
    lists each positive root once.  The positive nodes depend only on the
    Coxeter matrix, so M and M^T fire the same word.
    """
    n = d.rank
    # the nonzero (a, M_ai) of each column i
    cols = tuple(tuple((a, m) for a, m in enumerate(col) if m) for col in zip(*d.cartan))
    vecs = [[int(a == b) for b in range(n)] + list(row) for a, row in enumerate(d.cartan)]
    classes = ["short" if x == 2 else "long" for x in d.root_lengths]
    roots = []
    for i in word:
        v = vecs[i - 1]
        roots.append(PositiveRoot(tuple(v[n:]), tuple(v[:n]), classes[i - 1]))
        for a, m in cols[i - 1]:
            vecs[a] = [x - m * y for x, y in zip(vecs[a], v)]
    if len({r.alpha_coords for r in roots}) != len(roots):
        raise ExactnessError("the longest word gave a repeated root")
    return roots


def rgf_exponents(d, lam):
    """Fired-node numbers of the w_0 word played from (lambda_i + 1).

    These are the exponents <lambda + rho, beta_j_vee> appearing in rank
    generating function and dimension formulas.  Each is positive, since
    the word is reduced and lambda + rho strongly dominant (see
    enumerate_positive_roots), so the word fires as d.simple_reflection,
    unchecked.  d is read by `cartan.check_diagram`.
    """
    lam = check_diagram(d).check_dominant(lam)
    word = d.constants().longest_word
    pos = tuple(c + 1 for c in lam)
    out = []
    for i in word:
        out.append(pos[i - 1])
        pos = d.simple_reflection(i, pos)
    return out


class DiagramConstants:
    """Exact derived constants for a diagram; built once, then cached.

    For reducible diagrams highest_root and highest_short_root are None.
    """

    def __init__(self, d):
        lw = longest_word(d)
        self.positive_roots = tuple(enumerate_positive_roots(d, lw.word))
        self.longest_word = lw.word
        self.sigma0 = lw.sigma0

        # Kostant, "The principal three-dimensional subgroup and the Betti
        # numbers of a complex simple Lie group" (1959): the numbers of
        # positive roots of height 1, 2, ... form the partition dual to the
        # exponents m_i, and |W| = prod (m_i + 1).  Both sides multiply over
        # components, so reducible diagrams need no special case.
        heights = [sum(r.alpha_coords) for r in self.positive_roots]
        at_height = [heights.count(k) for k in range(max(heights) + 2)]
        self.weyl_order = 1
        for k in range(1, len(at_height) - 1):
            self.weyl_order *= (k + 1) ** (at_height[k] - at_height[k + 1])

        self.highest_root = self.highest_short_root = None
        if len(d.components) == 1:
            # in a simply-laced diagram every root is "short"
            shorts = [r for r in self.positive_roots if r.length_class == "short"]
            self.highest_root = self.positive_roots[heights.index(max(heights))].root
            self.highest_short_root = max(shorts, key=lambda r: sum(r.alpha_coords)).root
