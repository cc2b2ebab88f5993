"""Correctness checks on query answers, run after the timed loop.

Each check takes the diagrams of the run, the query and the answer the
worker kept for it, and returns a list of failure messages (empty when the
answer is right).  The Weyl dimension formula is computed here from
positive_roots() with Fraction, independently of the package's own
dimension routes.
"""

from fractions import Fraction

from weylsplit import patternlat, wsf


def weyl_dimension(d, lam):
    """prod over positive roots a of <lam + rho, a_vee> / <rho, a_vee>."""
    lengths = d.root_lengths
    num = den = Fraction(1)
    for r in d.positive_roots():
        c = r.alpha_coords
        norm = sum(c[i] * c[j] * d.cartan[i][j] * lengths[j] / 2
                   for i in range(d.rank) for j in range(d.rank) if c[i] and c[j])
        pair_lam = sum(c[j] * lam[j] * lengths[j] for j in range(d.rank)) / norm
        pair_rho = sum(c[j] * lengths[j] for j in range(d.rank)) / norm
        num *= pair_lam + pair_rho
        den *= pair_rho
    dim = num / den
    if dim.denominator != 1:
        raise ArithmeticError("non-integral Weyl dimension %s" % dim)
    return int(dim)


def _expect(fails, ok, what):
    if not ok:
        fails.append(what)


def _sum_dims(d, terms):
    return sum(c * weyl_dimension(d, m) for m, c in terms.items())


# -- characters --------------------------------------------------------------

def check_freudenthal(d, q, a):
    fails = []
    _expect(fails, a["dim"] == weyl_dimension(d, q["weight"]),
            "sum of multiplicities %d != Weyl dimension" % a["dim"])
    return fails


def check_kostant(d, q, a):
    fails = []
    _expect(fails, a["mults"] == wsf.dominant_multiplicities(d, q["weight"]),
            "Kostant multiplicities differ from Freudenthal")
    return fails


def check_specialize(d, q, a):
    fails = []
    dim = weyl_dimension(d, q["weight"])
    _expect(fails, a["dim"] == dim, "specialized dimension %d != %d" % (a["dim"], dim))
    _expect(fails, sum(a["poly"]) == dim, "Dynkin polynomial does not sum to dim")
    _expect(fails, a["poly"] == a["poly"][::-1], "Dynkin polynomial not palindromic")
    return fails


def check_expand(d, q, a):
    fails = []
    f = wsf.freudenthal(d, q["weight"]) * wsf.freudenthal(d, q["other"])
    _expect(fails, wsf.reconstruct(d, a["expansion"]) == f,
            "reconstruct(expand(f)) != f")
    return fails


# -- posets ------------------------------------------------------------------

def check_crystal(d, q, a):
    fails = []
    lam, nu, nodes = q["weight"], q["other"], q["nodes"]
    dim = weyl_dimension(d, lam)
    _expect(fails, a["n"] == dim, "R(lambda) has %d vertices, dim %d" % (a["n"], dim))
    _expect(fails, a["wgf"] == wsf.freudenthal(d, lam).terms,
            "R(lambda).wgf() != freudenthal")
    _expect(fails, _sum_dims(d, a["decompose"]) == weyl_dimension(d, nu) * dim,
            "decompose dimensions do not multiply")
    sub, _ = d.sub_diagram(nodes)
    _expect(fails, _sum_dims(sub, a["branch"]) == dim,
            "branch dimensions do not add up")
    return fails


def check_umax(d, q, a):
    fails = []
    lam = q["weight"]
    mult = wsf.freudenthal(d, lam)
    _expect(fails, a["n"] == weyl_dimension(d, lam), "U(lambda) size != dim")
    _expect(fails, a["wgf"] == mult.terms, "U(lambda).wgf() != freudenthal")
    want = sum(mult.coeff(mu) * mult.coeff(nu)
               for mu, _, nu in wsf.weight_diagram(d, lam).edges)
    _expect(fails, a["edges"] == want, "U(lambda) has %d edges, want %d"
            % (a["edges"], want))
    return fails


def check_lattice(d, q, a):
    fails = []
    _expect(fails, a["splitting"], "verify_splitting failed")
    _expect(fails, a["subblock"], "verify_subblock_coloring failed")
    _expect(fails, a["n"] == weyl_dimension(a["diagram"], a["lam"]),
            "lattice size != dim")
    fam, n, m = q["family"], q["n"], q.get("m")
    if fam == "gt":
        want = patternlat.rgf_closed_form("A", n - 1, lam=q["weight"])
    elif fam == "sp":
        want = patternlat.rgf_closed_form("C", n, m=m)
    elif fam == "oo":
        want = patternlat.rgf_closed_form("B", n, m=m)
    else:
        want = patternlat.rgf_quotient(a["diagram"], a["lam"])
    _expect(fails, a["rgf"] == want, "lattice rgf() != closed form")
    return fails


def check_roundtrip(d, q, a):
    fails = []
    _expect(fails, a["same"], "export/import changed the poset")
    _expect(fails, a["n"] == weyl_dimension(d, q["weight"]), "poset size != dim")
    return fails


CHECKS = {
    "freudenthal": check_freudenthal,
    "kostant": check_kostant,
    "specialize": check_specialize,
    "expand": check_expand,
    "crystal": check_crystal,
    "umax": check_umax,
    "lattice": check_lattice,
    "roundtrip": check_roundtrip,
}


def check(d, q, a):
    """Failures of one answer; an exception in a check is a failure too."""
    try:
        return CHECKS[q["op"]](d, q, a)
    except Exception as e:          # a check that cannot run is a failed check
        return ["check raised %s: %s" % (type(e).__name__, e)]

