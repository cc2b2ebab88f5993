"""Command-line surface tying the modules together.

Subcommands: info, numbers-game, roots, char, expand, alternant, crystal,
decompose, branch, umax, lattice, rgf, verify, experiment.  Output is
deterministic for fixed flags; exit status 0 on success, 1 on a domain
error (printed with its error name), 2 on usage errors.

`--diagram`, `--weight` and `--json` are declared once, on parent parsers.
`main` reads the first two before the subcommand runs: it builds the
diagram, parses the weight over its rank where the subcommand takes one,
and calls the handler as fn(args, d, lam) (d and lam are None for lattice,
and lam for a subcommand without --weight).

Each run is one fresh process, so start-up is paid per answer.  Only cartan
and errors load with this module; each subcommand imports the layers it
uses (numbersgame, wsf, ecposet, crystal, patternlat) in its own body, so
info or roots never compiles the poset code.
"""

import argparse
import json
import sys

from .cartan import DEFAULT_FIRING_CAP, build_diagram, parse_weight
from .errors import DomainError, InvalidFamilyParams, MalformedPoset


def _positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("%s is below 1" % text)
    return n


def _emit_terms(items, as_json):
    if as_json:
        print(json.dumps(
            {"terms": [{"weight": list(m), "mult": c} for m, c in items]},
            separators=(",", ":")))
    else:
        for m, c in items:
            print("%s  %d" % (",".join(map(str, m)), c))


def cmd_info(args, d, lam):
    c = d.constants()
    print("type: %s" % d.type_string())
    print("rank: %d" % d.rank)
    print("cartan: %s" % json.dumps([list(r) for r in d.cartan]))
    print("positive roots: %d" % len(c.positive_roots))
    print("weyl order: %d" % c.weyl_order)
    print("mesh size: %s" % d.mesh_size)
    print("sigma0: %s" % json.dumps({str(k): v for k, v in sorted(c.sigma0.items())}))
    if c.highest_root is not None:
        print("highest root: %s" % ",".join(map(str, c.highest_root)))
        print("highest short root: %s" % ",".join(map(str, c.highest_short_root)))


def cmd_numbers_game(args, d, lam):
    from . import numbersgame
    pos = parse_weight(args.position, d.rank)
    strategy = args.strategy
    if strategy not in ("first", "all"):
        strategy = [int(x) for x in strategy.split(",")]
    recs = numbersgame.play(d, pos, strategy, cap=args.cap)
    if strategy != "all":
        recs = [recs]
    if args.json:
        print(json.dumps([r.to_json_dict() for r in recs], separators=(",", ":")))
    else:
        for r in recs:
            state = "diverged(cap=%d)" % r.cap if r.diverged else "terminal"
            print("fired %s  %s %s" % (",".join(map(str, r.fired)) or "-",
                                       state, ",".join(map(str, r.terminal))))


def cmd_roots(args, d, lam):
    roots = d.positive_roots()
    if args.json:
        print(json.dumps([{"omega": list(r.root), "alpha": list(r.alpha_coords),
                           "class": r.length_class} for r in roots],
                         separators=(",", ":")))
    else:
        for r in roots:
            print("%s  alpha=%s  %s" % (",".join(map(str, r.root)),
                                        ",".join(map(str, r.alpha_coords)),
                                        r.length_class))


def cmd_char(args, d, lam):
    from . import wsf
    if args.method == "kostant":
        pi = wsf.weight_diagram(d, lam)
        terms = sorted((m, wsf.kostant_multiplicity(d, lam, m)) for m in pi.weights)
        terms = [(m, c) for m, c in terms if c]
    else:
        terms = wsf.freudenthal(d, lam).sorted_terms()
    _emit_terms(terms, args.json)


def cmd_expand(args, d, lam):
    from . import wsf
    fn = wsf.WeylSymFn.unit(d)
    for w in args.weights:
        fn = fn * wsf.freudenthal(d, parse_weight(w, d.rank))
    exp = wsf.expand_in_bialternants(fn)
    _emit_terms(sorted(exp.items()), args.json)


def cmd_alternant(args, d, lam):
    from . import wsf
    fn = wsf.alternant(d, lam)
    _emit_terms(fn.sorted_terms(), args.json)


def cmd_crystal(args, d, lam):
    from . import crystal, ecposet
    r = crystal.build_crystal(d, lam)
    print(ecposet.export_poset(r, args.export))


def cmd_decompose(args, d, lam):
    from . import crystal
    out = crystal.decompose(d, parse_weight(args.lhs, d.rank),
                            parse_weight(args.rhs, d.rank))
    _emit_terms(sorted(out.items()), args.json)


def cmd_branch(args, d, lam):
    from . import crystal
    nodes = tuple(int(x) for x in args.subset.split(","))
    out = crystal.branch(d, lam, nodes)
    _emit_terms(sorted(out.items()), args.json)


def cmd_umax(args, d, lam):
    from . import ecposet
    u = ecposet.maximal_splitting_poset(d, lam)
    print(ecposet.export_poset(u, args.export))


def _lattice_of(args):
    from . import patternlat
    if args.family == "gt":
        if args.weight is None:
            raise InvalidFamilyParams("gt needs --weight")
        lam = parse_weight(args.weight, args.n - 1)
        return patternlat.gt_lattice(args.n, lam)
    if args.family == "sp":
        return patternlat.symplectic_lattice(args.n, args.m)
    if args.family == "oo":
        return patternlat.odd_orth_lattice(args.n, args.m)
    node = args.n - 1 if args.node == "n-1" else args.n
    return patternlat.even_orth_lattice(args.n, args.m, node)


def cmd_lattice(args, d, lam):
    from . import ecposet
    lat = _lattice_of(args)
    if args.verify:
        ok, cert = ecposet.verify_splitting(lat.poset, [lat.lam])
        nodes = tuple(range(1, lat.diagram.rank + 1))
        ok2, rep = ecposet.verify_subblock_coloring(
            lat.poset, nodes, (0,) * lat.diagram.rank,
            {lat.index[lat.max_pattern]}, lat.slantwise_coloring())
        print("splitting: %s" % ("ok" if ok else "FAIL %s" % cert))
        print("subblock coloring: %s" % ("ok" if ok2 else "FAIL %s" % rep))
    if args.rgf:
        print("rgf: %s" % (list(lat.rgf()),))
    if args.export:
        print(ecposet.export_poset(lat.poset, args.export))
    if not (args.verify or args.rgf or args.export):
        print("%d vertices, %d edges over %s" %
              (lat.poset.n, len(lat.poset.edges), lat.diagram.type_string()))


def cmd_rgf(args, d, lam):
    from . import patternlat
    coeffs = patternlat.rgf_quotient(d, lam)
    print(json.dumps(list(coeffs)) if args.json else
          " ".join(map(str, coeffs)))


def cmd_verify(args, d, lam):
    from . import ecposet
    with open(args.poset) as fh:
        p = ecposet.import_poset(fh.read(), diagram=d)
    rc = 0
    if args.targets:
        targets = [parse_weight(t, d.rank) for t in args.targets.split(";")]
        ok, cert = ecposet.verify_splitting(p, targets)
        print("splitting: %s" % ("ok" if ok else "FAIL"))
        if not ok and cert:
            for m in sorted(cert):
                print("  weight %s: got %s want %s" %
                      (",".join(map(str, m)), cert[m][0], cert[m][1]))
        rc = rc or (0 if ok else 1)
    if args.coloring:
        with open(args.coloring) as fh:
            w = json.load(fh)
        try:
            nodes = tuple(w.get("J", range(1, d.rank + 1)))
            nu = tuple(w.get("nu", [0] * len(set(nodes))))   # repeats in J count once
            s_set = set(w["S"])
            kappa = {int(k): v for k, v in w["kappa"].items()}
            tau = {int(k): v for k, v in w["tau"].items()} if w.get("tau") else None
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise MalformedPoset("bad witness JSON (%s: %s)"
                                 % (type(e).__name__, e)) from None
        if tau:
            wit = ecposet.ColoringWitness(S=s_set, kappa=kappa, tau=tau)
            ok, why = ecposet.verify_tau_kappa(p, nodes, nu, wit)
            print("tau-kappa: %s" % ("ok" if ok else "FAIL (%s)" % why))
        else:
            ok, why = ecposet.verify_subblock_coloring(p, nodes, nu, s_set, kappa)
            print("subblock coloring: %s" % ("ok" if ok else "FAIL (%s)" % why))
        rc = rc or (0 if ok else 1)
    return rc


def cmd_experiment(args, d, lam):
    """Edge counts per color of edge-minimal splitting posets (Questions 4.11)."""
    from . import crystal, ecposet
    r = crystal.build_crystal(d, lam)
    counts = {}
    for _, _, c in r.edges:
        counts[c] = counts.get(c, 0) + 1
    print("R(lambda): %d vertices; per-color edge counts %s" %
          (r.n, json.dumps({str(k): v for k, v in sorted(counts.items())})))
    u = ecposet.maximal_splitting_poset(d, lam)
    print("U(lambda): %d vertices, %d edges" % (u.n, len(u.edges)))


def make_parser():
    ap = argparse.ArgumentParser(prog="weylsplit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    # --diagram, and --weight after it, are declared once; main reads both
    diagram = argparse.ArgumentParser(add_help=False)
    diagram.add_argument("--diagram", required=True)
    weight = argparse.ArgumentParser(add_help=False, parents=[diagram])
    weight.add_argument("--weight", required=True)
    # --json, for the subcommands that print their answer as JSON or as text
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true")

    def add(name, fn, *parents):
        p = sub.add_parser(name, parents=list(parents))
        p.set_defaults(fn=fn)
        return p

    add("info", cmd_info, diagram)

    p = add("numbers-game", cmd_numbers_game, diagram, as_json)
    p.add_argument("--position", required=True)
    p.add_argument("--strategy", default="first")
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_FIRING_CAP)

    add("roots", cmd_roots, diagram, as_json)

    p = add("char", cmd_char, weight, as_json)
    p.add_argument("--method", choices=["freudenthal", "kostant"],
                   default="freudenthal")

    p = add("expand", cmd_expand, diagram, as_json)
    p.add_argument("--weights", nargs="+", required=True,
                   help="expand the product of these bialternants")

    add("alternant", cmd_alternant, weight, as_json)

    p = add("crystal", cmd_crystal, weight)
    p.add_argument("--export", choices=["json", "dot"], default="json")

    p = add("decompose", cmd_decompose, diagram, as_json)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)

    p = add("branch", cmd_branch, weight, as_json)
    p.add_argument("--subset", required=True)

    p = add("umax", cmd_umax, weight)
    p.add_argument("--export", choices=["json", "dot"], default="json")

    p = add("lattice", cmd_lattice)
    p.add_argument("--family", choices=["gt", "sp", "oo", "eo"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weight", help="gt only: comma separated lambda")
    p.add_argument("--m", type=int, help="sp/oo/eo bound")
    p.add_argument("--node", choices=["n-1", "n"], default="n-1")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--rgf", action="store_true")
    p.add_argument("--export", choices=["json", "dot"])

    add("rgf", cmd_rgf, weight, as_json)

    p = add("verify", cmd_verify, diagram)
    p.add_argument("--poset", required=True, help="poset JSON file")
    p.add_argument("--targets",
                   help="splitting check: semicolon separated dominant weights")
    p.add_argument("--coloring",
                   help="witness JSON with S/kappa[/tau/J/nu] to verify")

    add("experiment", cmd_experiment, weight)

    return ap


def main(argv=None):
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        d = lam = None
        if "diagram" in args:
            d = build_diagram(args.diagram)
            if "weight" in args:
                lam = parse_weight(args.weight, d.rank)
        rc = args.fn(args, d, lam)
    except DomainError as e:
        print("%s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 1
    except (OSError, ValueError) as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 2
    return rc or 0


if __name__ == "__main__":
    sys.exit(main())
