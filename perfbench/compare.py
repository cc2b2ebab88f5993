"""Compare two result sets written by collect.py.

Usage, from the root of a checkout:

    python3 perfbench/compare.py BASE_DIR NEW_DIR [--bench BENCHMARK.json]

For every workload in both sets and every end-to-end metric of
BENCHMARK.json: the median and quartiles of each side, the change of the
median, and a verdict.  "worse" means the new median is worse than the base
by more than the metric's bound; "unresolved" means the spread of either
side (quartile distance over median) is wider than the bound, unless every
new run beats every base run; otherwise "within" (or "better" when every
new run beats every base run).  Then the traced per-layer medians of both
sides with their difference, and the tracing overhead of each side: one
minus traced queries_per_s over untraced queries_per_s.
"""

import argparse
import json
import os
import statistics
import sys

from collect import load, metric_values, spread


def _verdict(base, new, bound, lower_better):
    bmed, _, _, bsp = spread(base)
    nmed, _, _, nsp = spread(new)
    sign = 1 if lower_better else -1
    worse_by = sign * (nmed - bmed) / bmed
    if all(sign * (n - b) < 0 for n in new for b in base):
        return "better"
    if bsp > bound or nsp > bound:
        return "unresolved"
    return "worse" if worse_by > bound else "within"


def overhead(runs):
    traced = metric_values(runs, 1).get("trace.queries_per_s")
    plain = metric_values(runs, 0).get("queries_per_s")
    if not traced or not plain:
        return None
    return 1 - statistics.median(traced) / statistics.median(plain)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--bench", default="BENCHMARK.json")
    args = ap.parse_args(argv)
    with open(args.bench) as fh:
        bench = json.load(fh)
    worse = 0
    for wl in bench["workloads"]:
        name = wl["name"]
        paths = [os.path.join(d, "%s.jsonl" % name) for d in (args.base, args.new)]
        if not all(os.path.exists(p) for p in paths):
            print("%s: missing in one set" % name)
            continue
        base_runs, new_runs = load(paths[0]), load(paths[1])
        base, new = metric_values(base_runs, 0), metric_values(new_runs, 0)
        print("== %s (untraced runs: base %d, new %d)" % (
            name, sum(r["trace"] == 0 for r in base_runs),
            sum(r["trace"] == 0 for r in new_runs)))
        for m in bench["end_to_end"]:
            b, n = base.get(m["name"]), new.get(m["name"])
            if not b or not n:
                continue
            verdict = _verdict(b, n, m["bound"], m["better"] == "lower")
            worse += verdict == "worse"
            bm, bq1, bq3, _ = spread(b)
            nm, nq1, nq3, _ = spread(n)
            print("  %-14s base %.5g [%.5g, %.5g]  new %.5g [%.5g, %.5g]  "
                  "change %+.1f%%  bound %.1f%%  %s" % (
                      m["name"], bm, bq1, bq3, nm, nq1, nq3,
                      100 * (nm - bm) / bm, 100 * m["bound"], verdict))
        bt, nt = metric_values(base_runs, 1), metric_values(new_runs, 1)
        if bt and nt:
            print("  per layer (traced medians): base -> new")
            for key in sorted(set(bt) | set(nt)):
                bm = statistics.median(bt[key]) if key in bt else 0
                nm = statistics.median(nt[key]) if key in nt else 0
                if bm or nm:
                    pct = "%+.1f%%" % (100 * (nm - bm) / bm) if bm else "new"
                    print("    %-30s %-12.5g -> %-12.5g %+.5g (%s)" % (
                        key, bm, nm, nm - bm, pct))
        for label, runs in (("base", base_runs), ("new", new_runs)):
            o = overhead(runs)
            if o is not None:
                print("  tracing overhead (%s): %.1f%%" % (label, 100 * o))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
