"""Benchmark worker: one fresh interpreter that sets up and then serves queries.

Usage: worker.py WORKLOAD TRACE_PATH|- [--setup-only]

Set-up imports weylsplit and builds every diagram of the workload with its
constants(), and reports how long that took.  The worker then reads one
JSON query per line on stdin and answers each with one JSON line: the
latency of the library calls, and the time spent keeping a small answer for
the checks.  A line {"op": "stop"} ends the loop; the worker then reports its
peak RSS, runs the correctness checks on the kept answers and reports the
failures.  With a trace path, every span of the run is written there once,
before the checks run.
"""

import json
import resource
import sys
import time

import queries


def _setup(workload, tracer):
    t0 = time.perf_counter()
    import weylsplit
    # every module the queries use, so that no query pays for an import
    from weylsplit import crystal, ecposet, patternlat, wsf  # noqa: F401
    if tracer is not None:
        import tracing
        tracing.install(tracer)
    diagrams = {spec: weylsplit.build_diagram(spec) for spec in queries.diagrams(workload)}
    for d in diagrams.values():
        d.constants()
    return diagrams, time.perf_counter() - t0


# -- query operations: timed part, then the answer kept for the checks ----------

def run_query(diagrams, q):
    from weylsplit import crystal, ecposet, patternlat, wsf
    op = q["op"]
    d = diagrams.get(q.get("diagram"))
    lam = q.get("weight")
    if op == "freudenthal":
        return wsf.freudenthal(d, lam)
    if op == "kostant":
        return {mu: wsf.kostant_multiplicity(d, lam, mu)
                for mu in wsf.dominant_weights_below(d, lam)}
    if op == "specialize":
        return wsf.specialize(d, lam)
    if op == "expand":
        f = wsf.freudenthal(d, lam) * wsf.freudenthal(d, q["other"])
        return wsf.expand_in_bialternants(f)
    if op == "crystal":
        r = crystal.build_crystal(d, lam)
        return (r, crystal.decompose(d, q["other"], lam),
                crystal.branch(d, lam, q["nodes"]))
    if op == "umax":
        return ecposet.maximal_splitting_poset(d, lam)
    if op == "lattice":
        fam, n = q["family"], q["n"]
        if fam == "gt":
            lat = patternlat.gt_lattice(n, lam)
        elif fam == "sp":
            lat = patternlat.symplectic_lattice(n, q["m"])
        elif fam == "oo":
            lat = patternlat.odd_orth_lattice(n, q["m"])
        else:
            lat = patternlat.even_orth_lattice(n, q["m"], q["node"])
        ok, _ = ecposet.verify_splitting(lat.poset, [lat.lam])
        rank = lat.diagram.rank
        ok2, _ = ecposet.verify_subblock_coloring(
            lat.poset, tuple(range(1, rank + 1)), (0,) * rank,
            {lat.index[lat.max_pattern]}, lat.slantwise_coloring())
        return lat, ok, ok2
    if op == "roundtrip":
        r = crystal.build_crystal(d, lam)
        return r, ecposet.import_poset(ecposet.export_poset(r, "json"), diagram=d)
    raise ValueError("unknown op %r" % op)


def keep_answer(q, result):
    """The small answer the checks need."""
    op = q["op"]
    if op == "freudenthal":
        return {"dim": sum(result.terms.values())}
    if op == "kostant":
        return {"mults": result}
    if op == "specialize":
        return {"dim": result.dimension, "poly": tuple(result.dynkin_polynomial)}
    if op == "expand":
        return {"expansion": result}
    if op == "crystal":
        r, dec, br = result
        return {"n": r.n, "wgf": r.wgf().terms, "decompose": dec, "branch": br}
    if op == "umax":
        per_weight = {}
        for w, _ in result.labels:
            per_weight[w] = per_weight.get(w, 0) + 1
        return {"n": result.n, "edges": len(result.edges), "wgf": result.wgf().terms,
                "max_mult": max(per_weight.values())}
    if op == "lattice":
        lat, ok, ok2 = result
        return {"n": lat.poset.n, "splitting": ok, "subblock": ok2, "rgf": lat.rgf(),
                "diagram": lat.diagram, "lam": lat.lam}
    r, p = result
    return {"n": r.n, "same": p.edges == r.edges and p.wt == r.wt}


def properties(d, q, answer):
    """Input properties of one query, for the run's record."""
    lam = q.get("weight")
    if q["op"] == "lattice":
        d, lam = answer["diagram"], answer["lam"]
    props = {}
    if d is not None:
        box = 1
        for c in d.to_root_coords(lam):
            box *= int(c) + 1
        props = {"type": d.type_string(), "rank": d.rank,
                 "small_w": d.weyl_order() <= 1152,
                 "regular": all(lam), "box": box}
    if q["op"] == "lattice":
        props["patterns"] = answer["n"]
    if q["op"] == "umax":
        props["max_mult"] = answer["max_mult"]
    return props


def _tuples(q):
    for key in ("weight", "other"):
        if key in q:
            q[key] = tuple(q[key])
    return q


def main(argv):
    workload, trace_path = argv[0], argv[1]
    tracer = None
    if trace_path != "-":
        import tracing
        tracer = tracing.Tracer()
    diagrams, setup_s = _setup(workload, tracer)
    out = sys.stdout
    out.write(json.dumps({"setup_s": setup_s}) + "\n")
    out.flush()
    if "--setup-only" in argv:
        return 0

    import checks
    kept = []
    for line in sys.stdin:
        q = _tuples(json.loads(line))
        if q["op"] == "stop":
            break
        reply = {"id": q["id"]}
        try:
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.qid = q["id"]
                root = tracer.begin("bench.query")
            try:
                result = run_query(diagrams, q)
            finally:
                if tracer is not None:
                    tracer.end(root)
                    tracer.qid = -1
            reply["latency_s"] = time.perf_counter() - t0
            t1 = time.perf_counter()
            answer = keep_answer(q, result)
            del result
            reply["props"] = properties(diagrams.get(q.get("diagram")), q, answer)
            kept.append((q, answer))
            reply["keep_s"] = time.perf_counter() - t1
        except Exception as e:      # a failed query is counted, not fatal
            reply["error"] = "%s: %s" % (type(e).__name__, e)
        out.write(json.dumps(reply) + "\n")
        out.flush()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(trace_path)
    failures = []
    for q, answer in kept:
        for msg in checks.check(diagrams.get(q.get("diagram")), q, answer):
            failures.append([q["id"], msg])
    out.write(json.dumps({"peak_rss_mb": peak_rss_mb, "failures": failures}) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
