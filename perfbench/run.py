"""weylsplit benchmark: one closed-loop client against the library or the CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload characters|posets|cli --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --record-cli-digests

Workloads (see queries.py for the pools):
  characters  Freudenthal, Kostant, specialize and bialternant expansion on
              diagrams of types A-G, rank 2-8: the wsf and cartan layers.
  posets      crystals with decompose/branch, U(lambda), the four pattern
              lattice families with both verifiers, export/import round
              trips: the ecposet, crystal and patternlat layers.
  cli         the 14 subcommands, each a fresh `python3 -m weylsplit.cli`:
              start-up, constants() and output formatting.

Every run starts fresh interpreters from the sources under src/ with
PYTHONHASHSEED=0 and WEYL_ORBIT_CAP unset, after one untimed warm-up import
that compiles the bytecode.  Queries go out one at a time, each only after
the previous answer came back, to at most one worker child at a time.  A
run serves the whole blocks that took --seconds when the benchmark was
defined (see BLOCK_S); a traced run (--trace 1) serves the same blocks with
span wrappers installed.  Answers are checked after the timed loop.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}; the line before it, starting with "info ", records the query
digest, the input properties of the run and the environment.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import queries
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
CLITRACE = os.path.join(HERE, "clitrace.py")
DIGESTS = os.path.join(HERE, "cli_digests.json")
OUT_DIR = ".perfbench"          # run files inside the checkout; removed after use

# A run serves ceil(--seconds / BLOCK_S) whole blocks, at least MIN_BLOCKS
# (126 queries or more, so that ten lie beyond the 90th percentile).
# BLOCK_S is what a block took at the commit that defined the benchmark, on
# a 2-core x86-64 machine with CPython 3.11, so every commit serves the same
# queries: a faster commit cannot drift into other pool entries or more memo
# hits, and the traced run's per-layer totals compare across commits.
BLOCK_S = {"characters": 5.5, "posets": 6.0, "cli": 6.5}
MIN_BLOCKS = 3
# Set-up is timed in several fresh interpreters spread over the run: for a
# worker workload, SETUP_PROBES before and after the serving worker (which
# times its own set-up too); for cli, SETUP_PROBES before every block.
SETUP_PROBES = {"characters": 2, "posets": 2, "cli": 3}
HARD_CAP_S = 120                # stop serving blocks after this, whatever happens
CHILD_TIMEOUT_S = 120


def child_env(root):
    env = dict(os.environ)
    env.pop("WEYL_ORBIT_CAP", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def environment(root):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit}


def p90(values):
    return statistics.quantiles(values, n=10)[8]


def _metric(value, unit):
    return {"value": value, "unit": unit}


# -- characters and posets: a worker child fed over a pipe ----------------------

def _setup_probe(workload, env, root):
    r = subprocess.run([sys.executable, WORKER, workload, "-", "--setup-only"],
                       env=env, cwd=root, capture_output=True, text=True,
                       timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(r.stdout.splitlines()[-1])["setup_s"]


def enough(args, n_blocks, elapsed):
    """The stop rule, checked after every block."""
    target = max(MIN_BLOCKS, math.ceil(args.seconds / BLOCK_S[args.workload]))
    return n_blocks >= target or elapsed > HARD_CAP_S


def serve(proc, args):
    """Closed loop over whole blocks; returns (queries, replies, wall_s)."""
    sent, replies = [], []
    start = time.perf_counter()
    keep_s = 0.0
    for n_blocks, block in enumerate(queries.blocks(args.workload, args.seed), start=1):
        for q in block:
            proc.stdin.write(json.dumps(q) + "\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError("worker exited during query %d" % q["id"])
            reply = json.loads(line)
            keep_s += reply.get("keep_s", 0.0)
            sent.append(q)
            replies.append(reply)
        if enough(args, n_blocks, time.perf_counter() - start):
            break
    return sent, replies, time.perf_counter() - start - keep_s


def run_worker_workload(args, root, env):
    w = args.workload
    setups = [_setup_probe(w, env, root) for _ in range(SETUP_PROBES[w])]
    trace_path = "-"
    if args.trace:
        trace_path = os.path.join(root, OUT_DIR, "trace-%s-%d.json" % (w, os.getpid()))
    proc = subprocess.Popen([sys.executable, WORKER, w, trace_path], env=env,
                            cwd=root, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        setups.append(json.loads(proc.stdout.readline())["setup_s"])
        sent, replies, wall = serve(proc, args)
        proc.stdin.write(json.dumps({"op": "stop"}) + "\n")
        proc.stdin.flush()
        final = json.loads(proc.stdout.readline())
        proc.stdin.close()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    setups += [_setup_probe(w, env, root) for _ in range(SETUP_PROBES[w])]

    failed = {r["id"]: r["error"] for r in replies if "error" in r}
    for qid, msg in final["failures"]:
        failed.setdefault(qid, msg)
    lat = [r["latency_s"] for r in replies if "latency_s" in r]
    info = {"properties": run_properties(sent, replies),
            "setup_samples_s": setups,
            "failures": sorted(failed.items())[:10]}
    if args.trace:
        with open(trace_path) as fh:
            trace = json.load(fh)
        os.remove(trace_path)
        metrics = tracing.layer_metrics([trace], sum(lat))
        metrics["trace.queries_per_s"] = len(lat) / wall
        info["layer_shares"] = tracing.shares(metrics)
        return sent, failed, metrics, info
    metrics = {
        "setup_s": statistics.median(setups),
        "query_p50_s": statistics.median(lat),
        "query_p90_s": p90(lat),
        "queries_per_s": len(lat) / wall,
        "peak_rss_mb": final["peak_rss_mb"],
    }
    return sent, failed, metrics, info


def run_properties(sent, replies):
    """Input properties of the queries a run actually served."""
    props = [r.get("props", {}) for r in replies]
    seen, repeats = set(), 0
    for q in sent:      # repeats of a memoized (diagram, weight); lattices have no memo
        if q["op"] != "lattice":
            key = (q["op"] == "umax", q["diagram"], tuple(q["weight"]),
                   tuple(q.get("other", ())) if q["op"] == "expand" else ())
            repeats += key in seen
            seen.add(key)
    boxes = sorted(p["box"] for p in props if "box" in p)
    patterns = [p["patterns"] for p in props if "patterns" in p]
    umax = [p["max_mult"] for p in props if "max_mult" in p]
    out = {
        "queries": len(sent),
        "ops": {op: sum(q["op"] == op for q in sent)
                for op in sorted({q["op"] for q in sent})},
        "revisit_share": sum(bool(q.get("revisit")) for q in sent) / len(sent),
        "repeat_share": repeats / len(sent),
        "types": sorted({p["type"] for p in props if "type" in p}),
        "ranks": sorted({p["rank"] for p in props if "rank" in p}),
        "weyl_order_le_1152": sum(p.get("small_w", False) for p in props),
        "weyl_order_gt_1152": sum(p.get("small_w") is False for p in props),
        "regular_weights": sum(p.get("regular", False) for p in props),
        "wall_weights": sum(p.get("regular") is False for p in props),
    }
    if boxes:
        out["box_min_median_max"] = [boxes[0], boxes[len(boxes) // 2], boxes[-1]]
    if patterns:
        out["patterns_le_900"] = sum(n <= 900 for n in patterns)
        out["patterns_900_1200"] = sum(900 < n <= 1200 for n in patterns)
        out["patterns_gt_1200"] = sum(n > 1200 for n in patterns)
    if umax:
        out["umax_with_mult_gt_1"] = sum(m > 1 for m in umax)
        out["umax_total"] = len(umax)
    return out


# -- cli: one fresh subprocess per invocation -----------------------------------

def _timed(cmd, env, root):
    t0 = time.perf_counter()
    r = subprocess.run(cmd, env=env, cwd=root, capture_output=True,
                       timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, r


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def cli_failure(returncode, stdout, stderr, want_digest):
    """Why one CLI invocation is wrong, or None when it is right."""
    if returncode != 0 or stderr:
        return "exit %d, stderr %r" % (returncode, stderr[:200])
    if sha256(stdout) != want_digest:
        return "stdout digest differs"
    return None


def _cli_argv(q, files):
    return [a.format(**files) if a.startswith("{") else a for a in q["argv"]]


def _write_files(env, root):
    """Write the poset files the verify invocations read; returns name -> path."""
    files = {}
    for name, argv in queries.CLI_FILES.items():
        _, r = _timed([sys.executable, "-m", "weylsplit.cli"] + argv, env, root)
        if r.returncode != 0:
            raise RuntimeError("cannot write %s: %s" % (name, r.stderr.decode()))
        files[name] = os.path.join(root, OUT_DIR, "cli-%s-%d.json" % (name, os.getpid()))
        with open(files[name], "wb") as fh:
            fh.write(r.stdout)
    return files


def _remove_files(files):
    for path in files.values():
        os.remove(path)


def run_cli_workload(args, root, env):
    out_dir = os.path.join(root, OUT_DIR)
    files = _write_files(env, root)
    with open(DIGESTS) as fh:
        digests = json.load(fh)

    sent, lat, failed, traces, setups = [], [], {}, [], []
    import_s = main_s = probe_s = 0.0
    start = time.perf_counter()
    try:
        for n_blocks, block in enumerate(queries.blocks("cli", args.seed), start=1):
            for _ in range(SETUP_PROBES["cli"]):
                setups.append(_timed([sys.executable, "-c", "import weylsplit.cli"],
                                     env, root)[0])
                probe_s += setups[-1]
            for q in block:
                argv = _cli_argv(q, files)
                if args.trace:
                    trace_path = os.path.join(out_dir, "trace-cli-%d.json" % os.getpid())
                    cmd = [sys.executable, CLITRACE, trace_path] + argv
                else:
                    cmd = [sys.executable, "-m", "weylsplit.cli"] + argv
                dt, r = _timed(cmd, env, root)
                sent.append(q)
                lat.append(dt)
                key = " ".join(q["argv"])
                why = cli_failure(r.returncode, r.stdout, r.stderr, digests.get(key))
                if why:
                    failed[q["id"]] = "%s: %s" % (key, why)
                if args.trace and os.path.exists(trace_path):
                    with open(trace_path) as fh:
                        trace = json.load(fh)
                    os.remove(trace_path)
                    traces.append(trace)
                    import_s += trace["counters"]["cli.import_s"]
                    main_s += sum(s[2] - s[1] for s in trace["spans"] if s[3] < 0)
            if enough(args, n_blocks, time.perf_counter() - start - probe_s):
                break
        wall = time.perf_counter() - start - probe_s
    finally:
        _remove_files(files)

    info = {"properties": {"queries": len(sent),
                           "subcommands": len({q["argv"][0] for q in sent})},
            "setup_samples_s": setups, "failures": sorted(failed.items())[:10]}
    if args.trace:
        metrics = tracing.layer_metrics(traces, sum(lat))
        metrics["cli.process_s"] = sum(lat) - import_s - main_s
        metrics["trace.queries_per_s"] = len(lat) / wall
        info["layer_shares"] = tracing.shares(metrics)
        return sent, failed, metrics, info
    metrics = {
        "setup_s": statistics.median(setups),
        "query_p50_s": statistics.median(lat),
        "query_p90_s": p90(lat),
        "queries_per_s": len(lat) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    return sent, failed, metrics, info


def record_cli_digests(root, env):
    """Write the stdout digest of every CLI pool invocation to cli_digests.json."""
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    files = _write_files(env, root)
    digests = {}
    try:
        for pool in queries.CLI_POOL.values():
            for argv in pool:
                _, r = _timed([sys.executable, "-m", "weylsplit.cli"]
                              + _cli_argv({"argv": argv}, files), env, root)
                if r.returncode != 0 or r.stderr:
                    raise RuntimeError("%r failed: %s" % (argv, r.stderr.decode()))
                digests[" ".join(argv)] = sha256(r.stdout)
    finally:
        _remove_files(files)
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- entry point ------------------------------------------------------------------

UNITS = {"setup_s": "s", "query_p50_s": "s", "query_p90_s": "s",
         "queries_per_s": "1/s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
         "trace.queries_per_s": "1/s"}


def _unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=["characters", "posets", "cli"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-cli-digests", action="store_true")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "weylsplit", "__init__.py")):
        print("no weylsplit sources under %s/src" % root, file=sys.stderr)
        return 2
    env = child_env(root)
    warm = subprocess.run([sys.executable, "-c", "import weylsplit.cli"], env=env,
                          cwd=root, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if warm.returncode != 0:
        print("warm-up import failed:\n%s" % warm.stderr, file=sys.stderr)
        return 2
    if args.record_cli_digests:
        record_cli_digests(root, env)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)

    if args.workload == "cli":
        sent, failed, metrics, info = run_cli_workload(args, root, env)
    else:
        sent, failed, metrics, info = run_worker_workload(args, root, env)
    attempted = len(sent)
    if not args.trace:
        metrics["ok_ratio"] = (attempted - len(failed)) / attempted
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                query_digest=queries.digest(args.workload, args.seed),
                fail_ratio=len(failed) / attempted, environment=environment(root))
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failed, "attempted": attempted, "failed": len(failed),
        "metrics": {k: _metric(v, _unit(k)) for k, v in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
