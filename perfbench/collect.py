"""Run the benchmark over several seeds and keep the results as a result set.

Usage, from the root of a checkout:

    python3 perfbench/collect.py --out DIR [--workloads characters,posets,cli]
        [--seeds 1-10] [--seconds S] [--trace 0|1]

Runs perfbench/run.py once per workload and seed, one run at a time, and
appends {"seed", "trace", "info", "result"} lines to DIR/<workload>.jsonl.
Then prints, per workload and metric, the median and the spread: the
distance between the first and third quartile as a share of the median.
compare.py diffs two such directories.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    """Runs of one result-set file, as a list of dicts."""
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def metric_values(runs, trace):
    """metric name -> list of values over the runs with this trace flag."""
    out = {}
    for run in runs:
        if run["trace"] != trace:
            continue
        for name, m in run["result"]["metrics"].items():
            out.setdefault(name, []).append(m["value"])
    return out


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) with Python's default quartiles."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def _seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default="characters,posets,cli")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="15")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for w in args.workloads.split(","):
        path = os.path.join(args.out, "%s.jsonl" % w)
        for seed in _seeds(args.seeds):
            r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                                "--workload", w, "--seed", str(seed),
                                "--seconds", args.seconds, "--trace", str(args.trace)],
                               capture_output=True, text=True, timeout=900)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                print("%s seed %d failed:\n%s" % (w, seed, r.stderr), file=sys.stderr)
                return 1
            info = next((json.loads(x[5:]) for x in lines if x.startswith("info ")), {})
            run = {"seed": seed, "trace": args.trace, "info": info,
                   "result": json.loads(lines[-1])}
            with open(path, "a") as fh:
                fh.write(json.dumps(run) + "\n")
            print("%s seed %d: correct=%s attempted=%d" % (
                w, seed, run["result"]["correct"], run["result"]["attempted"]),
                flush=True)
        for name, values in sorted(metric_values(load(path), args.trace).items()):
            med, _, _, sp = spread(values)
            print("  %-28s median %-12.6g spread %.4f (n=%d)" % (name, med, sp, len(values)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
