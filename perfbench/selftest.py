"""Self-test of the benchmark's checks: every check must be able to fail.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

For one small query per operation, the right answer must pass its check,
and each deliberately wrong variant of it must fail.  The CLI check gets a
wrong digest, a non-zero exit and a non-empty stderr.  Exits 1 if any check
accepts a wrong answer or rejects a right one.
"""

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from weylsplit import build_diagram  # noqa: E402


def _bump_first(mapping, delta=1):
    out = dict(mapping)
    key = sorted(out)[0]
    out[key] += delta
    return out


# (query, [(what, answer -> wrong answer)])
CASES = [
    ({"op": "freudenthal", "diagram": "G2", "weight": (1, 0)},
     [("dimension off by one", lambda a: {"dim": a["dim"] + 1})]),
    ({"op": "kostant", "diagram": "B3", "weight": (0, 1, 0)},
     [("one multiplicity off", lambda a: {"mults": _bump_first(a["mults"])})]),
    ({"op": "specialize", "diagram": "C3", "weight": (1, 0, 1)},
     [("dimension off by one", lambda a: dict(a, dim=a["dim"] + 1)),
      ("polynomial not palindromic", lambda a: dict(a, poly=a["poly"] + (0,)))]),
    ({"op": "expand", "diagram": "A2", "weight": (1, 0), "other": (1, 1)},
     [("one coefficient off", lambda a: {"expansion": _bump_first(a["expansion"])})]),
    ({"op": "crystal", "diagram": "A2", "weight": (1, 1), "other": (1, 0), "nodes": [1]},
     [("vertex count off", lambda a: dict(a, n=a["n"] + 1)),
      ("wgf off", lambda a: dict(a, wgf=_bump_first(a["wgf"]))),
      ("decompose off", lambda a: dict(a, decompose=_bump_first(a["decompose"]))),
      ("branch off", lambda a: dict(a, branch=_bump_first(a["branch"])))]),
    ({"op": "umax", "diagram": "A2", "weight": (1, 1)},
     [("edge count off", lambda a: dict(a, edges=a["edges"] + 1)),
      ("wgf off", lambda a: dict(a, wgf=_bump_first(a["wgf"]))),
      ("vertex count off", lambda a: dict(a, n=a["n"] - 1))]),
    ({"op": "lattice", "family": "gt", "n": 3, "weight": (1, 1)},
     [("splitting rejected", lambda a: dict(a, splitting=False)),
      ("coloring rejected", lambda a: dict(a, subblock=False)),
      ("rgf off", lambda a: dict(a, rgf=(a["rgf"][0] + 1,) + a["rgf"][1:])),
      ("size off", lambda a: dict(a, n=a["n"] + 1))]),
    ({"op": "lattice", "family": "eo", "n": 4, "m": 1, "node": 3},
     [("rgf off", lambda a: dict(a, rgf=a["rgf"][:-1]))]),
    ({"op": "roundtrip", "diagram": "G2", "weight": (1, 0)},
     [("edges changed", lambda a: dict(a, same=False)),
      ("size off", lambda a: dict(a, n=a["n"] + 1))]),
]


def main():
    bad = 0
    diagrams = {}
    for q, wrongs in CASES:
        if "diagram" in q:
            diagrams.setdefault(q["diagram"], build_diagram(q["diagram"]))
        d = diagrams.get(q.get("diagram"))
        answer = worker.keep_answer(q, worker.run_query(diagrams, q))
        fails = checks.check(d, q, answer)
        if fails:
            print("FAIL %s: right answer rejected: %s" % (q["op"], fails))
            bad += 1
        for what, mutate in wrongs:
            wrong = mutate(copy.deepcopy(answer))
            if not checks.check(d, q, wrong):
                print("FAIL %s: wrong answer accepted (%s)" % (q["op"], what))
                bad += 1
            else:
                print("ok   %s: %s caught" % (q["op"], what))

    digest = "0" * 64
    right = run.cli_failure(0, b"out\n", b"", run.sha256(b"out\n"))
    cli_cases = [("digest differs", (0, b"out\n", b"", digest)),
                 ("non-zero exit", (1, b"out\n", b"", run.sha256(b"out\n"))),
                 ("stderr not empty", (0, b"out\n", b"warn", run.sha256(b"out\n")))]
    if right:
        print("FAIL cli: right answer rejected: %s" % right)
        bad += 1
    for what, case in cli_cases:
        if run.cli_failure(*case):
            print("ok   cli: %s caught" % what)
        else:
            print("FAIL cli: wrong answer accepted (%s)" % what)
            bad += 1
    print("selftest: %s" % ("FAILED" if bad else "every check can fail"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
