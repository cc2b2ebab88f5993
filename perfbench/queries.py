"""Seeded query generation for the three workloads.

A workload is an endless stream of blocks.  Every block holds the same
slots (an operation, a cost class and a cost stratum) in a seed-shuffled
order, so the mix of cheap and dear queries does not depend on the seed or
on how many blocks a run gets through.  The seed picks which entry of each
stratum fills a slot, the slot order, and which earlier query a revisit
repeats.

Fresh slots draw without replacement within a run, so a fresh query never
meets a memo its own (diagram, weight) filled; revisit slots repeat an
earlier (diagram, weight) on purpose, so memo reads sit beside memo writes.
Pools are listed in ascending cost as measured on a 2-core x86-64 machine
with CPython 3.11: class T takes 0.5-15 ms, S 10-100 ms, M 55-600 ms.
"""

import hashlib
import json
import random

def _entries(text):
    """'A3:1,0,1 C4:0,1,0,0' -> [("A3", (1, 0, 1)), ("C4", (0, 1, 0, 0))]."""
    out = []
    for item in text.split():
        spec, weight = item.rsplit(":", 1)
        out.append((spec, tuple(int(x) for x in weight.split(","))))
    return out


def _pairs(text):
    """'A2:1,0:0,1' -> [("A2", (1, 0), (0, 1))]."""
    out = []
    for item in text.split():
        spec, a, b = item.rsplit(":", 2)
        out.append((spec, tuple(int(x) for x in a.split(",")),
                    tuple(int(x) for x in b.split(","))))
    return out


# -- characters --------------------------------------------------------------

CHAR_T = _entries("""
D5:1,0,0,0,0 D5:0,0,0,1,0 C5:1,0,0,0,0 D6:1,0,0,0,0,0 D5:0,0,0,0,1
A6:1,0,0,0,0,0 C6:1,0,0,0,0,0 A4:0,0,0,2 A5:0,0,0,0,1 A5:0,0,0,1,0 A4:2,0,0,0
A7:1,0,0,0,0,0,0 A6:0,1,0,0,0,0 A6:0,0,0,0,1,0 C3:2,0,0 A7:0,0,0,0,0,0,1
A3:2,0,0 B5:0,0,0,0,1 A8:1,0,0,0,0,0,0,0 C4:0,0,1,0 A5:0,0,0,0,2 A3:1,1,0
A6:0,0,0,0,0,1 D6:0,0,0,0,0,1 D6:0,0,0,0,1,0 A7:0,0,0,0,0,1,0 A7:0,1,0,0,0,0,0
D7:1,0,0,0,0,0,0 A4:1,1,0,0 E6:1,0,0,0,0,0 E6:0,0,0,0,0,1 A6:0,0,0,1,0,0
D4:1,0,0,1 A8:0,0,0,0,0,0,1,0 D4:0,0,1,1 A6:2,0,0,0,0,0 A3:1,1,1 C4:2,0,0,0
C3:0,1,1 B5:1,0,0,0,0 A8:0,1,0,0,0,0,0,0 C7:1,0,0,0,0,0,0 C3:1,0,1 C4:0,0,0,1
A7:0,0,0,0,1,0,0 A4:0,0,1,1 A5:2,0,0,0,0 A7:0,0,1,0,0,0,0 D4:0,1,1,0
A5:0,0,0,1,1 A6:0,0,0,0,0,2 C8:1,0,0,0,0,0,0,0 C4:1,1,0,0 A4:0,2,0,0 C3:0,2,0
D4:0,0,2,0 D8:1,0,0,0,0,0,0,0 A7:2,0,0,0,0,0,0 D4:2,0,0,0 A7:0,0,0,0,0,0,2
D4:0,0,0,2 C3:0,0,2 A3:0,2,0 D5:0,0,1,0,0 D5:1,0,0,0,1 A8:0,0,0,0,0,0,0,1
A7:0,0,0,1,0,0,0 A6:1,1,0,0,0,0 B6:1,0,0,0,0,0 D5:0,1,0,0,0 C5:0,1,0,0,0
A6:0,0,0,0,1,1 B4:1,0,0,1 A4:0,1,1,0 A5:1,1,0,0,0 A4:0,0,2,0 D4:1,1,0,0
B6:0,0,0,0,0,1 A8:2,0,0,0,0,0,0,0 B7:1,0,0,0,0,0,0 A5:0,0,0,2,0 D5:0,0,0,2,0
A8:0,0,1,0,0,0,0,0 A8:0,0,0,0,0,0,0,2 A8:0,0,0,0,0,1,0,0 D5:0,0,0,0,2
D7:0,0,0,0,0,1,0 D7:0,0,0,0,0,0,1 C5:0,0,1,0,0 C4:1,0,0,1 D5:2,0,0,0,0
C5:2,0,0,0,0 B4:2,0,0,0 A7:0,0,0,0,0,1,1 A8:0,0,0,1,0,0,0,0 A8:0,0,0,0,1,0,0,0
A7:1,1,0,0,0,0,0 A5:0,2,0,0,0 A5:1,0,0,0,1 A6:1,0,0,0,0,1 D5:1,1,0,0,0
D6:0,1,0,0,0,0 B4:0,0,0,2 B4:0,0,1,0 C5:0,0,0,1,0 A6:0,2,0,0,0,0 C5:0,0,0,0,1
B5:0,1,0,0,0 C4:0,2,0,0 B8:1,0,0,0,0,0,0,0 A6:0,0,0,0,2,0 D5:0,0,0,1,1 C3:1,1,1
A6:0,0,1,0,0,0 A8:1,1,0,0,0,0,0,0 C5:1,1,0,0,0 C6:0,1,0,0,0,0 C4:0,1,1,0
B5:1,0,0,0,1 B5:2,0,0,0,0 A5:0,1,1,0,0 A7:1,0,0,0,0,0,1 A5:0,0,1,1,0 B4:0,0,1,1
D6:2,0,0,0,0,0 A8:0,0,0,0,0,0,1,1 B4:1,1,0,0 A6:0,1,1,0,0,0 D4:0,2,0,0
B7:0,0,0,0,0,0,1 D6:0,0,1,0,0,0 A5:0,0,2,0,0 F4:0,0,1,0 B5:0,0,1,0,0
A6:0,0,0,1,1,0 A4:1,1,1,1 A7:0,0,0,0,0,2,0 A6:0,0,0,2,0,0 A6:0,0,2,0,0,0
A7:0,2,0,0,0,0,0 B6:0,1,0,0,0,0 A8:1,0,0,0,0,0,0,1 E6:0,0,0,0,1,0 B5:0,0,0,1,0
A3:0,0,2
""")

CHAR_S = _entries("""
D6:1,0,0,0,0,1 C6:2,0,0,0,0,0 E6:0,1,0,0,0,0 F4:0,0,0,2 D5:0,0,1,1,0 C4:0,0,1,1
B4:0,2,0,0 E7:0,0,0,0,0,0,1 A8:0,2,0,0,0,0,0,0 C6:0,0,1,0,0,0
A8:0,0,0,0,0,0,2,0 A7:0,1,1,0,0,0,0 A7:0,0,0,0,1,1,0 C4:0,0,2,0 B5:0,0,0,0,2
E6:0,0,1,0,0,0 C4:0,0,0,2 D8:0,0,0,0,0,0,0,1 D8:0,0,0,0,0,0,1,0 B4:0,1,1,0
F4:1,0,0,1 B5:1,1,0,0,0 D6:1,1,0,0,0,0 B6:2,0,0,0,0,0 D7:0,1,0,0,0,0,0
E6:0,0,0,0,0,2 C7:0,1,0,0,0,0,0 D5:0,2,0,0,0 E6:2,0,0,0,0,0 D6:0,0,0,0,1,1
D6:0,0,0,1,0,0 B4:0,0,2,0 D4:1,1,1,1 F4:0,1,0,0 C5:0,2,0,0,0 A7:0,0,0,0,2,0,0
A7:0,0,2,0,0,0,0 D7:2,0,0,0,0,0,0 C6:1,1,0,0,0,0 D5:0,1,1,0,0 F4:2,0,0,0
D6:0,0,0,0,2,0 C5:1,0,0,0,1 D6:0,0,0,0,0,2 B6:1,0,0,0,0,1 C7:2,0,0,0,0,0,0
A7:0,0,1,1,0,0,0 A7:0,0,0,1,1,0,0 B7:0,1,0,0,0,0,0 C6:0,0,0,1,0,0 F4:0,0,1,1
A8:0,0,0,0,0,1,1,0 A8:0,1,1,0,0,0,0,0 B6:0,0,1,0,0,0 C5:0,1,1,0,0
D7:0,0,1,0,0,0,0 C6:0,0,0,0,1,0 B5:0,0,0,1,1 E6:1,0,0,0,0,1 B5:0,2,0,0,0
D7:1,0,0,0,0,0,1 B7:2,0,0,0,0,0,0 D8:0,1,0,0,0,0,0,0 C6:0,0,0,0,0,1
E6:1,1,0,0,0,0 D5:0,0,2,0,0 C7:0,0,1,0,0,0,0 C8:0,1,0,0,0,0,0,0 C5:0,0,2,0,0
B6:0,0,0,1,0,0 B6:1,1,0,0,0,0 B8:0,0,0,0,0,0,0,1 A6:0,0,1,1,0,0
D8:2,0,0,0,0,0,0,0 C5:0,0,1,1,0 A7:0,0,0,2,0,0,0 D7:1,1,0,0,0,0,0
D6:0,2,0,0,0,0 A8:0,0,0,0,0,2,0,0 A8:0,0,2,0,0,0,0,0 B5:0,1,1,0,0
B6:0,0,0,0,1,0 F4:0,0,2,0 E7:1,0,0,0,0,0,0 C5:0,0,0,1,1 C8:2,0,0,0,0,0,0,0
B6:0,0,0,0,0,2 F4:1,1,0,0 B8:0,1,0,0,0,0,0,0 C7:1,1,0,0,0,0,0 E6:0,0,0,1,0,0
D8:0,0,1,0,0,0,0,0
""")

# E7 omega_2 and omega_6 spend most of their time in the dominant-weight box.
CHAR_M = _entries("""
C6:0,2,0,0,0,0 C5:0,0,0,0,2 C5:0,0,0,2,0 D6:0,1,1,0,0,0 D7:0,0,0,1,0,0,0
D6:0,0,0,1,1,0 D7:0,0,0,0,1,0,0 A8:0,0,1,1,0,0,0,0 F4:0,1,1,0 B7:1,0,0,0,0,0,1
B5:0,0,2,0,0 D7:0,0,0,0,0,2,0 C6:1,0,0,0,0,1 C6:0,1,1,0,0,0 B7:0,0,1,0,0,0,0
D7:0,0,0,0,0,0,2 C7:0,0,0,1,0,0,0 A8:0,0,0,2,0,0,0,0 A8:0,0,0,0,2,0,0,0
E6:0,0,0,0,1,1 D7:0,0,0,0,0,1,1 E6:0,2,0,0,0,0 B5:0,0,1,1,0 A8:0,0,0,0,1,1,0,0
B8:2,0,0,0,0,0,0,0 C7:0,0,0,0,1,0,0 B5:0,0,0,2,0 B7:1,1,0,0,0,0,0
B6:0,2,0,0,0,0 F4:0,2,0,0 D8:1,1,0,0,0,0,0,0 D8:1,0,0,0,0,0,0,1 E6:0,1,1,0,0,0
D7:0,2,0,0,0,0,0 C7:0,0,0,0,0,1,0 C8:0,0,1,0,0,0,0,0 D6:0,0,2,0,0,0
B7:0,0,0,1,0,0,0 C7:0,0,0,0,0,0,1 C6:0,0,2,0,0,0 E7:0,1,0,0,0,0,0
D6:0,0,1,1,0,0 E6:0,0,0,0,2,0 B6:0,0,0,0,1,1 E6:0,0,2,0,0,0 C8:1,1,0,0,0,0,0,0
B6:0,1,1,0,0,0 A8:0,0,0,1,1,0,0,0 D8:0,0,0,1,0,0,0,0 B7:0,0,0,0,1,0,0
C7:0,2,0,0,0,0,0 B8:0,0,1,0,0,0,0,0 D6:0,0,0,2,0,0 B6:0,0,2,0,0,0
E7:0,0,0,0,0,1,0 B7:0,0,0,0,0,1,0 B7:0,0,0,0,0,0,2
""")

# Kostant's formula sums over W, so only groups with |W| <= 1152 qualify.
CHAR_K = _entries("""
C2:1,1 C2:0,2 C2:2,1 A3:1,0,0 A3:0,1,0 G2:2,0 G2:1,1 C3:1,0,0 A3:0,1,1 A3:1,0,1
G2:0,2 C3:0,1,0 C3:0,0,1 C3:1,1,0 A4:0,1,0,0 B3:0,0,2 A4:0,0,0,1 A4:0,0,1,0
A4:1,0,0,0 A2+G2:1,1,0,0 A2+G2:1,0,1,0 D4:0,0,1,0 B3:1,1,0 D4:0,0,0,1
D4:1,0,0,0 A2+G2:0,1,0,1 A4:1,0,0,1 A2+G2:0,0,1,1 C4:1,0,0,0 D4:0,1,0,0
B4:0,0,0,1 A3:0,0,1 B4:1,0,0,0 C4:0,1,0,0 A5:1,0,0,0,0 A5:0,0,1,0,0
A5:0,1,0,0,0 B4:0,1,0,0 F4:0,0,0,1 F4:1,0,0,0
""")

# diagram:a:b, expand chi_a * chi_b in bialternants.
CHAR_X = _pairs("""
A2:0,1:0,1 A2+G2:1,0,0,0:1,0,0,0 A2:0,1:2,0 A2:0,1:1,1 C2:1,0:0,1 C2:0,1:0,1
A2:1,0:0,1 A2:1,0:0,2 cartan:[[2,0,-1],[0,2,-1],[-1,-1,2]]:0,1,0:0,0,1
A2:1,0:2,0 cartan:[[2,0,-1],[0,2,-1],[-1,-1,2]]:0,1,0:0,1,0 A2:0,1:0,2
A2:2,0:0,2 C2:0,1:2,0 A2+G2:1,0,0,0:0,0,1,0 A2:2,0:2,0 C2:1,0:1,0 A2:1,0:1,1
A2:1,1:2,0 cartan:[[2,0,-1],[0,2,-1],[-1,-1,2]]:1,0,0:1,0,0 A2:1,1:1,1
cartan:[[2,0,-1],[0,2,-1],[-1,-1,2]]:1,0,0:0,0,1 A2:0,2:0,2 C2:1,0:2,0
A2:1,0:2,1 cartan:[[2,0,-1],[0,2,-1],[-1,-1,2]]:1,0,0:0,1,0 C2:0,1:1,1
A2:1,1:0,2 C2:1,0:0,2 A2:0,1:2,1 C2:2,0:2,0 C2:0,1:0,2 B3:0,0,1:0,0,1
A2+G2:0,0,1,0:0,0,1,0 cartan:[[2,0,-1],[0,2,-1],[-1,-1,2]]:0,0,1:0,0,1
C2:1,0:1,1 C2:2,0:0,2 cartan:[[2,0,-1],[0,2,-1],[-1,-1,2]]:0,1,0:1,1,0
G2:1,0:0,1 B3:1,0,0:0,0,1 A2:0,2:2,1 A2:2,0:2,1 G2:1,0:1,0
cartan:[[2,0,-1],[0,2,-1],[-1,-1,2]]:1,0,0:1,1,0 A2:1,1:2,1 G2:0,1:0,1
C2:1,1:2,0 G2:1,0:2,0 cartan:[[2,0,-1],[0,2,-1],[-1,-1,2]]:0,0,1:1,1,0
A2+G2:1,0,1,0:1,0,0,0 B3:0,1,0:0,0,1 B3:1,0,0:1,0,0 C2:1,1:0,2 G2:0,1:2,0
A2:2,1:2,1 C2:0,2:0,2 C2:1,1:1,1 B3:1,0,0:0,1,0 G2:2,0:2,0 B3:0,0,1:1,0,1
A2+G2:1,0,1,0:0,0,1,0 A2+G2:0,1,0,1:1,0,0,0
cartan:[[2,0,-1],[0,2,-1],[-1,-1,2]]:1,1,0:1,1,0 B3:1,0,0:1,0,1 G2:1,0:1,1
A2+G2:0,1,0,1:0,0,1,0 G2:1,1:2,0 G2:0,1:1,1 B3:0,1,0:0,1,0 B3:0,1,0:1,0,1
A2+G2:1,0,1,0:1,0,1,0 G2:1,1:1,1 A2+G2:1,0,1,0:0,1,0,1 A2:1,0:1,0
B3:1,0,1:1,0,1 A2+G2:0,1,0,1:0,1,0,1
""")

CHAR_HEAVY = ("E8", (0, 0, 0, 0, 0, 0, 0, 1))


def _fresh(cls, counts):
    """Fresh slots of one class: its ops spread evenly over its cost strata."""
    keyed = sorted(((i + 0.5) / c, op) for op, c in counts.items() for i in range(c))
    return [(op, cls, s) for s, (_, op) in enumerate(keyed)]


def _revisits(counts):
    return [("revisit", cls, op) for (cls, op), c in counts.items() for _ in range(c)]


# One block: (op, class, stratum) per fresh slot, (revisit, class, op) per
# revisit.  Every class pool above is listed in ascending measured cost and
# cut into as many strata as a block has fresh slots of that class, so each
# block gets one entry of every cost band whatever the seed, and the median
# latency falls inside class S.  A block takes 5-7 s here, so a 15 s run
# serves three blocks.
CHAR_SLOTS = (
    _fresh("T", {"freudenthal": 12, "specialize": 6})
    + _fresh("S", {"freudenthal": 20, "specialize": 10})
    + _fresh("M", {"freudenthal": 13, "specialize": 4})
    + _fresh("K", {"kostant": 12}) + _fresh("X", {"expand": 8})
    + _revisits({("T", "specialize"): 2, ("T", "freudenthal"): 2,
                 ("S", "freudenthal"): 2, ("S", "specialize"): 2,
                 ("M", "freudenthal"): 2}))

# -- posets ------------------------------------------------------------------

# Crystals with decompose and branch, 10-130 ms each.
POSET_C = _entries("""
G2:4,0 G2:0,3 A3:1,2,1 B3:1,0,2 C3:2,1,0 C2:3,3 G2:3,1 B3:2,0,1 A3:2,1,2
B4:1,1,0,0 C3:1,1,1 B4:1,0,0,1 D4:0,1,1,0 G2:2,2 A2+G2:1,1,1,1 F4:0,0,1,0
B3:1,1,1 F4:0,0,0,2 A5:0,1,0,1,0 G2:1,3 B4:0,1,0,1 C4:1,0,0,1 D4:1,0,1,1
D5:1,0,0,0,1 D5:1,0,0,1,0 C3:0,2,1 A3:1,1,1 C4:0,1,0,1 G2:3,2 A4:1,1,1,1
D4:1,1,0,1 F4:1,0,0,1 F4:0,1,0,0 G2:2,3 E6:0,0,0,0,0,2 E6:1,0,0,0,0,1
E7:1,0,0,0,0,0,0
""")

# Round trips build a fresh crystal, then export and import it.
POSET_RT = _entries("""
A2:2,2 A2:2,1 C2:1,1 G2:2,0 C2:2,1 A2:3,3 G2:1,1 C2:1,2 A3:1,0,1 C2:2,2 G2:0,2
B3:0,1,0 A3:0,2,0 A2+G2:1,1,1,0 A3:2,0,1 A3:2,0,2 C3:1,0,1 B3:1,0,1 G2:2,1
B3:1,1,0 C3:1,1,0 A4:1,0,0,1 D4:0,1,0,0 B4:0,1,0,0 G2:1,2 A4:0,1,1,0 C4:0,1,0,0
A4:1,1,0,0 C3:0,1,1 A2+G2:1,0,1,1 F4:0,0,0,1 F4:1,0,0,0 D4:1,0,0,1 A5:1,0,0,0,1
D4:1,1,0,0 A2:1,1 E6:0,1,0,0,0,0 E6:1,0,0,0,0,0
""")

# U(lambda), 10-150 ms; every weight has a multiplicity above 1 somewhere,
# and U's edges grow with the square of the multiplicity.
POSET_U = _entries("""
B3:2,0,1 C3:2,1,0 A3:1,2,1 C2:3,3 G2:0,3 A5:0,1,0,1,0 B3:1,0,2 B4:1,1,0,0
C4:1,0,0,1 G2:3,1 F4:0,0,0,2 D4:1,0,1,1 B4:0,1,0,1 B3:1,1,1 C3:0,2,1
A2+G2:1,1,1,1 C3:1,1,1 G2:2,2 A3:2,1,2 C4:0,1,0,1 G2:1,3 D4:1,1,0,1 A4:1,1,1,1
F4:1,0,0,1 E6:1,0,0,0,0,1 F4:0,1,0,0
""")

# U(lambda) with 240k-270k edges, about 0.9 s each.
POSET_UH = _entries("G2:3,3 D4:1,1,1,1")

# Lattices: (family, n, m or gt weight, even-orthogonal node).  Small ones
# stay below LATTICE_CHECK_LIMIT (900); large ones exceed FULL_CLOSURE_LIMIT
# (1200), where the constructor samples the closure check.
POSET_L = [
    ("gt", 3, (3, 1), None),
    ("sp", 2, 3, None),
    ("gt", 4, (1, 1, 0), None),
    ("oo", 3, 2, None),
    ("gt", 3, (3, 2), None),
    ("gt", 5, (1, 0, 0, 1), None),
    ("gt", 4, (2, 0, 1), None),
    ("sp", 2, 4, None),
    ("eo", 4, 2, 4),
    ("eo", 4, 2, 3),
    ("eo", 5, 1, 4),
    ("gt", 3, (4, 2), None),
    ("gt", 3, (3, 3), None),
    ("sp", 4, 1, None),
    ("oo", 5, 1, None),
    ("sp", 2, 5, None),
    ("gt", 4, (1, 1, 1), None),
    ("eo", 6, 1, 5),
    ("sp", 3, 2, None),
    ("gt", 3, (4, 3), None),
    ("gt", 3, (2, 2), None),
    ("gt", 4, (2, 0, 2), None),
    ("gt", 3, (6, 2), None),
    ("oo", 3, 3, None),
    ("eo", 4, 3, 4),
    ("eo", 4, 3, 3),
    ("sp", 2, 6, None),
    ("gt", 3, (5, 3), None),
    ("gt", 3, (4, 4), None),
]

POSET_LL = [
    ("sp", 3, 5, None),
    ("sp", 2, 16, None),
    ("eo", 4, 7, 3),
    ("gt", 3, (9, 11), None),
    ("oo", 3, 7, None),
    ("gt", 3, (10, 10), None),
]

# A block takes 5-7 s here.  Its three largest U(lambda) and two large
# lattices, 5 of 63 queries, stay above the 90th percentile, which falls
# among the dearest crystals, U(lambda) and small lattices; revisits re-read
# R(lambda) from the memo.
POSET_SLOTS = (
    _fresh("C", {"crystal": 12}) + _fresh("U", {"umax": 11}) + _fresh("UH", {"umax": 3})
    + _fresh("L", {"lattice": 17}) + _fresh("LL", {"lattice": 2})
    + _fresh("RT", {"roundtrip": 10})
    + _revisits({("C", "crystal"): 8}))

# -- cli ---------------------------------------------------------------------

# One list of argument vectors per subcommand; "{crystal}" and "{lattice}" are
# poset files that CLI_FILES invocations write before timing starts.
CLI_POOL = {
    "info": [["info", "--diagram", "E8"], ["info", "--diagram", "E7"],
             ["info", "--diagram", "F4"], ["info", "--diagram", "A3+B3"]],
    "numbers-game": [["numbers-game", "--diagram", "G2", "--position", "1,0"],
                     ["numbers-game", "--diagram", "A2", "--position", "1,1",
                      "--strategy", "all"],
                     ["numbers-game", "--diagram", "B3", "--position", "0,0,1",
                      "--json"]],
    "roots": [["roots", "--diagram", "G2"], ["roots", "--diagram", "F4", "--json"],
              ["roots", "--diagram", "D5"]],
    "char": [["char", "--diagram", "G2", "--weight", "1,1"],
             ["char", "--diagram", "B3", "--weight", "0,1,0", "--method", "kostant"],
             ["char", "--diagram", "A3", "--weight", "1,0,1", "--json"]],
    "expand": [["expand", "--diagram", "A2", "--weights", "1,0", "0,1"],
               ["expand", "--diagram", "G2", "--weights", "1,0", "1,0", "--json"],
               ["expand", "--diagram", "C3", "--weights", "1,0,0", "0,0,1"]],
    "alternant": [["alternant", "--diagram", "A2", "--weight", "1,1"],
                  ["alternant", "--diagram", "C2", "--weight", "1,2", "--json"],
                  ["alternant", "--diagram", "G2", "--weight", "2,1"]],
    "crystal": [["crystal", "--diagram", "A2", "--weight", "1,1"],
                ["crystal", "--diagram", "G2", "--weight", "1,0", "--export", "dot"],
                ["crystal", "--diagram", "B3", "--weight", "0,0,1"]],
    "decompose": [["decompose", "--diagram", "A2", "--lhs", "1,0", "--rhs", "1,1"],
                  ["decompose", "--diagram", "G2", "--lhs", "1,0", "--rhs", "1,0",
                   "--json"],
                  ["decompose", "--diagram", "C3", "--lhs", "1,0,0", "--rhs", "0,1,0"]],
    "branch": [["branch", "--diagram", "A3", "--weight", "1,0,1", "--subset", "1,2"],
               ["branch", "--diagram", "G2", "--weight", "1,1", "--subset", "1"],
               ["branch", "--diagram", "B3", "--weight", "1,0,0", "--subset", "2,3",
                "--json"]],
    "umax": [["umax", "--diagram", "A2", "--weight", "1,1"],
             ["umax", "--diagram", "G2", "--weight", "1,0", "--export", "dot"],
             ["umax", "--diagram", "C2", "--weight", "0,2"]],
    "lattice": [["lattice", "--family", "gt", "--n", "3", "--weight", "1,1", "--verify"],
                ["lattice", "--family", "sp", "--n", "2", "--m", "2", "--rgf"],
                ["lattice", "--family", "oo", "--n", "3", "--m", "1", "--export", "json"],
                ["lattice", "--family", "eo", "--n", "4", "--m", "1", "--node", "n",
                 "--verify"]],
    "rgf": [["rgf", "--diagram", "G2", "--weight", "0,1"],
            ["rgf", "--diagram", "A4", "--weight", "1,0,0,1", "--json"],
            ["rgf", "--diagram", "E6", "--weight", "1,0,0,0,0,0"]],
    "verify": [["verify", "--diagram", "A2", "--poset", "{crystal}", "--targets", "1,1"],
               ["verify", "--diagram", "A2", "--poset", "{lattice}", "--targets", "1,1"]],
    "experiment": [["experiment", "--diagram", "A2", "--weight", "1,1"],
                   ["experiment", "--diagram", "G2", "--weight", "1,0"],
                   ["experiment", "--diagram", "B3", "--weight", "0,0,1"]],
}

CLI_FILES = {
    "crystal": ["crystal", "--diagram", "A2", "--weight", "1,1", "--export", "json"],
    "lattice": ["lattice", "--family", "gt", "--n", "3", "--weight", "1,1",
                "--export", "json"],
}

# -- generation --------------------------------------------------------------


def diagrams(workload):
    """Diagram specs a worker builds during set-up, in a fixed order."""
    if workload == "characters":
        pools = CHAR_T + CHAR_S + CHAR_M + CHAR_K + [CHAR_HEAVY]
        pools += [(spec, a) for spec, a, _ in CHAR_X]
    elif workload == "posets":
        pools = POSET_C + POSET_RT + POSET_U + POSET_UH
    else:
        return []
    seen = []
    for spec, _ in pools:
        if spec not in seen:
            seen.append(spec)
    return seen


class _Pool:
    """A class pool cut into cost strata, each drawn in seed order.

    A draw skips keys already used in the run; when a stratum is used up it
    starts over, so long runs repeat entries.  A pool with fewer entries
    than slots has one entry per stratum.
    """

    def __init__(self, entries, n_strata, rng, used):
        k = len(entries)
        n_strata = min(n_strata, k)
        self.strata = [entries[s * k // n_strata:(s + 1) * k // n_strata]
                       for s in range(n_strata)]
        self.order = [[] for _ in range(n_strata)]
        self.rng, self.used = rng, used

    def draw(self, s):
        s %= len(self.strata)
        for _ in range(2):
            if not self.order[s]:
                self.order[s] = self.strata[s][:]
                self.rng.shuffle(self.order[s])
            while self.order[s]:
                e = self.order[s].pop()
                if e not in self.used:
                    self.used.add(e)
                    return e
            self.used.difference_update(self.strata[s])
        raise RuntimeError("empty stratum")


def _pools(slots, classes, rng, shared):
    """One _Pool per class; classes in `shared` share one used-key set."""
    used = set()
    pools = {}
    for cls, entries in classes.items():
        n = sum(1 for op, c, _ in slots if c == cls and op != "revisit")
        pools[cls] = _Pool(entries, max(n, 1), rng, used if cls in shared else set())
    return pools


def _lattice_query(e):
    fam, n, p, node = e
    q = {"op": "lattice", "family": fam, "n": n}
    if fam == "gt":
        q["weight"] = list(p)
    else:
        q["m"] = p
    if node is not None:
        q["node"] = node
    return q


def _block(slots, pools, rng, history):
    """One block in seed order; revisits repeat an earlier entry of their class."""
    slots = list(slots)
    rng.shuffle(slots)
    if not history:     # revisits need an earlier query to repeat
        slots.sort(key=lambda s: s[0] == "revisit")
    block = []
    for op, cls, arg in slots:
        if op == "revisit":
            spec, lam = rng.choice(history[cls])
            q = {"op": arg, "diagram": spec, "weight": list(lam), "revisit": True}
        elif op == "lattice":
            q = _lattice_query(pools[cls].draw(arg))
        elif op == "expand":
            spec, a, b = pools[cls].draw(arg)
            q = {"op": op, "diagram": spec, "weight": list(a), "other": list(b)}
        else:
            e = CHAR_HEAVY if cls == "H" else pools[cls].draw(arg)
            history.setdefault(cls, []).append(e)
            q = {"op": op, "diagram": e[0], "weight": list(e[1])}
        if q["op"] == "crystal":
            rank = len(q["weight"])
            q["other"] = [1] + [0] * (rank - 1)
            q["nodes"] = list(range(1, rank))
        block.append(q)
    return block


def _cli_block(rng):
    """Every invocation of the pool once, in seed order."""
    argvs = [argv for name in sorted(CLI_POOL) for argv in CLI_POOL[name]]
    rng.shuffle(argvs)
    return [{"op": "cli", "argv": argv} for argv in argvs]


def _stream(workload, rng):
    if workload == "cli":
        while True:
            yield _cli_block(rng)
    if workload == "characters":
        slots, shared = CHAR_SLOTS, ("T", "S", "M", "K")
        classes = {"T": CHAR_T, "S": CHAR_S, "M": CHAR_M, "K": CHAR_K, "X": CHAR_X}
        first = [("freudenthal", "H", 0)]
    elif workload == "posets":
        # crystal and round-trip queries share build_crystal's memo
        slots, shared = POSET_SLOTS, ("C", "RT")
        classes = {"C": POSET_C, "RT": POSET_RT, "U": POSET_U, "UH": POSET_UH,
                   "L": POSET_L, "LL": POSET_LL}
        first = []
    else:
        raise ValueError("unknown workload %r" % workload)
    pools = _pools(slots, classes, rng, shared)
    history = {}
    yield _block(slots + first, pools, rng, history)
    while True:
        yield _block(slots, pools, rng, history)


def blocks(workload, seed):
    """Endless stream of query blocks; ids count up from 0 across blocks.

    The first characters block also computes E8 omega_8, whose 2.2 s go
    almost all to the dominant-weight box search.
    """
    next_id = 0
    for block in _stream(workload, random.Random("%s:%d" % (workload, seed))):
        for q in block:
            q["id"] = next_id
            next_id += 1
        yield block


def digest(workload, seed, n_blocks=8):
    """sha256 of the first n_blocks blocks: equal seeds give equal digests."""
    gen = blocks(workload, seed)
    text = json.dumps([next(gen) for _ in range(n_blocks)], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
