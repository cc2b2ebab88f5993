"""Span recording around weylsplit's public functions, from outside the package.

`install` wraps the public functions and methods listed in TARGETS.  Every
call becomes a span (name, start, end, parent, query id, count) held in
memory; `Tracer.dump` writes them once, at the end of the traced process.
`layer_metrics` turns the dumped traces into per-layer self times and counts.

The wrappers replace each function in every weylsplit module that imported
it by name, so calls made inside the package are seen too.  Nothing here
reads a private name of the package.
"""

import json
import sys
import time


def _n(poset):
    return poset.n


def _patterns(lattice):
    return lattice.poset.n


# (module, attribute, span name, count of the result or None)
TARGETS = [
    ("cartan", "build_diagram", "cartan.diagram", None),
    ("cartan", "DynkinDiagram.weyl_orbit", "cartan.orbit", len),
    ("cartan", "DynkinDiagram.constants", "numbersgame.constants", None),
    ("numbersgame", "rgf_exponents", "numbersgame.rgf_exponents", None),
    ("numbersgame", "play", "numbersgame.play", None),
    ("wsf", "dominant_weights_below", "wsf.dominant_weights", len),
    ("wsf", "dominant_multiplicities", "wsf.freudenthal", len),
    ("wsf", "freudenthal", "wsf.character", None),
    ("wsf", "WeylSymFn.__mul__", "wsf.product", None),
    ("wsf", "weight_diagram", "wsf.weight_diagram", None),
    ("wsf", "kostant_multiplicity", "wsf.kostant", None),
    ("wsf", "expand_in_bialternants", "wsf.expand", None),
    ("wsf", "specialize", "wsf.specialize", None),
    ("ecposet", "ColoredPoset.__init__", "ecposet.poset_init", None),
    ("ecposet", "maximal_splitting_poset", "ecposet.umax", None),
    ("ecposet", "verify_splitting", "ecposet.verify", None),
    ("ecposet", "verify_subblock_coloring", "ecposet.verify", None),
    ("ecposet", "export_poset", "ecposet.export", None),
    ("ecposet", "import_poset", "ecposet.import", None),
    ("crystal", "build_crystal", "crystal.closure", _n),
    ("crystal", "decompose", "crystal.decompose", None),
    ("crystal", "branch", "crystal.branch", None),
    ("patternlat", "gt_lattice", "patternlat.lattice", _patterns),
    ("patternlat", "odd_orth_lattice", "patternlat.lattice", _patterns),
    ("patternlat", "symplectic_lattice", "patternlat.lattice", _patterns),
    ("patternlat", "even_orth_lattice", "patternlat.lattice", _patterns),
    ("patternlat", "rgf_quotient", "patternlat.rgf_quotient", None),
    ("qpoly", "quotient_rgf", "qpoly.quotient_rgf", None),
    ("cli", "main", "cli.main", None),
]

MODULES = ("cartan", "numbersgame", "wsf", "ecposet", "crystal", "patternlat",
           "qpoly", "cli")


class Tracer:
    """In-memory span list; spans nest by call order."""

    def __init__(self):
        self.spans = []         # [name, start, end, parent, qid, count]
        self.stack = []
        self.qid = -1           # -1 marks set-up work
        self.counters = {}      # name -> number, for counts no span holds

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.qid, 0])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, idx, count=0):
        self.stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = count

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh,
                      separators=(",", ":"))


def _wrap(tracer, fn, name, count):
    if name == "numbersgame.constants":
        built = {}      # id -> diagram, kept alive so ids are not reused

        def constants(self):
            if id(self) in built:
                return fn(self)
            built[id(self)] = self
            idx = tracer.begin(name)
            try:
                return fn(self)
            finally:
                tracer.end(idx)
        return constants

    if name == "ecposet.poset_init":
        def init(self, n_vertices, edges, *args, **kw):
            idx = tracer.begin(name)
            try:
                return fn(self, n_vertices, edges, *args, **kw)
            finally:
                tracer.end(idx, len(getattr(self, "edges", ())))
        return init

    if name == "wsf.dominant_weights":
        def dominant_weights(d, lam):
            idx = tracer.begin(name)
            found = None
            try:
                found = fn(d, lam)
                return found
            finally:
                tracer.end(idx, len(found) if found is not None else 0)
                box = 1
                for c in d.to_root_coords(lam):
                    box *= int(c) + 1
                tracer.add("wsf.dominant_weights_box", box)
        return dominant_weights

    def wrapper(*args, **kw):
        idx = tracer.begin(name)
        result = None
        try:
            result = fn(*args, **kw)
            return result
        finally:
            tracer.end(idx, count(result) if count and result is not None else 0)
    return wrapper


def install(tracer):
    """Wrap every target in every loaded weylsplit module; returns the tracer."""
    mods = {k: v for k, v in sys.modules.items()
            if k == "weylsplit" or k.startswith("weylsplit.")}
    for modname, attr, name, count in TARGETS:
        mod = mods.get("weylsplit." + modname)
        if mod is None:
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, _wrap(tracer, getattr(cls, meth), name, count))
            continue
        orig = getattr(mod, attr)
        new = _wrap(tracer, orig, name, count)
        for other in mods.values():
            for key, val in list(vars(other).items()):
                if val is orig:
                    setattr(other, key, new)
    return tracer


# ---------------------------------------------------------------------------
# aggregation

# metric name -> (span name, what): "s" self time, "calls", "count" summed
LAYER_METRICS = {
    "cartan.diagram_s": ("cartan.diagram", "s"),
    "cartan.orbit_s": ("cartan.orbit", "s"),
    "cartan.orbit_calls": ("cartan.orbit", "calls"),
    "cartan.orbit_weights": ("cartan.orbit", "count"),
    "numbersgame.constants_s": ("numbersgame.constants", "s"),
    "numbersgame.rgf_exponents_s": ("numbersgame.rgf_exponents", "s"),
    "numbersgame.play_s": ("numbersgame.play", "s"),
    "wsf.dominant_weights_s": ("wsf.dominant_weights", "s"),
    "wsf.dominant_weights_found": ("wsf.dominant_weights", "count"),
    "wsf.freudenthal_s": ("wsf.freudenthal", "s"),
    "wsf.freudenthal_calls": ("wsf.freudenthal", "calls"),
    "wsf.freudenthal_dominants": ("wsf.freudenthal", "count"),
    "wsf.character_s": ("wsf.character", "s"),
    "wsf.product_s": ("wsf.product", "s"),
    "wsf.weight_diagram_s": ("wsf.weight_diagram", "s"),
    "wsf.kostant_s": ("wsf.kostant", "s"),
    "wsf.kostant_calls": ("wsf.kostant", "calls"),
    "wsf.expand_s": ("wsf.expand", "s"),
    "wsf.specialize_s": ("wsf.specialize", "s"),
    "ecposet.poset_init_s": ("ecposet.poset_init", "s"),
    "ecposet.poset_init_calls": ("ecposet.poset_init", "calls"),
    "ecposet.poset_edges": ("ecposet.poset_init", "count"),
    "ecposet.umax_s": ("ecposet.umax", "s"),
    "ecposet.verify_s": ("ecposet.verify", "s"),
    "ecposet.export_s": ("ecposet.export", "s"),
    "ecposet.import_s": ("ecposet.import", "s"),
    "crystal.closure_s": ("crystal.closure", "s"),
    "crystal.vertices": ("crystal.closure", "count"),
    "crystal.decompose_s": ("crystal.decompose", "s"),
    "crystal.branch_s": ("crystal.branch", "s"),
    "patternlat.lattice_s": ("patternlat.lattice", "s"),
    "patternlat.patterns": ("patternlat.lattice", "count"),
    "patternlat.rgf_quotient_s": ("patternlat.rgf_quotient", "s"),
    "qpoly.quotient_rgf_s": ("qpoly.quotient_rgf", "s"),
    "cli.format_s": ("cli.main", "s"),
}


def self_times(spans):
    """Per span: duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


# counts only the caller or a special wrapper knows, with their units
COUNTERS = {"wsf.dominant_weights_box": "count", "cli.import_s": "s",
            "cli.stdout_bytes": "count", "cli.process_s": "s"}


def layer_metrics(traces, query_time):
    """Per-layer totals over all dumped traces, every metric present.

    <module>.self_s is the self time of the module's spans inside queries
    (qid >= 0); other.self_s is the part of query_time, the summed latency
    of the traced queries, that no layer span covers.
    """
    tot = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    out = dict.fromkeys(COUNTERS, 0)
    for trace in traces:
        for k, v in trace["counters"].items():
            out[k] += v
        spans = trace["spans"]
        for s, st in zip(spans, self_times(spans)):
            t = tot.setdefault(s[0], [0.0, 0, 0])
            t[0] += st
            t[1] += 1
            t[2] += s[5]
            mod = s[0].split(".")[0]
            if s[4] >= 0 and mod in module_self:
                module_self[mod] += st
    for metric, (name, what) in LAYER_METRICS.items():
        t = tot.get(name, (0.0, 0, 0))
        out[metric] = t[0] if what == "s" else t[1] if what == "calls" else t[2]
    for mod in MODULES:
        out[mod + ".self_s"] = module_self[mod]
    out["other.self_s"] = query_time - sum(module_self.values())
    return out


def shares(metrics):
    """Shares of the traced query time: each module, CLI import and process
    start (zero outside the cli workload), and the rest."""
    parts = {m: metrics[m + ".self_s"] for m in MODULES}
    parts["cli.import"] = metrics["cli.import_s"]
    parts["cli.process"] = metrics["cli.process_s"]
    parts["other"] = (metrics["other.self_s"] - metrics["cli.import_s"]
                      - metrics["cli.process_s"])
    total = sum(parts.values())
    return {k: round(v / total, 4) for k, v in parts.items()}
