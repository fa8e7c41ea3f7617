"""Per-layer tracing of skychow from outside the package.

The tracer rebinds public functions in every skychow module that imported
them, and wraps a few hot methods on their classes.  Each call records a
span (name, start, end, parent span, op id) in flat in-memory arrays; the
spans are written out once, when the run ends.  Nothing in the package is
edited, and ``uninstall`` puts every original back.

Layers are the package's modules.  A layer's self time is the time of its
spans minus the time covered by their direct child spans.
"""

from __future__ import annotations

import importlib
import json
import math
import time
import weakref
from array import array
from collections import Counter
from random import Random

import workloads

LAYERS = ("poly", "proximity", "chowring", "oracle", "finality", "curve", "cli")

# Public functions per defining module.  Calls that resolve through another
# module's global name (cli's load_config -> validate_config, oracle's use
# of monomials_of_degree) are caught because every importer is rebound.
FUNCTIONS = {
    "poly": ("monomials_of_degree", "random_homogeneous", "format_polynomial"),
    "proximity": (
        "validate_config",
        "change_of_basis",
        "augmented_change_of_basis",
        "invert_unitriangular",
        "strict_to_total",
        "total_to_strict",
    ),
    "chowring": (
        "normal_form",
        "from_divisor",
        "total_presentation",
        "strict_presentation",
        "rho",
    ),
    "finality": (
        "finality_report",
        "final_by_chow",
        "final_by_proximity",
        "intersecting_indices",
    ),
    "oracle": (
        "membership",
        "reduce",
        "quotient_structure",
        "quotient_rank",
        "rational_membership",
        "minimal_generator_count",
    ),
    "curve": ("curve_normal_form", "curve_ring_checks", "curve_ideal"),
    "cli": (
        "main",
        "load_config",
        "parse_expression",
        "cmd_present",
        "cmd_intersect",
        "cmd_final",
        "cmd_verify",
        "cmd_dot",
        "cmd_curve_example",
    ),
}

METHODS = {
    "poly": (("Polynomial", ("__mul__", "__rmul__", "substitute")),),
    "chowring": (("ChowElement", ("__mul__", "__rmul__")),),
    "oracle": (
        ("HermiteLattice", ("add_row", "reduce_vector", "elementary_divisors")),
        ("GradedIdeal", ("piece",)),
    ),
}

# Reported per-layer timings: metric stem -> span names it sums.  Each stem
# gives <stem>.calls and <stem>.ms, both per traced op.
TIMED = {
    "cli.load_config": ("cli.load_config",),
    "cli.parse_expression": ("cli.parse_expression",),
    "proximity.validate_config": ("proximity.validate_config",),
    "proximity.strict_to_total": ("proximity.strict_to_total",),
    "proximity.invert_unitriangular": ("proximity.invert_unitriangular",),
    "chowring.mul": ("chowring.mul",),
    "chowring.normal_form": ("chowring.normal_form",),
    "chowring.presentation": ("chowring.total_presentation", "chowring.strict_presentation"),
    "chowring.rho": ("chowring.rho",),
    "finality.report": ("finality.finality_report",),
    "finality.final_by_chow": ("finality.final_by_chow",),
    "oracle.add_row": ("oracle.add_row",),
    "oracle.reduce": ("oracle.reduce",),
    "oracle.membership": ("oracle.membership",),
    "oracle.elementary_divisors": ("oracle.elementary_divisors",),
    "oracle.minimal_generator_count": ("oracle.minimal_generator_count",),
    "poly.monomials_of_degree": ("poly.monomials_of_degree",),
    "poly.mul": ("poly.mul",),
    "poly.substitute": ("poly.substitute",),
    "poly.random_homogeneous": ("poly.random_homogeneous",),
    "curve.normal_form": ("curve.curve_normal_form",),
    "curve.ring_checks": ("curve.curve_ring_checks",),
}

COUNTED = {
    "oracle.piece.builds": "count",
    "oracle.piece.hits": "count",
    "oracle.build.ms": "ms",
    "oracle.add_row.useful_ratio": "ratio",
    "oracle.slice_width.max": "count",
    "oracle.lattice_rank.max": "count",
    "oracle.coef_bits.max": "bits",
    "oracle.smith_fallbacks": "count",
    "finality.meeting_ratio": "ratio",
}

TRACE_SUMMARY = {
    "trace.ops": "count",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.ops_per_s_ratio": "ratio",
}

# Scaling sweep: (name, n, sizes, callable name, config shape).  A chain has
# point j proximate to point j-1; "random" is the workloads' generator with
# 0..2 targets per point under a fixed seed.  A chain makes the inverse
# proximity matrix dense, which strict_presentation pays for as O(s^4).
SWEEPS = (
    ("finality_report", 3, (40, 80, 160), "finality_report", "chain"),
    ("oracle_n3", 3, (6, 8, 10), "all_slices", "chain"),
    ("oracle_n4", 4, (5, 6, 7), "all_slices", "chain"),
    ("strict_presentation", 3, (20, 40, 80), "strict_presentation", "random"),
)
SWEEP_LAYERS = {
    "finality_report": ("chowring", "finality"),
    "oracle_n3": ("oracle", "poly"),
    "oracle_n4": ("oracle", "poly"),
    "strict_presentation": ("chowring", "poly", "proximity"),
}


def per_layer_metric_units() -> dict:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for stem in TIMED:
        units[stem + ".calls"] = "count"
        units[stem + ".ms"] = "ms"
    units.update(COUNTED)
    for layer in LAYERS:
        units[layer + ".self_ms"] = "ms"
    units.update(TRACE_SUMMARY)
    for name, _, sizes, _, _ in SWEEPS:
        for s in sizes:
            units["sweep.%s.s%d.ms" % (name, s)] = "ms"
        units["sweep.%s.slope" % name] = "slope"
        for layer in SWEEP_LAYERS[name]:
            units["sweep.%s.%s.slope" % (name, layer)] = "slope"
    return units


def _span_name(layer: str, attr: str) -> str:
    return "%s.%s" % (layer, "mul" if attr in ("__mul__", "__rmul__") else attr.strip("_"))


class Tracer:
    """Span recorder that wraps skychow's public callables while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.current_op = -1
        self.counters = Counter()
        self.maxima = Counter()
        self.build_spans: list[int] = []
        self._stack = [-1]
        self._built: list = []
        self._seen_pieces = weakref.WeakValueDictionary()
        self._saved: list = []

    def __len__(self):
        return len(self.start)

    def _wrap(self, fn, name, post=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.current_op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(args, result, idx)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # post-call hooks: they run outside the callee's span
    def _after_add_row(self, args, grew, idx):
        self.counters["add_row.folded"] += 1
        self.counters["add_row.grew"] += bool(grew)

    def _after_elementary_divisors(self, args, result, idx):
        if any(p != 1 for p in args[0].pivot_values()):
            self.counters["smith_fallbacks"] += 1

    def _after_piece(self, args, piece, idx):
        key = id(piece)
        if self._seen_pieces.get(key) is piece:
            self.counters["piece.hits"] += 1
            return
        self._seen_pieces[key] = piece
        self.counters["piece.builds"] += 1
        self.build_spans.append(idx)
        self._built.append(piece)

    def _after_intersecting(self, args, result, idx):
        self.counters["meet.found"] += len(result)
        self.counters["meet.tried"] += args[0].s - 1

    def install(self):
        import skychow

        modules = {layer: importlib.import_module("skychow." + layer) for layer in LAYERS}
        everywhere = [skychow, *modules.values()]
        hooks = {
            "oracle.add_row": self._after_add_row,
            "oracle.elementary_divisors": self._after_elementary_divisors,
            "oracle.piece": self._after_piece,
            "finality.intersecting_indices": self._after_intersecting,
        }
        for layer, names in FUNCTIONS.items():
            for attr in names:
                original = getattr(modules[layer], attr)
                name = _span_name(layer, attr)
                wrapper = self._wrap(original, name, hooks.get(name))
                for mod in everywhere:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapper)
        for layer, classes in METHODS.items():
            for cls_name, attrs in classes:
                cls = getattr(modules[layer], cls_name)
                for attr in attrs:
                    original = cls.__dict__[attr]
                    name = _span_name(layer, attr)
                    self._saved.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(original, name, hooks.get(name)))

    def uninstall(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def finish_op(self, record=True):
        """Slice statistics of the pieces the op built; runs after its timing."""
        for piece in self._built if record else ():
            rows = piece.lattice.rows
            bits = max((abs(c) for row in rows for c in row), default=0).bit_length()
            self.maxima["slice_width"] = max(self.maxima["slice_width"], len(piece.monomials))
            self.maxima["lattice_rank"] = max(self.maxima["lattice_rank"], len(rows))
            self.maxima["coef_bits"] = max(self.maxima["coef_bits"], bits)
        self._built.clear()

    def aggregate(self, lo: int, hi: int):
        """Over spans lo..hi-1: (calls, inclusive ns) per span name, self ns per layer."""
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        durations = {k: ends[k] - starts[k] for k in range(lo, hi)}
        covered = Counter()
        for k in range(lo, hi):
            if parents[k] >= lo:
                covered[parents[k]] += durations[k]
        calls, inclusive, self_ns = Counter(), Counter(), Counter()
        for k in range(lo, hi):
            nid = names[k]
            calls[nid] += 1
            p = parents[k]
            if p < lo or names[p] != nid:  # count a recursive span once
                inclusive[nid] += durations[k]
            self_ns[self.names[nid].split(".", 1)[0]] += durations[k] - covered[k]
        by_name = {self.names[nid]: (calls[nid], inclusive[nid]) for nid in calls}
        return by_name, self_ns

    def dump(self, path: str):
        """Write every span as [name, start_ns, end_ns, parent, op]."""
        t0 = self.start[0] if len(self) else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"names": %s, "fields": ["name", "start_ns", "end_ns", "parent", "op"], "spans": [\n'
                     % json.dumps(self.names))
            rows = zip(self.name, self.start, self.end, self.parent, self.op)
            fh.write(",\n".join("[%d,%d,%d,%d,%d]" % (n, s - t0, e - t0, p, o) for n, s, e, p, o in rows))
            fh.write("]}\n")


def _ratio(num, den):
    return num / den if den else 0.0


def op_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-op layer metrics over the traced ops, which hold every span so far."""
    by_name, self_ns = tracer.aggregate(0, len(tracer))
    per_op = max(n_ops, 1)
    out = {}
    for stem, spans in TIMED.items():
        calls = sum(by_name.get(s, (0, 0))[0] for s in spans)
        ns = sum(by_name.get(s, (0, 0))[1] for s in spans)
        out[stem + ".calls"] = calls / per_op
        out[stem + ".ms"] = ns / 1e6 / per_op
    c = tracer.counters
    builds = tracer.build_spans
    out["oracle.piece.builds"] = len(builds) / per_op
    out["oracle.piece.hits"] = c["piece.hits"] / per_op
    out["oracle.build.ms"] = sum(tracer.end[k] - tracer.start[k] for k in builds) / 1e6 / per_op
    out["oracle.add_row.useful_ratio"] = _ratio(c["add_row.grew"], c["add_row.folded"])
    out["oracle.slice_width.max"] = tracer.maxima["slice_width"]
    out["oracle.lattice_rank.max"] = tracer.maxima["lattice_rank"]
    out["oracle.coef_bits.max"] = tracer.maxima["coef_bits"]
    out["oracle.smith_fallbacks"] = c["smith_fallbacks"] / per_op
    out["finality.meeting_ratio"] = _ratio(c["meet.found"], c["meet.tried"])
    for layer in LAYERS:
        out[layer + ".self_ms"] = self_ns[layer] / 1e6 / per_op
    return out


def _sweep_config(proximity, n, s, shape):
    if shape == "chain":
        prox = {(j, j - 1) for j in range(2, s + 1)}
    else:
        points = workloads.random_points(Random(0), s, 2)
        prox = {(p["id"], t) for p in points for t in p["proximate_to"]}
    return proximity.ProximityConfig(n=n, s=s, prox=frozenset(prox))


def _slope(sizes, values):
    """Least-squares slope of log(value) against log(size); 0 if any value is 0."""
    if min(values) <= 0:
        return 0.0
    xs = [math.log(s) for s in sizes]
    ys = [math.log(v) for v in values]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def run_sweep(tracer: Tracer) -> tuple[dict, list]:
    """Traced scaling sweep, run after the traced ops.

    Returns the sweep metrics and one table entry per sweep with the wall
    ms and per-layer self ms at each size, and each layer's log-log slope.
    """
    from skychow import chowring, finality, oracle, proximity

    def all_slices(config):
        relations = chowring.total_presentation(config).relations
        ideal = oracle.GradedIdeal(config.s + 1, relations, config.n + 1)
        for d in range(config.n + 2):
            ideal.piece(d)
        oracle.minimal_generator_count(ideal)

    calls = {
        "finality_report": lambda c: finality.finality_report(c),
        "all_slices": all_slices,
        "strict_presentation": lambda c: chowring.strict_presentation(c),
    }
    metrics, table = {}, []
    tracer.current_op = -1  # sweep points get op ids -2, -3, ...
    for name, n, sizes, call, shape in SWEEPS:
        walls, self_ms = [], {layer: [] for layer in LAYERS}
        for s in sizes:
            config = _sweep_config(proximity, n, s, shape)
            tracer.current_op -= 1
            lo = len(tracer)
            t0 = time.perf_counter()
            calls[call](config)
            walls.append((time.perf_counter() - t0) * 1e3)
            tracer.finish_op(record=False)
            _, self_ns = tracer.aggregate(lo, len(tracer))
            for layer in LAYERS:
                self_ms[layer].append(self_ns[layer] / 1e6)
            metrics["sweep.%s.s%d.ms" % (name, s)] = walls[-1]
        metrics["sweep.%s.slope" % name] = _slope(sizes, walls)
        for layer in SWEEP_LAYERS[name]:
            metrics["sweep.%s.%s.slope" % (name, layer)] = _slope(sizes, self_ms[layer])
        slopes = {layer: _slope(sizes, v) for layer, v in self_ms.items()}
        slopes["total"] = metrics["sweep.%s.slope" % name]
        table.append({"sweep": name, "n": n, "sizes": list(sizes), "ms": walls,
                      "self_ms": self_ms, "slopes": slopes})
    return metrics, table
