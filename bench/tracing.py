"""Spans around the layer functions of ``pathsep``, installed from outside.

``Recorder.install()`` replaces each function in ``LAYERS`` by a wrapper at
every module binding of it (``pathsep.degenerate.removal_plan_2degenerate``
as well as ``pathsep.graphs.removal_plan_2degenerate``) and, for methods, on
the class.  Module globals and class attributes are looked up at call time,
so nested calls inside the library are caught without touching its source.

A span is ``[name, start_ns, end_ns, parent, op, counts]``; ``op`` is the
index of the operation that ran it, or ``SETUP`` for input generation.
``counts`` is derived from the return value (plan cut steps, trace case
tags, oracle nodes, verdicts).  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

SETUP = -1

# span name -> (module, attribute; "Class.method" for methods)
LAYERS = {
    "graphs.load_graph": ("pathsep.graphs", "load_graph"),
    "graphs.parse_graph": ("pathsep.graphs", "parse_graph"),
    "graphs.is_2_degenerate": ("pathsep.graphs", "is_2_degenerate"),
    "graphs.removal_plan_2degenerate": ("pathsep.graphs", "removal_plan_2degenerate"),
    "graphs.connected_components": ("pathsep.graphs", "connected_components"),
    "graphs.is_connected": ("pathsep.graphs", "is_connected"),
    "graphs.classify_component": ("pathsep.graphs", "classify_component"),
    "graphs.induced_subgraph": ("pathsep.graphs", "induced_subgraph"),
    "graphs.find_non_triangle_edge": ("pathsep.graphs", "find_non_triangle_edge"),
    "degenerate.build_ssp_2degenerate": ("pathsep.degenerate", "build_ssp_2degenerate"),
    "degenerate.build_ssp_cubic_minus_edge": ("pathsep.degenerate", "build_ssp_cubic_minus_edge"),
    "cubic.build_ssp_cubic": ("pathsep.cubic", "build_ssp_cubic"),
    "cubic.build_ssp_auto": ("pathsep.cubic", "build_ssp_auto"),
    "cubic.build_ssp_subcubic": ("pathsep.cubic", "build_ssp_subcubic"),
    "cubic.build_ssp_outerplanar_entry": ("pathsep.cubic", "build_ssp_outerplanar_entry"),
    "bipartite.build_ssp_complete_bipartite": ("pathsep.bipartite", "build_ssp_complete_bipartite"),
    "systems.load_paths": ("pathsep.systems", "load_paths"),
    "systems.parse_paths": ("pathsep.systems", "parse_paths"),
    "systems.system_from_sequences": ("pathsep.systems", "system_from_sequences"),
    "systems.PathSystem.__post_init__": ("pathsep.systems", "PathSystem.__post_init__"),
    "systems.incidence_profile": ("pathsep.systems", "incidence_profile"),
    "systems.verify_strong_separation": ("pathsep.systems", "verify_strong_separation"),
    "systems.verify_structural_properties": ("pathsep.systems", "verify_structural_properties"),
    "systems.counting_certificate": ("pathsep.systems", "counting_certificate"),
    "systems.format_paths": ("pathsep.systems", "format_paths"),
    "systems.format_paths_json": ("pathsep.systems", "format_paths_json"),
    "oracle.exact_ssp": ("pathsep.oracle", "exact_ssp"),
    "oracle.enumerate_paths": ("pathsep.oracle", "enumerate_paths"),
    "oracle._Search.__init__": ("pathsep.oracle", "_Search.__init__"),
    "oracle._Search.solve_depth": ("pathsep.oracle", "_Search.solve_depth"),
    "cli.main": ("pathsep.cli", "main"),
}
GENERATORS = ("path_graph", "cycle_graph", "complete_graph", "complete_bipartite", "star",
              "prism_graph", "cube_graph", "petersen_graph", "named_graph",
              "random_2degenerate", "random_cubic")
LAYERS.update({f"generators.{f}": ("pathsep.generators", f) for f in GENERATORS})


def _plan_counts(plan):
    return {"cut": sum(1 for s in plan.order if s.kind == "degree2-cut")}


def _trace_counts(result):
    steps = result[1].steps
    return {"steps": len(steps), "join": sum(1 for s in steps if s.case == "deg2-join")}


COUNTS = {
    "graphs.removal_plan_2degenerate": _plan_counts,
    "degenerate.build_ssp_2degenerate": _trace_counts,
    "cubic.build_ssp_auto": lambda r: {"components": len(r[1].components)},
    "cubic.build_ssp_subcubic": lambda r: {"components": len(r[1].components)},
    "systems.verify_strong_separation": lambda v: {"fail": 0 if v.ok else 1},
    "oracle.enumerate_paths": lambda paths: {"paths": len(paths)},
    "oracle.exact_ssp": lambda r: {"nodes": r.nodes},
}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = SETUP
        self.paused = False

    def _wrap(self, name, fn):
        count = COUNTS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function of LAYERS at each binding in pathsep modules."""
        for name, (module_name, attr) in LAYERS.items():
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "pathsep" or mod_name.startswith("pathsep."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)


def self_times(spans) -> list[int]:
    """Per span: its duration minus the durations of its direct children.

    Children run nested inside their parent and one after another, so their
    durations add up to the part of the parent they cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


# Per-layer metric -> (how it is derived, from what); units are in
# BENCHMARK.json.  "self" sums the self time of the named spans over the
# operations of a pass, and "setup" over input generation; "calls" counts
# spans; "per_op" divides them by the operations that ran the span; "ratio"
# divides the calls of the first span by those of the second; "count" sums
# the count named first, taken from the return values of the other spans;
# "rate" divides two metrics listed before it.
METRICS = {
    "graphs.parse_s": ("self", ("graphs.load_graph", "graphs.parse_graph")),
    "graphs.degeneracy_s": ("self", ("graphs.is_2_degenerate",)),
    "graphs.degeneracy_calls_per_op": ("ratio", ("graphs.is_2_degenerate",
                                                 "degenerate.build_ssp_2degenerate")),
    "graphs.plan_s": ("self", ("graphs.removal_plan_2degenerate",)),
    "graphs.plan_cut_steps": ("count", ("cut", "graphs.removal_plan_2degenerate")),
    "graphs.plan_slope": ("slope", ("graphs.removal_plan_2degenerate",)),
    "graphs.components_s": ("self", ("graphs.connected_components", "graphs.is_connected")),
    "graphs.components_calls": ("calls", ("graphs.connected_components",)),
    "graphs.classify_s": ("self", ("graphs.classify_component",)),
    "graphs.induced_s": ("self", ("graphs.induced_subgraph",)),
    "graphs.induced_calls": ("calls", ("graphs.induced_subgraph",)),
    "graphs.triangle_s": ("self", ("graphs.find_non_triangle_edge",)),
    "degenerate.construct_s": ("self", ("degenerate.build_ssp_2degenerate",)),
    "degenerate.cubic_minus_edge_s": ("self", ("degenerate.build_ssp_cubic_minus_edge",)),
    "degenerate.steps": ("count", ("steps", "degenerate.build_ssp_2degenerate")),
    "degenerate.join_steps": ("count", ("join", "degenerate.build_ssp_2degenerate")),
    "cubic.reroute_s": ("self", ("cubic.build_ssp_cubic",)),
    "cubic.dispatch_s": ("self", ("cubic.build_ssp_auto", "cubic.build_ssp_subcubic",
                                       "cubic.build_ssp_outerplanar_entry")),
    "cubic.components": ("count", ("components", "cubic.build_ssp_auto",
                                   "cubic.build_ssp_subcubic")),
    "bipartite.build_s": ("self", ("bipartite.build_ssp_complete_bipartite",)),
    "systems.parse_paths_s": ("self", ("systems.load_paths", "systems.parse_paths",
                                            "systems.system_from_sequences")),
    "systems.system_init_s": ("self", ("systems.PathSystem.__post_init__",)),
    "systems.incidence_s": ("self", ("systems.incidence_profile",)),
    "systems.incidence_calls_per_op": ("per_op", ("systems.incidence_profile",)),
    "systems.verify_s": ("self", ("systems.verify_strong_separation",)),
    "systems.verify_fail": ("count", ("fail", "systems.verify_strong_separation")),
    "systems.structural_s": ("self", ("systems.verify_structural_properties",)),
    "systems.certificate_s": ("self", ("systems.counting_certificate",)),
    "systems.format_paths_s": ("self", ("systems.format_paths", "systems.format_paths_json")),
    "oracle.enumerate_s": ("self", ("oracle.enumerate_paths",)),
    "oracle.precompute_s": ("self", ("oracle._Search.__init__",)),
    "oracle.candidate_paths": ("count", ("paths", "oracle.enumerate_paths")),
    "oracle.search_s": ("self", ("oracle._Search.solve_depth",)),
    "oracle.nodes": ("count", ("nodes", "oracle.exact_ssp")),
    "oracle.nodes_per_s": ("rate", ("oracle.nodes", "oracle.search_s")),
    "cli.self_s": ("self", ("cli.main",)),
    "cli.calls": ("calls", ("cli.main",)),
    "generators.gen_s": ("setup", tuple(f"generators.{f}" for f in GENERATORS)),
}


def layer_metrics(spans, ladder: dict[int, int]) -> dict[str, float]:
    """Per-layer metrics of one pass; ``ladder`` maps op index -> n for the
    builds whose plan times give ``graphs.plan_slope``."""
    own = self_times(spans)
    self_s: dict[str, float] = {}
    setup_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[tuple[str, str], int] = {}
    ops_with: dict[str, set] = {}
    plan_by_op: dict[int, float] = {}
    for span, t in zip(spans, own):
        name, op, extra = span[0], span[4], span[5]
        if op == SETUP:
            setup_s[name] = setup_s.get(name, 0.0) + t / 1e9
            continue
        self_s[name] = self_s.get(name, 0.0) + t / 1e9
        calls[name] = calls.get(name, 0) + 1
        ops_with.setdefault(name, set()).add(op)
        if name == "graphs.removal_plan_2degenerate" and op in ladder:
            plan_by_op[op] = plan_by_op.get(op, 0.0) + t / 1e9
        for key, value in (extra or {}).items():
            counts[(name, key)] = counts.get((name, key), 0) + value
    out: dict[str, float] = {}
    for metric, (how, names) in METRICS.items():
        if how == "self":
            out[metric] = sum(self_s.get(n, 0.0) for n in names)
        elif how == "setup":
            out[metric] = sum(setup_s.get(n, 0.0) for n in names)
        elif how == "calls":
            out[metric] = calls.get(names[0], 0)
        elif how == "per_op":
            ran = len(ops_with.get(names[0], ()))
            out[metric] = calls.get(names[0], 0) / ran if ran else 0.0
        elif how == "ratio":
            den = calls.get(names[1], 0)
            out[metric] = calls.get(names[0], 0) / den if den else 0.0
        elif how == "count":
            out[metric] = sum(counts.get((n, names[0]), 0) for n in names[1:])
        elif how == "slope":
            points = [(ladder[op], t) for op, t in plan_by_op.items() if t > 0]
            out[metric] = loglog_slope(points)
        elif how == "rate":
            den = out[names[1]]
            out[metric] = out[names[0]] / den if den > 0 else 0.0
    return out


def loglog_slope(points) -> float:
    """Least-squares slope of log(time) over log(n); 0.0 with under 2 sizes."""
    if len({n for n, _ in points}) < 2:
        return 0.0
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
