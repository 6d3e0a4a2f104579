"""Golden pin of the builder stack.

One sha256 over the removal plan, the construction trace and the emitted
system of every builder on about 200 seeded graphs, plus the (exception
type, message) of every refusal.  A change to tie-breaking, to a case tag,
to the order of paths or to an error message changes the digest.
"""

import hashlib
import random

from pathsep import (
    Graph, PathsepError, build_ssp_2degenerate, build_ssp_auto,
    build_ssp_outerplanar_entry, build_ssp_subcubic, format_paths,
    removal_plan_2degenerate,
)
from pathsep.generators import (
    complete_graph, cycle_graph, path_graph, petersen_graph, random_2degenerate,
    random_cubic,
)

# Recorded before the builder preconditions were folded into the peel and
# the dispatcher; it must not change when the builders are refactored.
BUILDER_DIGEST = "06321aed8e549adb4facac1048f1229ebfc63f076426ad407f96a06ba932df03"


def _union(graphs):
    edges, offset = [], 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return Graph.from_edges(offset, edges)


def _dense(n, seed):
    rng = random.Random(seed)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < 0.6])


def _k4_with_pendant_path():
    return Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                                (3, 4), (4, 5), (5, 6)])


def _inputs():
    for n in range(4, 61):
        for seed in (0, 1):
            yield random_2degenerate(n, seed)
    for n in range(6, 61, 2):
        for seed in (0, 1):
            yield random_cubic(n, seed)
    yield _k4_with_pendant_path()
    yield complete_graph(5)
    yield petersen_graph()
    for seed in range(20):
        yield _dense(6 + seed % 5, seed)
    yield _union([random_2degenerate(9, 3), complete_graph(4), path_graph(2),
                  Graph(1, ())])
    yield _union([cycle_graph(5), petersen_graph(), random_2degenerate(12, 4)])
    yield _union([random_2degenerate(10, 5), complete_graph(5)])
    yield _union([complete_graph(3), _k4_with_pendant_path()])


def _outcome(build):
    try:
        return build()
    except PathsepError as exc:
        return f"{type(exc).__name__}: {exc}"


def _plan(g):
    plan = removal_plan_2degenerate(g)
    return repr([(s.vertex, s.kind, s.neighbors, s.split) for s in plan.order])


def _degenerate(g):
    system, trace = build_ssp_2degenerate(g)
    return trace.to_json() + format_paths(system)


def _dispatched(builder):
    def run(g):
        system, report = builder(g)
        return repr(report) + format_paths(system)
    return run


def _entry(g):
    return format_paths(build_ssp_outerplanar_entry(g))


def builder_digest() -> str:
    h = hashlib.sha256()
    for g in _inputs():
        for run in (_plan, _degenerate, _dispatched(build_ssp_auto),
                    _dispatched(build_ssp_subcubic), _entry):
            h.update(_outcome(lambda: run(g)).encode())
            h.update(b"\0")
    return h.hexdigest()


def test_builder_stack_is_pinned():
    assert builder_digest() == BUILDER_DIGEST
