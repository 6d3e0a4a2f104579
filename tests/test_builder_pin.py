"""Golden pin of the builder stack.

One sha256 over the removal plan, the construction trace and the emitted
system of every builder on about 200 seeded graphs, plus the (exception
type, message) of every refusal.  A change to tie-breaking, to a case tag,
to the order of paths or to an error message changes the digest.
"""

import hashlib
import random

from pathsep import (
    Graph, PathsepError, build_ssp_2degenerate, build_ssp_auto, build_ssp_cubic,
    build_ssp_cubic_minus_edge, build_ssp_outerplanar_entry, build_ssp_subcubic,
    format_paths, removal_plan_2degenerate,
)
from pathsep.generators import (
    complete_bipartite, complete_graph, cube_graph, cycle_graph, path_graph,
    petersen_graph, prism_graph, random_2degenerate, random_cubic,
)

from corpus import disjoint_union, gadget_chain

# Recorded before the builder preconditions were folded into the peel and
# the dispatcher, and re-recorded on the same code when plan steps stopped
# carrying the sides of a cut, and once more when build_ssp_2degenerate
# left its refusals to the removal plan (only the five refusal texts of
# disconnected inputs changed); it must not change when the builders are
# refactored.
BUILDER_DIGEST = "717f0e5e748e3a0cff71154b4f9d4d25ba2056600de9d86e62e3bb665aee7e7d"

# Recorded before the cubic re-routing read its four extended paths from the
# reduced construction instead of scanning for them.
CUBIC_DIGEST = "ba13b2b838c93252920a99f9b0609e1c8ca64edeb37db29e3c863057489bd400"

# Recorded before the peel's safe-vertex test, the re-insertion step and the
# end-path assignment were rewritten as direct searches, and re-recorded on
# the same code when plan steps stopped carrying the sides of a cut.
CUT_STEP_DIGEST = "6daaaf41e82971402646d568aef856bb7a60f3b19663e1686ec677e82046d4af"


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
    yield disjoint_union([random_2degenerate(9, 3), complete_graph(4), path_graph(2),
                          Graph(1, ())])
    yield disjoint_union([cycle_graph(5), petersen_graph(), random_2degenerate(12, 4)])
    yield disjoint_union([random_2degenerate(10, 5), complete_graph(5)])
    yield disjoint_union([complete_graph(3), _k4_with_pendant_path()])


def _outcome(build):
    try:
        return build()
    except PathsepError as exc:
        return f"{type(exc).__name__}: {exc}"


def _plan(g):
    plan = removal_plan_2degenerate(g)
    return repr([(s.vertex, s.kind, s.neighbors) for s in plan.order])


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


def _cubic_inputs():
    for n in range(6, 61, 2):
        for seed in (0, 1):
            yield random_cubic(n, seed)
    yield from (petersen_graph(), prism_graph(), cube_graph(), complete_bipartite(3, 3),
                complete_graph(4))


def _cubic_refusals():
    prism = prism_graph()
    yield prism, (0, 1)                                       # edge in a triangle
    yield petersen_graph(), (0, 2)                            # not an edge
    yield cycle_graph(5), (0, 1)                              # not cubic
    yield disjoint_union([prism, complete_graph(4)]), (0, 3)  # not connected
    yield disjoint_union([cycle_graph(4), prism]), (0, 1)     # neither
    yield complete_graph(4), (0, 1)                           # K4


def _reduced(g, e):
    system = build_ssp_cubic_minus_edge(g, e)
    return format_paths(system) + repr(system.graph.edges)


def cubic_digest() -> str:
    h = hashlib.sha256()
    for g in _cubic_inputs():
        h.update(_outcome(lambda: format_paths(build_ssp_cubic(g))).encode())
        h.update(b"\0")
        for e in g.edges:
            h.update(_outcome(lambda: _reduced(g, e)).encode())
            h.update(b"\0")
    for g, e in _cubic_refusals():
        for run in (lambda: format_paths(build_ssp_cubic(g)), lambda: _reduced(g, e)):
            h.update(_outcome(run).encode())
            h.update(b"\0")
    return h.hexdigest()


def test_cubic_builders_are_pinned():
    assert cubic_digest() == CUBIC_DIGEST


def cut_step_digest() -> tuple[str, int]:
    """sha256 over the plan, trace and system of 50 gadget chains, and their
    number of cut steps (none of the inputs above has one)."""
    h, cuts = hashlib.sha256(), 0
    for seed in range(50):
        g = gadget_chain(seed)
        cuts += sum(s.kind == "degree2-cut" for s in removal_plan_2degenerate(g).order)
        for run in (_plan, _degenerate):
            h.update(run(g).encode())
            h.update(b"\0")
    return h.hexdigest(), cuts


def test_plan_cut_steps_are_pinned():
    digest, cuts = cut_step_digest()
    assert cuts > 0
    assert digest == CUT_STEP_DIGEST
