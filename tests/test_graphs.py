import dataclasses
import os
import random
import subprocess
import sys
from collections import Counter, deque
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathsep import (
    Graph, GraphFormatError, LimitExceededError, UnsupportedGraphError,
    classify_component, connected_components, find_non_triangle_edge,
    induced_subgraph, is_2_degenerate, is_connected, parse_graph,
    removal_plan_2degenerate, serialize_graph,
)
from pathsep.generators import (
    complete_bipartite, complete_graph, cycle_graph, path_graph,
    petersen_graph, prism_graph, random_2degenerate, random_cubic, star,
)
from pathsep import graphs
from pathsep.graphs import DEGREE1_SAFE, DEGREE2_CUT, DEGREE2_SAFE

from corpus import (
    bridged_gadgets, chorded_c4, disjoint_union, gadget_chain, gadget_line, paw, reach,
    replay_removal_plan, traced_memory, triangle_pendant,
)


# ---------------------------------------------------------------------------
# Parsing and serialization.
# ---------------------------------------------------------------------------

def test_parse_triangle():
    g = parse_graph("3 3\n0 1\n1 2\n0 2\n")
    assert g.n == 3 and g.edges == ((0, 1), (0, 2), (1, 2))


def test_parse_single_edge():
    g = parse_graph("2 1\n0 1\n")
    assert g.n == 2 and g.edges == ((0, 1),)


def test_parse_self_loop_rejected_with_line_number():
    with pytest.raises(GraphFormatError, match="line 3"):
        parse_graph("3 2\n0 1\n1 1\n")


def test_parse_out_of_range_vertex():
    with pytest.raises(GraphFormatError, match="out of range"):
        parse_graph("3 1\n0 5\n")


def test_parse_malformed_line():
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_graph("2 1\n0 x\n")


def test_parse_missing_edges():
    with pytest.raises(GraphFormatError, match="expected 2 edge lines"):
        parse_graph("3 2\n0 1\n")


def test_parse_extra_edges():
    with pytest.raises(GraphFormatError, match="extra edge line"):
        parse_graph("3 1\n0 1\n1 2\n")


def test_parse_comments_blank_lines_and_duplicates():
    text = "# corpus graph\n\n4 4\n0 1  # first\n1 0\n2 3\n1 2\n"
    g = parse_graph(text)
    assert g.edges == ((0, 1), (1, 2), (2, 3))  # duplicate collapsed


@pytest.mark.parametrize("text", ["1_0 1\n0 1\n", "\u0663 1\n0 1\n", "3 1\n0 1_0\n",
                                  "3 1\n0 \u0662\n"])
def test_parse_refuses_integers_that_are_not_ascii_decimal(text):
    # int() alone reads "1_0" as 10 and the Arabic-Indic digit three as 3.
    with pytest.raises(GraphFormatError, match="line [12]: expected '(n m|u v)', got"):
        parse_graph(text)


def test_parse_keeps_signed_ids():
    assert parse_graph("+3 +1\n+0 2\n").edges == ((0, 2),)
    with pytest.raises(GraphFormatError, match="negative counts"):
        parse_graph("-3 1\n0 1\n")


def test_parse_refuses_more_than_max_vertices(monkeypatch):
    with pytest.raises(LimitExceededError, match="line 1: 99999999999 vertices exceed"):
        parse_graph("99999999999 0\n")
    # The boundary itself, checked on a small limit so nothing large is built.
    monkeypatch.setattr(graphs, "MAX_VERTICES", 5)
    assert parse_graph("5 0\n").n == 5
    with pytest.raises(LimitExceededError, match="6 vertices exceed the limit of 5"):
        parse_graph("6 0\n")


def _loop_checked_graph(n, edges):
    """Graph's edge check one edge at a time, as the reference for its bulk
    pass: None for a valid edge tuple, else the exception's type and text."""
    try:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        prev = None
        for u, v in edges:
            if not (0 <= u < v < n):
                raise ValueError(f"bad edge ({u}, {v}) for n={n}")
            if prev is not None and (u, v) <= prev:
                raise ValueError("edges must be sorted and duplicate-free")
            prev = (u, v)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def test_graph_edge_check_matches_the_loop_reference():
    odd = [(0,), (0, 1, 2), 5, "ab", [0, 1], (0.5, 2), (None, 1), (1, 1), (2, 1),
           (-1, 0), (0, 9), ()]
    rng = random.Random(0)
    outcomes = Counter()
    for trial in range(3000):
        n = rng.randint(0, 6)
        pairs = [(u, v) for u in range(-1, n + 1) for v in range(-1, n + 2)]
        edges = sorted(set(rng.sample(pairs, min(len(pairs), rng.randint(0, 5)))))
        if trial % 3 == 0:
            edges = [(u, v) for u, v in edges if 0 <= u < v < n]
        if trial % 5 == 1 and edges:
            edges.insert(rng.randrange(len(edges) + 1), rng.choice(edges))
        if trial % 7 == 2:
            rng.shuffle(edges)
        if trial % 4 == 3:
            edges.insert(rng.randrange(len(edges) + 1), rng.choice(odd))
        edges = tuple(edges)
        expected = _loop_checked_graph(n, edges)
        try:
            Graph(n, edges)
            outcome = None
        except (TypeError, ValueError) as exc:
            outcome = type(exc), str(exc)
        assert outcome == expected, (n, edges)
        outcomes[expected[1].split(" (")[0] if expected else "valid"] += 1
    assert min(outcomes[kind] for kind in (
        "valid", "bad edge", "edges must be sorted and duplicate-free",
        "not enough values to unpack", "too many values to unpack")) >= 20, outcomes


def test_from_edges_refuses_a_self_loop():
    with pytest.raises(ValueError, match=r"^self-loop at vertex 2$"):
        Graph.from_edges(4, [(0, 1), (2, 2)])


def test_serialize_round_trip():
    g = prism_graph()
    again = parse_graph(serialize_graph(g))
    assert again == g


# ---------------------------------------------------------------------------
# Components.
# ---------------------------------------------------------------------------

def test_components_triangle():
    assert connected_components(complete_graph(3)) == [[0, 1, 2]]


def test_components_two_edges():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert connected_components(g) == [[0, 1], [2, 3]]


def test_components_empty_graph():
    g = Graph(3, ())
    assert connected_components(g) == [[0], [1], [2]]


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 40), st.integers(0, 10**6))
def test_components_partition_vertices(n, seed):
    g = random_2degenerate(n, seed)
    comps = connected_components(g)
    flat = sorted(v for comp in comps for v in comp)
    assert flat == list(range(n))


def _components_by_reach(adj, live):
    """Reference: components by the breadth-first search the flag sweep
    replaced, each sorted, ordered by smallest vertex."""
    seen = set()
    return [sorted(reach(adj, v, seen)) for v in live if v not in seen]


def test_component_sweeps_match_the_search():
    # Sparse seeded graphs fall into many components; the peeler's sweep
    # runs after removing a seeded third of the vertices.
    rng = random.Random(5)
    for n in range(1, 60):
        g = Graph.from_edges(n, {(u, v) for u in range(n) for v in range(u + 1, n)
                                 if rng.random() < 1.5 / n})
        assert connected_components(g) == _components_by_reach(g.adjacency, range(n))
        peeler = graphs._Peeler(g)
        for v in rng.sample(range(n), n // 3):
            peeler.remove(v)
        live = [v for v in range(n) if peeler.alive[v]]
        assert peeler.components() == _components_by_reach(peeler.adj, live)


# ---------------------------------------------------------------------------
# Degeneracy.
# ---------------------------------------------------------------------------

def test_k4_not_2_degenerate():
    ok, order = is_2_degenerate(complete_graph(4))
    assert not ok and order is None


def test_chorded_c4_is_2_degenerate():
    # Hand peel: 1 and 3 have degree 2; after either removal the rest is a
    # triangle or path, so the minimum degree never reaches 3.
    ok, order = is_2_degenerate(chorded_c4())
    assert ok
    assert order[0] in (1, 3)


def test_forest_is_2_degenerate():
    g = Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (4, 6)])
    ok, _ = is_2_degenerate(g)
    assert ok


def _replay_elimination(g, order):
    adj = [set(a) for a in g.adjacency]
    for v in order:
        assert len(adj[v]) <= 2
        for w in adj[v]:
            adj[w].discard(v)
        adj[v] = set()


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 50), st.integers(0, 10**6))
def test_degeneracy_witness_replays(n, seed):
    g = random_2degenerate(n, seed)
    ok, order = is_2_degenerate(g)
    assert ok and sorted(order) == list(range(n))
    _replay_elimination(g, order)


def _min_scan_is_2_degenerate(g):
    """Reference: the min-degree scan is_2_degenerate replaced."""
    degree = list(g.degrees)
    alive = [True] * g.n
    adj = [set(a) for a in g.adjacency]
    order = []
    for _ in range(g.n):
        best = -1
        for v in range(g.n):
            if alive[v] and (best < 0 or degree[v] < degree[best]):
                best = v
        if degree[best] > 2:
            return False, None
        alive[best] = False
        order.append(best)
        for w in adj[best]:
            adj[w].discard(best)
            degree[w] -= 1
    return True, order


def _dense(n, seed):
    rng = random.Random(seed)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < 0.6])


def _degeneracy_inputs():
    for seed in range(30):
        yield random_2degenerate(3 + seed, seed)
        yield random_cubic(6 + 2 * (seed % 10), seed)
        yield _dense(4 + seed % 8, seed)
        yield gadget_chain(seed)
    yield Graph(0, ())
    yield Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                               (3, 4), (4, 5), (5, 6)])


def test_degeneracy_verdict_matches_min_scan():
    verdicts = [is_2_degenerate(g)[0] for g in _degeneracy_inputs()]
    assert verdicts == [_min_scan_is_2_degenerate(g)[0] for g in _degeneracy_inputs()]
    assert True in verdicts and False in verdicts


def test_degeneracy_order_takes_the_smallest_vertex_of_degree_at_most_2():
    for g in _degeneracy_inputs():
        ok, order = is_2_degenerate(g)
        if not ok:
            continue
        adj = [set(a) for a in g.adjacency]
        live = set(range(g.n))
        for v in order:
            assert v == min(x for x in live if len(adj[x]) <= 2)
            live.remove(v)
            for w in adj[v]:
                adj[w].discard(v)


def test_chorded_c4_elimination_order_is_pinned():
    assert is_2_degenerate(chorded_c4()) == (True, [1, 0, 2, 3])


# ---------------------------------------------------------------------------
# Removal plans.
# ---------------------------------------------------------------------------

def test_plan_path4_starts_with_leaf():
    plan = removal_plan_2degenerate(path_graph(4))
    assert plan.order[0].vertex == 0
    assert plan.order[0].kind == DEGREE1_SAFE
    assert len(plan.order) == 1


def test_plan_triangle_pendant():
    plan = removal_plan_2degenerate(triangle_pendant())
    assert [(s.vertex, s.kind) for s in plan.order] == [(3, DEGREE1_SAFE)]


def test_plan_bowtie_bridge_vertex_prefers_safe_steps():
    # Triangle {0,1,2}, bridge vertex 3 on (2,4), triangle {4,5,6}.  The
    # triangle corners are degree-2 vertices whose removal keeps the graph
    # connected, so the plan never needs a cut here; the safe-first rule
    # peels corner 0 first and vertex 3 eventually leaves as a leaf.
    g = Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4),
                             (4, 5), (4, 6), (5, 6)])
    plan = removal_plan_2degenerate(g)
    assert [(s.vertex, s.kind) for s in plan.order] == [
        (0, DEGREE2_SAFE), (1, DEGREE1_SAFE), (2, DEGREE1_SAFE), (3, DEGREE1_SAFE)]
    assert replay_removal_plan(g, plan) == [[4, 5, 6]]


def test_plan_cut_step_on_bridged_gadgets():
    g = bridged_gadgets()
    plan = removal_plan_2degenerate(g)
    first = plan.order[0]
    assert first.vertex == 5 and first.kind == DEGREE2_CUT
    splits = {}
    comps = replay_removal_plan(g, plan, splits)
    assert splits[5] == ((0, 1, 2, 3, 4), (6, 7, 8, 9, 10))
    assert comps == [[2, 3, 4], [8, 9, 10]]


def test_plan_rejects_bad_inputs():
    with pytest.raises(UnsupportedGraphError):
        removal_plan_2degenerate(complete_graph(4))
    # A connected 3-vertex graph is its own core; fewer vertices are refused.
    assert removal_plan_2degenerate(path_graph(3)) == graphs.VertexRemovalPlan((), ((0, 1, 2),))
    with pytest.raises(UnsupportedGraphError,
                       match="^removal plan requires at least 3 vertices$"):
        removal_plan_2degenerate(path_graph(2))
    with pytest.raises(UnsupportedGraphError):
        removal_plan_2degenerate(Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)]))
    # Cut steps on both sides, then a 3-core: connectivity is refused first.
    for g in (disjoint_union([bridged_gadgets(), bridged_gadgets()]),
              disjoint_union([complete_graph(5), path_graph(4)])):
        with pytest.raises(UnsupportedGraphError,
                           match="^removal plan requires a connected graph$"):
            removal_plan_2degenerate(g)


def test_a_3_vertex_plan_is_read_off_its_edge_count():
    # Every edge set on 3 vertices: 2 or 3 edges make the one core and no
    # step, fewer are refused as disconnected.
    pairs = [(0, 1), (0, 2), (1, 2)]
    for k in range(4):
        for edges in combinations(pairs, k):
            g = Graph(3, edges)
            if k < 2:
                with pytest.raises(UnsupportedGraphError,
                                   match="^removal plan requires a connected graph$"):
                    removal_plan_2degenerate(g)
            else:
                assert removal_plan_2degenerate(g) == graphs.VertexRemovalPlan((), ((0, 1, 2),))
    with pytest.raises(UnsupportedGraphError, match="^removal plan requires at least 3 vertices$"):
        removal_plan_2degenerate(Graph(2, ()))


def test_plan_peel_rejects_k4_with_pendant_path(monkeypatch):
    # The peel removes the pendant path leaf by leaf, then stalls on the K4:
    # the stall is the 2-degeneracy test.
    g = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                             (3, 4), (4, 5), (5, 6)])
    removed = []
    remove = graphs._Peeler.remove

    def recording_remove(peeler, v):
        removed.append(v)
        remove(peeler, v)

    monkeypatch.setattr(graphs._Peeler, "remove", recording_remove)
    with pytest.raises(UnsupportedGraphError, match="graph is not 2-degenerate"):
        removal_plan_2degenerate(g)
    assert removed == [6, 5, 4]


def test_plan_sweeps_components_once(monkeypatch):
    sweeps = []
    components = graphs._Peeler.components

    def counting_components(peeler):
        sweeps.append(1)
        return components(peeler)

    monkeypatch.setattr(graphs._Peeler, "components", counting_components)
    removal_plan_2degenerate(random_2degenerate(60, 0))
    assert len(sweeps) == 1


def test_plan_hands_over_its_cores():
    plan = removal_plan_2degenerate(bridged_gadgets())
    assert plan.cores == ((2, 3, 4), (8, 9, 10))


def _reach_in_large(peeler, v):
    """Reference: the breadth-first search, stopped at the fourth vertex,
    that the bounded ball search replaced."""
    return len(list(islice(reach(peeler.adj, v, set()), 4))) > 3


_SMALL_LIVE = [path_graph(3), complete_graph(3), path_graph(4), star(3), paw(), cycle_graph(4)]


def test_in_large_matches_the_stopped_search():
    # Every live vertex of every graph left by removing any set of vertices,
    # from the 3- and 4-vertex graphs on their own, joined to a longer path
    # at each vertex, and from small seeded 2-degenerate graphs.
    hosts = list(_SMALL_LIVE)
    for h in _SMALL_LIVE:
        for at in range(h.n):
            hosts.append(Graph.from_edges(h.n + 3, list(h.edges) + [
                (at, h.n), (h.n, h.n + 1), (h.n + 1, h.n + 2)]))
    hosts += [random_2degenerate(n, seed) for n in (6, 8) for seed in range(3)]
    sizes = Counter()
    for g in hosts:
        for mask in range(1 << g.n):
            peeler = graphs._Peeler(g)
            for v in range(g.n):
                if mask >> v & 1:
                    peeler.remove(v)
            for v in range(g.n):
                if peeler.alive[v]:
                    expected = _reach_in_large(peeler, v)
                    assert peeler.in_large(v) == expected, (g, mask, v)
                    sizes[len(list(islice(reach(peeler.adj, v, set()), 5)))] += 1
    assert set(sizes) == {1, 2, 3, 4, 5}


def test_plan_refuses_a_core_of_fewer_than_3_vertices(monkeypatch):
    # A peel that ran on down to 2-vertex components would leave a core the
    # construction has no base case for; the plan raises instead.
    monkeypatch.setattr(graphs._Peeler, "in_large", lambda peeler, v: len(
        list(islice(reach(peeler.adj, v, set()), 3))) > 2)
    with pytest.raises(AssertionError, match="core of fewer than 3 vertices"):
        removal_plan_2degenerate(path_graph(5))


def _plan_bytes(k):
    """Bytes the removal plan of ``gadget_line(k)`` retains."""
    plan, retained, _ = traced_memory(removal_plan_2degenerate, gadget_line(k))
    assert sum(s.kind == DEGREE2_CUT for s in plan.order) == k
    return retained


def test_plan_memory_is_linear_on_cut_heavy_graphs():
    # n = 518 and 1,038: a plan that stored both sides of every cut would
    # retain a number of vertex ids quadratic in n here.
    small, large = _plan_bytes(40), _plan_bytes(80)
    assert large / small < 2.5


_TAMPERED_REPLAYS = """
import dataclasses
from pathsep import Graph, build_ssp_2degenerate, removal_plan_2degenerate, replay_trace
from corpus import replay_removal_plan

g = Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)])
plan = removal_plan_2degenerate(g)
first = dataclasses.replace(plan.order[0], neighbors=(1, 3))
try:
    replay_removal_plan(g, dataclasses.replace(plan, order=(first,) + plan.order[1:]))
    print("plan: accepted")
except AssertionError as exc:
    print("plan: AssertionError", exc)

_, trace = build_ssp_2degenerate(g)
step = dataclasses.replace(trace.steps[0], paths_modified=(99,))
try:
    replay_trace(g, dataclasses.replace(trace, steps=(step,) + trace.steps[1:]))
    print("trace: accepted")
except AssertionError as exc:
    print("trace: AssertionError", exc)
"""


def test_tampered_replays_fail_under_optimize():
    # Invariants raise explicitly, so `python -O` (which strips `assert`)
    # still refuses a tampered plan or trace.
    here = os.path.dirname(__file__)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(here, "..", "src"), here]))
    out = subprocess.run([sys.executable, "-O", "-c", _TAMPERED_REPLAYS], env=env,
                         capture_output=True, text=True, timeout=60, check=True).stdout
    assert out.splitlines() == [
        "plan: AssertionError stale neighbors for 0",
        "trace: AssertionError replay diverged at vertex 3",
    ]


def test_replay_refuses_a_step_kind_that_contradicts_the_degree():
    g = cycle_graph(6)
    plan = removal_plan_2degenerate(g)
    k = next(i for i, s in enumerate(plan.order) if s.kind == DEGREE2_SAFE)
    retagged = dataclasses.replace(plan.order[k], kind=DEGREE1_SAFE)
    tampered = dataclasses.replace(plan, order=plan.order[:k] + (retagged,) + plan.order[k + 1:])
    with pytest.raises(AssertionError, match="has degree 2 at its step of kind 'degree1-safe'"):
        replay_removal_plan(g, tampered)


@pytest.mark.parametrize("change, message", [
    (dict(kind=DEGREE2_SAFE), "safe step at 5 disconnected its component"),
])
def test_replay_refuses_a_tampered_cut_step(change, message):
    g = bridged_gadgets()
    plan = removal_plan_2degenerate(g)
    first = dataclasses.replace(plan.order[0], **change)
    with pytest.raises(AssertionError, match=message):
        replay_removal_plan(g, dataclasses.replace(plan, order=(first,) + plan.order[1:]))


def _rest_bfs_stays_connected(peeler, v, component):
    """Reference: the whole-component search stays_connected_without replaced."""
    rest = [x for x in component if x != v]
    if not rest:
        return True
    seen = {rest[0], v}
    queue = deque([rest[0]])
    reached = 1
    while queue:
        x = queue.popleft()
        for y in peeler.adj[x]:
            if y not in seen:
                seen.add(y)
                reached += 1
                queue.append(y)
    return reached == len(rest)


def test_safe_test_matches_the_whole_component_search():
    seen = set()
    for seed in range(20):
        g = gadget_chain(seed)
        peeler = graphs._Peeler(g)
        for step in removal_plan_2degenerate(g).order:
            for v in range(g.n):
                if peeler.alive[v] and len(peeler.adj[v]) == 2:
                    component = sorted(reach(peeler.adj, v, set()))
                    expected = _rest_bfs_stays_connected(peeler, v, component)
                    assert peeler.stays_connected_without(v) == expected
                    seen.add(expected)
            peeler.remove(step.vertex)
    assert seen == {True, False}


def _one_sided_stays_connected(peeler, v):
    """Reference: the search from one neighbor to the other that the
    lockstep search replaced."""
    a, b = peeler.adj[v]
    return b in reach(peeler.adj, a, {v})


def _cubic_minus_two_vertices(n, seed):
    g = random_cubic(n, seed)
    keep = [v for v in range(g.n) if v not in (0, g.n // 2)]
    return induced_subgraph(g, keep)[0]


def test_lockstep_safe_test_matches_the_one_sided_search():
    rng = random.Random(11)
    inputs = [random_2degenerate(rng.randint(4, 80), seed) for seed in range(30)]
    inputs += [_cubic_minus_two_vertices(2 * rng.randint(3, 30), seed) for seed in range(30)]
    inputs += [bridged_gadgets()] + [gadget_chain(seed) for seed in range(10)]
    answers = set()
    for g in inputs:
        peeler = graphs._Peeler(g)
        while True:
            low = [v for v in range(g.n) if peeler.alive[v] and len(peeler.adj[v]) <= 2]
            for v in low:
                if len(peeler.adj[v]) == 2:
                    expected = _one_sided_stays_connected(peeler, v)
                    assert peeler.stays_connected_without(v) == expected, (g, v)
                    answers.add(expected)
            if not low:
                break
            peeler.remove(rng.choice(low))
    assert answers == {True, False}


def test_lockstep_safe_test_refuses_the_gadget_cut_vertices():
    # At the start every degree-2 vertex of these graphs is a cut vertex.
    for g in [bridged_gadgets()] + [gadget_chain(seed) for seed in range(20)]:
        peeler = graphs._Peeler(g)
        cut = [v for v in range(g.n) if len(peeler.adj[v]) == 2]
        assert cut
        assert not any(peeler.stays_connected_without(v) for v in cut)


class _CountingSet(set):
    """Adjacency set that counts the elements its iterations yield."""

    yielded = 0

    def __iter__(self):
        for x in super().__iter__():
            _CountingSet.yielded += 1
            yield x


@pytest.mark.parametrize("closed", [True, False], ids=["cycle", "path"])
@pytest.mark.parametrize("triangle_first", [True, False])
def test_lockstep_safe_test_stops_on_the_small_side(triangle_first, closed):
    # A degree-2 vertex joining a triangle to a 2000-vertex cycle or path.  A
    # search from the long side's neighbor alone walks all of it; the
    # lockstep search runs the triangle side out after a few levels.  The
    # path's frontier stays smaller than the triangle's, so a rule that grew
    # the smaller frontier would walk the path too.
    big = 2000
    tri, long = ((0, 1, 2), range(3, 3 + big)) if triangle_first else \
        ((big, big + 1, big + 2), range(big))
    long = list(long)
    v = big + 3
    edges = [(tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])]
    edges += list(zip(long, long[1:] + long[:1] if closed else long[1:]))
    edges += [(v, tri[0]), (v, long[0])]
    peeler = graphs._Peeler(Graph.from_edges(big + 4, edges))
    peeler.adj = [_CountingSet(a) for a in peeler.adj]
    _CountingSet.yielded = 0
    assert peeler.stays_connected_without(v) is False
    assert _CountingSet.yielded < 30
    _CountingSet.yielded = 0
    assert _one_sided_stays_connected(peeler, v) is False
    one_sided = _CountingSet.yielded
    assert one_sided < 30 if triangle_first else one_sided > big


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 60), st.integers(0, 10**6))
def test_plan_replay_invariants_random(n, seed):
    g = random_2degenerate(n, seed)
    plan = removal_plan_2degenerate(g)
    comps = replay_removal_plan(g, plan)
    assert all(len(c) == 3 for c in comps)
    assert len(plan.order) + 3 * len(comps) == n


def _reference_plan(g):
    """Reference: the planner that rebuilt its components and candidate
    lists on every step.  It keeps its own adjacency sets and search."""
    if g.n < 3:
        raise UnsupportedGraphError("removal plan requires at least 3 vertices")
    adj = [set(a) for a in g.adjacency]

    def component(v, without=None):
        seen = {v, without}
        queue = deque([v])
        while queue:
            for y in adj[queue.popleft()]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return sorted(seen - {without})

    def remove(v):
        for w in adj[v]:
            adj[w].discard(v)
        adj[v] = None

    steps = []
    while True:
        comps, seen = [], set()
        for v in range(g.n):
            if adj[v] is not None and v not in seen:
                comps.append(component(v))
                seen.update(comps[-1])
        if len(comps) > 1 and not steps:
            raise UnsupportedGraphError("removal plan requires a connected graph")
        large = [v for c in comps if len(c) > 3 for v in c]
        if not large:
            return tuple(steps), tuple(tuple(c) for c in comps)
        deg1 = [v for v in large if len(adj[v]) == 1]
        deg2 = sorted(v for v in large if len(adj[v]) == 2)
        if deg1:
            v, kind = min(deg1), DEGREE1_SAFE
        else:
            safe = [v for v in deg2 if max(adj[v]) in component(min(adj[v]), v)]
            if safe:
                v, kind = safe[0], DEGREE2_SAFE
            elif deg2:
                v, kind = deg2[0], DEGREE2_CUT
            else:
                raise UnsupportedGraphError("graph is not 2-degenerate")
        nbrs = tuple(sorted(adj[v]))
        remove(v)
        if kind == DEGREE2_CUT:
            split = {tuple(component(w)) for w in nbrs}
            if len(split) != 2:
                raise AssertionError("cut step did not produce two components")
            if min(len(s) for s in split) < 3:
                raise AssertionError("cut step produced a component smaller than 3")
        steps.append((v, kind, nbrs))


def _plan_tuples(g):
    plan = removal_plan_2degenerate(g)
    return tuple((s.vertex, s.kind, s.neighbors) for s in plan.order), plan.cores


def _plan_outcome(plan_fn, g):
    """(steps, cores) of the plan, or (type, message) of its refusal."""
    try:
        return plan_fn(g)
    except (UnsupportedGraphError, AssertionError) as exc:
        return type(exc).__name__, str(exc)


def _random_graph(n, density, rng):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < density])


def test_plan_matches_the_rebuilding_reference():
    rng = random.Random(7)
    graphs_ = [random_2degenerate(rng.randint(4, 80), seed) for seed in range(150)]
    graphs_ += [gadget_chain(seed) for seed in range(40)]
    graphs_ += [Graph(3, edges) for k in range(4)
                for edges in combinations(((0, 1), (0, 2), (1, 2)), k)]
    graphs_ += [_random_graph(rng.randint(4, 30), density, rng)
                for density in (0.08, 0.15, 0.3) for _ in range(60)]
    for seed in range(60):
        g = random_cubic(2 * rng.randint(2, 12), seed)
        edges = list(g.edges)
        for _ in range(rng.randint(1, 3)):
            edges.remove(rng.choice(edges))
        graphs_.append(Graph(g.n, tuple(edges)))
    outcomes = set()
    for g in graphs_:
        expected = _plan_outcome(_reference_plan, g)
        assert _plan_outcome(_plan_tuples, g) == expected
        outcomes.add(expected[1] if expected[0] == "UnsupportedGraphError" else "plan")
    assert outcomes == {"plan", "removal plan requires a connected graph",
                        "graph is not 2-degenerate"}


# ---------------------------------------------------------------------------
# Triangle-free edges.
# ---------------------------------------------------------------------------

def test_k4_has_no_non_triangle_edge():
    assert find_non_triangle_edge(complete_graph(4)) is None


def test_k33_any_edge_qualifies():
    assert find_non_triangle_edge(complete_bipartite(3, 3)) == (0, 3)


def test_prism_vertical_edges():
    g = prism_graph()
    adj = [set(a) for a in g.adjacency]
    outside = {e for e in g.edges if not (adj[e[0]] & adj[e[1]])}
    assert outside == {(0, 3), (1, 4), (2, 5)}
    assert find_non_triangle_edge(g) == (0, 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 25), st.integers(0, 10**6))
def test_non_triangle_edge_matches_exhaustive_check(n, seed):
    g = random_2degenerate(n, seed)
    witnessed = []
    for u, v in g.edges:
        common = set(g.adjacency[u]) & set(g.adjacency[v])
        if not common:
            witnessed.append((u, v))
    found = find_non_triangle_edge(g)
    if witnessed:
        assert found == witnessed[0]
    else:
        assert found is None


def _adjacency_set_scan(g):
    """Reference: the scan that built every vertex's adjacency set first."""
    adj_sets = [set(a) for a in g.adjacency]
    for u, v in g.edges:
        if not (adj_sets[u] & adj_sets[v]):
            return (u, v)
    return None


def test_non_triangle_edge_matches_the_adjacency_set_scan():
    rng = random.Random(11)
    graphs_ = [complete_graph(4), prism_graph(), petersen_graph(), Graph(0, ()), Graph(5, ()),
               complete_graph(6)]
    graphs_ += [_random_graph(rng.randint(3, 25), density, rng)
                for density in (0.5, 0.7, 0.9) for _ in range(40)]
    found = [find_non_triangle_edge(g) for g in graphs_]
    assert found == list(map(_adjacency_set_scan, graphs_))
    assert found[:3] == [None, (0, 3), (0, 1)]
    assert None in found[6:] and any(found[6:])


# ---------------------------------------------------------------------------
# Classification.
# ---------------------------------------------------------------------------

def test_classify_examples():
    k4 = complete_graph(4)
    assert classify_component(k4, [0, 1, 2, 3]) == "K4"
    pet = petersen_graph()
    assert classify_component(pet, list(range(10))) == "cubic-non-K4"
    g = Graph.from_edges(3, [(0, 1)])
    assert classify_component(g, [0, 1]) == "single-edge"
    assert classify_component(g, [2]) == "isolated-vertex"
    assert classify_component(cycle_graph(5), list(range(5))) == "subcubic-2degenerate"
    fan = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4),
                               (0, 5), (1, 5), (2, 5), (3, 5), (4, 5)])
    assert classify_component(fan, list(range(6))) == "general-2degenerate"
    assert classify_component(complete_graph(5), list(range(5))) == "other"
    # Sets that are not components are refused, not labeled.
    for graph, vertices in ((complete_graph(5), []), (Graph(2, ()), [0, 1])):
        with pytest.raises(ValueError, match="connected subgraph"):
            classify_component(graph, vertices)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 30), st.integers(0, 10**6))
def test_connected_subcubic_non_regular_is_2_degenerate(n, seed):
    g = random_2degenerate(n, seed)
    for comp in connected_components(g):
        sub, _ = induced_subgraph(g, comp)
        if max(sub.degrees, default=0) <= 3 and any(d != 3 for d in sub.degrees):
            label = classify_component(g, comp)
            if len(comp) > 2:
                assert label == "subcubic-2degenerate"
                ok, _ = is_2_degenerate(sub)
                assert ok


def test_induced_subgraph_relabels():
    g = prism_graph()
    sub, old = induced_subgraph(g, [1, 2, 4, 5])
    assert old == (1, 2, 4, 5)
    assert sub.edges == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert is_connected(sub)
    # Every vertex, in any order and with repeats, gives g itself.
    for vertices in (range(6), [5, 3, 1, 0, 2, 4], [0, 1, 1, 2, 3, 4, 5, 5]):
        sub, old = induced_subgraph(g, vertices)
        assert sub is g and old == tuple(range(6))
    # Ids outside 0..5 are refused, not read through negative indexing.
    for vertices in ([-1, 0, 1, 2, 3, 4], [-1, 1], [1, 6]):
        with pytest.raises(ValueError, match="out of range for n=6"):
            induced_subgraph(g, vertices)
