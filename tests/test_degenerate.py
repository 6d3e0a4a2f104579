import copy
import dataclasses
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathsep import (
    ConstructionTrace, Graph, GraphFormatError, InvalidSystemError, UnsupportedGraphError,
    build_ssp_2degenerate, build_ssp_cubic_minus_edge, incidence_profile,
    replay_trace, verify_by_pair_scan, verify_strong_separation,
    verify_structural_properties,
)
from pathsep import degenerate
from pathsep.degenerate import DEG2_JOIN
from pathsep.generators import (
    complete_bipartite, complete_graph, path_graph, prism_graph,
    random_2degenerate, random_cubic,
)

from corpus import (
    bridged_gadgets, chorded_c4, fan5, gadget_chain, path_length, replay_removal_plan,
    traced_memory, triangle_pendant,
)


def _check_full(g, system):
    assert len(system) == g.n
    assert verify_strong_separation(system).ok
    assert verify_structural_properties(system).ok
    assert sum(map(path_length, system.paths)) == 2 * g.m


# ---------------------------------------------------------------------------
# Base cases (golden).
# ---------------------------------------------------------------------------

def _degree_table_base_case(g, comp):
    """Reference: the base case that found the middle of a 2-edge core from
    a list of its edges and a table of their degrees."""
    if len(comp) != 3 or len(set(comp)) != 3:
        raise AssertionError(f"core component {comp} does not have 3 vertices")
    x, y, z = comp
    present = [e for e in ((x, y), (x, z), (y, z)) if g.has_edge(*e)]
    if len(present) == 3:
        return degenerate.BaseCase(comp, degenerate.BASE_TRIANGLE), [(x, y, z), (y, z, x),
                                                                     (z, x, y)]
    if len(present) != 2:
        raise AssertionError(f"3-vertex core {comp} is not connected")
    counts = {v: 0 for v in comp}
    for u, v in present:
        counts[u] += 1
        counts[v] += 1
    mid = next(v for v in comp if counts[v] == 2)
    a, b = sorted(v for v in comp if v != mid)
    return degenerate.BaseCase(comp, degenerate.BASE_PATH), [(a, mid, b), (a, mid), (mid, b)]


def _base_case_outcome(base_case, g, comp):
    try:
        return base_case(g, comp)
    except AssertionError as exc:
        return str(exc)


def test_base_case_matches_the_degree_table_reference():
    # Every edge subset of 3 vertices, alone and inside a larger host; every
    # order of the core, as a replayed trace may give it; and replay
    # components that repeat a vertex, have another size or leave the range.
    pairs = [(0, 1), (0, 2), (1, 2)]
    comps = list(itertools.permutations(range(3))) + [
        (0, 0, 1), (2, 2, 2), (0, 1), (0, 1, 2, 3), (), (0, 1, 3), (0, 1, 99), (-1, 0, 1)]
    outcomes = set()
    for k in range(4):
        for edges in itertools.combinations(pairs, k):
            for g in (Graph(3, edges), Graph(5, edges + ((1, 3), (3, 4)))):
                for comp in comps:
                    expected = _base_case_outcome(_degree_table_base_case, g, comp)
                    assert _base_case_outcome(degenerate._base_case, g, comp) == expected
                    outcomes.add("refused" if type(expected) is str else expected[0].shape)
    assert outcomes == {"refused", degenerate.BASE_PATH, degenerate.BASE_TRIANGLE}


def test_path_graph_base_case_exact():
    system, trace = build_ssp_2degenerate(path_graph(3))
    assert [p.vertices for p in system.paths] == [(0, 1, 2), (0, 1), (1, 2)]
    assert trace.base_cases[0].shape == "path-of-2-edges"
    assert trace.steps == ()


def test_triangle_base_case_exact():
    system, trace = build_ssp_2degenerate(complete_graph(3))
    assert [p.vertices for p in system.paths] == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    assert trace.base_cases[0].shape == "triangle"


def test_triangle_with_pendant():
    g = triangle_pendant()
    system, trace = build_ssp_2degenerate(g)
    _check_full(g, system)
    assert trace.steps[0].case == "deg1-extend"
    assert trace.steps[0].vertex == 3


def test_chorded_c4():
    g = chorded_c4()
    system, _ = build_ssp_2degenerate(g)
    _check_full(g, system)


def test_fan_graph():
    g = fan5()
    system, _ = build_ssp_2degenerate(g)
    _check_full(g, system)


def test_preconditions():
    # The removal plan refuses by size, then connectivity, then 2-degeneracy.
    with pytest.raises(UnsupportedGraphError, match="^graph is not 2-degenerate$"):
        build_ssp_2degenerate(complete_graph(4))
    with pytest.raises(UnsupportedGraphError, match="requires at least 3 vertices"):
        build_ssp_2degenerate(path_graph(2))
    with pytest.raises(UnsupportedGraphError, match="requires a connected graph"):
        build_ssp_2degenerate(Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]))
    with pytest.raises(UnsupportedGraphError, match="requires at least 3 vertices"):
        build_ssp_2degenerate(Graph(2, ()))
    k4 = complete_graph(4)
    with pytest.raises(UnsupportedGraphError, match="requires a connected graph"):
        build_ssp_2degenerate(Graph.from_edges(8, k4.edges + tuple(
            (u + 4, v + 4) for u, v in k4.edges)))


# ---------------------------------------------------------------------------
# The join case.
# ---------------------------------------------------------------------------

def test_join_step_on_bridged_gadgets():
    g = bridged_gadgets()
    system, trace = build_ssp_2degenerate(g)
    _check_full(g, system)
    joins = [s for s in trace.steps if s.case == DEG2_JOIN]
    assert [s.vertex for s in joins] == [5]
    assert joins[0].attach == (0, 6)
    assert len(trace.base_cases) == 2


# ---------------------------------------------------------------------------
# Determinism, replay, traces.
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.integers(3, 60), st.integers(0, 10**6))
def test_random_builds_verify(n, seed):
    g = random_2degenerate(n, seed)
    system, trace = build_ssp_2degenerate(g)
    _check_full(g, system)
    replayed = replay_trace(g, trace)
    assert [p.vertices for p in replayed.paths] == [p.vertices for p in system.paths]


def test_build_is_deterministic():
    g = random_2degenerate(40, seed=11)
    a, ta = build_ssp_2degenerate(g)
    b, tb = build_ssp_2degenerate(g)
    assert [p.vertices for p in a.paths] == [p.vertices for p in b.paths]
    assert ta == tb


def test_trace_json_round_trip():
    g = bridged_gadgets()
    system, trace = build_ssp_2degenerate(g)
    again = ConstructionTrace.from_json(trace.to_json())
    assert again == trace
    replayed = replay_trace(g, again)
    assert [p.vertices for p in replayed.paths] == [p.vertices for p in system.paths]


@pytest.mark.parametrize("attach", [(), (0, 1, 2)])
def test_replay_refuses_a_step_without_one_or_two_attach_vertices(attach):
    g = triangle_pendant()
    _, trace = build_ssp_2degenerate(g)
    step = dataclasses.replace(trace.steps[0], attach=attach)
    with pytest.raises(AssertionError, match=f"attaches to {len(attach)} vertices, not 1 or 2"):
        replay_trace(g, dataclasses.replace(trace, steps=(step,)))


@pytest.mark.parametrize("component", [(0, 1), (0, 1, 1), (0, 1, 2, 3)])
def test_replay_refuses_a_base_case_without_three_vertices(component):
    g = triangle_pendant()
    _, trace = build_ssp_2degenerate(g)
    base = dataclasses.replace(trace.base_cases[0], component=component)
    with pytest.raises(AssertionError, match=r"core component .* does not have 3 vertices"):
        replay_trace(g, dataclasses.replace(trace, base_cases=(base,)))


_STEP_WITHOUT_TAG = ('{"base_cases": [{"component": [0, 1, 2], "shape": "triangle"}], '
                     '"steps": [{"vertex-added": 3, "attach": [0], "paths-modified": [0], '
                     '"paths-added": [3]}]}')


@pytest.mark.parametrize("text", [
    "nope", "[]", "{}", '{"base_cases": 5, "steps": []}',
    pytest.param(_STEP_WITHOUT_TAG, id="step-without-case-tag"),
    pytest.param('{"base_cases": [{"component": ["0", "1", "2"], "shape": "triangle"}], '
                 '"steps": []}', id="string-ids"),
    pytest.param("[" * 100000, id="nested-too-deep"),
])
def test_malformed_trace_json_is_a_format_error(text):
    with pytest.raises(GraphFormatError, match="bad construction trace"):
        ConstructionTrace.from_json(text)


def test_trace_json_field_names():
    _, trace = build_ssp_2degenerate(triangle_pendant())
    text = trace.to_json()
    for field in ('"base_cases"', '"steps"', '"vertex-added"', '"case-tag"',
                  '"paths-modified"', '"paths-added"'):
        assert field in text


# ---------------------------------------------------------------------------
# Trace files from untrusted input.
# ---------------------------------------------------------------------------

_TRACE_HOSTS = (triangle_pendant(), bridged_gadgets(), random_2degenerate(9, 3))
_TRACE_KEYS = ("base_cases", "steps", "component", "shape", "vertex-added",
               "case-tag", "attach", "paths-modified", "paths-added")
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 15) | st.floats(allow_nan=False)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(_TRACE_KEYS) | st.text(max_size=5), inner, max_size=5),
    max_leaves=20)
_vertices = st.integers(-2, 14)
_trace_shaped = st.fixed_dictionaries({
    "base_cases": st.lists(st.fixed_dictionaries({
        "component": st.lists(_vertices, max_size=4),
        "shape": st.sampled_from(("triangle", "path-of-2-edges", "cycle"))}), max_size=3),
    "steps": st.lists(st.fixed_dictionaries({
        "vertex-added": _vertices,
        "case-tag": st.sampled_from(("deg1-extend", "deg2-extend", "deg2-join", "x")),
        "attach": st.lists(_vertices, max_size=3),
        "paths-modified": st.lists(st.integers(-1, 15), max_size=2),
        "paths-added": st.lists(st.integers(-1, 15), max_size=2)}), max_size=12),
})


def _replay_or_refuse(g, text):
    """Replay the trace in ``text`` on g; any refusal must be a documented one."""
    try:
        replay_trace(g, ConstructionTrace.from_json(text))
    except (GraphFormatError, InvalidSystemError, AssertionError):
        pass
    except ValueError as exc:
        # The refusal by system_from_sequences of an extended path that meets
        # itself, which test_tampered_replays_fail_as_with_the_scan pins as a
        # ValueError.
        assert str(exc).startswith("repeated vertex in path"), exc


def _slots(x):
    """(container, key) for every value nested in a JSON object."""
    items = list(x.items()) if isinstance(x, dict) else (
        list(enumerate(x)) if isinstance(x, list) else [])
    return [(x, k) for k, _ in items] + [s for _, v in items for s in _slots(v)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(range(len(_TRACE_HOSTS))), st.binary(max_size=80) | st.text(max_size=80))
def test_random_trace_bytes_replay_or_are_refused(host, data):
    # json.loads, under from_json, also takes the bytes of a file read in
    # binary mode.
    _replay_or_refuse(_TRACE_HOSTS[host], data)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(range(len(_TRACE_HOSTS))), _json_values | _trace_shaped)
def test_random_trace_json_replays_or_is_refused(host, obj):
    _replay_or_refuse(_TRACE_HOSTS[host], json.dumps(obj))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(_TRACE_HOSTS))), st.data())
def test_mutated_traces_replay_or_are_refused(host, data):
    g = _TRACE_HOSTS[host]
    obj = json.loads(build_ssp_2degenerate(g)[1].to_json())
    for _ in range(data.draw(st.integers(1, 3))):
        slots = _slots(obj)
        if not slots:
            break
        container, key = data.draw(st.sampled_from(slots))
        action = data.draw(st.sampled_from(("replace", "delete", "duplicate", "nudge")))
        if action == "replace":
            container[key] = data.draw(_json_values | _vertices)
        elif action == "delete":
            del container[key]
        elif action == "duplicate" and isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
        elif action == "nudge" and type(container[key]) is int:
            container[key] += data.draw(st.integers(-2, 2))
    _replay_or_refuse(g, json.dumps(obj))


def test_small_verified_against_pair_scan():
    for seed in range(12):
        g = random_2degenerate(seed % 6 + 3, seed)
        system, _ = build_ssp_2degenerate(g)
        assert verify_by_pair_scan(system).ok


# ---------------------------------------------------------------------------
# Cubic graph minus one edge.
# ---------------------------------------------------------------------------

def _check_reduced(g, e, system):
    h = g.without_edge(e)
    assert system.graph == h
    assert len(system) <= g.n
    assert verify_strong_separation(system).ok
    assert verify_structural_properties(system).ok
    u, v = e
    u_nbrs = sorted(x for x in g.adjacency[u] if x != v)
    v_nbrs = sorted(x for x in g.adjacency[v] if x != u)
    seqs = [p.vertices for p in system.paths]
    assert (u_nbrs[0], u, u_nbrs[1]) in seqs
    assert (v_nbrs[0], v, v_nbrs[1]) in seqs


def test_k33_minus_edge():
    g = complete_bipartite(3, 3)
    system = build_ssp_cubic_minus_edge(g, (0, 3))
    assert len(system) == 6
    _check_reduced(g, (0, 3), system)


def test_k33_minus_any_edge():
    g = complete_bipartite(3, 3)
    for e in g.edges:
        _check_reduced(g, e, build_ssp_cubic_minus_edge(g, e))


def test_prism_minus_vertical_edge():
    g = prism_graph()
    system = build_ssp_cubic_minus_edge(g, (0, 3))
    assert len(system) == 6
    _check_reduced(g, (0, 3), system)


def test_k4_rejected():
    g = complete_graph(4)
    with pytest.raises(UnsupportedGraphError):
        build_ssp_cubic_minus_edge(g, (0, 1))


def test_triangle_edge_rejected():
    g = prism_graph()
    with pytest.raises(UnsupportedGraphError, match="triangle"):
        build_ssp_cubic_minus_edge(g, (0, 1))


def test_a_reduced_path_grows_only_at_its_assigned_end():
    # Each of the four paths extended to u and v is copied with the new
    # vertex at the end assigned to it; a path without that end is an
    # error, not a path grown at its other end.
    assert degenerate._extended((0, 1, 2), 2, 3) == (0, 1, 2, 3)
    assert degenerate._extended((0, 1, 2), 0, 3) == (3, 0, 1, 2)
    with pytest.raises(AssertionError, match=r"path \(0, 1, 2\) does not end at 1"):
        degenerate._extended((0, 1, 2), 1, 3)


def test_extension_paths_are_distinct():
    # The four paths extended to u and v plus the two new 2-edge paths leave
    # every vertex with endpoint count 2; double coverage of the four new
    # edges pins the extensions to four distinct path objects.
    g = complete_bipartite(3, 3)
    e = (0, 3)
    system = build_ssp_cubic_minus_edge(g, e)
    profile = incidence_profile(system)
    u, v = e
    for x in sorted(set(g.adjacency[u]) - {v}):
        assert len(profile.paths_for((u, x))) == 2
    for x in sorted(set(g.adjacency[v]) - {u}):
        assert len(profile.paths_for((v, x))) == 2


# ---------------------------------------------------------------------------
# End-path assignment.
# ---------------------------------------------------------------------------

def test_distinct_end_assignment_backtracks_past_greedy_dead_end():
    from pathsep.degenerate import _distinct_end_paths, _end_index
    # Candidates by index: end 10 -> {0, 5}, end 11 -> {1, 6},
    # end 12 -> {2, 7}, end 13 -> {0, 2}.  Greedy picks 0, 1, 2 and leaves
    # nothing for the last end; the lexicographically least valid
    # assignment swaps the third pick instead.
    paths = [
        (10, 13), (11, 91), (12, 13), (55, 56), (57, 58),
        (10, 92), (11, 93), (12, 94),
    ]
    assert _distinct_end_paths(_end_index(paths), (10, 11, 12, 13)) == (0, 1, 7, 2)


def _least_distinct_by_product(index, ends):
    """Reference: the first pairwise distinct choice in product order."""
    for choice in itertools.product(*(index.get(x, ()) for x in ends)):
        if len(set(choice)) == len(choice):
            return choice
    return None


def test_direct_end_assignment_matches_the_product_order():
    # One and two ends are answered from the first paths unless they clash;
    # every index of up to two short ascending lists over paths 0..3, with
    # missing and empty entries, against the reference.
    lists = [()] + [tuple(c) for k in (1, 2) for c in itertools.combinations(range(4), k)]
    outcomes = set()
    for a, b in itertools.product(lists, repeat=2):
        index = {10: list(a), 11: list(b)}
        for ends in ((10,), (11,), (12,), (10, 11), (11, 10), (10, 12), (10, 10)):
            expected = _least_distinct_by_product(index, ends)
            if expected is None:
                with pytest.raises(AssertionError, match="endpoint invariant broken"):
                    degenerate._distinct_end_paths(index, ends)
            else:
                assert degenerate._distinct_end_paths(index, ends) == expected, (index, ends)
            outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_three_join_steps():
    # Two bridged-gadget copies joined through one more degree-2 vertex:
    # every degree-2 vertex is a cut vertex, so the plan needs three cut
    # steps and the rebuild stitches four sub-systems together.
    base = bridged_gadgets()
    edges = list(base.edges)
    edges += [(u + 12, v + 12) for u, v in base.edges]
    edges += [(0, 11), (11, 12)]
    g = Graph.from_edges(23, edges)
    plan_kinds = None
    from pathsep import removal_plan_2degenerate
    plan = removal_plan_2degenerate(g)
    replay_removal_plan(g, plan)
    plan_kinds = [s.kind for s in plan.order if s.kind == "degree2-cut"]
    assert len(plan_kinds) == 3
    system, trace = build_ssp_2degenerate(g)
    _check_full(g, system)
    assert sum(1 for s in trace.steps if s.case == DEG2_JOIN) == 3


@pytest.mark.parametrize("attach", ["itself", "base-and-itself"])
def test_replay_refuses_a_step_attached_to_a_missing_vertex(attach):
    # Attaching a vertex to itself before it is inserted leaves no path end
    # to extend there.
    g = triangle_pendant()
    _, trace = build_ssp_2degenerate(g)
    v = trace.steps[0].vertex
    step = dataclasses.replace(trace.steps[0],
                               attach=(v,) if attach == "itself" else (0, v))
    with pytest.raises(AssertionError, match="endpoint invariant broken"):
        replay_trace(g, dataclasses.replace(trace, steps=(step,)))


# ---------------------------------------------------------------------------
# The end index against the scan it replaced.
# ---------------------------------------------------------------------------

def _vertex_tuples(paths):
    """Every path under construction, read as its vertex tuple."""
    return [paths[i] for i in range(len(paths))]


def _ends_at(paths, v):
    """Reference: the indices of the paths ending at v, by a scan of all."""
    return [i for i, p in enumerate(_vertex_tuples(paths)) if p[0] == v or p[-1] == v]


def _assert_index_matches_scan(paths, ends):
    tuples = _vertex_tuples(paths)
    for x in set(ends) | {p[0] for p in tuples} | {p[-1] for p in tuples}:
        assert ends.get(x, []) == _ends_at(paths, x), x


def _apply_step_by_scan(paths, ends, vertex, attach):
    """Reference: the re-insertion step that scanned every path for the
    ends it extends and replaced each by a longer tuple, grown at neither
    end in place; it ignores the index."""
    if len(attach) not in (1, 2):
        raise AssertionError(f"vertex {vertex} attaches to {len(attach)} vertices, not 1 or 2")
    for choice in itertools.product(*(_ends_at(paths, x) for x in attach)):
        if len(set(choice)) == len(choice):
            break
    else:
        raise AssertionError("no distinct path assignment exists; endpoint invariant broken")
    for i, u in zip(choice, attach):
        paths.backs[i] = list(degenerate._extended(paths[i], u, vertex))
        paths.fronts[i] = None
    paths.append((attach[0], vertex) + attach[1:])
    return choice, (len(paths) - 1,)


def test_a_step_extends_each_modified_path_in_place():
    # A step must not copy the paths it extends: a copy per extension makes
    # the construction quadratic in path length.
    # Path 0 grows at its front, and path 2 at its back.
    seeds = [(0, 1, 2), (0, 1), (1, 2)]
    paths = degenerate._Paths(seeds)
    ends = degenerate._end_index(seeds)
    before = list(paths.backs)
    modified, added = degenerate._apply_step(paths, ends, 3, (0, 2))
    assert (modified, added) == ((0, 2), (3,))
    assert all(paths.backs[i] is before[i] for i in modified)
    assert _vertex_tuples(paths) == [(3, 0, 1, 2), (0, 1), (1, 2, 3), (0, 3, 2)]
    # A second growth at the same front extends the list the first one made.
    front = paths.fronts[0]
    assert degenerate._apply_step(paths, ends, 4, (3,)) == ((0,), (4,))
    assert paths.fronts[0] is front and paths.backs[0] is before[0]
    assert paths.tuples()[0] == (4, 3, 0, 1, 2)


@pytest.fixture
def checked_steps(monkeypatch):
    """Compare the end index with a fresh scan after every step; returns the
    list of steps seen."""
    apply_step = degenerate._apply_step
    seen = []

    def checked(paths, ends, vertex, attach):
        _assert_index_matches_scan(paths, ends)
        result = apply_step(paths, ends, vertex, attach)
        _assert_index_matches_scan(paths, ends)
        seen.append(vertex)
        return result

    monkeypatch.setattr(degenerate, "_apply_step", checked)
    return seen


def _index_inputs(largest):
    for seed in range(12):
        yield random_2degenerate(5 + seed * (largest - 5) // 11, seed)
    yield bridged_gadgets()
    for seed in range(3):
        yield gadget_chain(seed)


def test_end_index_matches_the_scan_after_every_step(checked_steps):
    for g in _index_inputs(largest=90):
        system, trace = build_ssp_2degenerate(g)
        replayed = replay_trace(g, trace)
        assert replayed.paths == system.paths
    for seed in range(6):
        g = random_cubic(10 + 6 * seed, seed)
        e = next(e for e in g.edges if not set(g.adjacency[e[0]]) & set(g.adjacency[e[1]]))
        build_ssp_cubic_minus_edge(g, e)
    assert len(checked_steps) > 700


def test_replay_rebuilds_every_seeded_build():
    # The trace is assembled after the replay from its per-step records;
    # replaying it must give the built system back, path for path.
    inputs = [random_2degenerate(n, seed) for n in range(3, 61) for seed in (0, 1)]
    inputs += [gadget_chain(seed) for seed in range(10)] + [bridged_gadgets()]
    for g in inputs:
        system, trace = build_ssp_2degenerate(g)
        assert len(trace.steps) == g.n - 3 * len(trace.base_cases)
        assert replay_trace(g, trace).paths == system.paths


def _tampered_traces():
    for g in _index_inputs(largest=30):
        _, trace = build_ssp_2degenerate(g)
        steps = trace.steps
        base = {x for b in trace.base_cases for x in b.component}
        for k in range(0, len(steps), max(1, len(steps) // 5)):
            step = steps[k]
            v, u = step.vertex, step.attach[0]
            # A vertex the system does not hold yet at step k.
            later = next((s.vertex for s in steps[k + 1:]), g.n + 5)
            assert later not in base | {s.vertex for s in steps[:k + 1]}
            tampers = {
                "duplicated": steps[:k + 1] + steps[k:],
                "missing": steps[:k] + (dataclasses.replace(step, attach=(later,)),),
                "missing-second": steps[:k] + (dataclasses.replace(step, attach=(u, later)),),
                "out-of-range": steps[:k] + (dataclasses.replace(step, attach=(g.n + 5, u)),),
                "itself": steps[:k] + (dataclasses.replace(step, attach=(v,)),),
                "itself-second": steps[:k] + (dataclasses.replace(step, attach=(u, v)),),
                "itself-first": steps[:k] + (dataclasses.replace(step, attach=(v, u)),),
                "repeated": steps[:k] + (dataclasses.replace(step, attach=(u, u)),) + steps[k + 1:],
            }
            for name, tampered in tampers.items():
                yield name, g, dataclasses.replace(trace, steps=tampered)


def _replay_outcome(g, trace):
    try:
        return "ok", tuple(p.vertices for p in replay_trace(g, trace).paths)
    except (AssertionError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def test_tampered_replays_fail_as_with_the_scan(monkeypatch, checked_steps):
    cases = list(_tampered_traces())
    indexed = [_replay_outcome(g, trace) for _, g, trace in cases]
    monkeypatch.setattr(degenerate, "_apply_step", _apply_step_by_scan)
    scanned = [_replay_outcome(g, trace) for _, g, trace in cases]
    assert indexed == scanned
    kinds = {(name, outcome[0]) for (name, _, _), outcome in zip(cases, scanned)}
    assert kinds >= {("duplicated", "AssertionError"), ("missing", "AssertionError"),
                     ("itself", "AssertionError"), ("repeated", "ValueError")}
    assert {outcome[1] for outcome in scanned if outcome[0] == "AssertionError"} >= {
        "no distinct path assignment exists; endpoint invariant broken"}


def test_the_path_core_peaks_below_650_bytes_a_vertex():
    # Paths grow as lists, not deques, the end index goes before the tuples
    # are made, and no step record is kept: the core peaked at 1,457 B a
    # vertex here with them.
    g = random_2degenerate(5000, 0)
    (paths, _, _), _, peak = traced_memory(degenerate._build_paths, g)
    assert len(paths) == g.n
    assert peak <= 650 * g.n, peak / g.n
