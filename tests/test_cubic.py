import os
import random
import sys

import pytest

from pathsep import (
    Graph, PathSystem, PathsepError, UnsupportedGraphError, build_ssp_2degenerate,
    build_ssp_auto, build_ssp_cubic, build_ssp_cubic_minus_edge,
    build_ssp_outerplanar_entry, build_ssp_subcubic, find_non_triangle_edge,
    format_paths, incidence_profile, verify_by_pair_scan, verify_strong_separation,
)
from pathsep import cubic, graphs
from pathsep.cubic import K4_CANNED
from pathsep.generators import (
    complete_bipartite, complete_graph, cube_graph, cycle_graph,
    path_graph, petersen_graph, prism_graph, random_2degenerate, random_cubic,
)
from pathsep.graphs import CUBIC_NON_K4, ISOLATED_VERTEX, K4, SINGLE_EDGE, induced_subgraph
from pathsep.systems import system_from_sequences

from corpus import bridged_gadgets, disjoint_union, fan5, gadget_chain, traced_memory

CUBIC_GRAPHS = [
    ("k33", complete_bipartite(3, 3)),
    ("prism", prism_graph()),
    ("cube", cube_graph()),
    ("petersen", petersen_graph()),
]


def _rerouted_paths(g, system):
    e = find_non_triangle_edge(g)
    u, v = e
    return [p.vertices for p in system.paths
            if len(p.vertices) == 4 and {p.vertices[1], p.vertices[2]} == {u, v}]


@pytest.mark.parametrize("name,g", CUBIC_GRAPHS)
def test_cubic_builder(name, g):
    system = build_ssp_cubic(g)
    assert len(system) <= g.n
    assert verify_strong_separation(system).ok
    rerouted = _rerouted_paths(g, system)
    assert len(rerouted) == 2
    assert all(len(p) == 4 for p in rerouted)


@pytest.mark.parametrize("name,g", CUBIC_GRAPHS)
def test_rerouting_preserves_old_separators(name, g):
    # Only pairs among the four edges at u and v can lose their separators
    # to the re-route; every other pair of reduced-graph edges must remain
    # separated in the final system (checked by diffing incidence profiles).
    e = find_non_triangle_edge(g)
    u, v = e
    u_nbrs = sorted(x for x in g.adjacency[u] if x != v)
    v_nbrs = sorted(x for x in g.adjacency[v] if x != u)
    reduced = build_ssp_cubic_minus_edge(g, e)
    final = build_ssp_cubic(g)
    affected = set()
    for a in u_nbrs:
        for b in v_nbrs:
            affected.add(frozenset((
                (min(u, a), max(u, a)), (min(v, b), max(v, b)))))
    prof_h = incidence_profile(reduced)
    prof_g = incidence_profile(final)
    for e1 in reduced.graph.edges:
        for f1 in reduced.graph.edges:
            if e1 >= f1 or frozenset((e1, f1)) in affected:
                continue
            se_h, sf_h = set(prof_h.paths_for(e1)), set(prof_h.paths_for(f1))
            assert se_h - sf_h and sf_h - se_h
            se_g, sf_g = set(prof_g.paths_for(e1)), set(prof_g.paths_for(f1))
            # The slots that separated the pair in the reduced system exist
            # and still separate it after the re-route.
            assert se_g - sf_g and sf_g - se_g


def test_k4_not_applicable():
    with pytest.raises(UnsupportedGraphError):
        build_ssp_cubic(complete_graph(4))


def test_non_cubic_rejected():
    with pytest.raises(UnsupportedGraphError):
        build_ssp_cubic(cycle_graph(5))


def test_the_0_vertex_graph_is_built_by_every_entry():
    # The empty graph is vacuously connected and cubic, and has no edge to cover.
    empty = Graph(0, ())
    for system in (build_ssp_cubic(empty), build_ssp_auto(empty)[0],
                   build_ssp_subcubic(empty)[0], build_ssp_outerplanar_entry(empty)):
        assert system.sequences == ()
        assert verify_strong_separation(system).ok


def test_every_entry_checks_the_n_plus_k_bound(monkeypatch):
    # One path more than the bound allows, from every component, trips the
    # one check in the dispatcher, whichever entry point dispatched.
    monkeypatch.setattr(cubic, "_component_paths",
                        lambda sub, label: ([(0, 1)] * (sub.n + 2), "planted"))
    for entry in (build_ssp_auto, build_ssp_subcubic, build_ssp_outerplanar_entry):
        with pytest.raises(AssertionError, match="^dispatch exceeded the n \\+ k guarantee$"):
            entry(path_graph(2))


def test_random_cubic_graphs():
    for seed in range(6):
        g = random_cubic(10, seed)
        system = build_ssp_cubic(g)
        assert len(system) <= g.n
        assert verify_strong_separation(system).ok


# ---------------------------------------------------------------------------
# Canned K4 system.
# ---------------------------------------------------------------------------

def test_canned_k4_is_minimum_witness():
    from pathsep import OracleConfig, exact_ssp
    result = exact_ssp(complete_graph(4), OracleConfig())
    assert result.value == 5
    assert tuple(p.vertices for p in result.witness.paths) == K4_CANNED


def test_canned_k4_verifies():
    system = system_from_sequences(complete_graph(4), K4_CANNED)
    assert len(system) == 5
    assert verify_strong_separation(system).ok
    assert verify_by_pair_scan(system).ok


# ---------------------------------------------------------------------------
# Subcubic dispatch.
# ---------------------------------------------------------------------------

def test_two_k4s():
    g = disjoint_union([complete_graph(4), complete_graph(4)])
    system, report = build_ssp_subcubic(g)
    assert len(system) == 10
    assert report.k4_components == 2
    assert report.total_paths == 10 == report.bound
    assert verify_strong_separation(system).ok


def test_c5_cycle():
    system, report = build_ssp_subcubic(cycle_graph(5))
    assert len(system) == 5 and report.k4_components == 0
    assert verify_strong_separation(system).ok


def test_k4_plus_isolated_edge():
    g = disjoint_union([complete_graph(4), path_graph(2)])
    system, report = build_ssp_subcubic(g)
    assert len(system) == 6
    assert verify_strong_separation(system).ok
    counts = [r.path_count for r in report.components]
    assert counts == [5, 1]


def test_k4_plus_c5():
    g = disjoint_union([complete_graph(4), cycle_graph(5)])
    system, report = build_ssp_subcubic(g)
    assert len(system) == 10 <= report.bound
    assert verify_strong_separation(system).ok


def test_subcubic_exact_path_count_formula():
    # total = n + k - (#single-edge components) - (#isolated vertices);
    # the n + k bound is tight exactly when every component has >= 3 vertices.
    g = disjoint_union([complete_graph(4), path_graph(2), cycle_graph(4),
                         Graph(1, ()), prism_graph()])
    system, report = build_ssp_subcubic(g)
    singles = sum(1 for r in report.components if r.classification == "single-edge")
    isolated = sum(1 for r in report.components if r.classification == "isolated-vertex")
    assert report.total_paths == report.n + report.k4_components - singles - isolated
    assert report.total_paths <= report.bound
    assert verify_strong_separation(system).ok


def test_subcubic_rejects_degree_4():
    with pytest.raises(UnsupportedGraphError):
        build_ssp_subcubic(fan5())


def test_isolated_vertices_cost_nothing():
    g = Graph.from_edges(5, [(0, 1), (1, 2)])  # plus isolated 3, 4
    system, report = build_ssp_subcubic(g)
    assert report.total_paths == 3
    assert verify_strong_separation(system).ok


# ---------------------------------------------------------------------------
# 2-degenerate entry point and auto dispatch.
# ---------------------------------------------------------------------------

def test_outerplanar_entry_fan():
    g = fan5()
    system = build_ssp_outerplanar_entry(g)
    assert len(system) == 5
    assert verify_strong_separation(system).ok


def test_outerplanar_entry_single_triangle():
    system = build_ssp_outerplanar_entry(complete_graph(3))
    assert [p.vertices for p in system.paths] == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]


def test_outerplanar_entry_forest_of_edges():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    system = build_ssp_outerplanar_entry(g)
    assert [p.vertices for p in system.paths] == [(0, 1), (2, 3)]
    assert verify_strong_separation(system).ok


def test_outerplanar_entry_rejects_k4():
    with pytest.raises(UnsupportedGraphError):
        build_ssp_outerplanar_entry(complete_graph(4))
    with pytest.raises(UnsupportedGraphError, match="^graph is not 2-degenerate$"):
        build_ssp_outerplanar_entry(disjoint_union([path_graph(3), complete_graph(4)]))


def test_auto_mixes_all_builders():
    g = disjoint_union([complete_graph(4), petersen_graph(), fan5(),
                         path_graph(2), Graph(1, ())])
    system, report = build_ssp_auto(g)
    builders = {r.builder for r in report.components}
    assert builders == {"canned-k4", "cubic-rerouting", "2-degenerate",
                        "single-edge", "none"}
    assert verify_strong_separation(system).ok
    assert sum(r.path_count for r in report.components) == report.total_paths


def test_auto_refuses_unsupported_component():
    with pytest.raises(UnsupportedGraphError):
        build_ssp_auto(complete_graph(5))
    # The 3-core comes after a 2-degenerate and a cubic component.
    with pytest.raises(UnsupportedGraphError,
                       match="^no construction covers component containing vertex 15$"):
        build_ssp_auto(disjoint_union([fan5(), petersen_graph(), complete_graph(5)]))


# ---------------------------------------------------------------------------
# The dispatcher builds from the path cores and validates one system.
# ---------------------------------------------------------------------------

def _count_builds(monkeypatch):
    """Count PathSystem validations, is_connected and is_2_degenerate calls
    from here on."""
    calls = {"systems": 0, "is_connected": 0, "is_2_degenerate": 0}
    init = PathSystem.__post_init__

    def counting_init(self):
        calls["systems"] += 1
        init(self)

    def counting(name, func):
        def wrapper(g):
            calls[name] += 1
            return func(g)
        return wrapper

    monkeypatch.setattr(PathSystem, "__post_init__", counting_init)
    for name in ("is_connected", "is_2_degenerate"):
        func = getattr(graphs, name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("pathsep") and getattr(module, name, None) is func:
                monkeypatch.setattr(module, name, counting(name, func))
    return calls


def test_each_entry_validates_one_system_and_checks_no_connectivity(monkeypatch):
    two_degenerate = [bridged_gadgets(), path_graph(2), Graph(1, ())]
    mixed = disjoint_union([complete_graph(4), petersen_graph()] + two_degenerate)
    # build_ssp_cubic checks that its input is connected, once;
    # build_ssp_2degenerate leaves that to its removal plan.
    for entry, g, connectivity in ((build_ssp_auto, mixed, 0), (build_ssp_subcubic, mixed, 0),
                                   (build_ssp_outerplanar_entry, disjoint_union(two_degenerate), 0),
                                   (build_ssp_cubic, petersen_graph(), 1),
                                   (build_ssp_2degenerate, bridged_gadgets(), 0)):
        calls = _count_builds(monkeypatch)
        entry(g)
        assert calls == {"systems": 1, "is_connected": connectivity,
                         "is_2_degenerate": 0}, entry.__name__
        monkeypatch.undo()


def _dispatch_inputs():
    for seed in range(6):
        rng = random.Random(seed)
        parts = [random_2degenerate(rng.randint(3, 40), seed),
                 random_cubic(2 * rng.randint(3, 20), seed),
                 gadget_chain(seed), complete_graph(4), path_graph(2),
                 random_2degenerate(rng.randint(3, 40), seed + 100),
                 random_cubic(2 * rng.randint(3, 20), seed + 100)]
        rng.shuffle(parts)
        yield disjoint_union(parts)
    yield random_2degenerate(120, 7)
    yield random_cubic(60, 7)


def test_dispatched_components_equal_the_builders_on_each_component():
    # The dispatcher composes the builders' path cores; each component's
    # paths, relabelled, must be exactly what the public builder emits for
    # that component on its own.
    built = set()
    for g in _dispatch_inputs():
        system, report = build_ssp_auto(g)
        at = 0
        for comp in report.components:
            paths = [p.vertices for p in system.paths[at:at + comp.path_count]]
            at += comp.path_count
            if comp.builder not in ("2-degenerate", "cubic-rerouting"):
                continue
            sub = induced_subgraph(g, comp.vertices)[0]
            alone = (build_ssp_cubic(sub) if comp.builder == "cubic-rerouting"
                     else build_ssp_2degenerate(sub)[0])
            assert paths == [tuple(comp.vertices[x] for x in p.vertices)
                             for p in alone.paths], (g, comp.vertices)
            built.add(comp.builder)
        assert at == len(system)
    assert built == {"2-degenerate", "cubic-rerouting"}


def test_a_one_component_input_is_built_uncopied(monkeypatch):
    g = random_2degenerate(60, 0)
    seen = []
    component_paths = cubic._component_paths

    def recording(sub, label):
        seen.append(sub)
        return component_paths(sub, label)

    monkeypatch.setattr(cubic, "_component_paths", recording)
    for entry in (build_ssp_auto, build_ssp_outerplanar_entry):
        seen.clear()
        entry(g)
        assert len(seen) == 1 and seen[0] is g, entry.__name__


def _lines_run(fn, *args):
    """The lines of ``pathsep`` source that ``fn(*args)`` runs, loop
    iterations included: the Python-level work of the call."""
    package = os.path.dirname(graphs.__file__)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    caller = sys.gettrace()
    sys.settrace(calls)
    try:
        fn(*args)
    finally:
        sys.settrace(caller)
    return count


def test_a_many_component_input_spans_the_whole_vertex_range_a_fixed_number_of_times():
    # The components sweep and induced_subgraph must visit each vertex a
    # fixed number of times over all 300 components: a sweep of the whole
    # vertex range per component makes dispatch quadratic in a forest's
    # size.  Linear dispatch runs about 60 lines per vertex here, and such a
    # sweep adds at least 300 more.
    g = disjoint_union([path_graph(2)] * 200 + [cycle_graph(3)] * 100)
    for entry in (build_ssp_auto, build_ssp_outerplanar_entry):
        lines = _lines_run(entry, g)
        assert lines <= 150 * g.n, (entry.__name__, lines)


def test_a_many_component_input_peaks_linearly():
    # A peak bound sees C-level work that the count of traced lines above
    # does not: a tuple of the whole vertex range kept per component makes
    # the peak quadratic, 20 times higher for 4 times the components here.
    # One made and let go per component raises the peak by one tuple only.
    def peak(k):
        g = disjoint_union([path_graph(2)] * (2 * k) + [cycle_graph(3)] * k)
        return traced_memory(build_ssp_auto, g)[2]

    assert peak(400) <= 4.5 * peak(100)


def test_the_cubic_core_peaks_below_1000_bytes_a_vertex():
    # The reduced graph's pieces are built as in the 2-degenerate core, and
    # only the four extended paths are copied: 1,695 B a vertex with deques.
    g = random_cubic(5000, 0)
    paths, _, peak = traced_memory(cubic._cubic_paths, g)
    assert len(paths) <= g.n
    assert peak <= 1000 * g.n, peak / g.n


def test_a_cubic_component_keeps_its_own_refusal(monkeypatch):
    # Only a removal plan's 3-core refusal is reported as an uncovered component.
    def refusing(g):
        raise UnsupportedGraphError("re-routing refused")

    monkeypatch.setattr(cubic, "_cubic_paths", refusing)
    g = disjoint_union([path_graph(2), petersen_graph()])
    for entry in (build_ssp_auto, build_ssp_subcubic):
        with pytest.raises(UnsupportedGraphError, match="^re-routing refused$"):
            entry(g)


def _reference_component_paths(sub, label):
    """The dispatcher's per-component step before it called the path cores:
    the public builder, with its checks, then its paths unwrapped."""
    if label == ISOLATED_VERTEX:
        return [], "none"
    if label == SINGLE_EDGE:
        return [(0, 1)], "single-edge"
    if label == K4:
        return list(K4_CANNED), "canned-k4"
    if label == CUBIC_NON_K4:
        return [p.vertices for p in build_ssp_cubic(sub).paths], "cubic-rerouting"
    system, _ = build_ssp_2degenerate(sub)
    return [p.vertices for p in system.paths], "2-degenerate"


def _differential_inputs():
    """150 seeded graphs: every fifth one a single component, the others
    unions of 2 to 6 components under a seeded relabelling.  A rare K5 has
    no construction, so every entry refuses some inputs."""
    parts = (
        lambda rng: random_2degenerate(rng.randint(3, 14), rng.randrange(10**6)),
        lambda rng: random_cubic(rng.randrange(6, 23, 2), rng.randrange(10**6)),
        lambda rng: complete_graph(4),
        lambda rng: cycle_graph(rng.randint(3, 9)),
        lambda rng: path_graph(rng.randint(2, 7)),
        lambda rng: Graph(1, ()),
        lambda rng: complete_graph(5),
    )
    weights = (4, 4, 2, 2, 2, 2, 1)
    for seed in range(150):
        rng = random.Random(seed)
        count = 1 if seed % 5 == 0 else rng.randint(2, 6)
        g = disjoint_union([part(rng) for part in rng.choices(parts, weights, k=count)])
        label = list(range(g.n))
        rng.shuffle(label)
        yield Graph.from_edges(g.n, ((label[u], label[v]) for u, v in g.edges))


def _entry_outcomes(g):
    """What each entry gives for g: its paths and report, or its refusal."""
    out = []
    for entry in (build_ssp_auto, build_ssp_subcubic, build_ssp_outerplanar_entry):
        try:
            result = entry(g)
        except PathsepError as exc:
            out.append((type(exc).__name__, str(exc)))
            continue
        system, report = result if isinstance(result, tuple) else (result, None)
        out.append((format_paths(system), report))
    return out


def test_dispatch_matches_the_unwrapping_reference(monkeypatch):
    inputs = list(_differential_inputs())
    built = [_entry_outcomes(g) for g in inputs]
    monkeypatch.setattr(cubic, "_component_paths", _reference_component_paths)
    for g, outcomes in zip(inputs, built):
        assert outcomes == _entry_outcomes(g), g
    # Every entry both builds and refuses somewhere in the sample.
    for k in range(3):
        refused = sum(1 for outcomes in built if isinstance(outcomes[k][1], str))
        assert 0 < refused < len(inputs), k
