"""Acceptance suite: one test per criterion, one PASS line each (-s to see).

Run with:  pytest tests/test_acceptance.py -v -s
"""

import math
import random

from pathsep import (
    OracleConfig, bipartite_bounds, build_ssp_2degenerate,
    build_ssp_complete_bipartite, build_ssp_cubic, build_ssp_outerplanar_entry,
    build_ssp_subcubic, enumerate_paths, exact_ssp, expected_path_pair,
    find_non_triangle_edge, graceful_path_labeling, incidence_profile,
    lower_bound_formula, max_degree, system_from_sequences, verify_by_pair_scan,
    verify_strong_separation, verify_structural_properties,
)
from pathsep.generators import (
    complete_bipartite, complete_graph, cube_graph, path_graph,
    petersen_graph, prism_graph, random_2degenerate,
)
from pathsep.graphs import Graph
from pathsep.systems import system_from_sequences

from corpus import ORACLE_CORPUS, SMALL_CORPUS, canonical_form, path_length


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_two_degenerate_at_scale():
    checked = 0
    for seed in range(200):
        rng = random.Random(10_000 + seed)
        n = rng.randint(3, 100)
        g = random_2degenerate(n, seed)
        system, _ = build_ssp_2degenerate(g)
        assert len(system) == n
        assert verify_strong_separation(system).ok
        assert verify_structural_properties(system).ok  # edges twice, ends twice
        checked += 1
    assert checked == 200
    _report(1, "200 seeded 2-degenerate graphs (3 <= n <= 100): n paths, "
               "separation and both structural properties exact")


def test_criterion_02_base_cases_byte_exact():
    system, _ = build_ssp_2degenerate(path_graph(3))
    assert canonical_form(system) == canonical_form(system_from_sequences(
        path_graph(3), [(0, 1, 2), (0, 1), (1, 2)]))
    system, _ = build_ssp_2degenerate(complete_graph(3))
    assert canonical_form(system) == canonical_form(system_from_sequences(
        complete_graph(3), [(0, 1, 2), (1, 2, 0), (2, 0, 1)]))
    _report(2, "path and triangle base systems match the fixed families exactly")


def test_criterion_03_cubic_rerouting():
    for name, g in [("K33", complete_bipartite(3, 3)), ("prism", prism_graph()),
                    ("cube", cube_graph()), ("petersen", petersen_graph())]:
        system = build_ssp_cubic(g)
        assert len(system) <= g.n
        assert verify_strong_separation(system).ok
        u, v = find_non_triangle_edge(g)
        rerouted = [p for p in system.paths
                    if len(p.vertices) == 4 and {p.vertices[1], p.vertices[2]} == {u, v}]
        assert len(rerouted) == 2
    _report(3, "K33, prism, cube, Petersen: <= n paths, verified, both "
               "re-routed 3-edge paths present")


def test_criterion_04_subcubic_dispatch_counts():
    two_k4 = Graph.from_edges(8, [(u, v) for u in range(4) for v in range(u + 1, 4)]
                              + [(u + 4, v + 4) for u in range(4) for v in range(u + 1, 4)])
    system, report = build_ssp_subcubic(two_k4)
    assert len(system) == 10 and report.k4_components == 2
    assert verify_strong_separation(system).ok

    k4_c5 = Graph.from_edges(9, [(u, v) for u in range(4) for v in range(u + 1, 4)]
                             + [(4 + i, 4 + (i + 1) % 5) for i in range(5)])
    system, report = build_ssp_subcubic(k4_c5)
    assert len(system) <= 10
    assert verify_strong_separation(system).ok
    _report(4, "two K4s give exactly 10 paths (n + k); K4 + C5 stays within 10; verified")


def test_criterion_05_bipartite_sweep_b_up_to_30():
    pairs = 0
    for b in range(3, 31):
        for a in range(1, b):
            if 2 * a >= b:
                break
            system = build_ssp_complete_bipartite(a, b)
            assert len(system) == b
            assert all(path_length(p) == 2 * a for p in system.paths)
            profile = incidence_profile(system)
            assert profile.e2 == a * b
            assert sum(profile.histogram) == a * b
            for i in range(a):
                for j in range(b):
                    assert profile.paths_for((i, a + j)) == expected_path_pair(a, b, i, j)
            assert verify_strong_separation(system).ok
            pairs += 1
    _report(5, f"{pairs} (a, b) pairs with a < b/2, b <= 30: b paths of 2a edges, "
               "e2 = ab, closed-form membership and separation exact")


def test_criterion_06_graceful_labelings():
    for a in range(1, 501):
        lab = graceful_path_labeling(a)
        assert len(set(lab.labels)) == a + 1
        assert all(0 <= x <= a for x in lab.labels)
        diffs = sorted(abs(lab.labels[i + 1] - lab.labels[i]) for i in range(a))
        assert diffs == list(range(1, a + 1))
    assert graceful_path_labeling(4).labels == (2, 1, 3, 0, 4)
    assert graceful_path_labeling(3).labels == (2, 1, 3, 0)
    _report(6, "labelings for a <= 500 injective with difference sets {1..a}; "
               "a=4 and a=3 match the fixed patterns")


def test_criterion_07_exact_oracle_ground_truth():
    expected = [
        (complete_graph(4), 5, "K4"),
        (complete_graph(3), 3, "triangle"),
        (path_graph(3), 2, "2-edge path"),
        (complete_bipartite(1, 3), 3, "K13"),
        (complete_bipartite(2, 5), 5, "K25"),
    ]
    for g, value, name in expected:
        result = exact_ssp(g)
        assert result.conclusive, name
        assert result.value == value, name
        assert verify_strong_separation(result.witness).ok, name
    _report(7, "exact minima: K4=5, triangle=3, P3=2, K13=3, K25=5; witnesses verified")


def test_criterion_08_lower_bound_formula():
    root10 = math.sqrt(10.0) - 2.0
    for b in range(1, 60):
        lower = lower_bound_formula(b, b)
        assert abs(lower - root10 * b) <= 1e-9          # formula itself
        assert abs(lower - 1.16 * b) <= 0.005 * b       # the plotted 1.16 b level
        # The report gives it, except on K_{1,1}, which one path separates.
        assert bipartite_bounds(b, b).lower == (lower if b > 1 else 1.0)
    for b in range(2, 61, 2):
        a = b // 2
        assert abs(lower_bound_formula(a, b) - b) <= 1e-9
        assert abs(bipartite_bounds(a, b).lower - b) <= 1e-9
        if a >= 2:
            assert bipartite_bounds(a - 1, b).exact == b  # regime below the threshold
    _report(8, "bound equals (sqrt(10)-2)b at a=b (within 1e-9; within 0.005b of "
               "1.16b) and exactly b at a=b/2 in both regimes")


def test_criterion_09_verifier_equivalence():
    systems = 0
    for index, (name, g) in enumerate(SMALL_CORPUS):
        if g.m > 12:
            continue
        pool = enumerate_paths(g, OracleConfig(max_vertices=12, max_edges=12))
        rng = random.Random(7_000 + index)
        for _ in range(50):
            chosen = rng.sample(pool, rng.randint(0, min(8, len(pool))))
            system = system_from_sequences(g, chosen)
            fast = verify_strong_separation(system)
            slow = verify_by_pair_scan(system)
            assert fast.ok == slow.ok
            if not fast.ok:
                assert (fast.kind, fast.witness) == (slow.kind, slow.witness)
            systems += 1
    assert systems >= 50 * 18
    _report(9, f"antichain and definitional verifiers agree on {systems} random "
               "systems over the m <= 12 corpus (verdicts and witnesses)")


def test_criterion_10_oracle_builder_sandwich():
    checked = []
    for name, g in ORACLE_CORPUS:
        result = exact_ssp(g)
        assert result.conclusive, name
        if max_degree(g) <= 3:
            builder_system, report = build_ssp_subcubic(g)
            bound = g.n + report.k4_components
        else:
            builder_system = build_ssp_outerplanar_entry(g)
            bound = g.n
        assert verify_strong_separation(builder_system).ok, name
        assert result.value <= len(builder_system), name
        assert len(builder_system) <= bound, name
        checked.append(name)
    # The bipartite construction is its own bound: exactly b paths.
    result = exact_ssp(complete_bipartite(2, 5))
    bip = build_ssp_complete_bipartite(2, 5)
    assert result.value <= len(bip) == 5
    _report(10, f"oracle <= builder <= class guarantee on {len(checked)} corpus "
                "graphs plus K25 against the bipartite builder")
