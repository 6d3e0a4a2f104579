import itertools
import math
import random
import time
import types
from fractions import Fraction

import pytest

from pathsep import cli, oracle
from pathsep import (
    Graph, LimitExceededError, OracleConfig, UnsupportedGraphError,
    bipartite_bounds, enumerate_paths, exact_ssp, max_degree,
    sperner_lower_bound, system_from_sequences, verify_strong_separation,
)
from pathsep.graphs import serialize_graph
from pathsep.oracle import _min_incidence_total
from pathsep.generators import (
    complete_bipartite, complete_graph, cube_graph, cycle_graph, path_graph,
    petersen_graph, prism_graph, random_2degenerate,
)

from corpus import ORACLE_CORPUS, disjoint_union, garbage_left_by, star


# ---------------------------------------------------------------------------
# Path enumeration.
# ---------------------------------------------------------------------------

def test_enumerate_triangle():
    assert enumerate_paths(complete_graph(3)) == [
        (0, 1), (0, 2), (1, 2), (0, 1, 2), (0, 2, 1), (1, 0, 2)]


def test_enumerate_k2():
    assert enumerate_paths(path_graph(2)) == [(0, 1)]


def test_enumerate_p3():
    assert enumerate_paths(path_graph(3)) == [
        (0, 1), (1, 2), (0, 1, 2)]


def test_enumerate_complete_graph_counting_formula():
    # K_n has C(n, k) * k!/2 simple paths on k vertices.
    for n in (3, 4, 5):
        expected = sum(math.comb(n, k) * math.factorial(k) // 2
                       for k in range(2, n + 1))
        assert len(enumerate_paths(complete_graph(n))) == expected


def test_enumerate_canonical_orientation_and_uniqueness():
    seqs = enumerate_paths(cycle_graph(5))
    assert len(set(seqs)) == len(seqs)
    for vs in seqs:
        assert vs[0] < vs[-1]
        assert tuple(reversed(vs)) not in set(seqs)


def test_enumerate_respects_limits():
    with pytest.raises(LimitExceededError):
        enumerate_paths(complete_graph(5), OracleConfig(max_vertices=4))
    with pytest.raises(LimitExceededError):
        enumerate_paths(complete_graph(5), OracleConfig(max_edges=6))


def _enumerate_recursively(g):
    """The recursive enumerator the iterative one replaced, as a reference."""
    found, current, on_path = [], [], [False] * g.n

    def extend(last):
        for nxt in g.adjacency[last]:
            if on_path[nxt]:
                continue
            current.append(nxt)
            on_path[nxt] = True
            if current[0] < nxt:
                found.append(tuple(current))
            extend(nxt)
            on_path[nxt] = False
            current.pop()

    for start in range(g.n):
        current[:] = [start]
        on_path[start] = True
        extend(start)
        on_path[start] = False
    return sorted(found, key=lambda vs: (len(vs), vs))


def test_enumeration_matches_the_recursive_reference():
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph.from_edges(n, rng.sample(pairs, rng.randint(0, min(16, len(pairs)))))
        assert enumerate_paths(g) == _enumerate_recursively(g)


def test_enumeration_stops_at_the_table_cap(monkeypatch):
    # P4 has 6 paths on 3 edges: 18 table cells.
    monkeypatch.setattr(oracle, "MAX_TABLE_CELLS", 18)
    assert len(enumerate_paths(path_graph(4))) == 6
    monkeypatch.setattr(oracle, "MAX_TABLE_CELLS", 17)
    with pytest.raises(LimitExceededError, match="path table limit of 17 cells"):
        enumerate_paths(path_graph(4))


# ---------------------------------------------------------------------------
# Lower bounds.
# ---------------------------------------------------------------------------

def test_sperner_bound_values():
    assert sperner_lower_bound(1) == 1
    assert sperner_lower_bound(2) == 2
    assert sperner_lower_bound(3) == 3
    assert sperner_lower_bound(6) == 4
    assert sperner_lower_bound(10) == 5
    assert sperner_lower_bound(11) == 6
    assert sperner_lower_bound(20) == 6


def test_incidence_total_is_exact_at_the_lym_boundary():
    # The 20 middle sets of [6] meet the LYM bound with equality (their float
    # sum is 1.0000000000000002); one set more does not fit.
    assert _min_incidence_total(6, 20) == 60
    assert _min_incidence_total(6, 21) == math.inf


def _dp_min_incidence_total(p, m):
    """The dynamic program the closed form replaced: over (sets placed, total
    size), keep the least LYM weight, in integers scaled by L = lcm(C(p, k)),
    so that a set of size k weighs L // C(p, k) and a profile fits when its
    weight is at most L."""
    scale = math.lcm(*(math.comb(p, k) for k in range(1, p + 1)))
    weight = [0] + [scale // math.comb(p, k) for k in range(1, p + 1)]
    best = {(0, 0): 0}
    for _ in range(m):
        nxt = {}
        for (count, total), mass in best.items():
            for k in range(1, p + 1):
                key = (count + 1, total + k)
                add = mass + weight[k]
                if add <= scale and add < nxt.get(key, math.inf):
                    nxt[key] = add
        best = nxt
        if not best:
            return math.inf
    return min(total for (count, total) in best if count == m)


def _brute_min_incidence_total(p, m):
    """Every multiset of m sizes in 1..p, its LYM sum in Fractions."""
    fitting = [sum(sizes) for sizes in itertools.combinations_with_replacement(range(1, p + 1), m)
               if sum(Fraction(1, math.comb(p, k)) for k in sizes) <= 1]
    return min(fitting, default=math.inf)


def test_incidence_total_matches_the_dp_on_the_default_limits():
    # Depths up to the default path budget of 12, hosts up to 16 edges.
    for p in range(1, 13):
        for m in range(17):
            assert _min_incidence_total(p, m) == _dp_min_incidence_total(p, m), (p, m)


def test_incidence_total_matches_the_dp_on_a_wider_grid():
    # Every m up to and past C(7, 3) = 35 sets, the last that fit at p = 7.
    for p in range(1, 9):
        for m in range(41):
            assert _min_incidence_total(p, m) == _dp_min_incidence_total(p, m), (p, m)


def test_incidence_total_matches_a_brute_force():
    for p in range(1, 7):
        for m in range(1, 9):
            expected = _brute_min_incidence_total(p, m)
            assert _dp_min_incidence_total(p, m) == expected, (p, m)
            assert _min_incidence_total(p, m) == expected, (p, m)


# ---------------------------------------------------------------------------
# Exact values.
# ---------------------------------------------------------------------------

EXPECTED = {
    "K2": 1, "P3": 2, "P4": 3, "P5": 4, "triangle": 3, "paw": 4, "bull": 4,
    "bowtie": 4, "C4": 4, "C5": 5, "C6": 6, "K4": 5, "K13": 3, "K14": 4,
    "K23": 5, "K25": 5,
}


@pytest.mark.parametrize("name,g", [c for c in ORACLE_CORPUS if c[0] in EXPECTED])
def test_exact_values_and_witnesses(name, g):
    result = exact_ssp(g)
    assert result.conclusive
    assert result.value == EXPECTED[name]
    assert len(result.witness) == result.value
    assert verify_strong_separation(result.witness).ok
    assert result.value >= max_degree(g)
    assert result.value >= sperner_lower_bound(g.m)


# (value, nodes, witness) of the search.  The node counts pin which branches
# the prunes cut, so a rewrite of a prune meant to be equivalent keeps them.
PINNED = {
    "K2": (1, 1, ((0, 1),)),
    "P3": (2, 2, ((0, 1), (1, 2))),
    "P4": (3, 3, ((0, 1), (1, 2), (2, 3))),
    "P5": (4, 4, ((0, 1), (1, 2), (2, 3), (3, 4))),
    "triangle": (3, 3, ((0, 1), (0, 2), (1, 2))),
    "paw": (4, 4, ((0, 1), (0, 2), (1, 2), (2, 3))),
    "bull": (4, 593, ((0, 1, 2), (0, 2, 4), (2, 0, 1, 3), (3, 1, 2, 4))),
    "bowtie": (4, 631, ((0, 1, 2, 3), (0, 2, 3, 4), (1, 0, 2, 4), (1, 2, 4, 3))),
    "chorded_c4": (4, 669, ((0, 1, 2), (0, 2, 3), (1, 0, 3, 2), (1, 2, 0, 3))),
    "C4": (4, 4, ((0, 1), (0, 3), (1, 2), (2, 3))),
    "C5": (5, 5, ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))),
    "C6": (6, 6, ((0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5))),
    "K4": (5, 2229, ((0, 1), (0, 2, 1), (0, 3, 1), (0, 2, 3, 1), (0, 3, 2, 1))),
    "K13": (3, 3, ((0, 1), (0, 2), (0, 3))),
    "K14": (4, 4, ((0, 1), (0, 2), (0, 3), (0, 4))),
    "K23": (5, 6150, ((0, 2), (0, 3, 1), (2, 1, 4), (1, 4, 0, 3), (3, 1, 2, 0, 4))),
    "K25": (5, 2298, ((2, 0, 3, 1, 4), (2, 1, 4, 0, 5), (3, 0, 5, 1, 6),
                       (3, 1, 6, 0, 4), (5, 1, 2, 0, 6))),
    "fan5": (5, 13386, ((0, 1), (0, 4, 1, 2), (0, 4, 2, 3), (1, 2, 4, 3),
                        (1, 4, 3, 2))),
    "K5": (5, 13805, ((0, 1, 2, 3, 4), (0, 2, 4, 3, 1), (1, 4, 0, 2, 3),
                      (2, 1, 3, 0, 4), (2, 4, 1, 0, 3))),
}


@pytest.mark.parametrize("name,g", ORACLE_CORPUS + [("K5", complete_graph(5))])
def test_search_is_pinned(name, g):
    result = exact_ssp(g)
    witness = tuple(p.vertices for p in result.witness.paths)
    assert (result.value, result.nodes, witness) == PINNED[name]


def _reference_solve_depth(search, p, g, leaves, endpoints):
    """The old search on g: a separate cover prune, the vertex-capacity prune
    over its own per-vertex incidence table, the candidate-count guard,
    common[e] starting at -1, the others[e] masks, and a recursion down to
    full depth, where each leaf only tests what it was handed.  With
    ``endpoints`` it also makes the endpoint-deficit test, recounted from
    the chosen paths' ends at each node.  The search must match its values
    and witnesses, and its node count less the leaves wherever the capacity
    prune decided nothing at r >= 2.  ``leaves[0]`` counts the full-depth
    calls."""
    if search.deadline is not None and oracle.time.monotonic() > search.deadline:
        raise oracle._TimeBudget
    min_total = oracle._min_incidence_total(p, search.m)
    if math.isinf(min_total):
        return None
    cover_after = [0] * (search.num + 1)
    for t in range(search.num - 1, -1, -1):
        cover_after[t] = cover_after[t + 1] | search.path_masks[t]
    full = (1 << search.m) - 1
    others = [full ^ (1 << e) for e in range(search.m)]
    # common[e]: AND of the chosen paths through e, -1 while none is.
    common = [-1] * search.m
    incident = [0] * g.n
    for i, (u, v) in enumerate(g.edges):
        incident[u] |= 1 << i
        incident[v] |= 1 << i
    need = [d if d <= 2 else 0 for d in g.degrees]
    chosen = []
    uncovered = full
    total_len = 0

    def feasible(next_idx):
        r = p - len(chosen)
        if total_len + r * max(search.path_lens[next_idx:]) < min_total:
            return False
        if uncovered & ~cover_after[next_idx]:
            return False
        for edges_at_v in incident:
            if (uncovered & edges_at_v).bit_count() > 2 * r:
                return False
        if endpoints:
            ends = [0] * g.n
            for idx in chosen:
                vs = search.paths[idx]
                ends[vs[0]] += 1
                ends[vs[-1]] += 1
            if sum(max(0, k - e) for k, e in zip(need, ends)) > 2 * r:
                return False
        later = search.common_after[next_idx]
        for e in range(search.m):
            if common[e] & later[e] & others[e]:
                return False
        return True

    def dfs(next_idx):
        nonlocal uncovered, total_len
        search._tick()
        if len(chosen) == p:
            leaves[0] += 1
            return not uncovered and not any(c & o for c, o in zip(common, others))
        if search.num - next_idx < p - len(chosen):
            return False
        if not feasible(next_idx):
            return False
        for idx in range(next_idx, search.num):
            chosen.append(idx)
            saved_uncovered = uncovered
            uncovered &= ~search.path_masks[idx]
            total_len += search.path_lens[idx]
            mask, edges = search.path_masks[idx], search.path_edges[idx]
            saved_common = [common[e] for e in edges]
            for e in edges:
                common[e] &= mask
            if dfs(idx + 1):
                return True
            for e, c in zip(edges, saved_common):
                common[e] = c
            total_len -= search.path_lens[idx]
            uncovered = saved_uncovered
            chosen.pop()
        return False

    if dfs(0):
        return list(chosen)
    return None


def _search_outcome(g):
    r = exact_ssp(g)
    witness = tuple(p.vertices for p in r.witness.paths) if r.witness else None
    return (r.value, r.nodes, r.lower, r.upper, witness)


def _outcomes_against_the_reference(monkeypatch, graphs, endpoints=True):
    """(outcome, reference outcome, reference leaves) for each graph."""
    outcomes = [_search_outcome(g) for g in graphs]
    for g, outcome in zip(graphs, outcomes):
        leaves = [0]
        monkeypatch.setattr(oracle._Search, "solve_depth",
                            lambda search, p: _reference_solve_depth(
                                search, p, g, leaves, endpoints))
        yield outcome, _search_outcome(g), leaves[0]


def _seeded_graphs(seeds, min_n, min_m, max_m):
    """Per seed, a graph of min_n to 7 vertices and min_m to max_m edges."""
    graphs = []
    for seed in seeds:
        rng = random.Random(seed)
        n = rng.randint(min_n, 7)
        pairs = list(itertools.combinations(range(n), 2))
        graphs.append(Graph.from_edges(
            n, rng.sample(pairs, rng.randint(min_m, min(max_m, len(pairs))))))
    return graphs


def test_search_matches_the_cover_prune_reference(monkeypatch):
    for (value, nodes, lower, upper, witness), reference, leaves in (
            _outcomes_against_the_reference(monkeypatch, _seeded_graphs(range(200), 2, 1, 6))):
        ref_value, ref_nodes, ref_lower, ref_upper, ref_witness = reference
        assert (value, lower, upper, witness) == (ref_value, ref_lower, ref_upper, ref_witness)
        assert nodes == ref_nodes - leaves


def test_endpoint_prune_keeps_every_outcome_and_only_cuts_nodes(monkeypatch):
    # Against the reference without the endpoint-deficit test: the prune
    # never refuses a feasible completion, so only the node count moves.
    cut = 0
    for (value, nodes, lower, upper, witness), reference, leaves in (
            _outcomes_against_the_reference(monkeypatch, _seeded_graphs(range(200), 2, 1, 6),
                                            endpoints=False)):
        ref_value, ref_nodes, ref_lower, ref_upper, ref_witness = reference
        assert (value, lower, upper, witness) == (ref_value, ref_lower, ref_upper, ref_witness)
        assert nodes <= ref_nodes - leaves
        cut += nodes < ref_nodes - leaves
    assert cut


def test_search_without_the_capacity_prune_visits_more_nodes(monkeypatch):
    # Seeds on which the old vertex-capacity prune cut nodes at r >= 2 that
    # the search now visits and refuses later: the same value and witness, a
    # few more nodes.
    graphs = _seeded_graphs((27, 710, 2450), 3, 2, 8)
    for (value, nodes, lower, upper, witness), reference, leaves in (
            _outcomes_against_the_reference(monkeypatch, graphs)):
        ref_value, ref_nodes, ref_lower, ref_upper, ref_witness = reference
        assert (value, lower, upper, witness) == (ref_value, ref_lower, ref_upper, ref_witness)
        assert nodes > ref_nodes - leaves


def test_depths_searched_never_exceed_the_minimum(monkeypatch):
    # The premise that makes a candidate-count guard redundant: a depth p is
    # searched only when no system of fewer than p paths exists.
    solve_depth = oracle._Search.solve_depth
    calls = []

    def recorded(search, p):
        found = solve_depth(search, p)
        calls.append((p, found))
        return found

    monkeypatch.setattr(oracle._Search, "solve_depth", recorded)
    for name, g in ORACLE_CORPUS:
        calls.clear()
        result = exact_ssp(g)
        assert calls, name
        for p, found in calls:
            assert p <= result.value, name
            assert (found is None) == (p < result.value), name


def _reference_exact(g):
    """The search loop that started at max(max degree, antichain bound) and
    refused a depth at its root, with one node, by the incidence-total, the
    endpoint and the separation test; a depth that passes them is searched
    by solve_depth, which takes the root's node itself.  Returns the outcome
    as _search_outcome gives it and, for each depth refused at its root,
    which of the three tests refuse it."""
    search = oracle._Search(g, oracle.DEFAULT_CONFIG)
    p = max(max_degree(g), sperner_lower_bound(g.m))
    full = (1 << g.m) - 1
    lack, lack2 = search.lack
    refusals = []
    while p <= min(g.m, oracle.DEFAULT_CONFIG.max_path_budget):
        tests = (p * search.max_len < _min_incidence_total(p, g.m),
                 lack.bit_count() + lack2.bit_count() > 2 * p,
                 any(full & ~(1 << e) & search.common_after[0][e] for e in range(g.m)))
        if any(tests):
            search._tick()
            refusals.append(tests)
        else:
            solution = search.solve_depth(p)
            if solution is not None:
                witness = system_from_sequences(g, (search.paths[i] for i in solution))
                return ((p, search.nodes, p, p, tuple(q.vertices for q in witness.paths)),
                        refusals)
        p += 1
    return (None, search.nodes, p, g.m, None), refusals


def test_search_starts_past_every_root_test():
    # Against the loop that refused depths at their roots: the same value,
    # interval and witness, and one node less for each depth it refused.
    # Two stars have paths too short for the incidence total at the first
    # depth that meets the other bounds.
    graphs = ([g for _, g in ORACLE_CORPUS] + [complete_graph(5)]
              + [disjoint_union([star(3), star(3)]), disjoint_union([star(4), star(3)])]
              + _seeded_graphs(range(120), 2, 1, 8))
    refused = []
    for g in graphs:
        value, nodes, lower, upper, witness = _search_outcome(g)
        (ref_value, ref_nodes, ref_lower, ref_upper, ref_witness), refusals = (
            _reference_exact(g))
        assert (value, lower, upper, witness) == (
            ref_value, ref_lower, ref_upper, ref_witness), g
        assert nodes == ref_nodes - len(refusals), g
        refused += refusals
    assert not any(separation for _, _, separation in refused)
    assert any(incidence and not endpoint for incidence, endpoint, _ in refused)
    assert any(endpoint and not incidence for incidence, endpoint, _ in refused)


def test_single_edge_paths_come_first_in_edge_order():
    # The fact that makes the root's separation test redundant: every edge's
    # single-edge path is a candidate.
    graphs = ([g for _, g in ORACLE_CORPUS] + [complete_graph(5)]
              + _seeded_graphs(range(100), 2, 1, 16)
              + [random_2degenerate(n, seed) for n in range(3, 9) for seed in range(5)])
    for g in graphs:
        assert enumerate_paths(g)[:g.m] == list(g.edges), g


def test_p3_witness_is_the_two_singletons():
    result = exact_ssp(path_graph(3))
    assert [p.vertices for p in result.witness.paths] == [(0, 1), (1, 2)]


def test_exact_is_deterministic():
    a = exact_ssp(complete_graph(4))
    b = exact_ssp(complete_graph(4))
    assert a.value == b.value
    assert [p.vertices for p in a.witness.paths] == [p.vertices for p in b.witness.paths]


def test_exact_requires_an_edge():
    with pytest.raises(UnsupportedGraphError):
        exact_ssp(Graph(3, ()))


def test_exact_refuses_oversized_graphs():
    with pytest.raises(LimitExceededError):
        exact_ssp(random_2degenerate(30, 0))


def test_time_budget_yields_interval():
    result = exact_ssp(cube_graph(), OracleConfig(time_budget=1e-6))
    assert not result.conclusive
    assert result.value is None and result.witness is None
    assert result.lower == 6          # max(degree 3, antichain bound for 12 edges)
    assert result.upper == 12         # one single-edge path per edge
    assert result.lower <= result.upper


def test_time_budget_counts_the_set_up(monkeypatch):
    # A fake clock that only path enumeration advances: the budget must be
    # spent before the search takes its first node.
    clock = [0.0]
    monkeypatch.setattr(oracle, "time", types.SimpleNamespace(monotonic=lambda: clock[0]))
    enumerate_paths_ = oracle.enumerate_paths

    def slow_enumerate_paths(g, cfg, deadline=None):
        clock[0] += 10.0
        return enumerate_paths_(g, cfg, deadline)

    monkeypatch.setattr(oracle, "enumerate_paths", slow_enumerate_paths)
    result = exact_ssp(path_graph(4), OracleConfig(time_budget=1.0))
    assert not result.conclusive
    assert result.nodes == 0


def test_time_budget_stops_the_path_enumeration(monkeypatch):
    # A clock that jumps past the budget after the deadline is set: the check
    # after the 1024th of the Petersen graph's 1365 paths ends the run, before
    # enumeration returns and so before the tables are built.
    reads = []

    def monotonic():
        reads.append(None)
        return 0.0 if len(reads) <= 2 else 10.0

    monkeypatch.setattr(oracle, "time", types.SimpleNamespace(monotonic=monotonic))
    enumerate_paths_ = oracle.enumerate_paths
    returned = []

    def recording_enumerate_paths(g, cfg, deadline=None):
        returned.append(enumerate_paths_(g, cfg, deadline))
        return returned[-1]

    monkeypatch.setattr(oracle, "enumerate_paths", recording_enumerate_paths)
    result = exact_ssp(petersen_graph(), OracleConfig(time_budget=1.0))
    assert not result.conclusive and result.nodes == 0
    assert returned == []
    assert len(reads) == 4  # start, deadline, one look during enumeration, elapsed


def test_time_budget_stops_the_search_within_512_nodes(monkeypatch):
    # A clock that jumps past the budget once the search has taken 100,000
    # nodes, in the middle of K_{2,4}'s last depth (184,467 nodes): the
    # search reads the clock every 512 nodes, so it stops at most 512 later.
    searches = []
    init = oracle._Search.__init__

    def recording_init(search, g, cfg):
        init(search, g, cfg)
        searches.append(search)

    jump = 100_000
    monkeypatch.setattr(oracle._Search, "__init__", recording_init)
    monkeypatch.setattr(oracle, "time", types.SimpleNamespace(
        monotonic=lambda: 10.0 if searches and searches[0].nodes >= jump else 0.0))
    result = exact_ssp(complete_bipartite(2, 4), OracleConfig(time_budget=1.0))
    assert not result.conclusive
    assert result.value is None and result.witness is None
    assert (result.lower, result.upper) == (5, 8)
    assert jump <= result.nodes <= jump + 512


def test_the_search_leaves_no_reference_cycles(monkeypatch):
    # K5 and K_{2,4} run to the end.  The prism's one depth takes 5.4 M
    # nodes, so a clock that jumps past the budget after 20,000 of them
    # stops it there, through the time-budget exit.
    assert garbage_left_by(lambda: exact_ssp(complete_graph(5))) == 0
    assert garbage_left_by(lambda: exact_ssp(complete_bipartite(2, 4))) == 0
    searches = []
    init = oracle._Search.__init__

    def recording_init(search, g, cfg):
        init(search, g, cfg)
        searches.append(search)

    monkeypatch.setattr(oracle._Search, "__init__", recording_init)
    monkeypatch.setattr(oracle, "time", types.SimpleNamespace(
        monotonic=lambda: 10.0 if searches and searches[0].nodes >= 20_000 else 0.0))
    results = []
    cut = OracleConfig(time_budget=1.0)
    assert garbage_left_by(lambda: results.append(exact_ssp(prism_graph(), cut))) == 0
    assert not results[0].conclusive and results[0].nodes >= 20_000


def test_set_up_reads_the_clock_every_1024_paths_and_only_with_a_budget(monkeypatch):
    reads = []
    monkeypatch.setattr(oracle, "time", types.SimpleNamespace(
        monotonic=lambda: reads.append(None) or 0.0))
    g = petersen_graph()
    assert len(enumerate_paths(g)) == 1365
    oracle._Search(g, OracleConfig())
    assert reads == []
    oracle._Search(g, OracleConfig(time_budget=1.0))
    # The deadline, path 1024, and table rows 1024 and 0.
    assert len(reads) == 4


def _matching(m):
    return Graph(2 * m, tuple((2 * i, 2 * i + 1) for i in range(m)))


def _lifted(g, time_budget=None):
    return OracleConfig(max_vertices=g.n, max_edges=g.m, max_path_budget=g.m,
                        time_budget=time_budget)


def test_a_perfect_matching_passes_hundreds_of_depths_quickly(tmp_path, capsys):
    # Every vertex has degree 1, so the endpoint bound starts the search at
    # p = m, with no depth below it tried.  m = 1000 is the most edges
    # MAX_TABLE_CELLS admits; a search that called itself once per chosen
    # path overflowed Python's default recursion limit there.
    for m in (400, 1000):
        g = _matching(m)
        result = exact_ssp(g, _lifted(g, time_budget=5.0))
        assert result.conclusive and result.value == m
        assert [p.vertices for p in result.witness.paths] == list(g.edges)
    path = tmp_path / "matching.g"
    path.write_text(serialize_graph(g))
    assert cli.main(["exact", "--force", str(path)]) == 0
    assert capsys.readouterr().out == "ssp = 1000\n"
    g = _matching(800)
    start = time.monotonic()
    result = exact_ssp(g, _lifted(g, time_budget=0.5))
    assert time.monotonic() - start < 1.5
    assert result.value in (None, 800)


def test_path_budget_yields_interval():
    # The endpoint bound puts C6's start at 6, above the budget of 4, so no
    # depth is searched.
    result = exact_ssp(cycle_graph(6), OracleConfig(max_path_budget=4))
    assert not result.conclusive
    assert result.lower == 6 and result.upper == 6
    assert result.nodes == 0


# ---------------------------------------------------------------------------
# Formula comparisons.
# ---------------------------------------------------------------------------

_SMALL_COMPLETE_BIPARTITE = [(a, b) for a in (1, 2) for b in range(a, 9) if a * b <= 8]


@pytest.mark.parametrize("a,b", _SMALL_COMPLETE_BIPARTITE)
def test_bound_report_holds_against_the_oracle(a, b):
    # Every K_{a,b} with a <= b and ab <= 8: the reported lower bound holds,
    # and an exact value is the oracle's.
    result, bounds = exact_ssp(complete_bipartite(a, b)), bipartite_bounds(a, b)
    assert result.conclusive
    assert result.value >= bounds.lower - 1e-9
    assert bounds.exact in (None, result.value)


def test_formula_check_k25():
    result = exact_ssp(complete_bipartite(2, 5))
    assert result.value == 5 == bipartite_bounds(2, 5).exact


def test_formula_check_k22():
    # a = b regime: the counting bound gives (sqrt(10) - 2) * 2, and the
    # 4-cycle actually needs 4 paths.
    result, bounds = exact_ssp(complete_bipartite(2, 2)), bipartite_bounds(2, 2)
    assert result.value == 4 and bounds.exact is None
    assert math.isclose(bounds.lower, (math.sqrt(10) - 2) * 2, abs_tol=1e-9)


def test_formula_check_k24_boundary():
    # a = b/2: the counting bound evaluates to exactly b = 4, while the
    # antichain bound (8 incomparable sets need 5 slots) pushes the true
    # value to 5; the bound is a valid floor, tight only asymptotically.
    result = exact_ssp(complete_bipartite(2, 4))
    assert math.isclose(bipartite_bounds(2, 4).lower, 4.0, abs_tol=1e-9)
    assert (result.value, result.nodes) == (5, 184_467)
    assert tuple(p.vertices for p in result.witness.paths) == (
        (2, 0, 3), (0, 4, 1, 2), (0, 5, 1, 4), (3, 1, 2, 0, 5), (4, 0, 3, 1, 5))


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(max_vertices=0)
    with pytest.raises(ValueError):
        OracleConfig(time_budget=-1.0)


def test_exact_matches_brute_force_on_tiny_graphs():
    # Independent route: try every subset of candidate paths in increasing
    # size and take the first that verifies.
    from itertools import combinations
    from pathsep import system_from_sequences
    from corpus import paw

    for g in (path_graph(3), path_graph(4), complete_graph(3),
              complete_bipartite(1, 3), cycle_graph(4), paw()):
        pool = enumerate_paths(g)
        brute = None
        for size in range(1, len(pool) + 1):
            for combo in combinations(pool, size):
                if verify_strong_separation(system_from_sequences(g, combo)).ok:
                    brute = size
                    break
            if brute is not None:
                break
        assert exact_ssp(g).value == brute


def test_config_refuses_a_nan_time_budget():
    # NaN compares false with everything, so `budget <= 0` let it through
    # and the search then ran without a deadline.
    with pytest.raises(ValueError, match="time budget must be positive"):
        OracleConfig(time_budget=math.nan)
