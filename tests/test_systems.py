import dataclasses
import random
import time
import tracemalloc
import types
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathsep import (
    CertificateError, Graph, InvalidSystemError, Path, PathSystem,
    UnsupportedGraphError, build_ssp_auto, build_ssp_complete_bipartite, build_ssp_cubic,
    counting_certificate,
    enumerate_paths, exact_ssp, incidence_profile, system_from_sequences,
    verify_by_pair_scan, verify_strong_separation, verify_structural_properties,
)
from pathsep.degenerate import build_ssp_2degenerate
from pathsep import systems
from pathsep.generators import (
    complete_bipartite, complete_graph, cycle_graph, path_graph, random_2degenerate,
    random_cubic,
)
from pathsep.graphs import is_connected, normalize_edge
from pathsep.systems import (
    CONTAINED, UNCOVERED, IncidenceProfile, Verdict, format_paths, format_paths_json,
    parse_paths,
)

from corpus import (
    ORACLE_CORPUS, SMALL_CORPUS, canonical_form, checked_system, disjoint_union, path_edges,
    path_ends, path_length, traced_memory,
)

TRIANGLE = complete_graph(3)
ROTATIONS = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]


def test_path_validation():
    for make_system in (checked_system, system_from_sequences):
        with pytest.raises(ValueError, match="^a path needs at least two vertices$"):
            make_system(TRIANGLE, [(3,)])
        with pytest.raises(ValueError, match=r"^repeated vertex in path \(0, 1, 0\)$"):
            make_system(TRIANGLE, [(0, 1, 0)])


def test_a_path_is_only_its_vertices():
    # Path checks nothing and caches nothing: system_from_sequences is the
    # one check of a path, and PathSystem.through the one incidence.
    assert [f.name for f in dataclasses.fields(Path)] == ["vertices"]
    assert Path.__slots__ == ("vertices",) and not hasattr(Path((0, 1)), "__dict__")
    assert {name for name in vars(Path) if not name.startswith("__")} == {"vertices"}
    assert not hasattr(Path, "__post_init__") and not hasattr(Path, "__len__")
    assert Path((3,)).vertices == (3,) and Path((0, 1, 0)) == Path((0, 1, 0))


def test_system_rejects_non_edge():
    with pytest.raises(InvalidSystemError, match=r"path 1 uses non-edge \(0, 3\)"):
        system_from_sequences(path_graph(4), [(0, 1), (0, 3)])


def test_system_rejects_out_of_range_vertex():
    with pytest.raises(InvalidSystemError, match="path 0 uses vertex 9"):
        system_from_sequences(path_graph(3), [(9, 1)])


# ---------------------------------------------------------------------------
# Incidence profiles.
# ---------------------------------------------------------------------------

def test_profile_triangle_rotations():
    sys_ = system_from_sequences(TRIANGLE, ROTATIONS)
    prof = incidence_profile(sys_)
    assert prof.e2 == 3
    assert prof.histogram == (0, 0, 3, 0)


def test_profile_single_edge():
    sys_ = system_from_sequences(path_graph(2), [(0, 1)])
    prof = incidence_profile(sys_)
    assert prof.e1 == 1 and prof.histogram == (0, 1)


def test_profile_two_disjoint_singletons():
    sys_ = system_from_sequences(path_graph(3), [(0, 1), (1, 2)])
    prof = incidence_profile(sys_)
    assert prof.paths_for((0, 1)) == (0,)
    assert prof.paths_for((1, 2)) == (1,)


def test_profile_counts_uncovered_edges():
    sys_ = system_from_sequences(TRIANGLE, [(0, 1)])
    prof = incidence_profile(sys_)
    assert prof.histogram == (2, 1)
    assert sum(prof.histogram) == TRIANGLE.m


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_profile_invariants_random(seed):
    rng = random.Random(seed)
    name, g = SMALL_CORPUS[rng.randrange(len(SMALL_CORPUS))]
    pool = enumerate_paths(g)
    chosen = rng.sample(pool, rng.randint(0, min(8, len(pool))))
    sys_ = system_from_sequences(g, chosen)
    prof = incidence_profile(sys_)
    assert sum(prof.histogram) == g.m
    assert sum(len(hits) for hits in prof.through) == sum(len(vs) - 1 for vs in chosen)


# ---------------------------------------------------------------------------
# Strong separation.
# ---------------------------------------------------------------------------

def test_rotations_pass():
    assert verify_strong_separation(system_from_sequences(TRIANGLE, ROTATIONS)).ok


def test_single_full_path_fails_with_witness():
    sys_ = system_from_sequences(path_graph(3), [(0, 1, 2)])
    verdict = verify_strong_separation(sys_)
    assert not verdict.ok and verdict.kind == CONTAINED
    assert verdict.witness == ((0, 1), (1, 2))


def test_uncovered_edge_reported_distinctly():
    sys_ = system_from_sequences(TRIANGLE, [(0, 1, 2)])
    verdict = verify_strong_separation(sys_)
    assert not verdict.ok and verdict.kind == UNCOVERED
    assert verdict.witness == ((0, 2),)


def test_k4_four_path_samples_all_fail():
    # The exact minimum for K4 is 5, so every 4-path selection must fail.
    g = complete_graph(4)
    pool = enumerate_paths(g)
    rng = random.Random(42)
    for _ in range(60):
        sys_ = system_from_sequences(g, rng.sample(pool, 4))
        assert not verify_strong_separation(sys_).ok


def test_verdict_invariant_under_path_permutation():
    rng = random.Random(7)
    for name, g in SMALL_CORPUS[:12]:
        pool = enumerate_paths(g)
        chosen = rng.sample(pool, min(5, len(pool)))
        base = verify_strong_separation(system_from_sequences(g, chosen)).ok
        for _ in range(5):
            rng.shuffle(chosen)
            assert verify_strong_separation(system_from_sequences(g, chosen)).ok == base


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_adding_a_path_never_breaks_separation(seed):
    # A new path's index lands only in the incidence sets of its own edges,
    # so an old incomparability witness between two sets survives; PASS is
    # monotone under adding paths.  (Removing a path can break it.)
    rng = random.Random(seed)
    name, g = SMALL_CORPUS[rng.randrange(len(SMALL_CORPUS))]
    pool = enumerate_paths(g)
    chosen = rng.sample(pool, rng.randint(1, min(7, len(pool))))
    sys_ = system_from_sequences(g, chosen)
    if verify_strong_separation(sys_).ok:
        extra = pool[rng.randrange(len(pool))]
        bigger = system_from_sequences(g, chosen + [extra])
        assert verify_strong_separation(bigger).ok


def test_removing_a_path_can_break_separation():
    sys_ = system_from_sequences(path_graph(3), [(0, 1), (1, 2), (0, 1, 2)])
    assert verify_strong_separation(sys_).ok
    smaller = system_from_sequences(path_graph(3), [(0, 1, 2)])
    assert not verify_strong_separation(smaller).ok


# ---------------------------------------------------------------------------
# Agreement with the definitional pair scan.
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_antichain_verifier_matches_pair_scan(seed):
    rng = random.Random(seed)
    candidates = [(name, g) for name, g in SMALL_CORPUS if g.m <= 12]
    name, g = candidates[rng.randrange(len(candidates))]
    pool = enumerate_paths(g)
    chosen = rng.sample(pool, rng.randint(0, min(8, len(pool))))
    if rng.random() < 0.5:
        # Single-edge paths on some edges mix the multiplicities, so PASS
        # systems whose S(e) differ in size are compared as well.
        chosen += rng.sample(g.edges, rng.randint(1, g.m))
    sys_ = system_from_sequences(g, chosen)
    fast = verify_strong_separation(sys_)
    slow = verify_by_pair_scan(sys_)
    assert (fast.ok, fast.kind, fast.witness) == (slow.ok, slow.kind, slow.witness)


# ---------------------------------------------------------------------------
# The subset-count kernel against the bitmask kernel it replaced.
# ---------------------------------------------------------------------------

def _bitmask_verify(system):
    """The bitmask kernel as ``verify_strong_separation`` ran it before the
    subset count: p path masks of m bits, ANDed over the paths of each edge."""
    edges, through = system.graph.edges, system.through
    for e, hits in zip(edges, through):
        if not hits:
            return Verdict(False, UNCOVERED, (e,), f"edge {e} lies on no path")
    path_masks = [0] * len(system.paths)
    for i, hits in enumerate(through):
        bit = 1 << i
        for p_idx in hits:
            path_masks[p_idx] |= bit
    for i, hits in enumerate(through):
        common = -1
        for p_idx in hits:
            common &= path_masks[p_idx]
        others = common ^ (1 << i)
        if others:
            e, f = edges[i], edges[(others & -others).bit_length() - 1]
            return Verdict(False, CONTAINED, (e, f), f"S{e} is contained in S{f}")
    return Verdict(True)


def _built_systems():
    for n in (3, 12, 40, 150, 400):
        yield build_ssp_2degenerate(random_2degenerate(n, n))[0]
    for n in (6, 10, 60, 200):
        yield build_ssp_cubic(random_cubic(n, n))
    for a, b in ((1, 3), (1, 4), (2, 5), (3, 10), (6, 25), (10, 41)):
        yield build_ssp_complete_bipartite(a, b)
    rng = random.Random(5)
    for count in (20, 60):
        parts = [rng.choice([complete_graph(4), cycle_graph(rng.randint(3, 7)), path_graph(3),
                             random_2degenerate(rng.randint(3, 9), rng.randrange(10**6)),
                             random_cubic(rng.randrange(6, 15, 2), rng.randrange(10**6))])
                 for _ in range(count)]
        yield build_ssp_auto(disjoint_union(parts))[0]


def _tampered(system, rng):
    """The system with one path dropped, shortened by an edge, or doubled."""
    seqs = list(system.sequences)
    i = rng.randrange(len(seqs))
    vs = seqs[i]
    yield PathSystem(system.graph, tuple(seqs[:i] + seqs[i + 1:]))
    shorter = [vs[:-1]] if len(vs) > 2 else []
    yield PathSystem(system.graph, tuple(seqs[:i] + shorter + seqs[i + 1:]))
    yield PathSystem(system.graph, tuple(seqs + seqs[i:i + 1]))


def _threshold_systems():
    """Random walks on small 2-degenerate and cubic hosts, plus a single-edge
    path on every edge the walks miss and on some of the others: the
    multiplicities put the subset count on either side of the cost threshold,
    and an edge with no single-edge path may be contained in another."""
    for seed in range(80):
        rng = random.Random(seed)
        n = rng.randint(6, 30)
        g = random_2degenerate(n, seed) if seed % 2 else random_cubic(n + n % 2, seed)
        walks = [_walk(g, rng) for _ in range(rng.randint(1, 2 * g.m))]
        walked = {normalize_edge(u, v) for w in walks for u, v in zip(w, w[1:])}
        share = rng.choice((0.3, 0.8, 1.0))
        seqs = walks + [e for e in g.edges if e not in walked or rng.random() < share]
        rng.shuffle(seqs)
        yield system_from_sequences(g, seqs)


def _count_fallbacks(monkeypatch):
    calls = []
    kernel = systems._verify_by_masks

    def counted(system):
        calls.append(system)
        return kernel(system)

    monkeypatch.setattr(systems, "_verify_by_masks", counted)
    return calls


def test_verifier_matches_the_bitmask_kernel(monkeypatch):
    fallbacks = _count_fallbacks(monkeypatch)
    rng = random.Random(1)
    built = list(_built_systems())
    samples = []
    for seed in range(400):
        g, seqs = _sample_system(seed)
        try:
            samples.append(system_from_sequences(g, seqs))
        except InvalidSystemError:
            pass
    tampered = [t for system in built for t in _tampered(system, rng)]
    outcomes, scanned = Counter(), 0
    for system in samples + built + tampered + list(_threshold_systems()):
        before = len(fallbacks)
        verdict = verify_strong_separation(system)
        assert verdict == _bitmask_verify(system), system.paths
        outcomes[verdict.kind or "pass", len(fallbacks) > before] += 1
        if system.graph.m <= 40:
            slow = verify_by_pair_scan(system)
            assert (verdict.ok, verdict.kind, verdict.witness) == (slow.ok, slow.kind, slow.witness)
            scanned += 1
    assert all(verify_strong_separation(system).ok for system in built)
    # Both outcomes of the antichain test on both sides of the cost threshold.
    assert min(outcomes[kind, fell_back] for kind in ("pass", CONTAINED)
               for fell_back in (False, True)) >= 5, outcomes
    assert outcomes[UNCOVERED, False] >= 5, outcomes
    assert scanned >= 100


def test_an_edge_on_many_paths_falls_back_to_the_bitmask_kernel(monkeypatch):
    # (0, 1) and (1, 2) lie on all 40 paths and (0, 42) on 20 of them, so
    # counting the 20-subsets of the 40-sets would take C(40, 20) > 10^11 keys.
    g = Graph.from_edges(43, [(0, 1), (1, 2), (0, 42)] + [(2, v) for v in range(3, 42)])
    seqs = [(42, 0, 1, 2)] + [(42, 0, 1, 2, v) if v < 22 else (0, 1, 2, v) for v in range(3, 42)]
    system = system_from_sequences(g, seqs)
    assert max(map(len, system.through)) == 40
    fallbacks = _count_fallbacks(monkeypatch)
    start = time.perf_counter()
    verdict = verify_strong_separation(system)
    elapsed = time.perf_counter() - start
    assert fallbacks == [system]
    assert verdict == _bitmask_verify(system)
    assert verdict.witness == ((0, 1), (1, 2))
    assert elapsed < 0.5


def test_verifier_memory_is_below_half_the_bitmask_kernel():
    system = build_ssp_2degenerate(random_2degenerate(5000, 0))[0]

    def peak(verify):
        tracemalloc.start()
        try:
            assert verify(system).ok
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(verify_strong_separation) < peak(_bitmask_verify) / 2


def test_the_incidence_of_k_30_241_peaks_below_750_kb():
    # Each S(e) list becomes its tuple in place, so the lists and the tuples
    # are never held whole together; with both, this peaked near 1,140 KB.
    built = build_ssp_complete_bipartite(30, 241)
    system, _, peak = traced_memory(system_from_sequences, built.graph, built.sequences)
    assert system.through == built.through
    assert peak <= 750 * 1024, peak / 1024


# ---------------------------------------------------------------------------
# Structural properties.
# ---------------------------------------------------------------------------

def test_structural_triangle_rotations_pass():
    assert verify_structural_properties(system_from_sequences(TRIANGLE, ROTATIONS)).ok


def test_structural_path_base_case_passes():
    sys_ = system_from_sequences(path_graph(3), [(0, 1, 2), (0, 1), (1, 2)])
    assert verify_structural_properties(sys_).ok


def test_structural_fails_on_wrong_multiplicity():
    # The path-graph base system pasted onto a triangle leaves edge (0, 2)
    # off every path, so the exactly-two check fails there.
    sys_ = system_from_sequences(TRIANGLE, [(0, 1, 2), (0, 1), (1, 2)])
    verdict = verify_structural_properties(sys_)
    assert not verdict.ok and verdict.kind == "multiplicity"
    assert verdict.witness == ((0, 2), 0)

    sys_ = system_from_sequences(TRIANGLE, ROTATIONS + [(0, 1)])
    verdict = verify_structural_properties(sys_)
    assert not verdict.ok and verdict.kind == "multiplicity"
    assert verdict.witness == ((0, 1), 3)


def test_structural_fails_on_endpoint_count():
    # Both edges lie in exactly two paths, but vertex 1 is never an endpoint.
    sys_ = system_from_sequences(path_graph(3), [(0, 1, 2), (0, 1, 2)])
    verdict = verify_structural_properties(sys_)
    assert not verdict.ok and verdict.kind == "endpoints"
    assert verdict.witness == (1, 0)


def _structural_from_masks(system):
    """(ok, kind, witness) of the structural check, read off p-bit masks
    built from each path's edges, as a reference for the counting check."""
    profile = _mask_profile(system)
    for e, mask in zip(profile.edges, profile.masks):
        if mask.bit_count() != 2:
            return (False, "multiplicity", (e, mask.bit_count()))
    ends = [v for path in system.paths for v in path_ends(path)]
    for v in range(system.graph.n):
        if ends.count(v) != 2:
            return (False, "endpoints", (v, ends.count(v)))
    return (True, None, None)


def test_structural_counts_match_the_mask_reference():
    verdicts = []
    for seed in range(40):
        rng = random.Random(seed)
        g = random_2degenerate(rng.randint(3, 25), seed)
        built, _ = build_ssp_2degenerate(g)
        seqs = built.sequences
        i = rng.randrange(len(seqs))
        dropped = seqs[:i] + seqs[i + 1:]
        doubled = seqs + (seqs[i],)
        # Splitting a path at an inner vertex keeps every edge count and
        # makes that vertex an endpoint of two more paths.
        j = max(range(len(seqs)), key=lambda k: len(seqs[k]))
        vs = seqs[j]
        split = seqs[:j] + (vs[:2], vs[1:]) + seqs[j + 1:]
        for paths in (seqs, dropped, doubled, split):
            system = PathSystem(g, paths)
            v = verify_structural_properties(system)
            assert (v.ok, v.kind, v.witness) == _structural_from_masks(system)
            verdicts.append(v.kind)
    assert verdicts.count(None) == 40
    assert {"multiplicity", "endpoints"} <= set(verdicts)


def test_structural_demands_connected_host():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    sys_ = system_from_sequences(g, [(0, 1), (2, 3)])
    with pytest.raises(UnsupportedGraphError):
        verify_structural_properties(sys_)


def test_property_i_total_length():
    # Every edge in exactly two paths forces the path lengths to add to 2m.
    sys_ = system_from_sequences(TRIANGLE, ROTATIONS)
    assert verify_structural_properties(sys_).ok
    assert sum(map(path_length, sys_.paths)) == 2 * TRIANGLE.m


# ---------------------------------------------------------------------------
# Counting certificates.
# ---------------------------------------------------------------------------

def test_certificate_k13():
    report = counting_certificate(build_ssp_complete_bipartite(1, 3), 1, 3)
    assert (report.e1, report.e2, report.p) == (0, 3, 3)
    assert report.eq1_lhs == 6 and report.eq1_rhs == 6 and report.eq1_slack == 0


def test_certificate_k25():
    report = counting_certificate(build_ssp_complete_bipartite(2, 5), 2, 5)
    assert (report.e1, report.e2, report.p) == (0, 10, 5)
    assert report.eq1_lhs == 20 and report.eq1_rhs == 20
    assert report.eq2_slack >= 0


def test_certificate_rejects_wrong_host():
    sys_ = system_from_sequences(TRIANGLE, ROTATIONS)
    with pytest.raises(UnsupportedGraphError):
        counting_certificate(sys_, 1, 2)


def test_certificate_rejects_non_separating_system():
    g = complete_bipartite(1, 3)
    sys_ = system_from_sequences(g, [(1, 0, 2)])
    with pytest.raises(CertificateError, match="not strongly separating"):
        counting_certificate(sys_, 1, 3)


def test_certificate_quadratic_relaxation_fails_on_tiny_degenerate_system():
    # K_{1,2} covered by its two single-edge paths separates, but
    # e2 + 2*e1 = 4 exceeds p^2/2 = 2: the quadratic form of the second
    # inequality only holds once systems are past this degenerate size.
    g = complete_bipartite(1, 2)
    sys_ = system_from_sequences(g, [(0, 1), (0, 2)])
    assert verify_strong_separation(sys_).ok
    with pytest.raises(CertificateError, match="eq2"):
        counting_certificate(sys_, 1, 2)


# ---------------------------------------------------------------------------
# S(e) built once: PathSystem.through and its readers, against references
# that each build their own incidence from the paths' edges.
# ---------------------------------------------------------------------------

def _reference_system(graph, seqs):
    """Every vertex of a path in range, then every edge of it in the host;
    a stand-in for PathSystem that the other references read."""
    paths = tuple(map(Path, seqs))
    edge_set = frozenset(graph.edges)
    for i, path in enumerate(paths):
        for v in path.vertices:
            if not (0 <= v < graph.n):
                raise InvalidSystemError(
                    f"path {i} uses vertex {v}, out of range for n={graph.n}")
        for u, v in path_edges(path):
            if (u, v) not in edge_set:
                raise InvalidSystemError(f"path {i} uses non-edge ({u}, {v})")
    return types.SimpleNamespace(graph=graph, paths=paths)


def _reference_verify(system):
    edges = system.graph.edges
    index = {e: i for i, e in enumerate(edges)}
    path_masks = []
    through = [[] for _ in edges]
    for p_idx, path in enumerate(system.paths):
        mask = 0
        for e in path_edges(path):
            i = index[e]
            mask |= 1 << i
            through[i].append(p_idx)
        path_masks.append(mask)
    for e, hits in zip(edges, through):
        if not hits:
            return Verdict(False, UNCOVERED, (e,), f"edge {e} lies on no path")
    for i, hits in enumerate(through):
        common = -1
        for p_idx in hits:
            common &= path_masks[p_idx]
        others = common ^ (1 << i)
        if others:
            e, f = edges[i], edges[(others & -others).bit_length() - 1]
            return Verdict(False, CONTAINED, (e, f), f"S{e} is contained in S{f}")
    return Verdict(True)


def _mask_profile(system):
    """The bitset profile that IncidenceProfile replaced: masks[i] is the
    bitset of the paths containing edges[i], built here from the paths' edges."""
    edges = system.graph.edges
    index = {e: i for i, e in enumerate(edges)}
    masks = [0] * len(edges)
    for p_idx, path in enumerate(system.paths):
        for e in path_edges(path):
            masks[index[e]] |= 1 << p_idx
    hist = [0] * (len(system.paths) + 1)
    for mask in masks:
        hist[mask.bit_count()] += 1

    def paths_for(edge):
        mask = masks[index[normalize_edge(*edge)]]
        return tuple(i for i in range(len(system.paths)) if mask >> i & 1)

    return types.SimpleNamespace(
        edges=edges, masks=masks, histogram=tuple(hist), paths_for=paths_for,
        e1=hist[1] if len(hist) > 1 else 0, e2=hist[2] if len(hist) > 2 else 0)


def _reference_profile(system):
    ref = _mask_profile(system)
    return IncidenceProfile(len(system.paths), ref.edges, tuple(map(ref.paths_for, ref.edges)),
                            ref.histogram)


def _reference_structural(system):
    g = system.graph
    if g.n < 3:
        raise UnsupportedGraphError("structural properties need at least 3 vertices")
    if not is_connected(g):
        raise UnsupportedGraphError("structural properties need a connected host graph")
    edge_count = Counter(e for path in system.paths for e in path_edges(path))
    for e in g.edges:
        if edge_count[e] != 2:
            return Verdict(False, "multiplicity", (e, edge_count[e]),
                           f"edge {e} lies in {edge_count[e]} paths, expected 2")
    end_count = Counter(v for path in system.paths for v in path_ends(path))
    for v in range(g.n):
        if end_count[v] != 2:
            return Verdict(False, "endpoints", (v, end_count[v]),
                           f"vertex {v} is an endpoint of {end_count[v]} paths, expected 2")
    return Verdict(True)


def _walk(g, rng):
    """A random self-avoiding walk of at least one edge."""
    while True:
        walk = [rng.randrange(g.n)]
        while True:
            nxt = [w for w in g.adjacency[walk[-1]] if w not in walk]
            if not nxt or (len(walk) > 1 and rng.random() < 0.3):
                break
            walk.append(rng.choice(nxt))
        if len(walk) > 1:
            return walk


def _sample_system(seed):
    """(host, vertex sequences): random, tampered, mixed-multiplicity or invalid."""
    rng = random.Random(seed)
    kind = seed % 4
    if kind == 0:
        _, g = SMALL_CORPUS[rng.randrange(len(SMALL_CORPUS))]
        pool = enumerate_paths(g)
        seqs = rng.sample(pool, rng.randint(0, min(8, len(pool))))
        return g, seqs
    g = random_2degenerate(rng.randint(3, 40), seed)
    seqs = [p.vertices for p in build_ssp_2degenerate(g)[0].paths]
    if kind == 1:
        # Drop, shorten, double or split a path; a split keeps every edge's
        # multiplicity and only moves endpoints.
        i = rng.randrange(len(seqs))
        seq, k = seqs[i], rng.randrange(1, len(seqs[i]))
        seqs[i:i + 1] = rng.choice([[], [seq[:-1]] if len(seq) > 2 else [], [seq, seq],
                                    [seq[:k + 1], seq[k:]] if k < len(seq) - 1 else [seq]])
    elif kind == 2:
        seqs += [_walk(g, rng) for _ in range(rng.randint(1, 6))]
        seqs += rng.sample(g.edges, rng.randint(0, g.m))
        rng.shuffle(seqs)
    else:
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(len(seqs))
            seq = list(seqs[i])
            bad = rng.choice([g.n + rng.randrange(3), -1 - rng.randrange(2), rng.randrange(g.n)])
            if bad not in seq:
                seq[rng.randrange(len(seq))] = bad
            seqs[i] = seq
    return g, seqs


REFERENCES = (_reference_system, _reference_verify, _reference_profile, _reference_structural)
READERS = (PathSystem, verify_strong_separation, incidence_profile, verify_structural_properties)


def _outcome(g, seqs, make_system, verify, profile, structural):
    """The refusal text, or the verdict, profile and structural outcome."""
    paths = tuple(map(tuple, seqs))
    try:
        system = make_system(g, paths)
    except InvalidSystemError as exc:
        return ("invalid", str(exc))
    try:
        shape = structural(system)
    except UnsupportedGraphError as exc:
        shape = ("unsupported", str(exc))
    return (verify(system), profile(system), shape)


def test_incidence_readers_match_the_per_reader_references():
    kinds = Counter()
    for seed in range(400):
        g, seqs = _sample_system(seed)
        ref = _outcome(g, seqs, *REFERENCES)
        assert _outcome(g, seqs, *READERS) == ref, seed
        if ref[0] == "invalid":
            kinds["vertex" if "out of range" in ref[1] else "non-edge"] += 1
        else:
            kinds[ref[0].kind or "pass"] += 1
            shape = ref[2]
            kinds[shape[0] if isinstance(shape, tuple) else shape.kind or "structural pass"] += 1
    assert min(kinds[k] for k in ("pass", UNCOVERED, CONTAINED, "vertex", "non-edge",
                                  "structural pass", "multiplicity", "endpoints",
                                  "unsupported")) >= 5, kinds


def _profiled_systems():
    """The valid systems among the 400 samples, then built 2-degenerate,
    cubic and K_{a,b} systems."""
    for seed in range(400):
        g, seqs = _sample_system(seed)
        try:
            yield system_from_sequences(g, seqs)
        except InvalidSystemError:
            pass
    for n in (3, 30, 300):
        yield build_ssp_2degenerate(random_2degenerate(n, n))[0]
    for n in (6, 40, 200):
        yield build_ssp_cubic(random_cubic(n, n))
    for a, b in ((1, 3), (2, 5), (3, 11), (5, 40)):
        yield build_ssp_complete_bipartite(a, b)


def test_profile_matches_the_mask_reference():
    rng = random.Random(0)
    checked = 0
    for system in _profiled_systems():
        profile, ref = incidence_profile(system), _mask_profile(system)
        assert (profile.histogram, profile.e1, profile.e2) == (ref.histogram, ref.e1, ref.e2)
        for u, v in system.graph.edges:
            assert profile.paths_for((u, v)) == profile.paths_for((v, u)) == ref.paths_for((u, v))
        n, edge_set = system.graph.n, set(system.graph.edges)
        pairs = [(rng.randrange(-1, n + 2), rng.randrange(-1, n + 2)) for _ in range(30)]
        for pair in pairs + [(-1, 0), (n - 1, n), (n, n + 1)]:
            if normalize_edge(*pair) not in edge_set:
                for reader in (profile.paths_for, ref.paths_for):
                    with pytest.raises(KeyError):
                        reader(pair)
        checked += 1
    assert checked >= 300


def _short_of_ends(system):
    """The vertices of degree 1 or 2 at which fewer than deg(v) paths end."""
    ends = Counter(v for p in system.paths for v in (p.vertices[0], p.vertices[-1]))
    return [v for v, d in enumerate(system.graph.degrees) if 1 <= d <= 2 and ends[v] < d]


def test_separating_systems_end_deg_v_paths_at_vertices_of_degree_one_or_two():
    # The lemma behind the exact search's endpoint-deficit prune, on PASS
    # samples, built 2-degenerate, cubic and K_{a,b} systems, and oracle
    # witnesses.
    assert _short_of_ends(system_from_sequences(path_graph(3), [(0, 1, 2)])) == [1]
    systems_ = [s for s in _profiled_systems() if verify_strong_separation(s).ok]
    systems_ += [exact_ssp(g).witness for _, g in ORACLE_CORPUS]
    checked = Counter()
    for system in systems_:
        assert _short_of_ends(system) == [], system.paths
        checked.update(d for d in system.graph.degrees if d <= 2)
    assert checked[1] >= 100 and checked[2] >= 100, checked


def test_profile_shares_the_system_incidence():
    for system in (system_from_sequences(TRIANGLE, ROTATIONS), build_ssp_complete_bipartite(2, 5)):
        assert incidence_profile(system).through is system.through


def test_through_lists_the_paths_of_each_edge():
    sys_ = system_from_sequences(TRIANGLE, [(0, 1, 2), (1, 2), (0, 1)])
    assert TRIANGLE.edges == ((0, 1), (0, 2), (1, 2))
    assert sys_.through == ((0, 2), (), (0, 1))


def test_system_reports_an_out_of_range_vertex_after_a_non_edge():
    # (0, 2) comes first and is a non-edge; vertex 9 still wins, as it would
    # if vertex ranges were checked before edges.
    paths = ((0, 1), (0, 2, 9))
    for make_system in (_reference_system, PathSystem):
        with pytest.raises(InvalidSystemError,
                           match=r"^path 1 uses vertex 9, out of range for n=4$"):
            make_system(path_graph(4), paths)


def test_readers_take_incidence_from_the_system_not_from_path_edges(monkeypatch):
    k25 = build_ssp_complete_bipartite(2, 5)
    tampered = PathSystem(k25.graph, k25.sequences[1:])
    built, _ = build_ssp_2degenerate(random_2degenerate(30, 3))
    doubled = PathSystem(built.graph, built.sequences + built.sequences[:1])
    uncovered = system_from_sequences(TRIANGLE, [(0, 1, 2)])
    contained = system_from_sequences(path_graph(3), [(0, 1, 2)])

    def no_edges(u, v):
        raise AssertionError("a path's edges were rebuilt")

    monkeypatch.setattr(systems, "normalize_edge", no_edges)
    for system in (k25, tampered, built, doubled, uncovered, contained):
        verify_strong_separation(system)
        incidence_profile(system)
        verify_structural_properties(system)
    assert counting_certificate(k25, 2, 5).p == 5
    with pytest.raises(CertificateError, match="not strongly separating"):
        counting_certificate(tampered, 2, 5)


def test_reading_and_verifying_make_no_path_records(tmp_path):
    # A system keeps its paths as vertex tuples; the Path records of
    # PathSystem.paths are made only when that view is read.
    g = random_2degenerate(40, 5)
    built = build_ssp_2degenerate(g)[0]
    file = tmp_path / "s.paths"
    file.write_text(format_paths(built))
    passing = systems.load_paths(str(file), g)
    contained = system_from_sequences(path_graph(3), [(0, 1, 2)])
    # 20 paths through (1, 2) and 21 through (0, 1): past the key budget, so
    # the bitmask kernel finds the containment.
    by_masks = system_from_sequences(path_graph(3), [(0, 1, 2)] * 20 + [(0, 1)])
    assert verify_strong_separation(passing).ok
    assert verify_structural_properties(passing).ok
    assert verify_strong_separation(contained).kind == CONTAINED
    assert verify_strong_separation(by_masks).kind == CONTAINED
    assert verify_by_pair_scan(by_masks).kind == CONTAINED
    for system in (passing, contained, by_masks):
        incidence_profile(system)
        assert parse_paths(format_paths(system), system.graph) == system
        assert parse_paths(format_paths_json(system), system.graph) == system
        assert "paths" not in system.__dict__
        assert system.paths == tuple(map(Path, system.sequences))
        assert "paths" in system.__dict__


# ---------------------------------------------------------------------------
# Path-system files.
# ---------------------------------------------------------------------------

def test_path_file_round_trip_text():
    sys_ = system_from_sequences(TRIANGLE, ROTATIONS)
    text = format_paths(sys_)
    again = parse_paths(text, TRIANGLE)
    assert canonical_form(again) == canonical_form(sys_)
    assert [p.vertices for p in again.paths] == [p.vertices for p in sys_.paths]


def test_path_file_round_trip_json():
    sys_ = system_from_sequences(TRIANGLE, ROTATIONS)
    text = format_paths_json(sys_)
    assert '"n"' in text and '"paths"' in text
    again = parse_paths(text, TRIANGLE)
    assert [p.vertices for p in again.paths] == [p.vertices for p in sys_.paths]


def test_path_file_comments():
    sys_ = parse_paths("# a comment\n0 1 2\n\n0 1  # tail\n1 2\n", TRIANGLE)
    assert [p.vertices for p in sys_.paths] == [(0, 1, 2), (0, 1), (1, 2)]


@pytest.mark.parametrize("line", ["0 1_0", "0 \u0661", "0 1 \u0662"])
def test_path_file_refuses_integers_that_are_not_ascii_decimal(line):
    from pathsep import GraphFormatError
    with pytest.raises(GraphFormatError, match="line 2: bad path line"):
        parse_paths(f"0 1\n{line}\n", TRIANGLE)


def test_path_file_keeps_signed_ids():
    assert parse_paths("+0 +1 2\n", TRIANGLE).paths[0].vertices == (0, 1, 2)


def test_json_path_file_rejects_mismatched_n():
    import pytest
    from pathsep import GraphFormatError
    with pytest.raises(GraphFormatError, match="declares n=5"):
        parse_paths('{"n": 5, "paths": [[0, 1]]}', TRIANGLE)


def test_json_path_file_refuses_an_n_that_is_not_an_integer(tmp_path, capsys):
    # Python has true == 1 and 2.0 == 2, so equality with the host's n is not enough.
    from pathsep import GraphFormatError
    from pathsep.cli import main
    for n, text in ((1, '{"n": true, "paths": []}'), (2, '{"n": 2.0, "paths": [[0, 1]]}')):
        host = Graph(n, ((0, 1),) if n == 2 else ())
        with pytest.raises(GraphFormatError, match="JSON 'n' must be an integer"):
            parse_paths(text, host)
        (tmp_path / "g").write_text(f"{n} {host.m}\n" + "0 1\n" * host.m)
        (tmp_path / "p").write_text(text)
        assert main(["verify", str(tmp_path / "g"), str(tmp_path / "p")]) == 2
        assert "JSON 'n' must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"paths": 5}',
    '{"paths": [5]}',
    '{"paths": [["0", "1"]]}',
    '{"paths": [[true, 2]]}',
    '{"paths": [[0, 1.0]]}',
])
def test_json_path_file_rejects_paths_that_are_not_lists_of_ints(text):
    from pathsep import GraphFormatError
    with pytest.raises(GraphFormatError, match="list of lists of integers"):
        parse_paths(text, TRIANGLE)


def test_empty_system_on_edgeless_graph_passes():
    g = Graph(3, ())
    sys_ = PathSystem(g, ())
    assert verify_strong_separation(sys_).ok
    assert verify_by_pair_scan(sys_).ok
