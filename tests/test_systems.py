import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathsep import (
    CertificateError, Graph, InvalidSystemError, Path, PathSystem,
    UnsupportedGraphError, build_ssp_complete_bipartite, counting_certificate,
    enumerate_paths, incidence_profile, system_from_sequences,
    verify_by_pair_scan, verify_strong_separation, verify_structural_properties,
)
from pathsep.degenerate import build_ssp_2degenerate
from pathsep.generators import (
    complete_bipartite, complete_graph, path_graph, random_2degenerate,
)
from pathsep.systems import (
    CONTAINED, UNCOVERED, format_paths, format_paths_json, parse_paths,
)

from corpus import SMALL_CORPUS

TRIANGLE = complete_graph(3)
ROTATIONS = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]


def test_path_validation():
    with pytest.raises(ValueError):
        Path((3,))
    with pytest.raises(ValueError):
        Path((0, 1, 0))


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
    sys_ = PathSystem(g, tuple(chosen))
    prof = incidence_profile(sys_)
    assert sum(prof.histogram) == g.m
    assert sum(m.bit_count() for m in prof.masks) == sum(len(p) for p in chosen)


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
        sys_ = PathSystem(g, tuple(rng.sample(pool, 4)))
        assert not verify_strong_separation(sys_).ok


def test_verdict_invariant_under_path_permutation():
    rng = random.Random(7)
    for name, g in SMALL_CORPUS[:12]:
        pool = enumerate_paths(g)
        chosen = rng.sample(pool, min(5, len(pool)))
        base = verify_strong_separation(PathSystem(g, tuple(chosen))).ok
        for _ in range(5):
            rng.shuffle(chosen)
            assert verify_strong_separation(PathSystem(g, tuple(chosen))).ok == base


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
    sys_ = PathSystem(g, tuple(chosen))
    if verify_strong_separation(sys_).ok:
        extra = pool[rng.randrange(len(pool))]
        bigger = PathSystem(g, tuple(chosen) + (extra,))
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
        chosen += [Path(e) for e in rng.sample(g.edges, rng.randint(1, g.m))]
    sys_ = PathSystem(g, tuple(chosen))
    fast = verify_strong_separation(sys_)
    slow = verify_by_pair_scan(sys_)
    assert (fast.ok, fast.kind, fast.witness) == (slow.ok, slow.kind, slow.witness)


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
    """(ok, kind, witness) of the structural check, read off the p-bit masks
    of incidence_profile, as a reference for the counting check."""
    profile = incidence_profile(system)
    for e, mask in zip(profile.edges, profile.masks):
        if mask.bit_count() != 2:
            return (False, "multiplicity", (e, mask.bit_count()))
    ends = [v for path in system.paths for v in path.ends]
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
        i = rng.randrange(len(built.paths))
        dropped = built.paths[:i] + built.paths[i + 1:]
        doubled = built.paths + (built.paths[i],)
        # Splitting a path at an inner vertex keeps every edge count and
        # makes that vertex an endpoint of two more paths.
        j = max(range(len(built.paths)), key=lambda k: len(built.paths[k]))
        vs = built.paths[j].vertices
        split = built.paths[:j] + (Path(vs[:2]), Path(vs[1:])) + built.paths[j + 1:]
        for paths in (built.paths, dropped, doubled, split):
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
    assert sum(len(p) for p in sys_.paths) == 2 * TRIANGLE.m


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
# Path-system files.
# ---------------------------------------------------------------------------

def test_path_file_round_trip_text():
    sys_ = system_from_sequences(TRIANGLE, ROTATIONS)
    text = format_paths(sys_)
    again = parse_paths(text, TRIANGLE)
    assert again.canonical_form() == sys_.canonical_form()
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
