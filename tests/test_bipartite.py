import math

import pytest

from pathsep import (
    GracefulLabeling, UnsupportedGraphError, bipartite_bounds, bounds_table,
    build_ssp_complete_bipartite, expected_path_pair, graceful_path_labeling,
    incidence_profile, lower_bound_formula, verify_strong_separation,
)
from pathsep.bipartite import format_bounds_csv, format_number, piecewise_lower_bound

from corpus import path_length


# ---------------------------------------------------------------------------
# Graceful labelings.
# ---------------------------------------------------------------------------

def test_labeling_goldens():
    assert graceful_path_labeling(4).labels == (2, 1, 3, 0, 4)
    assert graceful_path_labeling(3).labels == (2, 1, 3, 0)
    assert graceful_path_labeling(1).labels == (1, 0)
    assert graceful_path_labeling(2).labels == (1, 0, 2)
    assert graceful_path_labeling(6).labels == (3, 2, 4, 1, 5, 0, 6)


def test_labeling_endings_match_the_stated_patterns():
    even = graceful_path_labeling(10).labels
    assert even[-3:] == (9, 0, 10)
    odd = graceful_path_labeling(9).labels
    assert odd[-3:] == (1, 9, 0)


def _two_counter_labels(a):
    """Reference: the loop that stepped a high and a low counter."""
    labels = []
    if a % 2 == 0:
        high, low = a // 2, a // 2 - 1
    else:
        high, low = (a + 1) // 2, (a - 1) // 2
    for i in range(a + 1):
        if i % 2 == 0:
            labels.append(high)
            high += 1
        else:
            labels.append(low)
            low -= 1
    return tuple(labels)


def test_closed_form_labels_match_the_two_counter_loop():
    for a in range(1, 501):
        assert graceful_path_labeling(a).labels == _two_counter_labels(a), a


def _per_vertex_paths(a, b):
    """Reference: P_j built one vertex at a time."""
    labels = _two_counter_labels(a)
    paths = []
    for j in range(b):
        seq = []
        for i in range(a):
            seq.append(a + (labels[i] + j) % b)
            seq.append(i)
        seq.append(a + (labels[a] + j) % b)
        paths.append(tuple(seq))
    return tuple(paths)


def test_interleaved_paths_match_the_per_vertex_loop():
    for a in range(1, 9):
        for b in range(2 * a + 1, 2 * a + 12):
            assert build_ssp_complete_bipartite(a, b).sequences == _per_vertex_paths(a, b)


def test_labeling_rejects_bad_a():
    with pytest.raises(ValueError):
        graceful_path_labeling(0)


def test_labeling_validation():
    GracefulLabeling(3, (2, 1, 3, 0))
    with pytest.raises(ValueError):
        GracefulLabeling(3, (0, 1, 2, 3))  # diffs 1,1,1
    with pytest.raises(ValueError):
        GracefulLabeling(3, (0, 1, 2))     # wrong length
    with pytest.raises(ValueError):
        GracefulLabeling(2, (0, 2, 0))     # repeated label


def test_labeling_invariants_wide_range():
    for a in range(1, 501):
        lab = graceful_path_labeling(a)
        assert sorted(set(lab.labels)) == sorted(lab.labels)
        assert all(0 <= x <= a for x in lab.labels)
        diffs = sorted(abs(lab.labels[i + 1] - lab.labels[i]) for i in range(a))
        assert diffs == list(range(1, a + 1))


# ---------------------------------------------------------------------------
# The construction.
# ---------------------------------------------------------------------------

def test_k13_golden_paths():
    system = build_ssp_complete_bipartite(1, 3)
    # u0 = 0, v_t = 1 + t; phi = (1, 0).
    assert [p.vertices for p in system.paths] == [(2, 0, 1), (3, 0, 2), (1, 0, 3)]
    prof = incidence_profile(system)
    assert prof.paths_for((0, 1)) == (0, 2)
    assert prof.paths_for((0, 2)) == (0, 1)
    assert prof.paths_for((0, 3)) == (1, 2)
    assert verify_strong_separation(system).ok


def test_k25_shape():
    system = build_ssp_complete_bipartite(2, 5)
    assert len(system) == 5
    assert all(path_length(p) == 4 for p in system.paths)
    prof = incidence_profile(system)
    assert prof.e2 == 10 and sum(prof.histogram) == 10
    assert verify_strong_separation(system).ok


def test_boundary_a_equals_half_b_rejected():
    with pytest.raises(UnsupportedGraphError, match="a < b/2"):
        build_ssp_complete_bipartite(3, 6)


def test_closed_form_membership_small_sweep():
    for b in range(3, 13):
        for a in range(1, (b + 1) // 2):
            if 2 * a >= b:
                continue
            system = build_ssp_complete_bipartite(a, b)
            prof = incidence_profile(system)
            for i in range(a):
                for j in range(b):
                    assert prof.paths_for((i, a + j)) == expected_path_pair(a, b, i, j)


# ---------------------------------------------------------------------------
# Bounds.
# ---------------------------------------------------------------------------

def test_bounds_exact_regime():
    report = bipartite_bounds(3, 8)
    assert report.exact == 8 and report.lower == 8 and report.upper == 8
    assert report.lower_source == "max-degree"


def test_bounds_square_case():
    for b in (4, 8, 25):
        report = bipartite_bounds(b, b)
        assert report.exact is None and report.upper is None
        assert math.isclose(report.lower, (math.sqrt(10) - 2) * b, abs_tol=1e-9)


def test_bounds_boundary_continuity():
    # Both regimes meet at a = b/2: the formula evaluates to exactly b there.
    for b in (4, 8, 20, 30):
        report = bipartite_bounds(b // 2, b)
        assert report.exact is None
        assert abs(report.lower - b) <= 1e-9


def test_bounds_reject_bad_orientation():
    with pytest.raises(UnsupportedGraphError, match="orient"):
        bipartite_bounds(5, 3)
    with pytest.raises(UnsupportedGraphError):
        bipartite_bounds(0, 3)


def test_formula_values():
    assert math.isclose(lower_bound_formula(8, 8), 9.298221281347036, abs_tol=1e-12)
    assert math.isclose(lower_bound_formula(4, 8), 8.0, abs_tol=1e-12)
    with pytest.raises(ValueError):
        lower_bound_formula(9, 8)


def test_bounds_table_b8():
    rows = bounds_table(8)
    assert len(rows) == 8
    assert rows[0] == (1, 8.0)
    assert rows[1] == (2, 8.0)
    assert rows[3] == (4, 8.0)
    assert math.isclose(rows[7][1], (math.sqrt(10) - 2) * 8, abs_tol=1e-9)
    assert all(rows[i][1] <= rows[i + 1][1] + 1e-9 for i in range(7))


def test_bounds_table_steps():
    rows = bounds_table(8, steps=4)
    assert len(rows) == 29
    assert rows[0][0] == 1 and rows[-1][0] == 8
    for a, v in rows:
        assert math.isclose(v, piecewise_lower_bound(a, 8), abs_tol=1e-12)


def test_bounds_table_rejects():
    with pytest.raises(UnsupportedGraphError):
        bounds_table(1)
    with pytest.raises(UnsupportedGraphError):
        bounds_table(8, steps=0)


def test_csv_format():
    text = format_bounds_csv(bounds_table(8))
    lines = text.strip().splitlines()
    assert lines[0] == "a,lower_bound"
    assert lines[1] == "1,8"
    assert lines[-1] == "8,9.29822"


def test_number_formatting():
    assert format_number(8.0) == "8"
    assert format_number(9.298221281347036) == "9.29822"
    assert format_number(8.43909144) == "8.43909"
    assert format_number(float(2**53 - 1)) == str(2**53 - 1)
    assert format_number(float(2**53)) == "9.0072e+15"
    assert format_number(-float(2**60)) == "-1.15292e+18"
