"""Builders for cubic graphs and the per-component dispatcher.

A connected cubic graph other than K4 always has an edge e = uv outside any
triangle.  The system for g - e (see :mod:`pathsep.degenerate`) contains two
2-edge paths centered at u and at v; re-routing them as the two 3-edge paths
(u1, u, v, v1) and (u2, u, v, v2) through e yields a strongly separating
system for g with at most n paths.  The reduced construction reports which
paths it extended to u1, u2, v1 and v2 and appends the two centered paths
last, so the re-route reads them from that record instead of searching the
system; g itself is checked once, by :func:`build_ssp_cubic`.

The dispatcher labels each connected component of an input by its size and
degrees, in order of smallest vertex, and refuses the input at once on a
label outside the entry point's accepted set; any other component goes to
the path core of the cheapest applicable builder, whose removal plan is the
only 2-degeneracy test and refuses a 3-core too.  Only the joined system is
validated, once; K4 components get a fixed 5-path system (the exact minimum).
"""

from __future__ import annotations

from dataclasses import dataclass

from .degenerate import _build_paths, _cubic_minus_edge, _relabelled
from .errors import UnsupportedGraphError
from .graphs import (
    CUBIC_NON_K4, GENERAL_2DEGENERATE, ISOLATED_VERTEX, K4, SINGLE_EDGE, SUBCUBIC_2DEGENERATE,
    OTHER, Graph, _component_label, connected_components, find_non_triangle_edge,
    induced_subgraph, is_connected, max_degree, normalize_edge,
)
from .systems import PathSystem, system_from_sequences

# Minimum strongly separating system for K4 on vertices 0..3: the
# lexicographically least 5-path witness of the exact search.  A unit test
# re-derives it from the oracle.
K4_CANNED = (
    (0, 1),
    (0, 2, 1),
    (0, 3, 1),
    (0, 2, 3, 1),
    (0, 3, 2, 1),
)


def build_ssp_cubic(g: Graph) -> PathSystem:
    """Strongly separating system with at most n paths for a connected cubic
    graph that is not K4."""
    if not is_connected(g):
        raise UnsupportedGraphError("cubic construction needs a connected graph")
    if any(d != 3 for d in g.degrees):
        raise UnsupportedGraphError("graph is not 3-regular")
    if g.n == 4:
        raise UnsupportedGraphError("not applicable to K4: every edge lies in a triangle")
    # The 0-vertex graph is vacuously connected and cubic, and has no edge to cover.
    return system_from_sequences(g, _cubic_paths(g) if g.n else [])


def _cubic_paths(g: Graph) -> list[tuple[int, ...]]:
    """The paths of :func:`build_ssp_cubic`, as vertex tuples, for a
    connected cubic g other than K4 that the caller has checked."""
    edge = find_non_triangle_edge(g)
    if edge is None:
        raise AssertionError("cubic non-K4 graph with every edge in a triangle")
    u, v = edge
    paths, ends = _cubic_minus_edge(g, u, v)
    # The extended paths at u, and those at v, pair up in ascending index
    # order; they replace the centered paths (u1, u, u2) and (v1, v, v2).
    (p1, u1), (p2, u2) = sorted(ends[:2])
    (q1, v1), (q2, v2) = sorted(ends[2:])
    paths[-2] = (u1, u, v, v1)
    paths[-1] = (u2, u, v, v2)

    # The proof's final sentence, checked directly: the re-routed pairs
    # {uu1, vv1} and {uu2, vv2} are separated by the extended paths.
    for (a, b, i, j) in ((u1, v1, p1, q1), (u2, v2, p2, q2)):
        pi, pj = (set(map(normalize_edge, vs, vs[1:])) for vs in (paths[i], paths[j]))
        eu, ev = normalize_edge(u, a), normalize_edge(v, b)
        if eu not in pi or ev in pi:
            raise AssertionError("extended path at u must avoid the v-side edge")
        if ev not in pj or eu in pj:
            raise AssertionError("extended path at v must avoid the u-side edge")
    return paths


# ---------------------------------------------------------------------------
# Component dispatch.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentReport:
    vertices: tuple[int, ...]
    classification: str
    builder: str
    path_count: int


@dataclass(frozen=True)
class DispatchReport:
    components: tuple[ComponentReport, ...]
    n: int
    k4_components: int
    total_paths: int

    @property
    def bound(self) -> int:
        """The n + k guarantee for subcubic inputs."""
        return self.n + self.k4_components


# Component classes each entry point accepts; OTHER has no builder.
_TWO_DEGENERATE = frozenset({ISOLATED_VERTEX, SINGLE_EDGE, SUBCUBIC_2DEGENERATE,
                             GENERAL_2DEGENERATE})
_BUILDABLE = _TWO_DEGENERATE | {K4, CUBIC_NON_K4}
_NO_CONSTRUCTION = "no construction covers component containing vertex {vertex}"


def _component_paths(sub: Graph, label: str) -> tuple[list[tuple[int, ...]], str]:
    """Paths (in the component's own ids) and builder name for one component,
    from a path core: its label stands in for the builder's own checks, but
    a 3-core raises :class:`UnsupportedGraphError` from the removal plan."""
    if label == ISOLATED_VERTEX:
        return [], "none"
    if label == SINGLE_EDGE:
        return [(0, 1)], "single-edge"
    if label == K4:
        return list(K4_CANNED), "canned-k4"
    if label == CUBIC_NON_K4:
        return _cubic_paths(sub), "cubic-rerouting"
    return _build_paths(sub)[0], "2-degenerate"


def _dispatch(g: Graph, allowed: frozenset[str],
              refusal: str) -> tuple[PathSystem, DispatchReport]:
    """System and report for g, built component by component.  The first
    component whose label is not in ``allowed``, or which has a 3-core,
    refuses g with ``refusal`` (formatted with its smallest vertex).  The
    n + k bound of every entry point is checked here, once."""
    all_paths: list[tuple[int, ...]] = []
    reports: list[ComponentReport] = []
    for comp in connected_components(g):
        sub, old_ids = induced_subgraph(g, comp)
        label = _component_label(sub)
        if label in allowed:
            try:
                paths, builder = _component_paths(sub, label)
            except UnsupportedGraphError:
                if label not in _TWO_DEGENERATE:  # only a plan's 3-core becomes OTHER
                    raise
                label = OTHER
        if label not in allowed:
            raise UnsupportedGraphError(refusal.format(vertex=old_ids[0]))
        all_paths += _relabelled(paths, old_ids)
        reports.append(ComponentReport(old_ids, label, builder, len(paths)))
    k = sum(1 for r in reports if r.classification == K4)
    report = DispatchReport(tuple(reports), g.n, k, len(all_paths))
    if report.total_paths > report.bound:
        raise AssertionError("dispatch exceeded the n + k guarantee")
    return system_from_sequences(g, all_paths), report


def build_ssp_subcubic(g: Graph) -> tuple[PathSystem, DispatchReport]:
    """Dispatcher for graphs of maximum degree at most 3.

    K4 components cost 5 paths each; everything else needs at most its own
    vertex count, so the total stays within n + k for k components equal
    to K4.
    """
    if max_degree(g) > 3:
        raise UnsupportedGraphError("graph has a vertex of degree above 3")
    return _dispatch(g, _BUILDABLE, _NO_CONSTRUCTION)


def build_ssp_outerplanar_entry(g: Graph) -> PathSystem:
    """Entry point for 2-degenerate inputs (outerplanar graphs included);
    at most n paths over all components."""
    return _dispatch(g, _TWO_DEGENERATE, "graph is not 2-degenerate")[0]


def build_ssp_auto(g: Graph) -> tuple[PathSystem, DispatchReport]:
    """Per-component dispatch over every implemented construction; refuses
    graphs with a component no construction covers."""
    return _dispatch(g, _BUILDABLE, _NO_CONSTRUCTION)
