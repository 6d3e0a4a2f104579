"""Inductive path-system construction for connected 2-degenerate graphs.

The construction peels the graph down to 3-vertex cores (a 2-edge path or a
triangle), seeds each core with a fixed 3-path system, and replays the
peeling in reverse.  Re-adding a vertex v:

  * degree 1, neighbor u: one path ending at u is extended to v and the
    1-edge path (u, v) is added;
  * degree 2, neighbors u and w: two distinct paths ending at u and w are
    extended to v and the path (u, v, w) is added.  When the removal had cut
    the component in two, the same move stitches the two sub-systems
    together.

Each step keeps two invariants: every edge lies in exactly two paths, and
every vertex is an endpoint of exactly two paths.  The second one is what
guarantees the paths the next step needs always exist.

The result always has exactly n paths for an n-vertex input.
"""

from __future__ import annotations

import itertools
import json
from bisect import insort
from dataclasses import dataclass

from .errors import GraphFormatError, UnsupportedGraphError
from .graphs import (
    DEGREE1_SAFE, DEGREE2_CUT, DEGREE2_SAFE,
    Graph, RemovalStep, _sweep, induced_subgraph, is_connected, normalize_edge,
    removal_plan_2degenerate,
)
from .systems import PathSystem, system_from_sequences

BASE_PATH = "path-of-2-edges"
BASE_TRIANGLE = "triangle"

DEG1_EXTEND = "deg1-extend"
DEG2_EXTEND = "deg2-extend"
DEG2_JOIN = "deg2-join"

_CASE_FOR_KIND = {
    DEGREE1_SAFE: DEG1_EXTEND,
    DEGREE2_SAFE: DEG2_EXTEND,
    DEGREE2_CUT: DEG2_JOIN,
}


@dataclass(frozen=True)
class BaseCase:
    component: tuple[int, ...]  # the 3 vertices, sorted
    shape: str                  # BASE_PATH or BASE_TRIANGLE


@dataclass(frozen=True, slots=True)
class TraceStep:
    vertex: int
    case: str
    attach: tuple[int, ...]          # neighbors used by the step (1 or 2)
    paths_modified: tuple[int, ...]  # indices of extended paths
    paths_added: tuple[int, ...]     # indices of appended paths


@dataclass(frozen=True)
class ConstructionTrace:
    """Replayable record of a build: seed systems plus one step per vertex."""

    base_cases: tuple[BaseCase, ...]
    steps: tuple[TraceStep, ...]

    def to_json(self) -> str:
        return json.dumps({
            "base_cases": [
                {"component": list(b.component), "shape": b.shape}
                for b in self.base_cases
            ],
            "steps": [
                {
                    "vertex-added": s.vertex,
                    "case-tag": s.case,
                    "attach": list(s.attach),
                    "paths-modified": list(s.paths_modified),
                    "paths-added": list(s.paths_added),
                }
                for s in self.steps
            ],
        })

    @staticmethod
    def from_json(text: str) -> "ConstructionTrace":
        """Inverse of :meth:`to_json`; malformed text raises GraphFormatError."""
        try:
            obj = json.loads(text)
            bases = tuple(
                BaseCase(_ints(b["component"]), _typed(b["shape"], str))
                for b in obj["base_cases"])
            steps = tuple(
                TraceStep(
                    _typed(s["vertex-added"], int), _typed(s["case-tag"], str),
                    _ints(s["attach"]), _ints(s["paths-modified"]),
                    _ints(s["paths-added"]))
                for s in obj["steps"])
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise GraphFormatError(f"bad construction trace: {exc!r}") from None
        return ConstructionTrace(bases, steps)


def _typed(x, kind: type):
    if type(x) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {type(x).__name__}")
    return x


def _ints(x) -> tuple[int, ...]:
    if not (type(x) is list and all(type(v) is int for v in x)):
        raise TypeError(f"expected a list of integers, got {type(x).__name__}")
    return tuple(x)


def _base_case(g: Graph, comp: tuple[int, ...]) -> tuple[BaseCase, list[tuple[int, ...]]]:
    """Seed system for a 3-vertex component of g (its induced subgraph)."""
    if len(comp) != 3 or len(set(comp)) != 3:
        raise AssertionError(f"core component {comp} does not have 3 vertices")
    x, y, z = comp
    # Read from the adjacency, so that no edge index is built for a piece's
    # graph just for its cores; a replayed core may leave the vertex range.
    adj, n = g.adjacency, g.n
    nx, ny = (adj[w] if 0 <= w < n else () for w in (x, y))
    xy, xz, yz = y in nx, z in nx, z in ny
    if xy and xz and yz:
        return BaseCase(comp, BASE_TRIANGLE), [(x, y, z), (y, z, x), (z, x, y)]
    if xy + xz + yz != 2:
        raise AssertionError(f"3-vertex core {comp} is not connected")
    # The middle of the 2-edge path is the vertex adjacent to both others.
    mid = x if xy and xz else y if xy else z
    a, b = sorted(v for v in comp if v != mid)
    paths = [(a, mid, b), (a, mid), (mid, b)]
    return BaseCase(comp, BASE_PATH), paths


EndIndex = dict[int, list[int]]


class _Paths:
    """Paths under construction, each grown in place at either end.

    Path i is ``fronts[i]`` reversed, then ``backs[i]``: it grows at the
    back by an append to ``backs[i]``, and at the front by an append to
    ``fronts[i]``, which is None until it first does.  A list of 3 vertices
    takes 88 B, where a deque takes 760 B.
    """

    __slots__ = ("backs", "fronts")

    def __init__(self, seqs) -> None:
        self.backs = list(map(list, seqs))
        self.fronts: list[list[int] | None] = [None] * len(self.backs)

    def __len__(self) -> int:
        return len(self.backs)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        front = self.fronts[i]
        return (*reversed(front or ()), *self.backs[i])

    def append(self, seq: tuple[int, ...]) -> None:
        self.backs.append(list(seq))
        self.fronts.append(None)

    def extend(self, i: int, end: int, new: int) -> int:
        """Extend path i in place from its end ``end`` to ``new``; returns
        its other end."""
        back, front = self.backs[i], self.fronts[i]
        first = front[-1] if front else back[0]
        if back[-1] == end:
            back.append(new)
            return first
        if first != end:
            raise AssertionError(f"path {self[i]} does not end at {end}")
        if front:
            front.append(new)
        else:
            self.fronts[i] = [new]
        return back[-1]

    def tuples(self) -> list[tuple[int, ...]]:
        """The paths as vertex tuples.  Each path's lists are let go as its
        tuple is made, so the two are never held whole together; the
        object is spent."""
        backs, fronts = self.backs, self.fronts
        for i, front in enumerate(fronts):
            if front is None:
                backs[i] = tuple(backs[i])
            else:
                fronts[i] = None
                front.reverse()
                front += backs[i]
                backs[i] = tuple(front)
        return backs


def _end_index(paths: list[tuple[int, ...]]) -> EndIndex:
    """Vertex -> ascending indices of the paths that end there, each index
    listed once per vertex."""
    index: EndIndex = {}
    for i, path in enumerate(paths):
        _add_path_ends(index, i, path)
    return index


def _add_path_ends(index: EndIndex, i: int, path: tuple[int, ...]) -> None:
    a, b = path[0], path[-1]
    insort(index.setdefault(a, []), i)
    if b != a:
        insort(index.setdefault(b, []), i)


def _apply_step(paths: _Paths, ends: EndIndex, vertex: int,
                attach: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Mutate ``paths`` and their end index ``ends`` to re-insert ``vertex``
    next to its 1 or 2 ``attach`` neighbors; returns (modified, added)
    indices.

    Each attach vertex extends, in place, the path :func:`_distinct_end_paths`
    assigns to it; then ``(attach[0], vertex) + attach[1:]`` is appended.
    Any other number of attach vertices raises AssertionError.
    """
    if len(attach) not in (1, 2):
        raise AssertionError(f"vertex {vertex} attaches to {len(attach)} vertices, not 1 or 2")
    modified = _distinct_end_paths(ends, attach)
    for i, u in zip(modified, attach):
        # Only the end at u moves, to ``vertex``, and the other end keeps
        # its entry.  A tampered trace can build a path whose two ends are
        # one vertex, so u loses its entry only if it is not also the kept
        # end, and ``vertex`` gains one only if it is not already that end.
        kept = paths.extend(i, u, vertex)
        if u != kept:
            ends[u].remove(i)
        if vertex != kept:
            insort(ends.setdefault(vertex, []), i)
    added = (attach[0], vertex) + attach[1:]
    paths.append(added)
    _add_path_ends(ends, len(paths) - 1, added)
    return modified, (len(paths) - 1,)


def build_ssp_2degenerate(g: Graph) -> tuple[PathSystem, ConstructionTrace]:
    """Strongly separating system with exactly n paths for a connected
    2-degenerate graph on n >= 3 vertices, plus its construction trace.
    The removal plan refuses any other g, by size, then connectivity, then
    2-degeneracy."""
    records: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    paths, bases, order = _build_paths(g, records)
    system = system_from_sequences(g, paths)
    steps = tuple(TraceStep(r.vertex, _CASE_FOR_KIND[r.kind], r.neighbors, modified, added)
                  for r, (modified, added) in zip(reversed(order), records))
    return system, ConstructionTrace(bases, steps)


def _build_paths(g: Graph, records: list | None = None) -> tuple[
        list[tuple[int, ...]], tuple[BaseCase, ...], tuple[RemovalStep, ...]]:
    """The paths of :func:`build_ssp_2degenerate`, as vertex tuples, for a
    g that :func:`removal_plan_2degenerate` accepts; with the base cases and
    the removal steps.  Given ``records``, it appends the (modified, added)
    record of each step's replay, in replay order (the removal steps
    reversed), that a trace is assembled from; no other caller keeps them."""
    plan = removal_plan_2degenerate(g)
    seeds: list[tuple[int, ...]] = []
    bases: list[BaseCase] = []
    for comp in plan.cores:
        base, seed_paths = _base_case(g, comp)
        bases.append(base)
        seeds += seed_paths

    paths = _Paths(seeds)
    ends = _end_index(seeds)
    for removal in reversed(plan.order):
        record = _apply_step(paths, ends, removal.vertex, removal.neighbors)
        if records is not None:
            records.append(record)

    if len(paths) != g.n:
        raise AssertionError(f"built {len(paths)} paths for n={g.n}")
    del ends  # not needed for the tuples, so not held with them
    return paths.tuples(), tuple(bases), plan.order


def replay_trace(g: Graph, trace: ConstructionTrace) -> PathSystem:
    """Rebuild a system from its trace, checking that every step extends and
    appends the paths the trace records."""
    seeds: list[tuple[int, ...]] = []
    for base in trace.base_cases:
        recorded, seed_paths = _base_case(g, base.component)
        if recorded.shape != base.shape:
            raise AssertionError(f"base case {base.component} is {recorded.shape}, "
                                 f"trace says {base.shape}")
        seeds += seed_paths
    paths = _Paths(seeds)
    ends = _end_index(seeds)
    for step in trace.steps:
        modified, added = _apply_step(paths, ends, step.vertex, step.attach)
        if (modified, added) != (step.paths_modified, step.paths_added):
            raise AssertionError(f"replay diverged at vertex {step.vertex}")
    return system_from_sequences(g, paths.tuples())


# ---------------------------------------------------------------------------
# Cubic graph minus a non-triangle edge.
# ---------------------------------------------------------------------------

def build_ssp_cubic_minus_edge(g: Graph, e: tuple[int, int]) -> PathSystem:
    """System with n paths for H = g - e, where g is connected cubic (not K4)
    and e = uv lies in no triangle.

    Removing u and v leaves 2-degenerate components of size >= 3; each gets
    the inductive system.  Four pairwise distinct paths ending at the four
    neighbors u1, u2, v1, v2 are extended to u and v, and the two 2-edge
    paths (u1, u, u2) and (v1, v, v2) are appended.
    """
    u, v = normalize_edge(*e)
    if not g.has_edge(u, v):
        raise UnsupportedGraphError(f"edge ({u}, {v}) not in graph")
    if any(d != 3 for d in g.degrees):
        raise UnsupportedGraphError("graph is not cubic")
    if not is_connected(g):
        raise UnsupportedGraphError("graph is not connected")
    if g.n == 4:
        raise UnsupportedGraphError("K4 has no edge outside a triangle")
    if set(g.adjacency[u]) & set(g.adjacency[v]):
        raise UnsupportedGraphError(f"edge ({u}, {v}) lies in a triangle")
    paths, _ = _cubic_minus_edge(g, u, v)
    return system_from_sequences(g.without_edge((u, v)), paths)


def _cubic_minus_edge(g: Graph, u: int, v: int) -> tuple[list[tuple[int, ...]],
                                                          tuple[tuple[int, int], ...]]:
    """The paths of :func:`build_ssp_cubic_minus_edge`, whose preconditions
    the caller has checked, and (index, neighbor) of the four extended paths
    in the order u1, u2, v1, v2; the last two paths are (u1, u, u2) and
    (v1, v, v2)."""
    nbrs = tuple(x for x in g.adjacency[u] if x != v) + tuple(
        x for x in g.adjacency[v] if x != u)
    # The pieces of g - {u, v}, ordered by smallest vertex, from one sweep.
    seen = [False] * g.n
    seen[u] = seen[v] = True
    paths: list[tuple[int, ...]] = []
    for piece in _sweep(g.adjacency, seen):
        if len(piece) < 3:
            raise AssertionError("component of the reduced graph has fewer than 3 vertices")
        sub, old_ids = induced_subgraph(g, piece)
        paths += _relabelled(_build_paths(sub)[0], old_ids)

    ends = tuple(zip(_distinct_end_paths(_end_index(paths), nbrs), nbrs))
    # Four distinct paths, each ending at its neighbor, are each copied once
    # with the new vertex at that end.
    for (idx, end_vertex), new_vertex in zip(ends, (u, u, v, v)):
        paths[idx] = _extended(paths[idx], end_vertex, new_vertex)
    u1, u2, v1, v2 = nbrs
    paths.append((u1, u, u2))
    paths.append((v1, v, v2))

    if len(paths) != g.n:
        raise AssertionError(f"built {len(paths)} paths for n={g.n}")
    return paths, ends


def _extended(path: tuple[int, ...], end: int, new: int) -> tuple[int, ...]:
    """A copy of ``path`` extended from its end ``end`` to ``new``."""
    if path[-1] == end:
        return path + (new,)
    if path[0] == end:
        return (new,) + path
    raise AssertionError(f"path {path} does not end at {end}")


def _relabelled(paths: list[tuple[int, ...]],
                old_ids: tuple[int, ...]) -> list[tuple[int, ...]]:
    """``paths`` with vertex i read as ``old_ids[i]``, relabelled in place
    one path at a time, so that they are never held twice."""
    for k, p in enumerate(paths):
        paths[k] = tuple(map(old_ids.__getitem__, p))
    return paths


def _distinct_end_paths(index: EndIndex, ends: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least assignment of pairwise distinct path indices,
    the k-th ending at ends[k], read from the end index of the paths.

    Each vertex has exactly two paths ending at it and every path has two
    ends, so a system of distinct representatives always exists.  The index
    lists each vertex's paths in ascending order, as a scan of every path
    would, so a step costs O(1) however many paths there are.  For one end,
    or two whose first paths differ, the first paths are the least
    assignment and are read off directly.  Otherwise (the cubic reduction's
    four ends, or two ends whose first paths clash) plain greedy can
    dead-end, so the at most 2^4 choices are tried in order.
    """
    if len(ends) == 1:
        first = index.get(ends[0])
        if first:
            return (first[0],)
    elif len(ends) == 2:
        first, second = index.get(ends[0]), index.get(ends[1])
        if first and second and first[0] != second[0]:
            return first[0], second[0]
    for choice in itertools.product(*(index.get(x, ()) for x in ends)):
        if len(set(choice)) == len(choice):
            return choice
    raise AssertionError("no distinct path assignment exists; endpoint invariant broken")
