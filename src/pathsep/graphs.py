"""Undirected simple graphs and the structural queries the builders rely on.

Vertices are dense 0-based integers.  All operations are pure functions of
immutable inputs; tie-breaking is always by smallest vertex id (then
lexicographic on edge pairs) so that every derived object is reproducible.
"""

from __future__ import annotations

import heapq
import json
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, starmap
from operator import itemgetter, lt
from typing import Iterable

from .errors import GraphFormatError, LimitExceededError, PathsepError, UnsupportedGraphError

Edge = tuple[int, int]

DEGREE1_SAFE = "degree1-safe"
DEGREE2_SAFE = "degree2-safe"
DEGREE2_CUT = "degree2-cut"

ISOLATED_VERTEX = "isolated-vertex"
SINGLE_EDGE = "single-edge"
K4 = "K4"
CUBIC_NON_K4 = "cubic-non-K4"
SUBCUBIC_2DEGENERATE = "subcubic-2degenerate"
GENERAL_2DEGENERATE = "general-2degenerate"
OTHER = "other"


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``edges`` is a lexicographically sorted tuple of pairs (u, v) with u < v;
    isolated vertices are permitted.  Construct through :meth:`from_edges`
    unless the edge tuple is already normalized.
    """

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        edges = self.edges
        try:
            # One pass in builtins: pairs u < v in strictly increasing order
            # start with the least vertex, and their second ends hold the
            # largest.
            if (all(starmap(lt, edges)) and all(map(lt, edges, edges[1:]))
                    and (not edges or edges[0][0] >= 0
                         and max(map(itemgetter(1), edges)) < self.n)):
                return
        except (TypeError, LookupError):
            pass
        # One edge at a time, for the message of the first bad edge.
        prev = None
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")
            if prev is not None and (u, v) <= prev:
                raise ValueError("edges must be sorted and duplicate-free")
            prev = (u, v)

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            normalized.add((u, v) if u < v else (v, u))
        return Graph(n, tuple(sorted(normalized)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        """Position of each edge in ``edges``: the graph's one edge lookup."""
        return dict(zip(self.edges, range(self.m)))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edge_index

    def without_edge(self, edge: tuple[int, int]) -> "Graph":
        u, v = edge if edge[0] < edge[1] else (edge[1], edge[0])
        if (u, v) not in self.edge_index:
            raise ValueError(f"edge ({u}, {v}) not present")
        return Graph(self.n, tuple(e for e in self.edges if e != (u, v)))


def max_degree(g: Graph) -> int:
    return max(g.degrees, default=0)


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


# ---------------------------------------------------------------------------
# Parsing and serialization.
#
# Graph file format (text): first non-comment line "n m"; then m lines "u v"
# with 0 <= u, v < n and u != v; '#' starts a comment to end of line; blank
# lines are ignored.  Numbers are separated by any Unicode whitespace, and
# lines break where str.splitlines breaks them.  Duplicate edge lines
# collapse to one edge.  A header with n above MAX_VERTICES is refused, as a
# LimitExceededError, before anything is sized: a build takes 330 B a vertex
# on an edgeless header, and 717 to 935 B a vertex on a 2-degenerate or cubic
# graph of 10^5 vertices (tracemalloc, Python 3.11).
# ---------------------------------------------------------------------------

MAX_VERTICES = 10**6


def split_rows(text: str) -> tuple[list[str], list[list[str]]]:
    """The token grammar's split of a file: each line cut at its first '#',
    and the whitespace-separated tokens of each.  Lines break where
    :meth:`str.splitlines` breaks them, and a blank line gives an empty row,
    so row i is line i + 1."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    return lines, list(map(str.split, lines))


def decode_ints(tokens: list[str]) -> tuple[int, ...] | None:
    """The tokens as integers, or None unless each is an optional sign and
    ASCII digits: int() alone also takes 1_0 and non-ASCII digits."""
    joined = "".join(tokens)
    if "_" in joined or not joined.isascii():
        return None
    try:
        return tuple(map(int, tokens))
    except ValueError:
        return None


# The characters of a file in the canonical shape.  A scan by one character
# class keeps no backtracking state per line or token.
_CANONICAL_CHARS = re.compile(r"[0-9 \n]*")
_DIGITS_DROPPED = str.maketrans("", "", "0123456789")


def decode_canonical(text: str, *, rows: bool) -> list | None:
    """The integers of a file in the canonical shape, as :func:`serialize_graph`
    and ``format_paths`` write it, decoded in one C pass: a list of its rows,
    or with ``rows`` false one flat list.  None for any other file.  The
    shape is lines of ASCII-digit tokens, one space between them, each line
    ended by '\\n'.

    A text that ends in '\\n', has no blank line and holds only ASCII digits,
    spaces and line feeds is decoded as JSON, with ',' for each space and
    '],[' (or ',') for each line break.  JSON accepts it exactly when no
    token is empty (two spaces in a row, or a space at either end of a line)
    and no token has leading zeros, such as ``007``, or more digits than
    ``int``'s limit; it decodes each token to the value ``int()`` gives.  So
    the rows it gives are the rows of :func:`split_rows`, none of them
    blank, with the values of :func:`decode_ints`, and the flat list is
    their tokens in order.  A text that does not end in a newline, or that
    holds a '#', is not scanned."""
    if (text.endswith("\n") and "#" not in text and not text.startswith("\n")
            and "\n\n" not in text and _CANONICAL_CHARS.fullmatch(text)):
        opening, line_break, closing = ("[[", "],[", "]]") if rows else ("[", ",", "]")
        try:
            return json.loads(opening + text[:-1].replace(" ", ",").replace("\n", line_break)
                              + closing)
        except ValueError:
            pass
    return None


def parse_graph(text: str) -> Graph:
    """Parse the text graph format, rejecting malformed input with line numbers.

    Two tiers read a file, in this order:

    1. A file in the canonical shape, as :func:`serialize_graph` writes it,
       is decoded in one C pass by :func:`decode_canonical`, as one list of
       its tokens.  They are taken when the file's spaces and line breaks
       alternate, so that every line holds two.
    2. A file that tier 1 does not decode is split by :func:`split_rows`,
       and all its tokens are decoded at once by :func:`decode_ints`, when
       every row that is not blank holds two.

    The values are checked alike from either tier: the header has
    0 <= n <= MAX_VERTICES and m equal to the number of edge lines.  The
    edge pairs then go to :class:`Graph` as they stand, so a file that is
    already normalized and strictly increasing has its range, order and
    self-loops checked once, by ``Graph``.  Only when ``Graph`` refuses the
    pairs do they go to :meth:`Graph.from_edges`, which normalizes them.

    A file that neither tier gives values for, or whose values fail a check,
    has an error, and :func:`_first_bad_line` walks its rows to raise the
    error of the first bad line."""
    values = decode_canonical(text, rows=False)
    if values is not None and text.translate(_DIGITS_DROPPED) != " \n" * (len(values) // 2):
        values = None
    if values is None:
        rows = list(filter(None, split_rows(text)[1]))
        if set(map(len, rows)) == {2}:
            values = decode_ints(list(chain.from_iterable(rows)))
        del rows  # the token strings go before the edges are built
    if values is not None:
        n, m = values[:2]
        if 0 <= n <= MAX_VERTICES and m == len(values) // 2 - 1:
            pairs = tuple(zip(values[2::2], values[3::2]))
            for build in (Graph, Graph.from_edges):
                try:
                    return build(n, pairs)
                except ValueError:
                    pass
    raise _first_bad_line(text)


def _first_bad_line(text: str) -> PathsepError:
    """The error of the first bad line of a graph file that :func:`parse_graph`
    refuses, found by one walk over its rows in line order."""
    lines, rows = split_rows(text)
    numbered = [(i, lines[i - 1].strip(), row) for i, row in enumerate(rows, 1) if row]
    if not numbered:
        return GraphFormatError("empty graph file")
    (lineno, line, row), *edge_lines = numbered
    header = decode_ints(row)
    if header is None or len(header) != 2:
        return GraphFormatError(f"line {lineno}: expected 'n m', got {line!r}")
    n, m = header
    if n > MAX_VERTICES:
        return LimitExceededError(f"line {lineno}: {n} vertices exceed the limit of {MAX_VERTICES}")
    if n < 0 or m < 0:
        return GraphFormatError(f"line {lineno}: negative counts in header")
    for count, (lineno, line, row) in enumerate(edge_lines):
        if count == m:
            return GraphFormatError(f"line {lineno}: unexpected extra edge line (declared m={m})")
        pair = decode_ints(row)
        if pair is None or len(pair) != 2:
            return GraphFormatError(f"line {lineno}: expected 'u v', got {line!r}")
        u, v = pair
        if u == v:
            return GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            return GraphFormatError(f"line {lineno}: vertex id out of range (n={n})")
    if len(edge_lines) < m:
        return GraphFormatError(f"expected {m} edge lines, found {len(edge_lines)}")
    raise AssertionError("parse_graph refused a graph file with no bad line")


def serialize_graph(g: Graph) -> str:
    """Emit the text format with edges sorted lexicographically."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


# ---------------------------------------------------------------------------
# Connectivity and components.
# ---------------------------------------------------------------------------

def _sweep(adj, seen: list[bool]) -> list[list[int]]:
    """Components over ``adj`` of the vertices not flagged in ``seen``, each
    sorted, ordered by smallest vertex; flags every vertex it reaches."""
    comps = []
    for start in range(len(seen)):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for x in comp:
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
        comp.sort()
        comps.append(comp)
    return comps


def _joined(adj, a: int, b: int, skip: int) -> bool:
    """Whether a and b are joined over ``adj`` by a path avoiding ``skip``.

    Two breadth-first searches, from a and from b, run in lockstep: each
    round grows the side that has seen fewer vertices by one level.  The
    answer is yes as soon as one side reaches a vertex the other has seen,
    and no as soon as one side runs out, having met nothing of the other.
    """
    near, far = {a}, {b}
    near_front, far_front = [a], [b]
    while near_front and far_front:
        if len(near) > len(far):
            near, far, near_front, far_front = far, near, far_front, near_front
        level = []
        for x in near_front:
            for y in adj[x]:
                if y in far:
                    return True
                if y != skip and y not in near:
                    near.add(y)
                    level.append(y)
        near_front = level
    return False


def connected_components(g: Graph) -> list[list[int]]:
    """Partition of {0..n-1} into components, each sorted, ordered by minimum."""
    return _sweep(g.adjacency, [False] * g.n)


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph relabeled to 0..k-1 (g itself, given every vertex)
    and the old-id table: ``old_ids[new]`` recovers the original vertex.
    ValueError for an id outside 0..n-1."""
    old_ids = tuple(sorted(set(vertices)))
    if old_ids and not (0 <= old_ids[0] and old_ids[-1] < g.n):
        bad = old_ids[0] if old_ids[0] < 0 else old_ids[-1]
        raise ValueError(f"vertex {bad} out of range for n={g.n}")
    if len(old_ids) == g.n:
        return g, old_ids
    index = {old: new for new, old in enumerate(old_ids)}
    adj = g.adjacency
    # Ascending u and sorted adjacency lists already give the edges in order.
    edges = tuple(
        (i, index[w])
        for i, u in enumerate(old_ids)
        for w in adj[u]
        if w > u and w in index
    )
    return Graph(len(old_ids), edges), old_ids


# ---------------------------------------------------------------------------
# Degeneracy.
# ---------------------------------------------------------------------------

def is_2_degenerate(g: Graph) -> tuple[bool, list[int] | None]:
    """Peel the smallest vertex of degree at most 2 until none is left.

    Returns (True, elimination_order) or (False, None).  A vertex enters the
    heap once, when its degree first drops to 2, and degrees only fall, so
    the heap holds exactly the live vertices of degree at most 2 and the test
    takes O((n + m) log n).  The order is canonical: each step removes the
    smallest such vertex, not one of minimum degree.
    """
    degree = list(g.degrees)
    heap = [v for v, d in enumerate(degree) if d <= 2]  # ascending, so a heap
    order: list[int] = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        # A peeled neighbor already has degree at most 2 and is never pushed again.
        for w in g.adjacency[v]:
            degree[w] -= 1
            if degree[w] == 2:
                heapq.heappush(heap, w)
    if len(order) < g.n:
        return False, None
    return True, order


@dataclass(frozen=True, slots=True)
class RemovalStep:
    """One peeling step: the vertex, its case tag, and its neighbors at removal."""

    vertex: int
    kind: str
    neighbors: tuple[int, ...]


@dataclass(frozen=True)
class VertexRemovalPlan:
    """Peeling steps; ``cores`` are the components left when peeling stops,
    each sorted, ordered by smallest vertex."""

    order: tuple[RemovalStep, ...]
    cores: tuple[tuple[int, ...], ...]


class _Peeler:
    """Mutable view of a graph being peeled; tracks live vertices only.
    The plan and the tests' replay of it share it, so one check serves both."""

    def __init__(self, g: Graph):
        self.adj = [set(a) for a in g.adjacency]
        self.alive = [True] * g.n

    def components(self) -> list[list[int]]:
        """Live components, each sorted, ordered by smallest vertex."""
        return _sweep(self.adj, [not alive for alive in self.alive])

    def in_large(self, v: int) -> bool:
        """Whether v's live component has more than 3 vertices.

        The ball around v grows by its neighbourhood at most three times and
        stops past 3 vertices, or when a growth adds none.  That is exact, as
        each growth adds a vertex until the component is used up.  For the
        plan's v, of degree at most 2, a growth unions at most 3 sets.
        """
        adj = self.adj
        ball = adj[v] | {v}
        if len(ball) > 3:
            return True
        grown = ball.union(*map(adj.__getitem__, ball))
        if len(grown) == len(ball):
            return False
        return len(grown) > 3 or len(grown.union(*map(adj.__getitem__, grown))) > 3

    def remove(self, v: int) -> None:
        for w in self.adj[v]:
            self.adj[w].discard(v)
        self.adj[v] = set()
        self.alive[v] = False

    def stays_connected_without(self, v: int) -> bool:
        """Whether the two neighbors of a degree-2 vertex v stay joined
        without v, by :func:`_joined`'s lockstep search.  In a connected
        component this is whether removing v keeps it connected.

        A no costs at most the smaller of the two sides left by the cut,
        plus one level of the other side.  A yes costs two balls of about
        half the distance between the neighbors, where a search from one
        neighbor alone would cover the ball of the whole distance, often
        most of the component.
        """
        a, b = self.adj[v]
        return _joined(self.adj, a, b, v)


_KIND_OF_RANK = (DEGREE1_SAFE, DEGREE2_SAFE, DEGREE2_CUT)


def removal_plan_2degenerate(g: Graph) -> VertexRemovalPlan:
    """Peeling plan for a connected 2-degenerate graph down to 3-vertex cores.
    A connected graph on 3 vertices is its one core, with no steps.

    Each step removes a vertex of degree at most 2 from a component of more
    than 3 vertices, preferring, in order: the smallest degree-1 vertex
    (always safe), the smallest degree-2 vertex whose removal keeps its
    component connected, and only then the smallest degree-2 cut vertex.
    With no degree-1 vertex left, each side of a cut has at least 3
    vertices; a smaller side would be left as a core, so the plan ends by
    checking that every core has 3 and raises AssertionError otherwise.

    Candidates wait in one heap of (rank, vertex), where the rank is the
    degree, and are checked only at the top, by their live degree and by
    :meth:`_Peeler.in_large`, a search of radius at most 3 around them.
    Degrees and component sizes only fall, so an entry that is dead, of
    stale degree or in a component of at most 3 vertices is dropped for
    good.  A degree-2 vertex that fails the safe test goes back at rank 3,
    after every entry of degree 1 or 2, and is not tested again: removals
    never join components, so it stays a cut vertex while it keeps degree
    2.  A cut step takes the smallest valid rank-3 vertex once no entry of
    lower rank is left.

    A vertex has at most one degree-2 entry, so it takes the safe test at
    most once.  The test is :meth:`_Peeler.stays_connected_without`'s
    lockstep search: a cut vertex costs at most the smaller side of its cut
    plus one level of the other, a safe one two balls of about half the
    distance between its neighbors.  Beyond its tests, a step builds only
    the neighbour tuple and the :class:`RemovalStep` it records.  On seeded
    random 2-degenerate graphs the plan grows about as n^1.4.  Where most
    degree-2 vertices are cut vertices, as on a chain of blocks joined by
    paths, the searches over the smaller sides make it quadratic.

    The peel is also the input check, run whole even on a disconnected g:
    g is connected exactly when one more component is left than cut steps
    (each splits one in two), with a 3-core exactly when one of 4+ is left.
    """
    if g.n < 3:
        raise UnsupportedGraphError("removal plan requires at least 3 vertices")
    peeler = _Peeler(g)
    adj, alive = peeler.adj, peeler.alive
    heap = [(d, v) for v, d in enumerate(g.degrees) if d <= 2]
    heapq.heapify(heap)
    steps: list[RemovalStep] = []
    cuts = 0
    while heap:
        rank, v = heapq.heappop(heap)
        if not alive[v] or len(adj[v]) != min(rank, 2) or not peeler.in_large(v):
            continue
        if rank == 2 and not peeler.stays_connected_without(v):
            heapq.heappush(heap, (3, v))
            continue
        nbrs = tuple(sorted(adj[v]))
        peeler.remove(v)
        steps.append(RemovalStep(v, _KIND_OF_RANK[rank - 1], nbrs))
        cuts += rank == 3
        for w in nbrs:
            d = len(adj[w])
            if d <= 2:
                heapq.heappush(heap, (d, w))
    cores = peeler.components()
    if len(cores) != 1 + cuts:
        raise UnsupportedGraphError("removal plan requires a connected graph")
    if any(len(c) > 3 for c in cores):
        raise UnsupportedGraphError("graph is not 2-degenerate")
    if any(len(c) < 3 for c in cores):
        raise AssertionError("removal plan left a core of fewer than 3 vertices")
    return VertexRemovalPlan(tuple(steps), tuple(tuple(c) for c in cores))


# ---------------------------------------------------------------------------
# Triangle membership and component classification.
# ---------------------------------------------------------------------------

def find_non_triangle_edge(g: Graph) -> Edge | None:
    """First edge (lexicographically) whose endpoints share no neighbor."""
    adj = g.adjacency
    for u, v in g.edges:
        if set(adj[u]).isdisjoint(adj[v]):
            return (u, v)
    return None


def _component_label(g: Graph) -> str:
    """Label of a connected g from its size and degrees; 2-degeneracy is left untested."""
    if g.n <= 2:
        return ISOLATED_VERTEX if g.n == 1 else SINGLE_EDGE
    if all(d == 3 for d in g.degrees):
        return K4 if g.n == 4 else CUBIC_NON_K4
    return SUBCUBIC_2DEGENERATE if max_degree(g) <= 3 else GENERAL_2DEGENERATE


def classify_component(g: Graph, comp: Iterable[int]) -> str:
    """Label a connected component for builder dispatch; ValueError for other vertex sets."""
    sub = induced_subgraph(g, comp)[0]
    if sub.n == 0 or not is_connected(sub):
        raise ValueError("classify_component needs the vertices of a connected subgraph")
    label = _component_label(sub)
    if label in (SUBCUBIC_2DEGENERATE, GENERAL_2DEGENERATE) and not is_2_degenerate(sub)[0]:
        return OTHER
    return label
