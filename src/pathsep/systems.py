"""Paths, path systems, and the strong-separation verification stack.

A collection of paths strongly separates a graph when, for every ordered pair
of distinct edges (e, f), some path contains e but not f.  Writing S(e) for
the set of indices of paths containing e, that is equivalent to the family
{S(e)} being non-empty for every edge and pairwise incomparable under set
inclusion: S(e) a subset of S(f) would mean no path hits e while avoiding f.

S(e) is built once, by ``PathSystem``: its validation looks up every path
edge in the host, and the lookups are S(e), kept as ``PathSystem.through``.
The verifiers and the certificate read it; the profile is a histogram over it.

The verifier counts S(e) keys.  S(e) lies inside another edge's set exactly
when some other S(f) holds it as a subset, so ``verify_strong_separation``
counts, in one ``Counter``, every S(f) itself and each of its subsets whose
size some S(e) has; an S(e) counted twice is a containment.  That is m keys
on a built system, where every edge lies on two paths, but the count grows
exponentially with the multiplicity.  So its cost is first read off the size
histogram, and past a fixed number of keys per edge the bitmask kernel runs
instead: S(e) is a subset of S(f) exactly when f lies on every path through
e, so with each path written as a bitmask of its edges, the AND of the masks
of the paths through e holds e and every containment witness.  The input
alone picks the kernel, and both give the same verdict.  The exact search in
:mod:`pathsep.oracle` keeps its own incremental bitmask kernel over its
candidate paths; ``verify_by_pair_scan`` is the literal definition, kept as an
independent cross-check.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, combinations, compress, repeat
from math import comb

from .errors import CertificateError, GraphFormatError, InvalidSystemError, UnsupportedGraphError
from .graphs import (Edge, Graph, decode_canonical, decode_ints, is_connected, normalize_edge,
                     split_rows)


@dataclass(frozen=True, slots=True)
class Path:
    """A path given by its vertex sequence, as the ``PathSystem.paths`` view
    makes it.  It checks nothing itself: ``system_from_sequences`` checks
    every path of a system."""

    vertices: tuple[int, ...]


@dataclass(frozen=True)
class PathSystem:
    """An ordered collection of paths attached to a host graph, each path
    stored as its vertex tuple in ``sequences``.

    Path order matters only for reproducibility; every verdict below is
    invariant under permutation of the paths.
    """

    graph: Graph
    sequences: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        self.through  # building S(e) is the validation

    @cached_property
    def through(self) -> tuple[tuple[int, ...], ...]:
        """S(e) for every edge: ``through[i]`` lists, ascending, the paths
        that hold ``graph.edges[i]``.

        Building it is the one check that every path edge is a host edge.  A
        2-vertex path is looked up as its own key, so that lookup alone proves
        it: an edge of the host has two distinct ends in range.  Raises
        InvalidSystemError at the first path with a non-edge.  Every path
        with a vertex out of range has one, as both ends of an edge are in
        range; such a vertex is reported in place of the non-edge."""
        index, n = self.graph.edge_index, self.graph.n
        get = index.get
        through: list[list[int]] = [[] for _ in index]
        for i, vs in enumerate(self.sequences):
            if len(vs) == 2:
                u, v = vs
                j = get(vs if u < v else (v, u))
                if j is not None:
                    through[j].append(i)
                    continue
            for u, v in zip(vs, vs[1:]):
                j = get((u, v) if u < v else (v, u))
                if j is None:
                    for w in vs:
                        if not 0 <= w < n:
                            raise InvalidSystemError(
                                f"path {i} uses vertex {w}, out of range for n={n}")
                    raise InvalidSystemError(f"path {i} uses non-edge ({min(u, v)}, {max(u, v)})")
                through[j].append(i)
        # Each list becomes its tuple in place, so the lists and the tuples
        # are never held whole together.
        for j, hits in enumerate(through):
            through[j] = tuple(hits)
        return tuple(through)

    @cached_property
    def paths(self) -> tuple[Path, ...]:
        """The paths as ``Path`` records, made when first read.  The library
        reads ``sequences``; this view serves callers that read records."""
        return tuple(map(Path, self.sequences))

    def __len__(self) -> int:
        return len(self.sequences)


def system_from_sequences(graph: Graph, seqs) -> PathSystem:
    """The system of the paths with vertex sequences ``seqs`` on ``graph``.

    This is the one check of a path.  The sequences are checked in one
    batch: each for at least two vertices, and one longer than 2 vertices for
    a repeated vertex.  A 2-vertex sequence is proved by the edge lookup in
    ``PathSystem.through`` alone, as (u, u) is never an edge.  If the batch or
    the lookup fails, a scan raises the ValueError of the first sequence that
    is too short or repeats a vertex, so that one is reported before any
    non-edge; with none, the lookup's InvalidSystemError is raised."""
    seqs = tuple(map(tuple, seqs))
    lengths = list(map(len, seqs))
    longer = list(compress(seqs, map((2).__lt__, lengths)))
    failure = None
    if min(lengths, default=2) >= 2 and sum(map(len, map(set, longer))) == sum(map(len, longer)):
        try:
            return PathSystem(graph, seqs)
        except InvalidSystemError as exc:
            failure = exc  # a 2-vertex sequence with equal ends may come first
    for vs in seqs:
        if len(vs) < 2:
            raise ValueError("a path needs at least two vertices")
        if len(set(vs)) != len(vs):
            raise ValueError(f"repeated vertex in path {vs}")
    raise failure


# ---------------------------------------------------------------------------
# Incidence profiles.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IncidenceProfile:
    """A view over ``PathSystem.through`` plus the multiplicity histogram.

    ``through`` is the system's own tuple: ``through[i]`` lists, ascending,
    the paths containing ``edges[i]``.  ``histogram[k]`` counts edges lying
    in exactly k paths (k = 0..p).
    """

    num_paths: int
    edges: tuple[Edge, ...]
    through: tuple[tuple[int, ...], ...]
    histogram: tuple[int, ...]

    @property
    def e1(self) -> int:
        return self.histogram[1] if len(self.histogram) > 1 else 0

    @property
    def e2(self) -> int:
        return self.histogram[2] if len(self.histogram) > 2 else 0

    def paths_for(self, edge: tuple[int, int]) -> tuple[int, ...]:
        """S(edge), found by bisection in the sorted ``edges``; KeyError for a non-edge."""
        e = normalize_edge(*edge)
        i = bisect_left(self.edges, e)
        if i == len(self.edges) or self.edges[i] != e:
            raise KeyError(e)
        return self.through[i]


def incidence_profile(system: PathSystem) -> IncidenceProfile:
    """Exact S(e) for every edge of the host graph, including uncovered ones."""
    hist = [0] * (len(system) + 1)
    for k, count in Counter(map(len, system.through)).items():
        hist[k] = count
    return IncidenceProfile(len(system), system.graph.edges, system.through, tuple(hist))


# ---------------------------------------------------------------------------
# Verdicts and verifiers.
# ---------------------------------------------------------------------------

UNCOVERED = "uncovered"
CONTAINED = "contained"
MULTIPLICITY = "multiplicity"
ENDPOINTS = "endpoints"


@dataclass(frozen=True)
class Verdict:
    """Machine-readable verification outcome with a canonical witness."""

    ok: bool
    kind: str | None = None
    witness: tuple | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_strong_separation(system: PathSystem) -> Verdict:
    """PASS iff every S(e) is non-empty and the family is an antichain.

    Failure kinds: ``uncovered`` (an edge on no path, witness is that edge)
    and ``contained`` (witness pair (e, f) with S(e) a subset of S(f), the
    lexicographically smallest such ordered pair).
    """
    edges, through = system.graph.edges, system.through
    if not all(through):
        e = edges[through.index(())]
        return Verdict(False, UNCOVERED, (e,), f"edge {e} lies on no path")
    sizes = Counter(map(len, through))
    if not _key_count_fits(sizes, len(through)):
        return _verify_by_masks(system)
    # counts[S(e)] is the number of edges f with S(e) a subset of S(f), e
    # itself included: every S(f) counts once as itself and once for each of
    # its subsets of a size that some S(e) has.
    counts = Counter(through)
    if len(sizes) > 1:
        by_size, start = sorted(through, key=len), 0
        for k in sorted(sizes)[:-1]:
            start += sizes[k]
            subsets = chain.from_iterable(map(combinations, by_size[start:], repeat(k)))
            counts.update(filter(counts.__contains__, subsets))
    if max(counts.values(), default=1) == 1:
        return Verdict(True)
    i = next(i for i, hits in enumerate(through) if counts[hits] > 1)
    return _contained(system, i)


# The subset count above costs the sum over f of C(|S(f)|, k) for every size k
# of some S(e): exactly m keys on a built system (every edge on two paths), at
# most 3m on the mixed systems of the check workload, and exponential in the
# multiplicity on a hub edge.  The bitmask kernel costs about m/64 words per
# incidence instead, so the two break even near 4 keys per edge at m = 750,
# near 8 at m = 3000 and past 40 at m = 12000.  Past this many keys per edge,
# the bitmask kernel runs.
_KEYS_PER_EDGE = 8


def _key_count_fits(sizes: Counter, m: int) -> bool:
    """True iff the subset count of a family with size histogram ``sizes``
    stays within ``_KEYS_PER_EDGE * m`` keys.  It stops at the first overrun,
    so at most one binomial it computes exceeds the budget."""
    budget, ks = _KEYS_PER_EDGE * m, sorted(sizes)
    for s, count in sizes.items():
        for k in ks:
            if k > s:
                break
            budget -= count * comb(s, k)
            if budget < 0:
                return False
    return True


def _contained(system: PathSystem, i: int) -> Verdict:
    """The ``contained`` verdict of edge i, whose S(e) lies in another edge's
    set: f is the first such edge in edge order.  Every such f lies on each
    path through e, so the shortest of them holds every candidate."""
    graph, through, seqs = system.graph, system.through, system.sequences
    hits = set(through[i])
    vs = min(map(seqs.__getitem__, through[i]), key=len)
    j = min(j for j in (graph.edge_index[(u, v) if u < v else (v, u)]
                        for u, v in zip(vs, vs[1:]))
            if j != i and hits.issubset(through[j]))
    e, f = graph.edges[i], graph.edges[j]
    return Verdict(False, CONTAINED, (e, f), f"S{e} is contained in S{f}")


def _verify_by_masks(system: PathSystem) -> Verdict:
    """The bitmask kernel on a system with every edge covered: the AND of the
    edge masks of the paths through e is the set of edges f with S(e) a
    subset of S(f), e included.  Costs p masks of m bits and a big-int AND per
    incidence, so it runs only where the subset count would blow up."""
    through = system.through
    path_masks = [0] * len(system)
    for i, hits in enumerate(through):
        bit = 1 << i
        for p_idx in hits:
            path_masks[p_idx] |= bit
    # One edge at a time: keeping an m-bit AND for every edge alive at once
    # would cost m^2 bits on large hosts.
    for i, hits in enumerate(through):
        common = -1
        for p_idx in hits:
            common &= path_masks[p_idx]
        if common ^ (1 << i):
            return _contained(system, i)
    return Verdict(True)


def verify_by_pair_scan(system: PathSystem) -> Verdict:
    """Literal quadratic reference verifier; scans paths per ordered edge pair.

    Must agree with :func:`verify_strong_separation` on every input; an edge
    on no path is reported as ``uncovered`` there too (for a single-edge graph
    the pairwise definition alone would be vacuous).
    """
    edges = system.graph.edges
    path_edge_sets = [set(map(normalize_edge, vs, vs[1:])) for vs in system.sequences]
    for e in edges:
        if not any(e in s for s in path_edge_sets):
            return Verdict(False, UNCOVERED, (e,), f"edge {e} lies on no path")
    for e in edges:
        for f in edges:
            if e == f:
                continue
            if not any(e in s and f not in s for s in path_edge_sets):
                return Verdict(False, CONTAINED, (e, f),
                               f"no path contains {e} and avoids {f}")
    return Verdict(True)


def verify_structural_properties(system: PathSystem) -> Verdict:
    """Check the two structural guarantees of the inductive construction.

    PASS iff every edge lies in exactly two paths and every vertex is an
    endpoint of exactly two paths.  Only meaningful for connected hosts with
    at least 3 vertices; anything else is rejected.
    """
    g = system.graph
    if g.n < 3:
        raise UnsupportedGraphError("structural properties need at least 3 vertices")
    if not is_connected(g):
        raise UnsupportedGraphError("structural properties need a connected host graph")
    for e, hits in zip(g.edges, system.through):
        count = len(hits)
        if count != 2:
            return Verdict(False, MULTIPLICITY, (e, count),
                           f"edge {e} lies in {count} paths, expected 2")
    end_count = Counter(v for vs in system.sequences for v in (vs[0], vs[-1]))
    for v in range(g.n):
        count = end_count[v]
        if count != 2:
            return Verdict(False, ENDPOINTS, (v, count),
                           f"vertex {v} is an endpoint of {count} paths, expected 2")
    return Verdict(True)


# ---------------------------------------------------------------------------
# Counting certificate for complete bipartite hosts.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateReport:
    """Edge-multiplicity counts of a separating system on K_{a,b} and the two
    counting inequalities every such system satisfies:

      eq1:  3ab - 2*e1 - e2 <= 2ap   (paths carry at most 2a edges each)
      eq2:  e2 + 2*e1 <= p^2 / 2     (singleton and pair incidence sets differ)
    """

    a: int
    b: int
    p: int
    e1: int
    e2: int

    @property
    def eq1_lhs(self) -> int:
        return 3 * self.a * self.b - 2 * self.e1 - self.e2

    @property
    def eq1_rhs(self) -> int:
        return 2 * self.a * self.p

    @property
    def eq1_slack(self) -> int:
        return self.eq1_rhs - self.eq1_lhs

    @property
    def eq2_lhs(self) -> int:
        return self.e2 + 2 * self.e1

    @property
    def eq2_rhs(self) -> float:
        return self.p * self.p / 2

    @property
    def eq2_slack(self) -> float:
        return self.eq2_rhs - self.eq2_lhs


def _is_complete_bipartite_host(g: Graph, a: int, b: int) -> bool:
    """True iff g is K_{a,b} in the builder numbering (u side 0..a-1, v side a..a+b-1)."""
    if a < 1 or b < 1 or g.n != a + b:
        return False
    return g.edges == tuple((i, a + j) for i in range(a) for j in range(b))


def counting_certificate(system: PathSystem, a: int, b: int) -> CertificateReport:
    """Certificate of the two counting inequalities for a separating system.

    Raises CertificateError if the system is not strongly separating, or if
    an inequality fails.  The quadratic relaxation eq2 can genuinely fail on
    tiny degenerate systems (p <= 3 covered by single-edge paths); a failure
    there means the input is outside the regime the bound argues about, while
    a failure on any non-trivial system indicates a verifier bug.
    """
    if not _is_complete_bipartite_host(system.graph, a, b):
        raise UnsupportedGraphError(f"host graph is not K_{{{a},{b}}} in canonical numbering")
    verdict = verify_strong_separation(system)
    if not verdict.ok:
        raise CertificateError(f"system is not strongly separating: {verdict.detail}")
    profile = incidence_profile(system)
    report = CertificateReport(a=a, b=b, p=len(system), e1=profile.e1, e2=profile.e2)
    if report.eq1_lhs > report.eq1_rhs:
        raise CertificateError(
            f"eq1 violated: {report.eq1_lhs} > {report.eq1_rhs} (e1={report.e1}, e2={report.e2})")
    if report.eq2_lhs > report.eq2_rhs:
        raise CertificateError(
            f"eq2 violated: {report.eq2_lhs} > {report.eq2_rhs} (e1={report.e1}, e2={report.e2})")
    return report


# ---------------------------------------------------------------------------
# Path-system files: text (one path per line) and a JSON alternative.
# ---------------------------------------------------------------------------

def format_paths(system: PathSystem) -> str:
    # A list of str(v), not map(str, ...): on Python 3.11 the str(v) call is
    # specialized, and map(str, ...) is slower on long paths.
    lines = [" ".join([str(v) for v in vs]) for vs in system.sequences]
    return "\n".join(lines) + ("\n" if lines else "")


def format_paths_json(system: PathSystem) -> str:
    return json.dumps({"n": system.graph.n,
                       "paths": list(map(list, system.sequences))})


def parse_paths(text: str, graph: Graph) -> PathSystem:
    """Parse either path-file format (JSON is detected by a leading '{')."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise GraphFormatError(f"bad JSON path file: {exc}") from None
        if not isinstance(obj, dict) or "paths" not in obj:
            raise GraphFormatError("JSON path file needs an object with a 'paths' field")
        n = obj.get("n", graph.n)
        if type(n) is not int:
            raise GraphFormatError("JSON 'n' must be an integer")
        if n != graph.n:
            raise GraphFormatError(f"path file declares n={n} but graph has n={graph.n}")
        seqs = obj["paths"]
        if not (isinstance(seqs, list) and set(map(type, seqs)) <= {list}
                and set(map(type, chain.from_iterable(seqs))) <= {int}):
            raise GraphFormatError("JSON 'paths' must be a list of lists of integers")
    else:
        seqs = _text_sequences(text)
    try:
        return system_from_sequences(graph, seqs)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def _text_sequences(text: str) -> list:
    """The vertex sequences of a text path file, one per line that is not
    blank.  Two tiers read it, in this order:

    1. A file in the canonical shape, as :func:`format_paths` writes it, is
       decoded in one C pass by :func:`graphs.decode_canonical`, as a list
       of its rows.
    2. Any other file is split by :func:`split_rows`, and all its tokens are
       decoded at once by :func:`decode_ints`.  A file with a bad token is
       split again, and GraphFormatError names the first line whose tokens
       do not decode."""
    sequences = decode_canonical(text, rows=True)
    if sequences is not None:
        return sequences
    rows = list(filter(None, split_rows(text)[1]))
    values = decode_ints(list(chain.from_iterable(rows)))
    ends = list(accumulate(map(len, rows)))
    del rows  # the token strings go before the sequences are made
    if values is None:
        lines, rows = split_rows(text)
        i = next(i for i, row in enumerate(rows) if decode_ints(row) is None)
        raise GraphFormatError(f"line {i + 1}: bad path line {lines[i].strip()!r}")
    return list(map(values.__getitem__, map(slice, [0, *ends], ends)))


def load_paths(path: str, graph: Graph) -> PathSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_paths(fh.read(), graph)


__all__ = [
    "Path", "PathSystem", "IncidenceProfile", "Verdict", "CertificateReport",
    "incidence_profile", "verify_strong_separation", "verify_by_pair_scan",
    "verify_structural_properties", "counting_certificate", "system_from_sequences",
    "format_paths", "format_paths_json", "parse_paths", "load_paths",
    "UNCOVERED", "CONTAINED", "MULTIPLICITY", "ENDPOINTS",
]
