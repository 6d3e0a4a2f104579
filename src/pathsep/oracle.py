"""Exact minimum strongly-separating path system sizes for small graphs.

The search enumerates every simple path once (canonical orientation), then
runs iterative deepening on the system size p.  It starts at the least p
that meets four lower bounds, each of which then holds for every larger p,
and reports that p as the lower bound if it stops early:

  * the maximum degree (each path covers at most 2 edges at a vertex, and a
    counting argument over singleton incidence sets pushes this to p >= max
    degree);
  * the antichain bound: m pairwise incomparable subsets of [p] need
    C(p, floor(p/2)) >= m;
  * the incidence-total and endpoint-deficit prunes below, at a depth's
    root: p paths of at most max_len edges reach the least total (which
    does not grow with p), and 2p >= n1 + 2 n2, the degree sum over the
    vertices of degree 1 or 2.

Within one depth, subsets of candidate paths are explored in lexicographic
index order with three prunes that never discard a feasible completion, so
the first system found is the lexicographically least witness at the minimum:

  * the separation prune: no edge f other than e may lie both on every
    chosen path through e and on every remaining candidate through e: both
    sides are the bitmask incidence kernel of :mod:`pathsep.systems`, and
    such an f makes S(e) a subset of S(f) in every completion (adding paths
    can only undo a containment, never create one).  An uncovered edge with
    no candidate left reads as contained in every other edge, so this also
    refuses it;
  * the incidence-total prune: the least incidence total of m sets that
    meet the normalized matching (LYM) inequality must still be reachable.
    Binomials are log-concave, so 1/C(p, k) is convex in k: trading sizes
    (i, j), j >= i + 2, for (i + 1, j - 1) keeps the total and does not
    raise the LYM sum.  So some least profile uses two adjacent sizes k and
    k + 1, and the bound is a closed form found in O(p) integer steps;
  * the endpoint-deficit prune: every strongly separating system ends at
    least deg(v) paths at each vertex v of degree 1 or 2.  At degree 1 the
    path through v's one edge ends there.  At degree 2, with edges e and f,
    some path holds e but not f and some path holds f but not e; each ends
    at v, and they differ.  A path has two ends, so when the chosen paths
    leave a deficit of sum(max(0, need_v - ends_v)) path ends, with need_v
    = deg(v) at degree 1 or 2 and 0 otherwise, the r paths still to choose
    must cover it: deficit <= 2r, in exact integers.

Two further node tests would be redundant, so the search makes neither.
Fewer candidates left than paths still needed: the separation prune passes
such a node only if the chosen paths and all those candidates, fewer than p
paths, strongly separate G, and depth p is searched only when no smaller
system exists.  More than 2r uncovered edges at a vertex with r paths left:
at r = 1 the lookup below refuses it, since it puts every uncovered edge on
the one last path and a simple path holds at most two edges at a vertex; at
r >= 2 its subtree is searched and refused, which costs a few nodes.

A depth is one loop over an explicit stack, a frame per node on the way down.
Its root is entered untested, as the start meets its tests; its separation
test would never fire, each edge's single-edge path being a candidate.  Every
other node is tested in its parent's loop, one node counted per child tested;
the first that passes is pushed, with its own copy of ``common``, and the
parent resumes at its next child once that frame is popped.  A child's
separation test reads the parent's ``common`` against ``common_after`` at the
child's own index, which equals the child's ``common`` against the suffix
after it.

The last level is a lookup, not one more frame.  Once p - 1 paths are chosen
and the prunes pass, the last path must hold every edge that still has a
containment witness (every uncovered edge among them) and avoid those
witnesses.  ``through[e]``, the bitset of the candidates through e, is ANDed
over those edges, and the survivors are tested in index order, the order in
which a frame would test them; so the value and the witness are those of a
search to full depth, and only the node count is smaller.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import compress

from .errors import LimitExceededError, UnsupportedGraphError
from .graphs import Graph, max_degree, normalize_edge
from .systems import PathSystem, system_from_sequences


@dataclass(frozen=True)
class OracleConfig:
    max_vertices: int = 10
    max_edges: int = 16
    max_path_budget: int = 12
    time_budget: float | None = None

    def __post_init__(self) -> None:
        if self.max_vertices <= 0 or self.max_edges <= 0 or self.max_path_budget <= 0:
            raise ValueError("oracle limits must be positive")
        if self.time_budget is not None and not self.time_budget > 0:
            raise ValueError("time budget must be positive")


DEFAULT_CONFIG = OracleConfig()

# Cap on candidate paths x host edges, the cells of the search's suffix
# tables; not an option, so it holds under ``--force`` too.
MAX_TABLE_CELLS = 10**6


@dataclass(frozen=True)
class OracleResult:
    """Outcome of an exact search.

    ``value``/``witness`` are set when the search was conclusive; otherwise
    the best known interval [lower, upper] is reported (the all-singletons
    system shows the minimum never exceeds the edge count).  ``nodes`` counts
    each searched depth's root and the subsets of fewer than p paths that the
    search tested; the candidates that the last-level lookup tests are not.
    """

    value: int | None
    witness: PathSystem | None
    lower: int
    upper: int
    conclusive: bool
    nodes: int
    elapsed: float


def _check_limits(g: Graph, cfg: OracleConfig) -> None:
    if g.n > cfg.max_vertices:
        raise LimitExceededError(
            f"graph has {g.n} vertices, limit is {cfg.max_vertices}")
    if g.m > cfg.max_edges:
        raise LimitExceededError(
            f"graph has {g.m} edges, limit is {cfg.max_edges}")


class _TimeBudget(Exception):
    pass


# Paths or table rows between two looks at the clock during set-up.
_CLOCK_STRIDE = 1024


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise _TimeBudget


def enumerate_paths(g: Graph, cfg: OracleConfig = DEFAULT_CONFIG,
                    deadline: float | None = None) -> list[tuple[int, ...]]:
    """The vertex tuple of every simple path with at least one edge,
    smaller endpoint first, sorted by (edge count, vertex sequence).

    Raises :class:`LimitExceededError` once paths x edges exceeds
    ``MAX_TABLE_CELLS``, the size of the search's suffix tables.  Given the
    exact search's ``deadline``, a ``time.monotonic()`` value, it reads the
    clock every 1024 paths and stops the search once the deadline has
    passed; given none, it never reads the clock."""
    _check_limits(g, cfg)
    adj = g.adjacency
    found: list[tuple[int, ...]] = []
    on_path = [False] * g.n
    for start in range(g.n):
        current = [start]
        on_path[start] = True
        stack = [iter(adj[start])]
        while stack:
            for nxt in stack[-1]:
                if not on_path[nxt]:
                    break
            else:
                stack.pop()
                on_path[current.pop()] = False
                continue
            current.append(nxt)
            on_path[nxt] = True
            if start < nxt:
                found.append(tuple(current))
                if len(found) * g.m > MAX_TABLE_CELLS:
                    raise LimitExceededError(
                        f"at least {len(found)} paths on {g.m} edges exceed "
                        f"the path table limit of {MAX_TABLE_CELLS} cells")
                if len(found) % _CLOCK_STRIDE == 0:
                    _check_deadline(deadline)
            stack.append(iter(adj[nxt]))
    found.sort(key=lambda vs: (len(vs), vs))
    return found


def sperner_lower_bound(m: int) -> int:
    """Smallest k whose middle binomial coefficient reaches m."""
    k = 1
    while math.comb(k, k // 2) < m:
        k += 1
    return k


def _min_incidence_total(p: int, m: int) -> float:
    """Least total size of m non-empty subsets of [p] that meet the LYM
    inequality sum(1/C(p, |S|)) <= 1, or inf when no m subsets do.

    Some least profile has m - t sets of size k and t of size k + 1 (see the
    module docstring).  The first k that admits a t with
    (m - t) C(p, k+1) + t C(p, k) <= C(p, k) C(p, k+1) gives the least total;
    once the binomials fall, no later k admits one.
    """
    for k in range(1, p + 1):
        low, high = math.comb(p, k), math.comb(p, k + 1)
        if m <= low:
            return m * k
        if high <= low:
            return math.inf
        if m <= high:
            # t = ceil(high (m - low) / (high - low)), which is at most m.
            return m * k - high * (low - m) // (high - low)
    return math.inf


class _Search:
    def __init__(self, g: Graph, cfg: OracleConfig):
        # Set first, so that enumeration and the tables count against the budget.
        self.deadline = (time.monotonic() + cfg.time_budget
                         if cfg.time_budget is not None else None)
        self.paths = enumerate_paths(g, cfg, self.deadline)
        self.num = len(self.paths)
        self.m = g.m
        self.path_edges = [[g.edge_index[e] for e in map(normalize_edge, vs, vs[1:])]
                           for vs in self.paths]
        self.path_masks = [sum(1 << e for e in ids) for ids in self.path_edges]
        self.path_lens = list(map(len, self.path_edges))
        # Candidates are sorted by length, so the last is the longest of every
        # non-empty suffix; past the last candidate it only overestimates.
        self.max_len = max(self.path_lens, default=0)
        # common_after[t][e] is the AND of the candidates from t on through e
        # (-1 while none is), i.e. the edges f that no candidate from t on
        # separates from e.  through[e] is the bitset of the candidates that
        # hold e.
        self.common_after = [[-1] * self.m] * (self.num + 1)
        self.through = [0] * self.m
        for t in range(self.num - 1, -1, -1):
            if t % _CLOCK_STRIDE == 0:
                _check_deadline(self.deadline)
            mask, bit = self.path_masks[t], 1 << t
            self.common_after[t] = common = self.common_after[t + 1].copy()
            for e in self.path_edges[t]:
                common[e] &= mask
                self.through[e] |= bit
        # path_ends[t]: the bitset of candidate t's two end vertices.  lack:
        # the vertices of degree 1 or 2, and lack2: those of degree 2, at
        # which every system ends at least one and two paths.
        self.path_ends = [1 << vs[0] | 1 << vs[-1] for vs in self.paths]
        self.lack = (sum(1 << v for v, d in enumerate(g.degrees) if 1 <= d <= 2),
                     sum(1 << v for v, d in enumerate(g.degrees) if d == 2))
        self.nodes = 0

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes % 512 == 0:
            _check_deadline(self.deadline)

    def solve_depth(self, p: int) -> list[int] | None:
        """First (lexicographically least) feasible index subset of size p."""
        _check_deadline(self.deadline)
        min_total = _min_incidence_total(p, self.m)
        # common[e]: the containment witnesses of e, the edges other than e on
        # every chosen path through e (all of them while none is).
        full = (1 << self.m) - 1
        common = [full ^ (1 << e) for e in range(self.m)]
        num, max_len, tick = self.num, self.max_len, self._tick
        common_after, through = self.common_after, self.through
        masks, path_edges = self.path_masks, self.path_edges
        lens, ends = self.path_lens, self.path_ends
        and_ = int.__and__

        def last_path(common: list[int], next_idx: int) -> int | None:
            # The last path must hold every edge with a containment witness
            # left and avoid that edge's witnesses.  An uncovered edge has
            # every other edge as a witness, so it is held too (for m = 1 the
            # one candidate holds the edge).  Candidates are tried in index
            # order, as one more frame would test them.
            candidates = (1 << num) - (1 << next_idx)
            for held in compress(through, common):
                candidates &= held
            while candidates:
                idx = (candidates & -candidates).bit_length() - 1
                mask = masks[idx]
                if not any(common[e] & mask for e in path_edges[idx]):
                    return idx
                candidates &= candidates - 1
            return None

        tick()
        if p == 1:
            last = last_path(common, 0)
            return None if last is None else [last]
        # One frame per node on the way down: [common, next child index,
        # length total, lack, lack2], where lack and lack2 are the vertices
        # that still lack at least one and two path ends.  Below the root,
        # each frame's path is its parent's next child index less one.
        stack = [[common, 0, 0, *self.lack]]
        while stack:
            frame = stack[-1]
            common, next_idx, total, lack, lack2 = frame
            r = p - len(stack)
            low = min_total - r * max_len - total
            excess = lack.bit_count() + lack2.bit_count() - 2 * r
            for idx in range(next_idx, num):
                tick()
                if lens[idx] < low:
                    continue
                if excess > 0 and (lack & ends[idx]).bit_count() < excess:
                    continue
                # The child's common, the parent's with idx's mask ANDed in on
                # idx's edges, meets common_after[idx + 1] where the parent's
                # meets common_after[idx].
                if any(map(and_, common, common_after[idx])):
                    continue
                child = common.copy()
                mask = masks[idx]
                for e in path_edges[idx]:
                    child[e] &= mask
                if r == 1:
                    last = last_path(child, idx + 1)
                    if last is not None:
                        return [f[1] - 1 for f in stack[:-1]] + [idx, last]
                    continue
                frame[1] = idx + 1
                held = ends[idx]
                stack.append([child, idx + 1, total + lens[idx],
                              lack & ~held | lack2 & held, lack2 & ~held])
                break
            else:
                stack.pop()
        return None


def exact_ssp(g: Graph, cfg: OracleConfig = DEFAULT_CONFIG) -> OracleResult:
    """Minimum size of a strongly separating path system, with a witness.

    Inconclusive searches (path budget or time budget exhausted) return the
    best known interval and no witness instead of raising.
    """
    _check_limits(g, cfg)
    if g.m == 0:
        raise UnsupportedGraphError("exact search needs at least one edge")
    start = time.monotonic()
    p = max(max_degree(g), sperner_lower_bound(g.m),
            (sum(d for d in g.degrees if d <= 2) + 1) // 2)
    upper = g.m  # one single-edge path per edge always separates
    search = None
    try:
        search = _Search(g, cfg)
        while p * search.max_len < _min_incidence_total(p, g.m):
            p += 1
        while p <= min(upper, cfg.max_path_budget):
            solution = search.solve_depth(p)
            if solution is not None:
                witness = system_from_sequences(g, (search.paths[i] for i in solution))
                return OracleResult(p, witness, p, p, True,
                                    search.nodes, time.monotonic() - start)
            p += 1
    except _TimeBudget:
        pass
    nodes = search.nodes if search is not None else 0
    return OracleResult(None, None, p, upper, False,
                        nodes, time.monotonic() - start)
