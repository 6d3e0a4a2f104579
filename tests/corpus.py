"""Shared fixed graph corpus and checkers for the test suite.

SMALL_CORPUS: every graph has at most 12 edges (verifier cross-checks).
ORACLE_CORPUS: the subset on which the exhaustive search finishes in
seconds, used for sandwich tests against the builders.
replay_removal_plan: the independent check of a removal plan's steps.
reach: the breadth-first search the tests use as a reference.
canonical_form: a host-independent comparison key for path systems.
checked_system: the reference for ``system_from_sequences``.
path_edges, path_length, path_ends: what the tests read off a path's vertices.
garbage_left_by: the reference cycles a call leaves to the collector.
traced_memory: the bytes a call retains and peaks at, under tracemalloc.
"""

import gc
import random
import tracemalloc
from collections import deque

from pathsep import Graph, graphs
from pathsep.graphs import DEGREE1_SAFE, DEGREE2_CUT, DEGREE2_SAFE, normalize_edge
from pathsep.systems import PathSystem
from pathsep.generators import (
    complete_bipartite, complete_graph, cycle_graph, path_graph,
    prism_graph, cube_graph, star,
)


def disjoint_union(parts):
    """The graphs side by side, each numbered after the ones before it."""
    edges, offset = [], 0
    for g in parts:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return Graph.from_edges(offset, edges)


def reach(adj, start, seen):
    """Breadth-first search from ``start`` over ``adj``, skipping ``seen``.

    Yields each vertex it reaches, ``start`` first, and adds it to ``seen``;
    the caller may stop early.
    """
    seen.add(start)
    queue = deque([start])
    while queue:
        x = queue.popleft()
        yield x
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)


_STEP_DEGREE = {DEGREE1_SAFE: 1, DEGREE2_SAFE: 2, DEGREE2_CUT: 2}


def replay_removal_plan(g, plan, splits=None):
    """Replay a plan, checking every recorded invariant; returns final components.

    Raises AssertionError on any violation: a degree other than the step
    kind's (1 for a degree-1 step, 2 for a degree-2 one, none for an unknown
    kind), a safe step that disconnects its component, or a cut step that
    does not produce exactly two components of size at least 3.  When
    ``splits`` is a dict, it maps each cut vertex to the two sides its
    removal left, each sorted, ordered by smallest vertex.
    """
    peeler = graphs._Peeler(g)
    for step in plan.order:
        v = step.vertex
        if not peeler.alive[v]:
            raise AssertionError(f"vertex {v} removed twice")
        if len(peeler.adj[v]) != _STEP_DEGREE.get(step.kind):
            raise AssertionError(f"vertex {v} has degree {len(peeler.adj[v])} "
                                 f"at its step of kind {step.kind!r}")
        if tuple(sorted(peeler.adj[v])) != step.neighbors:
            raise AssertionError(f"stale neighbors for {v}")
        # Removing a degree-1 vertex never disconnects its component.
        if step.kind == DEGREE2_SAFE and not peeler.stays_connected_without(v):
            raise AssertionError(f"safe step at {v} disconnected its component")
        peeler.remove(v)
        if step.kind == DEGREE2_CUT:
            sides = sorted({tuple(sorted(reach(peeler.adj, w, set())))
                            for w in step.neighbors})
            if len(sides) != 2:
                raise AssertionError(f"cut step at {v} produced {len(sides)} components")
            if any(len(s) < 3 for s in sides):
                raise AssertionError(f"cut step at {v} produced a tiny side")
            if splits is not None:
                splits[v] = tuple(sides)
    return peeler.components()


def canonical_form(system):
    """The system's paths, each with its smaller end first, sorted: a
    host-independent comparison key."""
    return tuple(sorted(vs if vs[0] <= vs[-1] else vs[::-1]
                        for vs in (p.vertices for p in system.paths)))


def checked_system(graph, seqs):
    """The system of ``seqs`` on ``graph``, each check made on its own: every
    sequence in turn needs two vertices and no repeated one, and the first
    bad one raises its ValueError; only then does ``PathSystem`` look for a
    non-edge."""
    checked = []
    for seq in seqs:
        vs = tuple(seq)
        if len(vs) < 2:
            raise ValueError("a path needs at least two vertices")
        if len(set(vs)) != len(vs):
            raise ValueError(f"repeated vertex in path {vs}")
        checked.append(vs)
    return PathSystem(graph, tuple(checked))


def path_edges(path):
    """The edges of ``path`` in path order, each with its smaller end first."""
    vs = path.vertices
    return tuple(normalize_edge(u, v) for u, v in zip(vs, vs[1:]))


def path_length(path):
    """The number of edges of ``path``."""
    return len(path.vertices) - 1


def path_ends(path):
    """The first and last vertex of ``path``."""
    return path.vertices[0], path.vertices[-1]


def garbage_left_by(run):
    """The objects the cyclic collector frees after ``run()``, with the
    collector held off while it runs, as the command line holds it."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def bowtie():
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def paw():
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def bull():
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])


def chorded_c4():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])


def triangle_pendant():
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])


def bridged_gadgets():
    """The smallest graph whose peeling needs a genuine cut step: two
    one-degree-2-vertex blocks joined through a single bridge vertex."""
    return Graph.from_edges(11, [
        (0, 1), (0, 4), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4),
        (0, 5), (5, 6),
        (6, 7), (6, 10), (7, 8), (7, 9), (8, 9), (8, 10), (9, 10),
    ])


def gadget_chain(seed):
    """2 to 6 copies of :func:`bridged_gadgets`, each joined to the next
    through a path of 1 to 3 new vertices between seeded attachment points,
    under a seeded relabelling.  Every vertex of degree 2 at the start is a
    cut vertex, so the removal plan takes many cut steps."""
    rng = random.Random(seed)
    base = bridged_gadgets()
    edges, n, prev = [], 0, None
    for _ in range(rng.randint(2, 6)):
        copy = n
        edges.extend((u + copy, v + copy) for u, v in base.edges)
        n += base.n
        if prev is not None:
            joint = list(range(n, n + rng.randint(1, 3)))
            n += len(joint)
            chain = [prev] + joint + [copy + rng.randrange(base.n)]
            edges.extend(zip(chain, chain[1:]))
        prev = copy + rng.randrange(base.n)
    label = list(range(n))
    rng.shuffle(label)
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in edges])


def gadget_line(k):
    """k copies of :func:`bridged_gadgets` in a row, vertex 10 of each joined
    to vertex 0 of the next through a path of 2 new vertices: 13k - 2
    vertices.  At the start every degree-2 vertex is a cut vertex, and the
    removal plan takes k cut steps, one per copy's bridge vertex."""
    base, edges = bridged_gadgets(), []
    for i in range(k):
        at = 13 * i
        edges.extend((u + at, v + at) for u, v in base.edges)
        if i + 1 < k:
            edges.extend([(at + 10, at + 11), (at + 11, at + 12), (at + 12, at + 13)])
    return Graph.from_edges(13 * k - 2, edges)


def fan5():
    """Path 0-1-2-3 plus an apex joined to every path vertex."""
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3),
                                (0, 4), (1, 4), (2, 4), (3, 4)])


SMALL_CORPUS = [
    ("K2", path_graph(2)),
    ("P3", path_graph(3)),
    ("P4", path_graph(4)),
    ("P5", path_graph(5)),
    ("triangle", complete_graph(3)),
    ("paw", paw()),
    ("bull", bull()),
    ("bowtie", bowtie()),
    ("chorded_c4", chorded_c4()),
    ("C4", cycle_graph(4)),
    ("C5", cycle_graph(5)),
    ("C6", cycle_graph(6)),
    ("K4", complete_graph(4)),
    ("K13", star(3)),
    ("K14", star(4)),
    ("K23", complete_bipartite(2, 3)),
    ("K25", complete_bipartite(2, 5)),
    ("fan5", fan5()),
    ("prism", prism_graph()),
    ("K33", complete_bipartite(3, 3)),
    ("cube", cube_graph()),
]

ORACLE_CORPUS = [
    ("K2", path_graph(2)),
    ("P3", path_graph(3)),
    ("P4", path_graph(4)),
    ("P5", path_graph(5)),
    ("triangle", complete_graph(3)),
    ("paw", paw()),
    ("bull", bull()),
    ("bowtie", bowtie()),
    ("chorded_c4", chorded_c4()),
    ("C4", cycle_graph(4)),
    ("C5", cycle_graph(5)),
    ("C6", cycle_graph(6)),
    ("K4", complete_graph(4)),
    ("K13", star(3)),
    ("K14", star(4)),
    ("K23", complete_bipartite(2, 3)),
    ("K25", complete_bipartite(2, 5)),
    ("fan5", fan5()),
]


def traced_memory(fn, *args):
    """``fn(*args)`` and the (retained, peak) bytes it allocated, traced.

    A tuple taken from the interpreter's free lists is not traced, and what
    ran before decides how full they are.  So an untraced call runs first
    (it also fills the caches of the arguments, such as ``g.adjacency``),
    the small-tuple free lists are emptied and held empty, and no
    collection runs while tracing.
    """
    fn(*args)
    gc.collect()
    held = [(i,) for i in range(2100)] + [(i, i) for i in range(2100)]
    held += [(i, i, i) for i in range(2100)]
    gc.disable()
    tracemalloc.start()
    try:
        result = fn(*args)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    del held
    return result, retained, peak
