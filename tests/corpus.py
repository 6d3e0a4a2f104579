"""Shared fixed graph corpus for the test suite.

SMALL_CORPUS: every graph has at most 12 edges (verifier cross-checks).
ORACLE_CORPUS: the subset on which the exhaustive search finishes in
seconds, used for sandwich tests against the builders.
"""

import random

from pathsep import Graph
from pathsep.generators import (
    complete_bipartite, complete_graph, cycle_graph, path_graph,
    prism_graph, cube_graph, star,
)


def disjoint_union(graphs):
    """The graphs side by side, each numbered after the ones before it."""
    edges, offset = [], 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return Graph.from_edges(offset, edges)


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
