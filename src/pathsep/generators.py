"""Deterministic graph constructors used by tests, demos, and the CLI.

Every random family is driven by a single seed through ``random.Random``
(the stdlib Mersenne Twister), so identical (family, parameters, seed)
invocations are byte-reproducible within this implementation.
"""

from __future__ import annotations

import random

from .errors import LimitExceededError, UnsupportedGraphError
from .graphs import MAX_VERTICES, Graph, is_connected

# Cap on the sizes that command-line integers alone request: the edges of
# K_{a,b} and of the random families, and bounds table rows.  A random
# 2-degenerate graph on n vertices has at most 2n - 3 edges and a cubic one
# 3n/2.  Measured peaks, with tracemalloc on Python 3.11: `build --bipartite`
# (build, verify and format) takes at most 508 B per edge (on K_{1,10^5}),
# the K_{a,b} graph alone 104 B per edge, a bounds table with its CSV 219 B
# per row, and a random 2-degenerate or cubic graph with its text 326 or
# 337 B per vertex.  So the worst request within the cap peaks near 0.6 GB.
MAX_REQUESTED = 10**6


def _check_size(n: int, m: int = 0) -> None:
    """Refuse a graph of more than MAX_VERTICES vertices, as
    :func:`pathsep.graphs.parse_graph` refuses such a header, or of more than
    MAX_REQUESTED edges, before anything is sized by it."""
    if n > MAX_VERTICES:
        raise LimitExceededError(f"{n} vertices exceed the limit of {MAX_VERTICES}")
    if m > MAX_REQUESTED:
        raise LimitExceededError(f"{m} edges exceed the limit of {MAX_REQUESTED}")


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with the u side on ids 0..a-1 and the v side on ids a..a+b-1."""
    if a < 1 or b < 1:
        raise ValueError("both sides need at least one vertex")
    _check_size(a + b, a * b)
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def star(leaves: int) -> Graph:
    return complete_bipartite(1, leaves)


def prism_graph() -> Graph:
    # Two triangles {0,1,2} and {3,4,5} joined by a perfect matching.
    return Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                                (0, 3), (1, 4), (2, 5)])


def cube_graph() -> Graph:
    # Vertices are 3-bit ids; edges join ids differing in exactly one bit.
    edges = []
    for v in range(8):
        for bit in (1, 2, 4):
            w = v ^ bit
            if v < w:
                edges.append((v, w))
    return Graph.from_edges(8, edges)


def petersen_graph() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))        # outer cycle
        edges.append((i, i + 5))              # spokes
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
    return Graph.from_edges(10, edges)


NAMED_GRAPHS = {
    "k4": lambda: complete_graph(4),
    "k33": lambda: complete_bipartite(3, 3),
    "petersen": petersen_graph,
    "prism": prism_graph,
    "cube": cube_graph,
}


def named_graph(name: str) -> Graph:
    key = name.lower()
    if key not in NAMED_GRAPHS:
        known = ", ".join(sorted(NAMED_GRAPHS))
        raise UnsupportedGraphError(f"unknown named graph {name!r} (known: {known})")
    return NAMED_GRAPHS[key]()


def random_2degenerate(n: int, seed: int) -> Graph:
    """Connected 2-degenerate graph grown from a triangle.

    Each new vertex attaches to 1 or 2 uniformly chosen existing vertices, so
    the reverse insertion order is an elimination order with degrees <= 2 and
    the result is connected and 2-degenerate by construction.
    """
    if n < 3:
        raise ValueError("generator needs n >= 3")
    _check_size(n, 2 * n - 3)
    rng = random.Random(seed)
    edges = [(0, 1), (0, 2), (1, 2)]
    for v in range(3, n):
        count = rng.randint(1, 2)
        for u in rng.sample(range(v), count):
            edges.append((u, v))
    return Graph.from_edges(n, edges)


MAX_PAIRING_TRIES = 2000  # pairings random_cubic draws before it gives up


def random_cubic(n: int, seed: int) -> Graph:
    """Connected 3-regular graph on n vertices via the pairing model.

    Retries the pairing until it is simple and connected; the retry stream is
    part of the seeded determinism.  n must be even and at least 4.
    """
    if n < 4 or n % 2:
        raise ValueError("a cubic graph needs an even vertex count >= 4")
    _check_size(n, 3 * n // 2)
    rng = random.Random(seed)
    for _ in range(MAX_PAIRING_TRIES):
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        try:
            g = Graph.from_edges(n, zip(stubs[::2], stubs[1::2]))
        except ValueError:  # a self-loop
            continue
        if g.m == 3 * n // 2 and is_connected(g):
            return g
    raise RuntimeError(f"no simple connected pairing found in {MAX_PAIRING_TRIES} tries")
