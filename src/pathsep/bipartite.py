"""Complete bipartite graphs: construction for a < b/2 and bound formulas.

For K_{a,b} with a < b/2, label the path on vertices 0..a gracefully (vertex
labels injective into {0..a}, consecutive absolute differences a permutation
of {1..a}) and thread b rotated copies through the small side:

    P_j = (v_{phi(0)+j}, u_0, v_{phi(1)+j}, u_1, ..., u_{a-1}, v_{phi(a)+j})

with v-indices mod b.  Each edge u_i v_j then lies in exactly the two paths
P_{(j - phi(i)) mod b} and P_{(j - phi(i+1)) mod b}, and distinctness of the
graceful differences makes any two edges' path pairs distinct, so the b paths
strongly separate.  Since the maximum degree b is always a lower bound, this
pins the minimum to exactly b in that regime.

For a >= b/2 the incidence-counting argument gives the lower bound
(sqrt(6 b/a + 4) - 2) * a.  It equals the max-degree bound b at a = b/2 and
exceeds it beyond, where the paper gives no construction.  The one exception
is K_{1,1}: one edge, which one path separates, where the formula's
sqrt(10) - 2 > 1 is no bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import LimitExceededError, UnsupportedGraphError
from .generators import MAX_REQUESTED, complete_bipartite
from .systems import PathSystem, system_from_sequences

MAX_DEGREE_SOURCE = "max-degree"
CONSTRUCTION_SOURCE = "rotated-graceful-construction"
COUNTING_SOURCE = "incidence-counting"
SINGLE_PATH_SOURCE = "single-path"

# Largest part size a bound report takes.  Its bounds are floats, and below
# 2**1000 neither b nor the counting bound, at most (sqrt(10) - 2) b,
# overflows one.
MAX_PART_SIZE = 2**1000


@dataclass(frozen=True)
class GracefulLabeling:
    """Vertex labels of the path with ``edge_count`` edges."""

    edge_count: int
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        a = self.edge_count
        if a < 1:
            raise ValueError("labeling needs at least one edge")
        if len(self.labels) != a + 1:
            raise ValueError(f"expected {a + 1} labels, got {len(self.labels)}")
        if sorted(self.labels) != sorted(set(self.labels)) or \
                not all(0 <= x <= a for x in self.labels):
            raise ValueError("labels must be distinct values in 0..edge_count")
        diffs = sorted(abs(self.labels[i + 1] - self.labels[i]) for i in range(a))
        if diffs != list(range(1, a + 1)):
            raise ValueError("consecutive differences must be a permutation of 1..edge_count")


def graceful_path_labeling(a: int) -> GracefulLabeling:
    """The zig-zag graceful labeling of the a-edge path.

    Even a: a/2, a/2-1, a/2+1, a/2-2, ...  ending  a-1, 0, a.
    Odd  a: (a+1)/2, (a-1)/2, (a+3)/2, ... ending  1, a, 0.

    Consecutive differences come out as 1, 2, ..., a in order.
    """
    if a < 1:
        raise ValueError("the path needs at least one edge")
    high = (a + 1) // 2
    return GracefulLabeling(a, tuple(high + i // 2 if i % 2 == 0 else high - 1 - i // 2
                                     for i in range(a + 1)))


def build_ssp_complete_bipartite(a: int, b: int) -> PathSystem:
    """Exactly b paths, each with 2a edges, strongly separating K_{a,b}.

    Vertex numbering: u_i = i for i < a, v_t = a + t.  Requires a < b/2
    strictly; at a = b/2 the two-path membership map is no longer injective.
    """
    if a < 1:
        raise UnsupportedGraphError("the small side needs at least one vertex")
    if 2 * a >= b:
        raise UnsupportedGraphError(
            f"construction requires a < b/2; got a={a}, b={b}")
    graph = complete_bipartite(a, b)
    labels = graceful_path_labeling(a).labels
    # The labels are distinct and below b, so no rotation revisits a vertex;
    # system_from_sequences checks each path all the same.
    seq = [0] * (2 * a + 1)
    seq[1::2] = range(a)
    paths = []
    for j in range(b):
        seq[::2] = [a + (x + j) % b for x in labels]
        paths.append(tuple(seq))
    return system_from_sequences(graph, paths)


def expected_path_pair(a: int, b: int, i: int, j: int) -> tuple[int, int]:
    """Closed-form indices of the two paths through edge u_i v_j, sorted."""
    phi = graceful_path_labeling(a)
    pair = sorted({(j - phi.labels[i]) % b, (j - phi.labels[i + 1]) % b})
    if len(pair) != 2:
        raise AssertionError("membership map collapsed; labeling is not graceful")
    return pair[0], pair[1]


# ---------------------------------------------------------------------------
# Bounds.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    a: int
    b: int
    lower: float
    upper: float | None
    exact: int | None
    lower_source: str
    upper_source: str | None


def lower_bound_formula(a: float, b: float) -> float:
    """(sqrt(6 b/a + 4) - 2) * a; equals b at a = b/2 and (sqrt(10)-2)b at a = b."""
    if a <= 0 or b < a:
        raise ValueError("requires 0 < a <= b")
    return (math.sqrt(6.0 * (b / a) + 4.0) - 2.0) * a


def bipartite_bounds(a: int, b: int) -> BoundReport:
    """Bound report for K_{a,b}, a <= b.

    Below the b/2 threshold the value is exactly b (construction from above,
    maximum degree from below).  K_{1,1} takes exactly 1 (its one edge as a
    single path).  From b/2 on, only the counting lower bound is known
    otherwise; the report leaves the upper end open.
    """
    if a < 1 or b < 1:
        raise UnsupportedGraphError("part sizes must be positive")
    if a > b:
        raise UnsupportedGraphError(f"orient the parts so that a <= b (got a={a} > b={b})")
    if b > MAX_PART_SIZE:
        raise LimitExceededError("part sizes above 2**1000 are not supported")
    if 2 * a < b:
        return BoundReport(a, b, float(b), float(b), b,
                           lower_source=MAX_DEGREE_SOURCE,
                           upper_source=CONSTRUCTION_SOURCE)
    if b == 1:
        return BoundReport(1, 1, 1.0, 1.0, 1, lower_source=MAX_DEGREE_SOURCE,
                           upper_source=SINGLE_PATH_SOURCE)
    return BoundReport(a, b, lower_bound_formula(a, b), None, None,
                       lower_source=COUNTING_SOURCE, upper_source=None)


def piecewise_lower_bound(a: float, b: float) -> float:
    """The plotted lower-bound curve: b below b/2, the formula from there on."""
    if 2 * a < b:
        return float(b)
    return lower_bound_formula(a, b)


def bounds_table(b: int, steps: int = 1) -> list[tuple[float, float]]:
    """Rows (a, lower bound) sweeping a from 1 to b.

    ``steps`` is the number of samples per unit of a; steps=1 gives the
    integer sweep with b rows.  More than MAX_REQUESTED rows are refused.
    """
    if b < 2:
        raise UnsupportedGraphError("table needs b >= 2")
    if steps < 1:
        raise UnsupportedGraphError("steps must be at least 1")
    count = (b - 1) * steps + 1
    if count > MAX_REQUESTED:
        raise LimitExceededError(f"{count} table rows exceed the limit of {MAX_REQUESTED}")
    rows = []
    for t in range(count):
        a = 1 + t / steps
        rows.append((a, piecewise_lower_bound(a, b)))
    return rows


def format_number(x: float) -> str:
    """Integral values below 2**53 in magnitude, which a float holds exactly,
    print as integers; everything else gets 6 significant digits
    (round-half-even, the float formatting default)."""
    if abs(x) < 2**53 and x == int(x):
        return str(int(x))
    return f"{x:.6g}"


def format_bounds_csv(rows: list[tuple[float, float]]) -> str:
    lines = ["a,lower_bound"]
    lines.extend(f"{format_number(a)},{format_number(v)}" for a, v in rows)
    return "\n".join(lines) + "\n"
