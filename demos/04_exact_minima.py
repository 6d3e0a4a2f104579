"""Exact minima on small graphs, sandwiched against the constructions.

The oracle enumerates every simple path and searches subsets in increasing
size, so its answers are ground truth; the builders can only sit at or above
them, and below their own class guarantees.
"""

from pathsep import build_ssp_subcubic, exact_ssp, verify_strong_separation
from pathsep.generators import (
    complete_bipartite, complete_graph, cycle_graph, path_graph,
)

cases = [
    ("2-edge path", path_graph(3)),
    ("triangle", complete_graph(3)),
    ("4-cycle", cycle_graph(4)),
    ("K4", complete_graph(4)),
    ("star K_{1,3}", complete_bipartite(1, 3)),
]

print(f"{'graph':<14} {'exact':>5} {'builder':>8} {'bound':>6}")
for name, g in cases:
    result = exact_ssp(g)
    system, report = build_ssp_subcubic(g)
    bound = g.n + report.k4_components
    assert result.value <= len(system) <= bound
    print(f"{name:<14} {result.value:>5} {len(system):>8} {bound:>6}")

print("\nwitness for K4 (no 4-path system exists):")
for vs in exact_ssp(complete_graph(4)).witness.sequences:
    print(f"  {vs}")
print("witness verifies:",
      verify_strong_separation(exact_ssp(complete_graph(4)).witness).ok)
