"""Walk through the inductive construction on a random 2-degenerate graph.

The builder peels the graph down to 3-vertex cores, seeds each core with a
3-path system, and replays the peeling in reverse; the result always has
exactly n paths, every edge on exactly two of them, and every vertex an
endpoint of exactly two of them.
"""

from pathsep import (
    build_ssp_2degenerate, removal_plan_2degenerate, replay_trace,
    verify_strong_separation, verify_structural_properties,
)
from pathsep.generators import random_2degenerate

g = random_2degenerate(12, seed=7)
print(f"graph: {g.n} vertices, {g.m} edges")
print(f"edges: {g.edges}")

plan = removal_plan_2degenerate(g)
print("\npeeling order (vertex, case):")
for step in plan.order:
    print(f"  remove {step.vertex:2d}  [{step.kind}]  neighbors {step.neighbors}")

system, trace = build_ssp_2degenerate(g)
print(f"\nseed cores: {[(b.component, b.shape) for b in trace.base_cases]}")
print(f"\nthe {len(system)} paths:")
for i, vs in enumerate(system.sequences):
    print(f"  P{i}: {vs}")

print("\nstrong separation:", verify_strong_separation(system).ok)
print("structural properties (edges twice, endpoints twice):",
      verify_structural_properties(system).ok)

replayed = replay_trace(g, trace)
print("trace replay reproduces the system:",
      replayed.sequences == system.sequences)
