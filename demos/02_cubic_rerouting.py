"""The re-routing step on the Petersen graph.

Withhold an edge uv outside every triangle, build the system for the rest,
then replace the two 2-edge paths centered at u and v with the two 3-edge
paths through uv.  The withheld edge ends up covered, and the four edges
around it stay separated by the paths that were extended to u and v.
"""

from pathsep import (
    build_ssp_cubic, build_ssp_cubic_minus_edge, find_non_triangle_edge,
    incidence_profile, verify_strong_separation,
)
from pathsep.generators import petersen_graph

g = petersen_graph()
edge = find_non_triangle_edge(g)
print(f"Petersen graph: n={g.n}, m={g.m}; withholding edge {edge}")

reduced = build_ssp_cubic_minus_edge(g, edge)
print(f"\nsystem for the graph minus {edge} ({len(reduced)} paths):")
for vs in reduced.sequences:
    marker = " <- 2-edge path" if len(vs) == 3 else ""
    print(f"  {vs}{marker}")

final = build_ssp_cubic(g)
print(f"\nafter re-routing ({len(final)} paths):")
for vs in final.sequences:
    u, v = edge
    middle = len(vs) == 4 and {vs[1], vs[2]} == {u, v}
    print(f"  {vs}{' <- re-routed through ' + str(edge) if middle else ''}")

profile = incidence_profile(final)
print(f"\nthe withheld edge now lies on paths {profile.paths_for(edge)}")
print("strong separation:", verify_strong_separation(final).ok)
