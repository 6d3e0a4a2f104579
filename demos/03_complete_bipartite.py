"""The rotated graceful construction on K_{2,5}.

A graceful labeling of the 2-edge path drives b rotated copies of a zig-zag
path through the small side; each edge lands on exactly two of them, and the
two-path signatures are pairwise distinct, which is exactly strong
separation.  With the maximum degree b as a lower bound, 5 paths is optimal.
"""

from pathsep import (
    build_ssp_complete_bipartite, counting_certificate, expected_path_pair,
    graceful_path_labeling, incidence_profile, verify_strong_separation,
)

a, b = 2, 5
phi = graceful_path_labeling(a)
print(f"graceful labeling of the {a}-edge path: {phi.labels}")
print(f"consecutive differences: "
      f"{[abs(phi.labels[i + 1] - phi.labels[i]) for i in range(a)]}")

system = build_ssp_complete_bipartite(a, b)
print(f"\nthe {b} paths on K_{{{a},{b}}} (u side = 0..{a - 1}, v side = {a}..{a + b - 1}):")
for j, vs in enumerate(system.sequences):
    print(f"  P{j}: {vs}")

profile = incidence_profile(system)
print("\nedge -> containing paths (closed form in brackets):")
for i in range(a):
    for j in range(b):
        actual = profile.paths_for((i, a + j))
        predicted = expected_path_pair(a, b, i, j)
        print(f"  u{i} v{j}: {actual}  [{predicted}]")

print("\nstrong separation:", verify_strong_separation(system).ok)
report = counting_certificate(system, a, b)
print(f"counting certificate: e1={report.e1} e2={report.e2} p={report.p}; "
      f"eq1 slack {report.eq1_slack}, eq2 slack {report.eq2_slack}")
