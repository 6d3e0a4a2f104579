"""Strongly separating path systems for sparse graph classes.

A collection of paths strongly separates a graph when for every ordered pair
of distinct edges some path contains the first and avoids the second.  The
package provides:

* constructions with exactly n paths for connected 2-degenerate graphs, at
  most n for connected cubic graphs other than K4, n + k for subcubic graphs
  with k components equal to K4, and exactly b for K_{a,b} with a < b/2;
* a verification stack (incidence profiles, two independent verifiers,
  structural property checks, counting certificates);
* an exact branch-and-bound oracle for desk-size graphs;
* deterministic graph generators and a command-line front end.
"""

__version__ = "0.1.0"

from .bipartite import (
    BoundReport, GracefulLabeling, bipartite_bounds, bounds_table,
    build_ssp_complete_bipartite, expected_path_pair, format_bounds_csv,
    graceful_path_labeling, lower_bound_formula, piecewise_lower_bound,
)
from .cubic import (
    ComponentReport, DispatchReport, K4_CANNED, build_ssp_auto, build_ssp_cubic,
    build_ssp_outerplanar_entry, build_ssp_subcubic,
)
from .degenerate import (
    BaseCase, ConstructionTrace, TraceStep, build_ssp_2degenerate,
    build_ssp_cubic_minus_edge, replay_trace,
)
from .errors import (
    CertificateError, GraphFormatError, InvalidSystemError, LimitExceededError,
    PathsepError, UnsupportedGraphError,
)
from .generators import (
    complete_bipartite, complete_graph, cube_graph, cycle_graph, named_graph,
    path_graph, petersen_graph, prism_graph, random_2degenerate, random_cubic, star,
)
from .graphs import (
    Graph, RemovalStep, VertexRemovalPlan, classify_component,
    connected_components, find_non_triangle_edge, induced_subgraph,
    is_2_degenerate, is_connected, load_graph, max_degree, parse_graph,
    removal_plan_2degenerate, serialize_graph,
)
from .oracle import (
    OracleConfig, OracleResult, enumerate_paths, exact_ssp, sperner_lower_bound,
)
from .systems import (
    CertificateReport, IncidenceProfile, Path, PathSystem, Verdict,
    counting_certificate, format_paths, format_paths_json, incidence_profile,
    load_paths, parse_paths, system_from_sequences, verify_by_pair_scan,
    verify_strong_separation, verify_structural_properties,
)
