"""Command-line front end.

Subcommands: build, verify, exact, bounds, gen, profile.  Exit codes:
0 success/PASS, 1 verification FAIL, 2 usage, parse or file error, 3
unsupported graph class, 4 resource limits, 5 internal error (an internal
invariant failed, or a built system failed its own re-verification; never
expected).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
import time

from . import __version__
from .bipartite import (
    bipartite_bounds, bounds_table, build_ssp_complete_bipartite,
    format_bounds_csv, format_number,
)
from .cubic import build_ssp_auto, build_ssp_cubic, build_ssp_outerplanar_entry, build_ssp_subcubic
from .errors import CertificateError, LimitExceededError, PathsepError, UnsupportedGraphError
from .generators import (
    NAMED_GRAPHS, complete_bipartite, named_graph, random_2degenerate, random_cubic,
)
from .graphs import load_graph, serialize_graph
from .oracle import OracleConfig, exact_ssp
from .systems import (
    counting_certificate, format_paths, incidence_profile, load_paths,
    verify_strong_separation, verify_structural_properties,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_LIMIT = 4
EXIT_INTERNAL = 5


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


class _Usage(Exception):
    """A missing or conflicting option: ``main`` prints it and exits 2."""


def _emit_manifest(args, outcome: dict) -> None:
    flags = {k: v for k, v in vars(args).items()
             if k not in ("func", "manifest") and not callable(v)}
    manifest = {
        "command": args.command,
        "inputs": [v for v in (getattr(args, "graph", None),
                               getattr(args, "paths", None),
                               getattr(args, "input", None)) if v],
        "seed": getattr(args, "seed", None),
        "flags": flags,
        "version": __version__,
        "outcome": outcome,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    with open(args.manifest, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

_METHOD_LABEL = {
    "degenerate": "2-degenerate construction (at most n paths)",
    "cubic": "cubic re-routing (at most n paths)",
    "subcubic": "per-component dispatch (at most n + k paths)",
    "auto": "per-component dispatch",
    "bipartite": "rotated graceful construction (exactly b paths)",
}


def _cmd_build(args) -> tuple[int, dict]:
    method = "bipartite" if args.bipartite else args.method
    report = None
    if method == "bipartite":
        if args.a is None or args.b is None:
            raise _Usage("build: --a and --b are required for the bipartite method")
        system = build_ssp_complete_bipartite(args.a, args.b)
    else:
        if args.input is None:
            raise _Usage("build: -i/--input is required")
        g = load_graph(args.input)
        if method == "degenerate":
            system = build_ssp_outerplanar_entry(g)
        elif method == "cubic":
            system = build_ssp_cubic(g)
        elif method == "subcubic":
            system, report = build_ssp_subcubic(g)
        else:
            system, report = build_ssp_auto(g)
    verdict = verify_strong_separation(system)
    if not verdict.ok:
        raise AssertionError(f"build output failed re-verification: {verdict.detail}")
    _write_output(format_paths(system), args.out)
    print(f"paths: {len(system)}")
    print(f"method: {method} [{_METHOD_LABEL[method]}]")
    if report is not None:
        for comp in report.components:
            print(f"  component min-vertex {comp.vertices[0]}: {comp.classification} "
                  f"via {comp.builder}, {comp.path_count} paths")
    return EXIT_OK, {"paths": len(system)}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> tuple[int, dict]:
    g = load_graph(args.graph)
    system = load_paths(args.paths, g)
    verdict = verify_strong_separation(system)
    if verdict.ok and args.strict:
        verdict = verify_structural_properties(system)
    word = "PASS" if verdict.ok else "FAIL"
    if args.json:
        payload = {"verdict": word,
                   "kind": verdict.kind,
                   "witness": list(verdict.witness) if verdict.witness else None}
        print(json.dumps(payload))
    elif verdict.ok:
        print(f"PASS ({len(system)} paths, {g.m} edges)")
    else:
        print(f"FAIL [{verdict.kind}]: {verdict.detail}")
    return (EXIT_OK if verdict.ok else EXIT_FAIL), {"verdict": word}


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

def _cmd_exact(args) -> tuple[int, dict]:
    g = load_graph(args.graph)
    if args.force:
        cfg = OracleConfig(max_vertices=max(g.n, 1), max_edges=max(g.m, 1),
                           max_path_budget=max(g.m, 1), time_budget=args.time_budget)
    else:
        cfg = OracleConfig(max_vertices=args.max_vertices, max_edges=args.max_edges,
                           max_path_budget=args.max_paths, time_budget=args.time_budget)
    result = exact_ssp(g, cfg)
    # value is None exactly when the search is inconclusive.
    if args.json:
        print(json.dumps({"ssp": result.value, "lower": result.lower,
                          "upper": result.upper, "conclusive": result.conclusive}))
    elif result.conclusive:
        print(f"ssp = {result.value}")
    else:
        print(f"inconclusive: ssp in [{result.lower}, {result.upper}]")
    if not result.conclusive:
        return EXIT_LIMIT, {"interval": [result.lower, result.upper]}
    if args.out:
        _write_output(format_paths(result.witness), args.out)
    return EXIT_OK, {"ssp": result.value}


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _cmd_bounds(args) -> tuple[int, dict]:
    if args.table:
        if args.b is None:
            raise _Usage("bounds: --table needs --b")
        if args.steps < 1:
            raise _Usage("bounds: --steps must be at least 1")
        print(format_bounds_csv(bounds_table(args.b, args.steps)), end="")
        return EXIT_OK, {}
    if args.a is None or args.b is None:
        raise _Usage("bounds: --a and --b are required (or use --table)")
    report = bipartite_bounds(args.a, args.b)
    if args.json:
        print(json.dumps({"lower": report.lower, "upper": report.upper,
                          "exact": report.exact}))
    elif report.exact is not None:
        print(f"exact = {report.exact} (lower: {report.lower_source}, "
              f"upper: {report.upper_source})")
    else:
        print(f"lower = {format_number(report.lower)} ({report.lower_source}); "
              f"upper unknown")
    return EXIT_OK, {}


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> tuple[int, dict]:
    if args.family in ("two-degenerate", "cubic") and args.n is None:
        raise _Usage(f"gen: -n is required for {args.family}")
    if args.family == "two-degenerate":
        g = random_2degenerate(args.n, args.seed)
    elif args.family == "cubic":
        g = random_cubic(args.n, args.seed)
    elif args.family == "complete-bipartite":
        if args.a is None or args.b is None:
            raise _Usage("gen: --a and --b are required for complete-bipartite")
        g = complete_bipartite(args.a, args.b)
    else:
        if not args.name:
            raise _Usage("gen: --name is required for the named family")
        g = named_graph(args.name)
    _write_output(serialize_graph(g), args.out)
    if args.out and args.out != "-":
        print(f"wrote {g.n} vertices, {g.m} edges to {args.out}")
    return EXIT_OK, {"n": g.n, "m": g.m}


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def _cmd_profile(args) -> tuple[int, dict]:
    if (args.a is None) != (args.b is None):
        raise _Usage("profile: --a and --b go together")
    g = load_graph(args.graph)
    system = load_paths(args.paths, g)
    profile = incidence_profile(system)
    print(f"m = {g.m}, p = {len(system)}")
    hist = ", ".join(f"e_{i}={count}" for i, count in enumerate(profile.histogram) if count)
    print(hist if hist else "no edges")
    if args.a is not None:
        report = counting_certificate(system, args.a, args.b)
        print(f"eq1: {report.eq1_lhs} <= {report.eq1_rhs} (slack {report.eq1_slack})")
        print(f"eq2: {report.eq2_lhs} <= {format_number(report.eq2_rhs)} "
              f"(slack {format_number(report.eq2_slack)})")
    return EXIT_OK, {}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathsep",
        description="Build, verify, and measure strongly separating path systems.")
    parser.add_argument("--version", action="version", version=f"pathsep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_manifest(p):
        p.add_argument("--manifest", metavar="FILE",
                       help="write a JSON run manifest to FILE")

    p = sub.add_parser("build", help="construct a separating path system")
    p.add_argument("-i", "--input", help="graph file")
    p.add_argument("-m", "--method", default="auto",
                   choices=["auto", "degenerate", "cubic", "subcubic", "bipartite"])
    p.add_argument("--bipartite", action="store_true",
                   help="shorthand for --method bipartite")
    p.add_argument("--a", type=int, help="small side of K_{a,b}")
    p.add_argument("--b", type=int, help="large side of K_{a,b}")
    p.add_argument("-o", "--out", help="path-system output file (default stdout)")
    add_manifest(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="check strong separation of a path system")
    p.add_argument("graph")
    p.add_argument("paths")
    p.add_argument("--strict", action="store_true",
                   help="also require every edge in exactly 2 paths and every "
                        "vertex an endpoint of exactly 2 paths")
    p.add_argument("--json", action="store_true")
    add_manifest(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("exact", help="exact minimum system size (small graphs)")
    p.add_argument("graph")
    p.add_argument("--max-vertices", type=int, default=10)
    p.add_argument("--max-edges", type=int, default=16)
    p.add_argument("--max-paths", type=int, default=12, help="search ceiling on p")
    p.add_argument("--time-budget", type=float, default=None, metavar="SECONDS")
    p.add_argument("--force", action="store_true", help="lift the size limits")
    p.add_argument("-o", "--out", help="write the witness system here")
    p.add_argument("--json", action="store_true")
    add_manifest(p)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("bounds", help="bound report or CSV table for K_{a,b}")
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--table", action="store_true", help="emit the CSV sweep over a")
    p.add_argument("--steps", type=int, default=1, help="samples per unit of a")
    p.add_argument("--json", action="store_true")
    add_manifest(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("gen", help="emit a deterministic test graph")
    p.add_argument("-f", "--family", required=True,
                   choices=["two-degenerate", "cubic", "complete-bipartite", "named"])
    p.add_argument("-n", type=int, help="vertex count")
    p.add_argument("-s", "--seed", type=int, default=0)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--name", help=f"one of: {', '.join(sorted(NAMED_GRAPHS))}")
    p.add_argument("-o", "--out", help="output file (default stdout)")
    add_manifest(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("profile", help="edge-multiplicity histogram of a system")
    p.add_argument("graph")
    p.add_argument("paths")
    p.add_argument("--a", type=int, help="with --b: also run the K_{a,b} certificate")
    p.add_argument("--b", type=int)
    add_manifest(p)
    p.set_defaults(func=_cmd_profile)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.  The cyclic collector stays
    off while it runs: a command leaves no reference cycles behind (only
    argparse's help formatters, once, when the parser is built), so the
    collector would only walk live objects.  The caller's collector state is
    given back, however the command ends."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code, outcome = args.func(args)
        if args.manifest:
            _emit_manifest(args, {"exit_code": code, **outcome})
        return code
    except _Usage as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except UnsupportedGraphError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except LimitExceededError as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except CertificateError as exc:
        print(f"certificate failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (PathsepError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    _console()
