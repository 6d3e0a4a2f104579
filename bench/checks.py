"""Semantic checks on the outcome of each operation, run outside the timed
region.  They rely on the benchmark's own reference kernel, not on the
verifier under test (except ``verify_by_pair_scan`` for the tiny exact
witnesses, which is the library's designated reference)."""

from __future__ import annotations

import json
import math

from workloads import path_edges


def reference_verdict(edges, paths):
    """(kind, witness) of the strong-separation check, or (None, None) on PASS.

    S(e) is a subset of S(f) exactly when f lies on every path through e, so
    the AND of the edge masks of the paths through e, minus e itself, lists
    every f containing it; its lowest bit is the lexicographically least.
    """
    index = {e: i for i, e in enumerate(edges)}
    through: list[list[int]] = [[] for _ in edges]
    masks = []
    for p, seq in enumerate(paths):
        mask = 0
        for e in path_edges(seq):
            i = index[e]
            through[i].append(p)
            mask |= 1 << i
        masks.append(mask)
    for i, ps in enumerate(through):
        if not ps:
            return "uncovered", (edges[i],)
    for i, ps in enumerate(through):
        common = ~(1 << i)
        for p in ps:
            common &= masks[p]
        if common:
            j = (common & -common).bit_length() - 1
            return "contained", (edges[i], edges[j])
    return None, None


def read_paths(path: str):
    with open(path, encoding="utf-8") as fh:
        return [tuple(int(t) for t in line.split()) for line in fh if line.strip()]


def _bad_path(seq, n, edge_set) -> bool:
    return (len(seq) < 2 or len(set(seq)) != len(seq) or not all(0 <= v < n for v in seq)
            or not all(e in edge_set for e in path_edges(seq)))


def check(op, code: int, stdout: str) -> str | None:
    """None when the outcome is right, else the reason it is wrong."""
    expect = op.expect
    want_exit = expect.get("exit", 0)
    if code != want_exit:
        return f"exit code {code}, expected {want_exit}"
    if op.kind == "verify":
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError:
            return f"stdout is not JSON: {stdout[:80]!r}"
        return None if got == expect["stdout_json"] else f"verdict {got}"
    if op.kind == "profile":
        return None if stdout == expect["stdout"] else f"profile output {stdout[:120]!r}"
    paths = read_paths(op.out)
    n, edges = expect["n"], expect["edges"]
    edge_set = set(edges)
    if any(_bad_path(p, n, edge_set) for p in paths):
        return "output holds a path that is not a simple path of the host"
    if op.kind == "build":
        if not stdout.startswith(f"paths: {len(paths)}\n"):
            return f"stdout does not report the {len(paths)} written paths"
        if "paths_exact" in expect and len(paths) != expect["paths_exact"]:
            return f"{len(paths)} paths, expected exactly {expect['paths_exact']}"
        if "paths_max" in expect and len(paths) > expect["paths_max"]:
            return f"{len(paths)} paths, guarantee is at most {expect['paths_max']}"
        kind, witness = reference_verdict(edges, paths)
        return None if kind is None else f"output does not separate: {kind} {witness}"
    return _check_exact(op, stdout, paths, n, edges)


def _check_exact(op, stdout, paths, n, edges) -> str | None:
    from pathsep.graphs import Graph
    from pathsep.systems import system_from_sequences, verify_by_pair_scan

    try:
        got = json.loads(stdout)
    except json.JSONDecodeError:
        return f"stdout is not JSON: {stdout[:80]!r}"
    value = got.get("ssp")
    if got != {"ssp": value, "lower": value, "upper": value, "conclusive": True}:
        return f"inconclusive or inconsistent result {got}"
    if value != op.expect["value"]:
        return f"ssp = {value}, expected {op.expect['value']}"
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    sperner = 1
    while math.comb(sperner, sperner // 2) < len(edges):
        sperner += 1
    if value < max(max(degree), sperner):
        return f"ssp = {value} is below the lower bound"
    if len(paths) != value:
        return f"witness has {len(paths)} paths, ssp = {value}"
    if not verify_by_pair_scan(system_from_sequences(Graph(n, tuple(edges)), paths)).ok:
        return "witness fails the pair-scan verifier"
    return None

