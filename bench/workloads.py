"""Seeded inputs, CLI operations and their expected outcomes.

``make(workload, seed, workdir)`` writes every input file of one pass into
``workdir`` and returns the operations to run, in order.  Each operation is
one ``pathsep`` command line (exactly what a user types, minus the program
name) plus what its result must satisfy.  The program only ever sees the
files written here; the seed never reaches it.

Sizes are fixed per workload and the seed only changes the random structure
inside them, so run-to-run spread comes from the machine, not from inputs
that grow or shrink with the seed.  No operation repeats within a pass.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

from pathsep import generators as gen
from pathsep.bipartite import build_ssp_complete_bipartite

DEFAULT_SEED = 0
WORKLOADS = ("build", "check")

# build: the n-ladder (8x) for the plan slope, many-component inputs for the
# per-component dispatcher, and K_{a,b} constructions (no input file).  The
# ladder is (n, different graphs of each kind at that n); the six n = 256
# builds and the two 120-component inputs form the group of about equal cost
# that op_p90_ms falls in the middle of.
LADDER = ((128, 3), (256, 3), (512, 1), (1024, 1))
COMPONENT_INPUTS = (("subcubic", 300), ("auto", 300), ("subcubic", 120), ("auto", 120))
BIPARTITE = tuple((a, k * a + 1) for a in range(1, 31) for k in (2, 3, 4)) + ((30, 241),)

# check, verify part: a geometric ladder of host sizes, m from 750 to 3000 edges, cycling
# through 2-degenerate, cubic and K_{a,b} hosts.  Each host gets one
# quadratic check (PASS, strict or contained, in rotation) and four linear
# ones (uncovered and profile, each on a text and on a JSON file), so
# latencies spread evenly over the ladder.
VERIFY_M = tuple(round(750 * 4 ** (i / 17)) for i in range(18))
HOST_KINDS = ("2deg", "cubic", "kab")
QUADRATIC_CHECKS = ("pass", "strict", "contained")
RANDOM_PATHS_PER_EDGE = 1 / 20   # random simple paths per host edge
MAX_RANDOM_PATH_EDGES = 24
UNCOVERED_SHARE = 0.05           # share of the otherwise uncovered edges left bare

# check, exact part: ORACLE_CORPUS of the test suite, K5 and seven trees on
# 8 vertices, with the minima the seed commit's oracle finds.  K_{2,4} is left
# out: its one search takes 10-15 s, so a pass would hold a single sample of
# the machine's speed.

# Every workload has more than 110 operations per pass (111 build, 140
# check), so that at least ten operations lie above op_p90_ms, which is
# taken over the operations of a pass.


@dataclass
class Op:
    name: str
    argv: list[str]
    kind: str                       # build | verify | profile | exact
    out: str | None = None          # file the operation writes
    expect: dict = field(default_factory=dict)
    ladder_n: int | None = None     # set on the 2-degenerate ladder builds


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def path_edges(seq):
    return [_norm(seq[k], seq[k + 1]) for k in range(len(seq) - 1)]


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _graph_text(n: int, edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def _paths_text(paths) -> str:
    return "".join(" ".join(map(str, p)) + "\n" for p in paths)


def _paths_json(n: int, paths) -> str:
    return json.dumps({"n": n, "paths": [list(p) for p in paths]})


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(map(str, (seed,) + parts)))


def make(workload: str, seed: int, workdir: str) -> list[Op]:
    os.makedirs(workdir, exist_ok=True)
    if workload == "build":
        return _build_ops(seed, workdir)
    return _verify_ops(seed, workdir) + _exact_ops(workdir)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def _union(parts, rng):
    """Disjoint union of (n, edges) parts under a seeded vertex relabelling."""
    n = sum(p[0] for p in parts)
    perm = list(range(n))
    rng.shuffle(perm)
    edges, base = [], 0
    for size, part_edges in parts:
        edges.extend(_norm(perm[base + u], perm[base + v]) for u, v in part_edges)
        base += size
    return n, sorted(edges)


def _component_parts(method: str, count: int, rng: random.Random):
    """Small components: cubic, K4, 2-degenerate, cycles, paths, isolated
    vertices.  For ``subcubic`` every component has maximum degree 3."""
    parts, k4 = [], 0
    for _ in range(count):
        r = rng.random()
        if r < 0.2:
            g = gen.random_cubic(rng.choice((6, 8, 10)), rng.randrange(2 ** 32))
        elif r < 0.3:
            g = gen.complete_graph(4)
            k4 += 1
        elif r < 0.8:
            while True:
                g = gen.random_2degenerate(rng.randint(4, 10), rng.randrange(2 ** 32))
                if method == "auto" or max(g.degrees) <= 3:
                    break
        elif r < 0.9:
            g = gen.cycle_graph(rng.randint(3, 8))
        elif r < 0.97:
            g = gen.path_graph(rng.randint(2, 6))
        else:
            g = gen.path_graph(1)
        parts.append((g.n, g.edges))
    return parts, k4


def _build_ops(seed: int, workdir: str) -> list[Op]:
    ops = []

    def graph_op(name, n, edges, flags, expect, ladder_n=None):
        gfile = os.path.join(workdir, f"{name}.g")
        out = os.path.join(workdir, f"{name}.paths")
        _write(gfile, _graph_text(n, edges))
        expect.update(n=n, edges=edges)
        ops.append(Op(name, ["build", "-i", gfile, *flags, "-o", out], "build", out,
                      expect, ladder_n))

    for n, copies in LADDER:
        for c in range(copies):
            g = gen.random_2degenerate(n, _rng(seed, "2deg", n, c).randrange(2 ** 32))
            graph_op(f"2deg-{n}-{c}", g.n, g.edges, ["-m", "auto"], {"paths_exact": n}, n)
    for n, copies in LADDER:
        for c in range(copies):
            g = gen.random_cubic(n, _rng(seed, "cubic", n, c).randrange(2 ** 32))
            graph_op(f"cubic-{n}-{c}", g.n, g.edges, ["-m", "subcubic"], {"paths_max": n})
    for i, (method, count) in enumerate(COMPONENT_INPUTS):
        parts, k4 = _component_parts(method, count, _rng(seed, "comps", i))
        n, edges = _union(parts, _rng(seed, "perm", i))
        graph_op(f"comps-{method}-{count}", n, edges, ["-m", method],
                 {"paths_max": n + k4})
    for a, b in BIPARTITE:
        out = os.path.join(workdir, f"k{a}-{b}.paths")
        edges = [(i, a + j) for i in range(a) for j in range(b)]
        ops.append(Op(f"kab-{a}-{b}",
                      ["build", "--bipartite", "--a", str(a), "--b", str(b), "-o", out],
                      "build", out, {"paths_exact": b, "n": a + b, "edges": edges}))
    return ops


# ---------------------------------------------------------------------------
# check: verify and profile
# ---------------------------------------------------------------------------

def _verify_host(i: int, m: int, seed: int):
    """Host number i of the ladder, with about m edges."""
    kind = HOST_KINDS[i % len(HOST_KINDS)]
    graph_seed = _rng(seed, "vhost", i).randrange(2 ** 32)
    if kind == "2deg":
        return kind, gen.random_2degenerate(round(m / 1.5), graph_seed)
    if kind == "cubic":
        return kind, gen.random_cubic(2 * round(m / 3), graph_seed)
    a = _small_side(m)
    return kind, gen.complete_bipartite(a, round(m / a))


def _small_side(m: int) -> int:
    """a for a K_{a,b} host with about m edges; b = m/a is about 4a > 2a."""
    return round((m / 4) ** 0.5)


def _random_paths(g, rng: random.Random, count: int):
    """Seeded self-avoiding walks with 2..MAX_RANDOM_PATH_EDGES edges."""
    adj = g.adjacency
    paths = []
    while len(paths) < count:
        seq = [rng.randrange(g.n)]
        seen = {seq[0]}
        target = rng.randint(2, MAX_RANDOM_PATH_EDGES)
        while len(seq) <= target:
            options = [w for w in adj[seq[-1]] if w not in seen]
            if not options:
                break
            w = rng.choice(options)
            seq.append(w)
            seen.add(w)
        if len(seq) >= 3:
            paths.append(tuple(seq))
    return paths


def _multiplicity(paths):
    mult: dict[tuple[int, int], int] = {}
    for p in paths:
        for e in path_edges(p):
            mult[e] = mult.get(e, 0) + 1
    return mult


def _mixed_system(g, rng, drop=None):
    """Random paths plus a single-edge path on every edge except those that
    ``drop(walks)`` names, in seeded order; returns (paths, multiplicity)."""
    walks = _random_paths(g, rng, max(1, int(g.m * RANDOM_PATHS_PER_EDGE)))
    dropped = set(drop(walks)) if drop else set()
    paths = walks + [e for e in g.edges if e not in dropped]
    rng.shuffle(paths)
    return paths, _multiplicity(paths)


def _histogram_line(mult, edges, p) -> str:
    hist = [0] * (p + 1)
    for e in edges:
        hist[mult.get(e, 0)] += 1
    return ", ".join(f"e_{i}={c}" for i, c in enumerate(hist) if c)


def _format_number(x: float) -> str:
    return str(int(x)) if x == int(x) else f"{x:.6g}"


def _verify_ops(seed: int, workdir: str) -> list[Op]:
    ops = []
    for i, m in enumerate(VERIFY_M):
        kind, g = _verify_host(i, m, seed)
        tag = f"{kind}-{m}"
        gfile = os.path.join(workdir, f"{tag}.g")
        _write(gfile, _graph_text(g.n, g.edges))
        fmts = ("txt", "json") if i % 2 == 0 else ("json", "txt")

        def system_file(label, paths, fmt):
            path = os.path.join(workdir, f"{tag}.{label}.{fmt}")
            _write(path, _paths_text(paths) if fmt == "txt" else _paths_json(g.n, paths))
            return path

        def verify_op(label, path, expect, strict=False):
            argv = ["verify", gfile, path, "--json"] + (["--strict"] if strict else [])
            ops.append(Op(f"{tag}-{label}", argv, "verify", None, expect))

        rng = _rng(seed, "vsys", i)
        check = QUADRATIC_CHECKS[(i + i // len(QUADRATIC_CHECKS)) % len(QUADRATIC_CHECKS)]
        planted = {}
        if check == "pass":
            paths, _ = _mixed_system(g, rng)
            verify_op("pass", system_file("pass", paths, fmts[0]), _verdict(True))
        elif check == "strict":
            paths, mult = _mixed_system(g, rng)
            off = next(e for e in g.edges if mult[e] != 2)
            verify_op("strict", system_file("strict", paths, fmts[0]),
                      _verdict(False, "multiplicity", [list(off), mult[off]]), strict=True)
        else:
            def drop_contained(walks):
                # An edge on exactly one walk loses its single-edge path, so
                # S(e) = {walk} sits inside S(f) for every other edge f of the
                # walk, while every other edge keeps a private path.  The walk
                # holds a second such edge, so the verifier meets the
                # containment in its first sweep; taking the middle candidate
                # keeps the witness rescan at half its worst case.
                once = _multiplicity(walks)
                candidates = []
                for w in walks:
                    single = [e for e in path_edges(w) if once[e] == 1]
                    if len(single) > 1:
                        candidates.extend((e, w) for e in single)
                e, w = sorted(candidates)[len(candidates) // 2]
                planted["witness"] = [list(e), list(min(f for f in path_edges(w) if f != e))]
                return (e,)

            paths, _ = _mixed_system(g, rng, drop_contained)
            verify_op("contained", system_file("contained", paths, fmts[0]),
                      _verdict(False, "contained", planted["witness"]))

        def drop_uncovered(walks):
            once = _multiplicity(walks)
            bare = [e for e in g.edges if e not in once]
            chosen = rng.sample(bare, max(1, int(len(bare) * UNCOVERED_SHARE)))
            planted["bare"] = min(chosen)
            return chosen

        for fmt in fmts[::-1]:
            paths, _ = _mixed_system(g, rng, drop_uncovered)
            verify_op(f"uncovered-{fmt}", system_file("uncovered", paths, fmt),
                      _verdict(False, "uncovered", [list(planted["bare"])]))

        for fmt in fmts:
            paths, mult = _mixed_system(g, rng)
            path = system_file("profile", paths, fmt)
            text = (f"m = {g.m}, p = {len(paths)}\n"
                    f"{_histogram_line(mult, g.edges, len(paths))}\n")
            ops.append(Op(f"{tag}-profile-{fmt}", ["profile", gfile, path], "profile", None,
                          {"stdout": text}))

        if kind == "kab":
            a = _small_side(m)
            b = g.n - a
            built = [p.vertices for p in build_ssp_complete_bipartite(a, b).paths]
            json_file = system_file("construction", built, "json")
            path = system_file("construction", built, "txt")
            verify_op("construction-json", json_file, _verdict(True))
            verify_op("construction-txt", path, _verdict(True))
            verify_op("construction-strict", json_file, _verdict(False, "endpoints", [0, 0]),
                      strict=True)
            eq2_rhs = b * b / 2
            text = (f"m = {g.m}, p = {b}\ne_2={a * b}\n"
                    f"eq1: {2 * a * b} <= {2 * a * b} (slack 0)\n"
                    f"eq2: {a * b} <= {_format_number(eq2_rhs)} "
                    f"(slack {_format_number(eq2_rhs - a * b)})\n")
            ops.append(Op(f"{tag}-certificate",
                          ["profile", gfile, path, "--a", str(a), "--b", str(b)],
                          "profile", None, {"stdout": text}))
    return ops


def _verdict(ok: bool, kind: str | None = None, witness=None) -> dict:
    return {"stdout_json": {"verdict": "PASS" if ok else "FAIL", "kind": kind,
                            "witness": witness},
            "exit": 0 if ok else 1}


# ---------------------------------------------------------------------------
# check: exact
# ---------------------------------------------------------------------------

def _exact_corpus():
    """(name, graph, minimum) for the fixed graphs."""
    from pathsep.graphs import Graph

    def g(n, edges):
        return Graph.from_edges(n, edges)

    return [
        ("K2", gen.path_graph(2), 1),
        ("P3", gen.path_graph(3), 2),
        ("P4", gen.path_graph(4), 3),
        ("P5", gen.path_graph(5), 4),
        ("triangle", gen.complete_graph(3), 3),
        ("paw", g(4, [(0, 1), (0, 2), (1, 2), (2, 3)]), 4),
        ("bull", g(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)]), 4),
        ("bowtie", g(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]), 4),
        ("chorded_c4", g(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]), 4),
        ("C4", gen.cycle_graph(4), 4),
        ("C5", gen.cycle_graph(5), 5),
        ("C6", gen.cycle_graph(6), 6),
        ("K4", gen.complete_graph(4), 5),
        ("K13", gen.star(3), 3),
        ("K14", gen.star(4), 4),
        ("K23", gen.complete_bipartite(2, 3), 5),
        ("K25", gen.complete_bipartite(2, 5), 5),
        ("fan5", g(5, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)]), 5),
        ("K5", gen.complete_graph(5), 5),
        # Trees on 8 vertices whose searches cost about as much as K4 and K23.
        ("spider43", g(8, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7)]), 7),
        ("spider331", g(8, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7)]), 7),
        ("spider421", g(8, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (0, 7)]), 7),
        ("spider511", g(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 6), (0, 7)]), 7),
        ("broom5", g(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (4, 7)]), 7),
        ("caterpillar4", g(8, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 5), (2, 6), (3, 7)]), 6),
        ("caterpillar3", g(8, [(0, 1), (1, 2), (0, 3), (0, 4), (1, 5), (2, 6), (2, 7)]), 5),
    ]


def _exact_ops(workdir: str) -> list[Op]:
    ops = []
    for name, g, value in _exact_corpus():
        gfile = os.path.join(workdir, f"{name}.g")
        out = os.path.join(workdir, f"{name}.witness")
        _write(gfile, _graph_text(g.n, g.edges))
        ops.append(Op(name, ["exact", gfile, "--json", "-o", out], "exact", out,
                      {"n": g.n, "edges": list(g.edges), "value": value}))
    return ops
