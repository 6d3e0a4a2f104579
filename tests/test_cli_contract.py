"""The command line's observable contract: usage errors, manifests, exits.

Every case runs in a temporary working directory with relative file names,
so the manifests it reads are literal dicts (the timestamp aside).
"""

import json

import pytest

from pathsep import __version__, bipartite, cli, generators
from pathsep.cli import main
from pathsep.generators import MAX_REQUESTED, complete_graph, petersen_graph
from pathsep.graphs import MAX_VERTICES, serialize_graph
from pathsep.systems import Verdict


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k4.g").write_text(serialize_graph(complete_graph(4)))
    (tmp_path / "pet.g").write_text(serialize_graph(petersen_graph()))
    (tmp_path / "tri.g").write_text("3 3\n0 1\n1 2\n0 2\n")
    (tmp_path / "tri.paths").write_text("0 1 2\n1 2 0\n2 0 1\n")
    (tmp_path / "p3.g").write_text("3 2\n0 1\n1 2\n")
    (tmp_path / "p3.paths").write_text("0 1 2\n")
    (tmp_path / "huge.g").write_text(f"{MAX_VERTICES + 1} 0\n")
    (tmp_path / "empty.g").write_text("0 0\n")
    return tmp_path


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

USAGE_ERRORS = [
    (["build", "--bipartite", "--a", "2"],
     "build: --a and --b are required for the bipartite method"),
    (["build", "-m", "degenerate"], "build: -i/--input is required"),
    (["bounds", "--table"], "bounds: --table needs --b"),
    (["bounds", "--table", "--b", "8", "--steps", "0"], "bounds: --steps must be at least 1"),
    (["bounds", "--a", "3"], "bounds: --a and --b are required (or use --table)"),
    (["gen", "-f", "two-degenerate"], "gen: -n is required for two-degenerate"),
    (["gen", "-f", "cubic"], "gen: -n is required for cubic"),
    (["gen", "-f", "complete-bipartite", "--b", "5"],
     "gen: --a and --b are required for complete-bipartite"),
    (["gen", "-f", "named"], "gen: --name is required for the named family"),
    (["profile", "tri.g", "tri.paths", "--b", "2"], "profile: --a and --b go together"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS,
                         ids=[" ".join(argv) for argv, _ in USAGE_ERRORS])
def test_usage_error(workdir, capsys, argv, message):
    assert main(argv + ["--manifest", "m.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"
    assert not (workdir / "m.json").exists()


# ---------------------------------------------------------------------------
# size refusals
# ---------------------------------------------------------------------------

# The rows at _FAR, ten times the caps, ask far past them; the others ask
# just past them.
_CAP, _ASK, _FAR = MAX_VERTICES, MAX_REQUESTED, 10**7

LIMIT_REFUSALS = [
    (["bounds", "--a", "1", "--b", str(10**400)],
     "part sizes above 2**1000 are not supported"),
    (["bounds", "--a", str(10**400), "--b", str(10**400)],
     "part sizes above 2**1000 are not supported"),
    (["bounds", "--a", str(2**1000), "--b", str(2**1000 + 1)],
     "part sizes above 2**1000 are not supported"),
    (["bounds", "--table", "--b", str(_FAR + 1)],
     f"{_FAR + 1} table rows exceed the limit of {_ASK}"),
    (["bounds", "--table", "--b", str(_FAR // 2 + 1), "--steps", "2"],
     f"{_FAR + 1} table rows exceed the limit of {_ASK}"),
    (["bounds", "--table", "--b", str(_ASK // 2 + 1), "--steps", "2"],
     f"{_ASK + 1} table rows exceed the limit of {_ASK}"),
    (["bounds", "--table", "--b", str(_ASK + 1)],
     f"{_ASK + 1} table rows exceed the limit of {_ASK}"),
    (["build", "--bipartite", "--a", "1", "--b", str(_FAR)],
     f"{_FAR + 1} vertices exceed the limit of {_CAP}"),
    (["build", "--bipartite", "--a", "1", "--b", str(_CAP)],
     f"{_CAP + 1} vertices exceed the limit of {_CAP}"),
    # Vertices are counted before edges.
    (["build", "--bipartite", "--a", "2", "--b", str(_FAR // 2 + 1)],
     f"{_FAR // 2 + 3} vertices exceed the limit of {_CAP}"),
    (["build", "--bipartite", "--a", "2", "--b", str(_CAP // 2 + 1)],
     f"{_CAP + 2} edges exceed the limit of {_ASK}"),
    (["build", "--bipartite", "--a", "1", "--b", str(_ASK + 1)],
     f"{_ASK + 2} vertices exceed the limit of {_CAP}"),
    (["gen", "-f", "complete-bipartite", "--a", "1", "--b", str(_CAP)],
     f"{_CAP + 1} vertices exceed the limit of {_CAP}"),
    (["gen", "-f", "complete-bipartite", "--a", "2", "--b", str(_CAP // 2 + 1)],
     f"{_CAP + 2} edges exceed the limit of {_ASK}"),
    (["gen", "-f", "complete-bipartite", "--a", "3", "--b", str(_ASK // 3 + 1)],
     f"{_ASK + 2} edges exceed the limit of {_ASK}"),
    (["gen", "-f", "two-degenerate", "-n", str(_FAR + 1)],
     f"{_FAR + 1} vertices exceed the limit of {_CAP}"),
    (["gen", "-f", "two-degenerate", "-n", str(_CAP + 1)],
     f"{_CAP + 1} vertices exceed the limit of {_CAP}"),
    (["gen", "-f", "cubic", "-n", str(_FAR + 2)],
     f"{_FAR + 2} vertices exceed the limit of {_CAP}"),
    (["gen", "-f", "cubic", "-n", str(_CAP + 2)],
     f"{_CAP + 2} vertices exceed the limit of {_CAP}"),
    (["gen", "-f", "two-degenerate", "-n", str(_ASK // 2 + 2)],
     f"{_ASK + 1} edges exceed the limit of {_ASK}"),
    (["gen", "-f", "cubic", "-n", str(_ASK // 3 * 2 + 2)],
     f"{_ASK // 3 * 3 + 3} edges exceed the limit of {_ASK}"),
    (["build", "-i", "huge.g", "-o", "huge.paths"],
     f"line 1: {_CAP + 1} vertices exceed the limit of {_CAP}"),
]


@pytest.mark.parametrize("argv,message", LIMIT_REFUSALS,
                         ids=[" ".join(argv)[:40] for argv, _ in LIMIT_REFUSALS])
def test_limit_refusal(workdir, capsys, argv, message):
    # Each size is refused before anything is sized by it.
    assert main(argv + ["--manifest", "m.json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"limit: {message}\n"
    assert not (workdir / "m.json").exists()


def test_requested_sizes_up_to_the_cap_are_served(workdir, capsys, monkeypatch):
    # The boundary, on a cap of 6 so that nothing large is built: 6 edges or
    # rows are served, 7 refused.
    for module in (generators, bipartite):
        monkeypatch.setattr(module, "MAX_REQUESTED", 6)
    for argv in (["bounds", "--table", "--b", "6"], ["build", "--bipartite", "--a", "1", "--b", "6"],
                 ["gen", "-f", "complete-bipartite", "--a", "2", "--b", "3"]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    for argv, what in ((["bounds", "--table", "--b", "7"], "table rows"),
                       (["build", "--bipartite", "--a", "1", "--b", "7"], "edges"),
                       (["gen", "-f", "complete-bipartite", "--a", "1", "--b", "7"], "edges")):
        assert main(argv) == 4, argv
        assert capsys.readouterr() == ("", f"limit: 7 {what} exceed the limit of 6\n")
    # A random family is refused by its largest edge count: 2n - 3 for a
    # 2-degenerate graph, 3n/2 for a cubic one.
    for argv in (["gen", "-f", "two-degenerate", "-n", "4"], ["gen", "-f", "cubic", "-n", "4"]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    for argv, m in ((["gen", "-f", "two-degenerate", "-n", "5"], 7),
                    (["gen", "-f", "cubic", "-n", "6"], 9)):
        assert main(argv) == 4, argv
        assert capsys.readouterr() == ("", f"limit: {m} edges exceed the limit of 6\n")


def test_bounds_take_parts_up_to_2_to_the_1000(workdir, capsys):
    assert main(["bounds", "--a", "1", "--b", str(2**1000)]) == 0
    assert capsys.readouterr().out == (f"exact = {2**1000} (lower: max-degree, "
                                       "upper: rotated-graceful-construction)\n")
    assert main(["bounds", "--a", str(2**1000), "--b", str(2**1000), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["lower"] < float("inf")
    # A float past 2**53 prints its 6 significant digits, not its binary
    # expansion of 302 digits.
    assert main(["bounds", "--a", str(2**1000), "--b", str(2**1000)]) == 0
    assert capsys.readouterr().out == "lower = 1.24539e+301 (incidence-counting); upper unknown\n"


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def _manifest(command, flags, outcome, inputs=(), seed=None):
    return {"command": command, "flags": {"command": command, **flags},
            "inputs": list(inputs), "outcome": outcome, "seed": seed,
            "version": __version__}


_EXACT_FLAGS = {"force": False, "max_edges": 16, "max_paths": 12, "max_vertices": 10}

MANIFESTS = [
    ("build", ["build", "--bipartite", "--a", "2", "--b", "5", "-o", "k25.paths"], 0,
     _manifest("build", {"a": 2, "b": 5, "bipartite": True, "input": None,
                         "method": "auto", "out": "k25.paths"},
               {"exit_code": 0, "paths": 5})),
    ("verify-pass", ["verify", "tri.g", "tri.paths"], 0,
     _manifest("verify", {"graph": "tri.g", "json": False, "paths": "tri.paths",
                          "strict": False},
               {"exit_code": 0, "verdict": "PASS"}, inputs=["tri.g", "tri.paths"])),
    ("verify-fail", ["verify", "p3.g", "p3.paths", "--json"], 1,
     _manifest("verify", {"graph": "p3.g", "json": True, "paths": "p3.paths",
                          "strict": False},
               {"exit_code": 1, "verdict": "FAIL"}, inputs=["p3.g", "p3.paths"])),
    ("exact-conclusive", ["exact", "k4.g", "-o", "k4.paths"], 0,
     _manifest("exact", {**_EXACT_FLAGS, "graph": "k4.g", "json": False,
                         "out": "k4.paths", "time_budget": None},
               {"exit_code": 0, "ssp": 5}, inputs=["k4.g"])),
    ("exact-inconclusive", ["exact", "pet.g", "--time-budget", "0.000001", "--json"], 4,
     _manifest("exact", {**_EXACT_FLAGS, "graph": "pet.g", "json": True,
                         "out": None, "time_budget": 1e-06},
               {"exit_code": 4, "interval": [6, 15]}, inputs=["pet.g"])),
    ("bounds", ["bounds", "--a", "3", "--b", "8"], 0,
     _manifest("bounds", {"a": 3, "b": 8, "json": False, "steps": 1, "table": False},
               {"exit_code": 0})),
    ("bounds-table", ["bounds", "--table", "--b", "8"], 0,
     _manifest("bounds", {"a": None, "b": 8, "json": False, "steps": 1, "table": True},
               {"exit_code": 0})),
    ("gen", ["gen", "-f", "complete-bipartite", "--a", "2", "--b", "5", "-o", "k25.g"], 0,
     _manifest("gen", {"a": 2, "b": 5, "family": "complete-bipartite", "n": None,
                       "name": None, "out": "k25.g", "seed": 0},
               {"exit_code": 0, "m": 10, "n": 7}, seed=0)),
    ("profile", ["profile", "tri.g", "tri.paths"], 0,
     _manifest("profile", {"a": None, "b": None, "graph": "tri.g", "paths": "tri.paths"},
               {"exit_code": 0}, inputs=["tri.g", "tri.paths"])),
    ("profile-certificate", ["profile", "k25.g", "k25.paths", "--a", "2", "--b", "5"], 0,
     _manifest("profile", {"a": 2, "b": 5, "graph": "k25.g", "paths": "k25.paths"},
               {"exit_code": 0}, inputs=["k25.g", "k25.paths"])),
]


@pytest.mark.parametrize("argv,code,expected", [case[1:] for case in MANIFESTS],
                         ids=[case[0] for case in MANIFESTS])
def test_manifest(workdir, capsys, argv, code, expected):
    # The profile cases read the K_{2,5} graph and system the others write.
    assert main(["gen", "-f", "complete-bipartite", "--a", "2", "--b", "5",
                 "-o", "k25.g"]) == 0
    assert main(["build", "--bipartite", "--a", "2", "--b", "5", "-o", "k25.paths"]) == 0
    assert main(argv + ["--manifest", "m.json"]) == code
    manifest = json.loads((workdir / "m.json").read_text())
    manifest.pop("timestamp")
    assert manifest == expected


def test_error_exits_write_no_manifest(workdir, capsys):
    assert main(["build", "-i", "k4.g", "-m", "degenerate", "--manifest", "m.json"]) == 3
    assert main(["exact", "pet.g", "--max-vertices", "4", "--manifest", "m.json"]) == 4
    assert main(["verify", "tri.g", "missing.paths", "--manifest", "m.json"]) == 2
    assert not (workdir / "m.json").exists()


# ---------------------------------------------------------------------------
# builds of the 0-vertex graph
# ---------------------------------------------------------------------------

EMPTY_GRAPH_BUILDS = [
    ("auto", "per-component dispatch"),
    ("degenerate", "2-degenerate construction (at most n paths)"),
    ("subcubic", "per-component dispatch (at most n + k paths)"),
    ("cubic", "cubic re-routing (at most n paths)"),
]


@pytest.mark.parametrize("method,label", EMPTY_GRAPH_BUILDS,
                         ids=[method for method, _ in EMPTY_GRAPH_BUILDS])
def test_every_method_builds_the_0_vertex_graph(workdir, capsys, method, label):
    assert main(["build", "-i", "empty.g", "-m", method, "-o", "empty.paths"]) == 0
    assert capsys.readouterr() == (f"paths: 0\nmethod: {method} [{label}]\n", "")
    assert (workdir / "empty.paths").read_text() == ""


# ---------------------------------------------------------------------------
# internal errors
# ---------------------------------------------------------------------------

def test_build_failing_reverification_exits_5(workdir, capsys, monkeypatch):
    monkeypatch.setattr("pathsep.cli.verify_strong_separation",
                        lambda system: Verdict(False, "uncovered", (0, 1), "planted"))
    assert main(["build", "-i", "tri.g", "-o", "tri.out", "--manifest", "m.json"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: build output failed re-verification: planted\n"
    assert not (workdir / "tri.out").exists()
    assert not (workdir / "m.json").exists()


# ---------------------------------------------------------------------------
# parser and option values
# ---------------------------------------------------------------------------

def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_parser_survives_an_argparse_error(workdir, capsys):
    assert main(["exact"]) == 2
    capsys.readouterr()
    assert main(["exact", "k4.g"]) == 0
    assert capsys.readouterr().out == "ssp = 5\n"


def test_exact_refuses_a_nan_time_budget(workdir, capsys):
    assert main(["exact", "k4.g", "--time-budget", "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: time budget must be positive\n"


@pytest.mark.parametrize("argv,code,out", [
    (["exact", "k4.g", "--json"], 0,
     {"ssp": 5, "lower": 5, "upper": 5, "conclusive": True}),
    (["exact", "pet.g", "--time-budget", "0.000001", "--json"], 4,
     {"ssp": None, "lower": 6, "upper": 15, "conclusive": False}),
])
def test_exact_json_line(workdir, capsys, argv, code, out):
    assert main(argv) == code
    assert capsys.readouterr().out == json.dumps(out) + "\n"
