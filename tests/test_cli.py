import contextlib
import gc
import io
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pathsep import Graph
from pathsep.cli import main
from pathsep.cubic import build_ssp_auto
from pathsep.generators import complete_bipartite, complete_graph, path_graph, petersen_graph
from pathsep.graphs import load_graph, parse_graph, serialize_graph
from pathsep.systems import load_paths, parse_paths, verify_strong_separation

from corpus import garbage_left_by


@pytest.fixture
def triangle_file(tmp_path):
    p = tmp_path / "triangle.g"
    p.write_text("3 3\n0 1\n1 2\n0 2\n")
    return str(p)


@pytest.fixture
def k4_file(tmp_path):
    p = tmp_path / "k4.g"
    p.write_text(serialize_graph(complete_graph(4)))
    return str(p)


@pytest.fixture
def petersen_file(tmp_path):
    p = tmp_path / "petersen.g"
    p.write_text(serialize_graph(petersen_graph()))
    return str(p)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def test_build_bipartite(tmp_path, capsys):
    out = tmp_path / "k25.paths"
    assert main(["build", "--bipartite", "--a", "2", "--b", "5", "-o", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "paths: 5" in captured
    text = out.read_text()
    assert len(text.strip().splitlines()) == 5


def test_build_cubic_petersen(tmp_path, capsys, petersen_file):
    out = tmp_path / "petersen.paths"
    assert main(["build", "-i", petersen_file, "-m", "cubic", "-o", str(out)]) == 0
    assert "paths: 10" in capsys.readouterr().out
    g = load_graph(petersen_file)
    system = load_paths(str(out), g)
    assert verify_strong_separation(system).ok


def test_build_degenerate_rejects_k4(k4_file, capsys):
    assert main(["build", "-i", k4_file, "-m", "degenerate"]) == 3
    assert "not 2-degenerate" in capsys.readouterr().err


def test_build_degenerate_rejects_trailing_k4_without_output(tmp_path, capsys):
    g = Graph.from_edges(8, [(0, 1), (1, 2), (0, 2), (3, 4), (3, 5), (3, 6),
                             (4, 5), (4, 6), (5, 6)])
    graph_file, out = tmp_path / "g.g", tmp_path / "g.paths"
    graph_file.write_text(serialize_graph(g))
    assert main(["build", "-i", str(graph_file), "-m", "degenerate", "-o", str(out)]) == 3
    assert "not 2-degenerate" in capsys.readouterr().err
    assert not out.exists()


def test_build_internal_error_exits_5(monkeypatch, triangle_file, capsys):
    def broken(g):
        raise AssertionError("endpoint invariant broken")

    monkeypatch.setattr("pathsep.cli.build_ssp_auto", broken)
    assert main(["build", "-i", triangle_file]) == 5
    assert "internal error: endpoint invariant broken" in capsys.readouterr().err


@pytest.mark.parametrize("enabled", [True, False])
def test_main_runs_without_the_collector_and_gives_its_state_back(
        enabled, monkeypatch, triangle_file, capsys):
    inside = []

    def recording(g):
        inside.append(gc.isenabled())
        return build_ssp_auto(g)

    def broken(g):
        raise AssertionError("endpoint invariant broken")

    def escaping(g):
        raise RuntimeError("escapes main")

    caller = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    after = []
    try:
        monkeypatch.setattr("pathsep.cli.build_ssp_auto", recording)
        assert main(["build", "-i", triangle_file]) == 0
        after.append(gc.isenabled())
        assert main(["build"]) == 2
        after.append(gc.isenabled())
        assert main(["no-such-command"]) == 2
        after.append(gc.isenabled())
        monkeypatch.setattr("pathsep.cli.build_ssp_auto", broken)
        assert main(["build", "-i", triangle_file]) == 5
        after.append(gc.isenabled())
        monkeypatch.setattr("pathsep.cli.build_ssp_auto", escaping)
        with pytest.raises(RuntimeError, match="escapes main"):
            main(["build", "-i", triangle_file])
        after.append(gc.isenabled())
    finally:
        (gc.enable if caller else gc.disable)()
    assert inside == [False]
    assert after == [enabled] * 5


def test_commands_leave_no_reference_cycles(tmp_path, k4_file, capsys):
    # The collector is off while a command runs, so a cycle a command made
    # would wait for the caller's next collection.
    paths = str(tmp_path / "k4.paths")
    main(["build", "-i", k4_file, "-o", paths])  # builds the parser, once
    for argv in (["build", "-i", k4_file, "-o", paths], ["verify", k4_file, paths, "--strict"],
                 ["profile", k4_file, paths], ["exact", k4_file, "-o", paths],
                 ["bounds", "--a", "2", "--b", "5"], ["gen", "-f", "cubic", "-n", "8"]):
        assert garbage_left_by(lambda: main(argv)) == 0, argv


def test_directory_given_as_a_file_exits_2(tmp_path, triangle_file, capsys):
    assert main(["build", "-i", str(tmp_path)]) == 2
    assert main(["verify", str(tmp_path), triangle_file]) == 2
    assert main(["verify", triangle_file, str(tmp_path)]) == 2


def test_build_refuses_an_oversized_header_without_output(tmp_path, capsys):
    graph_file, out = tmp_path / "huge.g", tmp_path / "huge.paths"
    graph_file.write_text("99999999999 0\n")
    assert main(["build", "-i", str(graph_file), "-o", str(out)]) == 4
    assert capsys.readouterr().err.startswith("limit: line 1: 99999999999 vertices exceed the limit")
    assert not out.exists()


def test_build_auto_k4_uses_canned_system(k4_file, capsys):
    assert main(["build", "-i", k4_file, "-m", "auto"]) == 0
    out = capsys.readouterr().out
    assert "paths: 5" in out and "canned-k4" in out


def test_build_auto_refuses_k5(tmp_path, capsys):
    p = tmp_path / "k5.g"
    p.write_text(serialize_graph(complete_graph(5)))
    assert main(["build", "-i", str(p)]) == 3


def test_build_subcubic_prints_its_components(tmp_path, capsys):
    g = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                             (4, 5), (4, 6), (5, 6)])
    graph_file, out = tmp_path / "g.g", tmp_path / "g.paths"
    graph_file.write_text(serialize_graph(g))
    assert main(["build", "-i", str(graph_file), "-m", "subcubic", "-o", str(out)]) == 0
    assert capsys.readouterr().out == (
        "paths: 8\n"
        "method: subcubic [per-component dispatch (at most n + k paths)]\n"
        "  component min-vertex 0: K4 via canned-k4, 5 paths\n"
        "  component min-vertex 4: subcubic-2degenerate via 2-degenerate, 3 paths\n")
    assert verify_strong_separation(load_paths(str(out), g)).ok


def test_build_subcubic_refuses_degree_4(tmp_path, capsys):
    graph_file, out = tmp_path / "star.g", tmp_path / "star.paths"
    graph_file.write_text(serialize_graph(complete_bipartite(1, 4)))
    assert main(["build", "-i", str(graph_file), "-m", "subcubic", "-o", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "unsupported: graph has a vertex of degree above 3\n"
    assert not out.exists()


def test_build_missing_flags(capsys):
    assert main(["build", "--bipartite", "--a", "2"]) == 2
    assert main(["build", "-m", "degenerate"]) == 2


def test_build_bipartite_bad_regime(capsys):
    assert main(["build", "--bipartite", "--a", "3", "--b", "6"]) == 3
    assert "a < b/2" in capsys.readouterr().err


def test_build_is_byte_reproducible(tmp_path, triangle_file):
    out1, out2 = tmp_path / "a.paths", tmp_path / "b.paths"
    assert main(["build", "-i", triangle_file, "-o", str(out1)]) == 0
    assert main(["build", "-i", triangle_file, "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_strict_pass(tmp_path, triangle_file, capsys):
    paths = tmp_path / "tri.paths"
    paths.write_text("0 1 2\n1 2 0\n2 0 1\n")
    assert main(["verify", triangle_file, str(paths), "--strict"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_fail_prints_witness(tmp_path, capsys):
    g = tmp_path / "p3.g"
    g.write_text("3 2\n0 1\n1 2\n")
    paths = tmp_path / "p3.paths"
    paths.write_text("0 1 2\n")
    assert main(["verify", str(g), str(paths)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "(0, 1)" in out


def test_verify_json(tmp_path, triangle_file, capsys):
    paths = tmp_path / "tri.paths"
    paths.write_text("0 1 2\n1 2 0\n2 0 1\n")
    assert main(["verify", triangle_file, str(paths), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"verdict": "PASS", "kind": None, "witness": None}


def test_verify_parse_error_exit_code(tmp_path, triangle_file):
    bad = tmp_path / "bad.paths"
    bad.write_text("0 9 2\n")
    assert main(["verify", triangle_file, str(bad)]) == 2


def test_verify_refuses_an_underscored_vertex_id(tmp_path, capsys):
    # int() would read "1_0" as 10, the one edge of this host, and print PASS.
    host = tmp_path / "host.txt"
    host.write_text("11 1\n0 10\n")
    paths = tmp_path / "under.paths"
    paths.write_text("0 1_0\n")
    assert main(["verify", str(host), str(paths)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 1: bad path line '0 1_0'" in captured.err


@pytest.mark.parametrize("command", ["verify", "profile"])
def test_deeply_nested_json_path_file_exits_2(tmp_path, triangle_file, capsys, command):
    # json.loads raises RecursionError, not JSONDecodeError, this deep.
    deep = tmp_path / "deep.json"
    deep.write_text('{"paths": ' + "[" * 200_000)
    assert main([command, triangle_file, str(deep)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad JSON path file: ")
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

def test_exact_k4(k4_file, tmp_path, capsys):
    witness = tmp_path / "k4.paths"
    assert main(["exact", k4_file, "-o", str(witness)]) == 0
    assert "ssp = 5" in capsys.readouterr().out
    g = complete_graph(4)
    system = parse_paths(witness.read_text(), g)
    assert verify_strong_separation(system).ok


def test_exact_triangle_json(triangle_file, capsys):
    assert main(["exact", triangle_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ssp"] == 3 and payload["conclusive"] is True


def test_exact_limit_refusal(petersen_file, capsys):
    assert main(["exact", petersen_file, "--max-vertices", "4"]) == 4
    assert "limit" in capsys.readouterr().err


def test_exact_time_budget_inconclusive(petersen_file, capsys):
    rc = main(["exact", petersen_file, "--time-budget", "0.000001"])
    assert rc == 4
    out = capsys.readouterr().out
    assert "inconclusive" in out and "[" in out


def test_exact_force_on_a_long_path_hits_the_table_cap(tmp_path, capsys):
    # Enumerating P_1500's paths used to recurse 1500 deep; its paths x edges
    # pass the table cap early, which --force does not lift.
    g = tmp_path / "p1500.g"
    g.write_text(serialize_graph(path_graph(1500)))
    assert main(["exact", str(g), "--force", "--time-budget", "2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("limit: ") and "path table limit" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_exact(capsys):
    assert main(["bounds", "--a", "3", "--b", "8"]) == 0
    assert "exact = 8" in capsys.readouterr().out


def test_bounds_lower_only(capsys):
    assert main(["bounds", "--a", "8", "--b", "8"]) == 0
    assert "9.29822" in capsys.readouterr().out


def test_bounds_json(capsys):
    assert main(["bounds", "--a", "3", "--b", "8", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"lower": 8.0, "upper": 8.0, "exact": 8}


def test_bounds_k11(capsys):
    assert main(["bounds", "--a", "1", "--b", "1"]) == 0
    assert capsys.readouterr().out == "exact = 1 (lower: max-degree, upper: single-path)\n"
    assert main(["bounds", "--a", "1", "--b", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"lower": 1.0, "upper": 1.0, "exact": 1}


def test_bounds_table(capsys):
    assert main(["bounds", "--table", "--b", "8"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "a,lower_bound"
    assert len(lines) == 9


def test_bounds_bad_orientation(capsys):
    assert main(["bounds", "--a", "8", "--b", "3"]) == 3


def test_bounds_usage(capsys):
    assert main(["bounds", "--a", "3"]) == 2


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_two_degenerate(tmp_path, capsys):
    out = tmp_path / "g.g"
    assert main(["gen", "-f", "two-degenerate", "-n", "50", "-s", "7",
                 "-o", str(out)]) == 0
    g = parse_graph(out.read_text())
    assert g.n == 50
    from pathsep import is_2_degenerate, is_connected
    assert is_connected(g) and is_2_degenerate(g)[0]


def test_gen_named_petersen(tmp_path):
    out = tmp_path / "p.g"
    assert main(["gen", "-f", "named", "--name", "petersen", "-o", str(out)]) == 0
    g = parse_graph(out.read_text())
    assert g.n == 10 and g.m == 15 and all(d == 3 for d in g.degrees)


def test_gen_complete_bipartite(tmp_path):
    out = tmp_path / "k.g"
    assert main(["gen", "-f", "complete-bipartite", "--a", "2", "--b", "5",
                 "-o", str(out)]) == 0
    g = parse_graph(out.read_text())
    assert g.n == 7 and g.m == 10
    for a, b in ((2, 5), (1, 1), (1, 6), (3, 3), (4, 2), (5, 9)):
        edges = [(a + j, i) for j in reversed(range(b)) for i in range(a)]
        assert complete_bipartite(a, b) == Graph.from_edges(a + b, edges)


def test_gen_seed_reproducible(tmp_path):
    a, b = tmp_path / "a.g", tmp_path / "b.g"
    for path in (a, b):
        assert main(["gen", "-f", "two-degenerate", "-n", "30", "-s", "3",
                     "-o", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.g"
    assert main(["gen", "-f", "two-degenerate", "-n", "30", "-s", "4",
                 "-o", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_gen_cubic(tmp_path):
    out = tmp_path / "c.g"
    assert main(["gen", "-f", "cubic", "-n", "10", "-s", "1", "-o", str(out)]) == 0
    g = parse_graph(out.read_text())
    assert all(d == 3 for d in g.degrees)


def test_gen_usage_errors(capsys):
    assert main(["gen", "-f", "named"]) == 2
    assert main(["gen", "-f", "two-degenerate"]) == 2
    assert main(["gen", "-f", "named", "--name", "nosuch"]) == 3


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def test_profile_histogram(tmp_path, triangle_file, capsys):
    paths = tmp_path / "tri.paths"
    paths.write_text("0 1 2\n1 2 0\n2 0 1\n")
    assert main(["profile", triangle_file, str(paths)]) == 0
    out = capsys.readouterr().out
    assert "e_2=3" in out


def test_profile_with_certificate(tmp_path, capsys):
    g = tmp_path / "k25.g"
    paths = tmp_path / "k25.paths"
    assert main(["gen", "-f", "complete-bipartite", "--a", "2", "--b", "5",
                 "-o", str(g)]) == 0
    assert main(["build", "--bipartite", "--a", "2", "--b", "5",
                 "-o", str(paths)]) == 0
    capsys.readouterr()
    assert main(["profile", str(g), str(paths), "--a", "2", "--b", "5"]) == 0
    out = capsys.readouterr().out
    assert "e_2=10" in out and "slack 0" in out


def test_profile_certificate_fails_on_a_system_that_does_not_separate(tmp_path, capsys):
    # One path through both edges of K_{1,2}: S(0, 1) = S(0, 2).
    g, paths = tmp_path / "k12.g", tmp_path / "k12.paths"
    g.write_text(serialize_graph(complete_bipartite(1, 2)))
    paths.write_text("1 0 2\n")
    assert main(["profile", str(g), str(paths), "--a", "1", "--b", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "m = 2, p = 1\ne_1=2\n"
    assert captured.err == ("certificate failed: system is not strongly separating: "
                            "S(0, 1) is contained in S(0, 2)\n")


@pytest.mark.parametrize("flag", ["--a", "--b"])
def test_profile_refuses_half_a_certificate_request(tmp_path, triangle_file, capsys, flag):
    paths = tmp_path / "tri.paths"
    paths.write_text("0 1 2\n1 2 0\n2 0 1\n")
    assert main(["profile", triangle_file, str(paths), flag, "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "profile: --a and --b go together\n"


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def test_manifest_written_and_stable(tmp_path, triangle_file):
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert main(["exact", triangle_file, "--manifest", str(m1)]) == 0
    assert main(["exact", triangle_file, "--manifest", str(m2)]) == 0
    a = json.loads(m1.read_text())
    b = json.loads(m2.read_text())
    assert a["command"] == "exact" and a["outcome"] == {"exit_code": 0, "ssp": 3}
    a.pop("timestamp"), b.pop("timestamp")
    # Manifests differ only in their input paths (tmp fixtures) and clocks.
    assert a == b


def test_gen_value_errors_map_to_usage(capsys):
    assert main(["gen", "-f", "cubic", "-n", "5"]) == 2
    assert main(["gen", "-f", "two-degenerate", "-n", "2"]) == 2


def test_verify_strict_catches_structural_failure(tmp_path, capsys):
    # Four singleton paths separate the 4-cycle but violate the
    # every-edge-twice property, so --strict flips the verdict.
    g = tmp_path / "c4.g"
    g.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
    paths = tmp_path / "c4.paths"
    paths.write_text("0 1\n1 2\n2 3\n0 3\n")
    assert main(["verify", str(g), str(paths)]) == 0
    capsys.readouterr()
    assert main(["verify", str(g), str(paths), "--strict"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_strict_rejects_disconnected_host(tmp_path):
    g = tmp_path / "two.g"
    g.write_text("4 2\n0 1\n2 3\n")
    paths = tmp_path / "two.paths"
    paths.write_text("0 1\n2 3\n")
    assert main(["verify", str(g), str(paths)]) == 0
    assert main(["verify", str(g), str(paths), "--strict"]) == 3


def test_build_auto_handles_edgeless_graphs(tmp_path, capsys):
    g = tmp_path / "iso.g"
    g.write_text("3 0\n")
    out = tmp_path / "iso.paths"
    assert main(["build", "-i", str(g), "-o", str(out)]) == 0
    assert "paths: 0" in capsys.readouterr().out
    assert out.read_text() == ""


# ---------------------------------------------------------------------------
# random input files
# ---------------------------------------------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 60) | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(["n", "paths", "m"]), inner, max_size=3)),
    max_leaves=12)
_INT_LINES = st.lists(st.lists(st.integers(-1, 7), max_size=4), max_size=10).map(
    lambda rows: "\n".join(" ".join(map(str, row)) for row in rows))
_GRAPH_TEXT = st.integers(1, 7).flatmap(lambda n: st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10).map(
    lambda edges: f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)))
_HOST = st.integers(2, 6).flatmap(lambda n: st.sets(
    st.sampled_from([(u, v) for v in range(n) for u in range(v)]), max_size=8).map(
    lambda edges: f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)))
_NESTED = st.sampled_from([1, 50, 100_000]).map(lambda depth: "[" * depth + "]" * depth)
_PATH_JSON = st.one_of(
    _JSON.map(lambda value: json.dumps({"paths": value})),
    st.tuples(st.integers(-1, 8), _JSON).map(
        lambda nv: json.dumps({"n": nv[0], "paths": nv[1]})),
    st.lists(st.lists(st.integers(-1, 6), max_size=4), max_size=6).map(
        lambda seqs: json.dumps({"paths": seqs})),
    _NESTED.map(lambda nested: '{"paths": ' + nested + "}"),
)
_FILE = st.one_of(
    st.binary(max_size=120),
    st.text(max_size=120).map(str.encode),
    _JSON.map(lambda value: json.dumps(value).encode()),
    _INT_LINES.map(str.encode),
    _GRAPH_TEXT.map(str.encode),
)


def _declared_n(data: bytes) -> int:
    """The vertex count a graph file's header declares, or 0 if it has none."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return 0
    for line in lines:
        tokens = line.split("#", 1)[0].split()
        if tokens:
            try:
                return int(tokens[0])
            except ValueError:
                return 0
    return 0


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None)
@given(files=st.tuples(_FILE, _FILE)
       | st.tuples(_HOST.map(str.encode), _PATH_JSON.map(str.encode)))
def test_main_never_raises_on_random_files(fuzz_dir, files):
    # Half the cases pair a valid host with a JSON path file, so that
    # parse_paths' JSON branch runs; random bytes almost never reach it.
    graph, paths = files
    assume(_declared_n(graph) <= 50)  # nothing large gets built
    gfile, pfile = fuzz_dir / "g", fuzz_dir / "p"
    gfile.write_bytes(graph)
    pfile.write_bytes(paths)
    g, p = str(gfile), str(pfile)
    for argv in (["verify", g, p], ["verify", g, p, "--strict", "--json"],
                 ["profile", g, p], ["build", "-i", g],
                 ["exact", g, "--time-budget", "0.05"]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2, 3, 4), argv
