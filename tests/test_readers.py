"""The bulk file readers against line-by-line reference readers.

``parse_graph`` decodes a file in the canonical shape in one JSON pass, and
it and the text branch of ``parse_paths`` read any other file with one split
and one decode of all its tokens; ``system_from_sequences`` checks every
sequence in one batch.  A file with an error is not read again line by line:
the library walks the rows of that same split to name the first bad line.
The line readers below are the ones the bulk readers replaced, kept here as
the reference: on every input both must give the same Graph or PathSystem,
or the same exception type and text.
"""

import json
import random
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathsep import graphs, systems
from pathsep.errors import GraphFormatError, LimitExceededError
from pathsep.generators import complete_graph, path_graph, random_2degenerate
from pathsep.graphs import Graph, parse_graph, serialize_graph, split_rows
from pathsep.systems import (
    Path, format_paths, format_paths_json, load_paths, parse_paths, system_from_sequences,
)
from pathsep.degenerate import build_ssp_2degenerate

from corpus import checked_system, path_edges


# ---------------------------------------------------------------------------
# The reference: the line readers as they ran before the bulk pass.
# ---------------------------------------------------------------------------

def _data_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _decimal_ints(line):
    tokens = line.split()
    if "_" in line or not (line.isascii() or all(map(str.isascii, tokens))):
        raise ValueError(f"not decimal integers: {line!r}")
    return list(map(int, tokens))


def _two_ints(line, lineno, what):
    try:
        a, b = _decimal_ints(line)
    except ValueError:
        raise GraphFormatError(f"line {lineno}: expected '{what}', got {line!r}") from None
    return a, b


def _line_parse_graph(text):
    lines = _data_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise GraphFormatError("empty graph file") from None
    n, m = _two_ints(header, lineno, "n m")
    if n > graphs.MAX_VERTICES:
        raise LimitExceededError(
            f"line {lineno}: {n} vertices exceed the limit of {graphs.MAX_VERTICES}")
    if n < 0 or m < 0:
        raise GraphFormatError(f"line {lineno}: negative counts in header")
    edges = set()
    count = 0
    for lineno, line in lines:
        if count == m:
            raise GraphFormatError(f"line {lineno}: unexpected extra edge line (declared m={m})")
        u, v = _two_ints(line, lineno, "u v")
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {lineno}: vertex id out of range (n={n})")
        edges.add((u, v) if u < v else (v, u))
        count += 1
    if count < m:
        raise GraphFormatError(f"expected {m} edge lines, found {count}")
    return Graph(n, tuple(sorted(edges)))


def _line_parse_paths(text, graph):
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise GraphFormatError(f"bad JSON path file: {exc}") from None
        if not isinstance(obj, dict) or "paths" not in obj:
            raise GraphFormatError("JSON path file needs an object with a 'paths' field")
        n = obj.get("n", graph.n)
        if type(n) is not int:
            raise GraphFormatError("JSON 'n' must be an integer")
        if n != graph.n:
            raise GraphFormatError(f"path file declares n={n} but graph has n={graph.n}")
        seqs = obj["paths"]
        if not (isinstance(seqs, list) and all(isinstance(seq, list) for seq in seqs)
                and {type(v) for seq in seqs for v in seq} <= {int}):
            raise GraphFormatError("JSON 'paths' must be a list of lists of integers")
    else:
        seqs = []
        for lineno, line in _data_lines(text):
            try:
                seqs.append(_decimal_ints(line))
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad path line {line!r}") from None
    try:
        return checked_system(graph, seqs)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def _outcome(read, *args):
    try:
        return read(*args)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# Inputs: ids written every way int() reads them, separated, broken and
# commented every way the grammar allows or refuses.
# ---------------------------------------------------------------------------

_SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t ", "\xa0", "　", "\x1f"])
_BREAKS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x1c", "\x0b", " "])
_ODD_TOKENS = st.sampled_from(["1_0", "٣", "１", "x", "0x1", "1.0", "+", "-",
                               "١٢", "99999999999"])


@st.composite
def _token(draw, low, high):
    """One id in [low, high], mostly plain, sometimes signed, zero-padded or
    not an ASCII decimal integer at all."""
    if draw(st.integers(0, 19)) == 19:
        return draw(_ODD_TOKENS)
    v = draw(st.integers(low, high))
    form = draw(st.integers(0, 9))
    if form == 9:
        return f"+{v}" if v >= 0 else str(v)
    if form == 8:
        return "-0" if v == 0 else f"{'-' if v < 0 else ''}00{abs(v)}"
    return str(v)


@st.composite
def _line(draw, tokens):
    """``tokens`` joined into one line, maybe indented, maybe commented."""
    parts = [draw(st.sampled_from(["", "", " ", "\t", "　"]))]
    for i, tok in enumerate(tokens):
        parts.append(tok if i == 0 else draw(_SEPARATORS) + tok)
    line = "".join(parts) + draw(st.sampled_from(["", "", "", " ", "\xa0"]))
    if draw(st.integers(0, 7)) == 7:
        line += draw(st.sampled_from(["# note", "#", " # 1_0 ٣ x", "#\t# twice"]))
    return line


@st.composite
def _file(draw, rows):
    """The rows as lines, with blank and comment-only lines in between and
    a choice of line breaks."""
    out = []
    for row in rows:
        while draw(st.integers(0, 5)) == 5:
            out.append(draw(st.sampled_from(["", "  ", "# comment", "\t# x_y"])))
        out.append(draw(_line(row)))
    brk = draw(_BREAKS)
    mixed = draw(st.integers(0, 4)) == 4
    text = "".join(line + (draw(_BREAKS) if mixed else brk) for line in out)
    return text.rstrip("\n\r") if draw(st.integers(0, 5)) == 5 else text


def _rare(draw, one_in):
    return draw(st.integers(1, one_in)) == one_in


def _sorted_pairs(draw, n, min_size):
    """Distinct pairs u < v of ids below n, sorted, from up to 10 drawn."""
    ids = st.integers(0, max(n - 1, 0))
    return sorted({(min(u, v), max(u, v)) for u, v in draw(st.lists(
        st.tuples(ids, ids), min_size=min_size, max_size=10)) if u != v})


@st.composite
def graph_texts(draw):
    n = draw(st.integers(0, 1)) if _rare(draw, 10) else draw(st.integers(2, 7))
    # Mostly an ordered edge list, as a writer emits it; sometimes shuffled,
    # reversed, duplicated, self-looped or out of range.
    pairs = _sorted_pairs(draw, n, min_size=1)
    if _rare(draw, 3):
        pairs = draw(st.permutations(pairs))
    rows = []
    for u, v in pairs:
        if _rare(draw, 10):
            u, v = v, u
        row = [draw(_token(u, u)), draw(_token(v, v))]
        if _rare(draw, 30):
            row = [draw(_token(-1, n + 1)) for _ in range(draw(st.integers(1, 3)))]
        elif _rare(draw, 30):
            row = [row[0], row[0]]
        rows.append(row)
        if _rare(draw, 15):
            rows.append(row)
    written_n = str(n)
    if _rare(draw, 10):
        written_n = draw(st.sampled_from([str(graphs.MAX_VERTICES + 1), "-3", str(n + 1)]))
    written_m = str(len(rows))
    if _rare(draw, 10):
        written_m = draw(st.sampled_from(["-1", str(len(rows) + 1), str(max(len(rows) - 1, 0))]))
    header = [written_n] if _rare(draw, 20) else [written_n, written_m]
    return draw(_file([header] + rows))


_CANONICAL_DEFECTS = ["leading zero", "long token", "too many vertices", "m + 1", "m - 1",
                      "self-loop", "out of range", "unsorted", "duplicate", "reversed",
                      "no final newline", "sign"]


@st.composite
def canonical_graph_texts(draw):
    """Graph files in the shape serialize_graph writes: lines of two ASCII
    digit tokens, one space apart, each ended by '\\n'.  Most are well formed;
    a few carry one defect, each defect as rarely as the others."""
    n = draw(st.integers(0, 8))
    pairs = _sorted_pairs(draw, n, min_size=0)
    defect = draw(st.sampled_from(_CANONICAL_DEFECTS)) if _rare(draw, 3) else None
    if defect == "self-loop":
        v = draw(st.integers(0, n))
        pairs.insert(draw(st.integers(0, len(pairs))), (v, v))
    elif defect == "out of range":
        pairs.insert(draw(st.integers(0, len(pairs))), (draw(st.integers(0, n)), n + 1))
    elif defect == "unsorted":
        pairs = draw(st.permutations(pairs))
    elif defect == "duplicate" and pairs:
        i = draw(st.integers(0, len(pairs) - 1))
        pairs.insert(i, pairs[i])
    elif defect == "reversed" and pairs:
        i = draw(st.integers(0, len(pairs) - 1))
        pairs[i] = pairs[i][::-1]
    m = len(pairs)
    if defect == "m + 1" or (defect == "m - 1" and m == 0):
        m += 1
    elif defect == "m - 1":
        m -= 1
    rows = [[str(graphs.MAX_VERTICES + 1 if defect == "too many vertices" else n), str(m)]]
    rows += [[str(u), str(v)] for u, v in pairs]
    if defect in ("leading zero", "long token", "sign"):
        row = draw(st.sampled_from(rows))
        i = draw(st.integers(0, 1))
        if defect == "leading zero":
            row[i] = "0" * draw(st.integers(1, 2)) + row[i]
        elif defect == "long token":
            row[i] = "1" * 4301
        else:
            row[i] = draw(st.sampled_from(["-", "+"])) + row[i]
    text = "".join(f"{a} {b}\n" for a, b in rows)
    return text[:-1] if defect == "no final newline" else text


def _decoded_whole(text):
    """Whether ``text`` is in the canonical shape and JSON takes every token:
    none has a leading zero, none is longer than int()'s digit limit."""
    limit = sys.get_int_max_str_digits() or len(text)
    lines = text.split("\n")
    return lines.pop() == "" and bool(lines) and all(
        len(tokens) == 2 and all(tok.isascii() and tok.isdigit() and len(tok) <= limit
                                 and (tok == "0" or tok[0] != "0") for tok in tokens)
        for tokens in (line.split(" ") for line in lines))


def _splits(text):
    """parse_graph's outcome on ``text``, and how often it called split_rows."""
    calls = []

    def counted(whole):
        calls.append(whole)
        return split_rows(whole)

    with mock.patch.object(graphs, "split_rows", counted):
        return _outcome(parse_graph, text), len(calls)


def _paths(host):
    """Simple paths on ``host``: walks that never revisit a vertex."""
    @st.composite
    def walk(draw):
        vs = [draw(st.integers(0, host.n - 1))]
        for _ in range(draw(st.integers(1, host.n - 1))):
            ahead = [w for w in host.adjacency[vs[-1]] if w not in vs]
            if not ahead:
                break
            vs.append(draw(st.sampled_from(ahead)))
        return vs
    return walk()


@st.composite
def path_texts(draw, host):
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        vs = draw(_paths(host))
        if _rare(draw, 10):
            vs = draw(st.lists(st.integers(-1, host.n), min_size=1, max_size=host.n + 1))
        rows.append([draw(_token(v, v)) for v in vs])
    return draw(_file(rows))


_JSON_VALUE = st.one_of(st.integers(-1, 5), st.booleans(), st.floats(0, 3), st.text(max_size=2),
                        st.lists(st.integers(-1, 5), max_size=6))


@st.composite
def path_jsons(draw, host):
    paths = draw(st.lists(_paths(host), max_size=5))
    if _rare(draw, 3):
        paths.insert(draw(st.integers(0, len(paths))), draw(_JSON_VALUE))
    obj = {"paths": paths}
    if draw(st.booleans()):
        obj["n"] = host.n
        if _rare(draw, 5):
            obj["n"] = draw(st.sampled_from([host.n + 1, True, float(host.n), str(host.n)]))
    text = json.dumps(obj)
    return text[:-draw(st.integers(1, 3))] if _rare(draw, 10) else text


_HOSTS = [complete_graph(5), path_graph(5), Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])]


# ---------------------------------------------------------------------------
# Differential tests.
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(graph_texts())
def test_parse_graph_matches_the_line_reader(text):
    assert _outcome(parse_graph, text) == _outcome(_line_parse_graph, text)


@settings(max_examples=300, deadline=None)
@given(canonical_graph_texts())
def test_the_canonical_tier_matches_the_line_reader(text):
    # repr, not ==: Graph(1.0, ()) == Graph(1, ()), so only the repr shows
    # a value that JSON decoded to something other than an int.  Only the
    # files JSON takes whole skip the bulk split; a file with an error is
    # split once more, by the walk that names its first bad line.
    outcome, splits = _splits(text)
    assert repr(outcome) == repr(_outcome(_line_parse_graph, text))
    assert splits == (not _decoded_whole(text)) + isinstance(outcome, tuple)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_HOSTS), st.data())
def test_parse_paths_matches_the_line_reader(host, data):
    text = data.draw(path_texts(host) if data.draw(st.booleans()) else path_jsons(host))
    assert _outcome(parse_paths, text, host) == _outcome(_line_parse_paths, text, host)


@pytest.mark.parametrize("text", [
    "", "\n\n# only comments\n", "3 1\n0 1 2\n", "3 1\n0\n", "3 2\n0 1\n", "3 1\n0 1\n1 2\n",
    "3 1\n2 2\n", "3 1\n0 3\n", "3 1\n-1 0\n", "-0 +0\n", "007 2\n2 1\n1 0\n",
    "4 2\r\n1 0\r\n1 0\r\n", "4 1\x1c0 3\x1c", "4\xa01\n2　3\n", "4 1\n2 1_0\n",
    "4 1\n٢ 3\n", f"{graphs.MAX_VERTICES + 1} 0\n", "10000001 0\n",
    "2 1 # header\n0 1 # edge\n", "-3 0\n", "3 1\n1 0\n", "3 2\n0 2\n0 1\n",
    "3 2\n0 1\n0 1\n", "3 2\n0 1\n1 1\n",
    "0 0\n", "3 1\n007 2\n",
    # Canonical characters, but not two tokens on every line: as many
    # tokens as two a line, or a blank line.
    "3 2\n0 1 2\n1\n", "3 1\n0 1\n\n", "3 1\n\n0 1\n", "3 1\n0 1 \n",
])
def test_parse_graph_matches_the_line_reader_on_fixed_inputs(text):
    assert _outcome(parse_graph, text) == _outcome(_line_parse_graph, text)


@pytest.mark.parametrize("text", [
    "", "0 1 2\n2 1\n", "0 1 0\n", "3\n", "0 9\n", "-1 0\n", "0 2\n", "0\xa01　2\r\n1 2\x1c",
    "+0 -0 1\n", "0 1_0\n", "0 ١\n", "0 1 # x_y\n\n# ٣\n1 2\n",
    '{"paths": [[0, 1], [1, 1]]}', '{"paths": [[0, 1], [true]]}', '{"n": 3, "paths": []}',
    "0 5\n1 1\n", "1 0\n2 1\n", '{"paths": [[0, 1], 5]}', '{"paths": [[0, 1], {"a": 1}]}',
    # Canonical-looking texts that the canonical tier refuses or hands on;
    # "-1 0\n" above is one too.
    "007 1\n", pytest.param("1" * 5000 + " 1\n", id="5000-digit token"), "0 1", "0 1\r\n",
    "0\t1\n", "0  1\n", " 0 1\n", "0\n", "\n0 1\n", "0 1\n# c\n",
    "0 1 \n", "0 1\n\n1 2\n", "0 1\n \n",
])
def test_parse_paths_matches_the_line_reader_on_fixed_inputs(text):
    host = complete_graph(3)
    assert _outcome(parse_paths, text, host) == _outcome(_line_parse_paths, text, host)


# ---------------------------------------------------------------------------
# What the writers emit takes the bulk path.
# ---------------------------------------------------------------------------

def test_written_files_are_read_in_bulk(monkeypatch):
    g = random_2degenerate(60, 0)
    system = build_ssp_2degenerate(g)[0]
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    split, decode = counted(graphs.split_rows), counted(graphs.decode_ints)
    for module in (graphs, systems):
        monkeypatch.setattr(module, "split_rows", split)
        monkeypatch.setattr(module, "decode_ints", decode)
    canonical = mock.Mock(wraps=graphs._CANONICAL_CHARS)
    monkeypatch.setattr(graphs, "_CANONICAL_CHARS", canonical)
    written = serialize_graph(g)
    assert parse_graph(written) == g
    assert calls == []
    # A comment, or a leading zero that JSON refuses, leaves the file to the
    # bulk split: one split and one decode of all its tokens.
    for text in ("# a comment\n" + written.replace("\n", " # edge\n"), "0" + written):
        assert parse_graph(text) == g
        assert calls == ["split_rows", "decode_ints"]
        calls.clear()
    # A file with no final newline, or with a trailing comment, cannot be in
    # the canonical shape, and goes to the bulk split without the shape scan.
    canonical.fullmatch.reset_mock()
    for text in (written[:-1], written + "# end\n"):
        assert parse_graph(text) == g
        assert calls == ["split_rows", "decode_ints"]
        calls.clear()
    assert canonical.fullmatch.call_count == 0
    # A written path file, text or JSON, is decoded by one json.loads; a
    # comment, or a leading zero that JSON refuses, leaves a text file to one
    # split and one decode of all its tokens, not one per line.
    written = format_paths(system)
    for text, expected in ((written, []),
                           ("# paths\n" + written, ["split_rows", "decode_ints"]),
                           ("0" + written, ["split_rows", "decode_ints"]),
                           (format_paths_json(system), [])):
        again = parse_paths(text, g)
        assert again == system
        assert [hash(p) for p in again.paths] == [hash(p) for p in system.paths]
        assert again.through == system.through
        assert calls == expected
        calls.clear()
    # A file the bulk decode refuses is split again, and its rows decoded in
    # line order up to the first bad one, which the error names.
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_graph("3 1\n0 x\n")
    assert calls == ["split_rows", "decode_ints", "split_rows", "decode_ints", "decode_ints"]


def test_the_shape_scans_keep_no_backtracking_state():
    # The canonical shape scan is one character class, so a full match
    # allocates nothing per line or token; a pattern that repeats a group
    # per line, such as (?:[0-9]+ [0-9]+\n)+, kept about 17 bytes per byte
    # of a graph file and 33 of a path file.
    g = random_2degenerate(2000, 0)
    for text in (serialize_graph(g), format_paths(build_ssp_2degenerate(g)[0])):
        tracemalloc.start()
        try:
            assert graphs._CANONICAL_CHARS.fullmatch(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(text) // 8, (peak, len(text))


def test_bulk_paths_equal_checked_paths():
    seqs = [(0, 1, 2), [2, 0], range(3)]
    system = system_from_sequences(complete_graph(3), seqs)
    for path, checked in zip(system.paths, checked_system(complete_graph(3), seqs).paths):
        assert type(path) is Path and path == checked and hash(path) == hash(checked)
        assert path_edges(path) == path_edges(checked)


def test_system_from_sequences_takes_a_generator():
    seqs = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    host = complete_graph(3)
    assert system_from_sequences(host, iter(seqs)) == system_from_sequences(host, seqs)
    reversed_edges = system_from_sequences(host, iter(((1, 0), (2, 1))))
    assert reversed_edges.through == system_from_sequences(host, ((0, 1), (1, 2))).through
    for bad, message in (((0, 1), (2,)), "a path needs at least two vertices"), \
                        (((0, 1), (1, 2, 1), (0,)), r"repeated vertex in path \(1, 2, 1\)"), \
                        (((0, 5), (1, 1)), r"repeated vertex in path \(1, 1\)"):
        with pytest.raises(ValueError, match=message):
            system_from_sequences(host, (s for s in bad))


# ---------------------------------------------------------------------------
# The batch check against the check of each path on its own.
# ---------------------------------------------------------------------------

def _good_sequence(rng, host):
    """A simple path on ``host``: a random edge, either way round, extended
    by up to 3 more vertices."""
    u, v = rng.choice(host.edges)
    vs = [u, v] if rng.randrange(2) else [v, u]
    for _ in range(rng.randrange(4)):
        ahead = [w for w in host.adjacency[vs[-1]] if w not in vs]
        if not ahead:
            break
        vs.append(rng.choice(ahead))
    return vs


def _bad_sequence(rng, host, kind):
    """A sequence that fails in one way only, the way ``kind`` names."""
    n = host.n
    if kind == "short":
        return [rng.randrange(n)]
    if kind == "equal ends":
        return [rng.randrange(n)] * 2
    vs = _good_sequence(rng, host)
    if kind == "repeat":
        return vs + [vs[-2]]
    if kind == "out of range":
        vs[rng.randrange(len(vs))] = rng.choice((-1, n, n + 3))
        return vs
    far = [w for w in range(n) if w not in vs and not host.has_edge(vs[-1], w)]
    if far:
        return vs + [rng.choice(far)]
    return list(rng.choice([(u, w) for u in range(n) for w in range(u + 1, n)
                            if not host.has_edge(u, w)]))


_BAD_KINDS = ("short", "equal ends", "repeat", "out of range", "non-edge")


def test_the_batch_check_reports_what_each_path_check_reports(tmp_path):
    # Seeded lists of good sequences with up to three bad ones in random
    # order, read directly, from a text file and from a JSON file: every
    # read gives the reference's system, or its exception type and text.
    text_file, json_file = tmp_path / "s.paths", tmp_path / "s.json"
    hosts = [random_2degenerate(n, seed) for n, seed in ((7, 0), (10, 1), (14, 2))]
    seen = set()
    for seed in range(400):
        rng = random.Random(seed)
        host = hosts[seed % len(hosts)]
        seqs = [_good_sequence(rng, host) for _ in range(rng.randrange(8))]
        kinds = [rng.choice(_BAD_KINDS) for _ in range(rng.choice((0, 1, 1, 2, 3)))]
        for kind in kinds:
            seqs.insert(rng.randrange(len(seqs) + 1), _bad_sequence(rng, host, kind))
        seen.add(tuple(sorted(set(kinds))))
        expected = _outcome(checked_system, host, seqs)
        assert _outcome(system_from_sequences, host, seqs) == expected, seed
        text_file.write_text("".join(" ".join(map(str, vs)) + "\n" for vs in seqs))
        json_file.write_text(json.dumps({"paths": seqs}))
        for file in (text_file, json_file):
            assert _outcome(load_paths, str(file), host) == \
                _outcome(_line_parse_paths, file.read_text(), host), (seed, file.name)
    assert {(kind,) for kind in _BAD_KINDS} <= seen
