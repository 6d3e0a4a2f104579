"""Rules the library source keeps."""

import argparse
import ast
import dataclasses
import inspect
import pathlib
import re

from pathsep import cli, graphs
from pathsep.oracle import OracleConfig

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pathsep"


def test_library_has_no_assert_statements():
    # `python -O` strips `assert`; invariants must raise explicitly.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_one_function_splits_lines():
    # The token grammar is written once: `graphs.split_rows` is the one
    # place that breaks text into lines, so no second reader of the file
    # formats, such as a line-by-line one, can drift from it.
    calls = [(path.name, node.lineno)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "splitlines"]
    body, start = inspect.getsourcelines(graphs.split_rows)
    assert [(name, start <= line < start + len(body)) for name, line in calls] == \
        [("graphs.py", True)]


def test_every_oracle_option_is_an_exact_flag():
    # OracleConfig field -> flag of `pathsep exact` that sets it.
    flags = {"max_vertices": "--max-vertices", "max_edges": "--max-edges",
             "max_path_budget": "--max-paths", "time_budget": "--time-budget"}
    assert [f.name for f in dataclasses.fields(OracleConfig)] == list(flags)
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    exact = sub.choices["exact"]._option_string_actions
    defaults = OracleConfig()
    for field, flag in flags.items():
        assert exact[flag].default == getattr(defaults, field), flag


def test_only_systems_calls_path_system():
    # Builders and the exact search hand vertex tuples to
    # `system_from_sequences`, so every path they make passes its one batch
    # check.
    callers = {path.name
               for path in SRC.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Call)
               and "PathSystem" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))}
    assert callers <= {"systems.py"}


def test_no_path_records_on_the_read_path():
    # A system's paths are the vertex tuples of `PathSystem.sequences`.  The
    # library and the demos read those, and make no `Path` record: `Path`
    # appears only in the `PathSystem.paths` view, which they never read.
    # `.paths` elsewhere is no system's: it is the command line's path file
    # (`args.paths`) or the exact search's candidates (`self.paths`,
    # `search.paths`).
    not_systems = {("cli.py", "args"), ("oracle.py", "self"), ("oracle.py", "search")}
    files = sorted(SRC.glob("*.py")) + sorted((SRC.parent.parent / "demos").glob("*.py"))
    found, views = [], 0
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        view = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "PathSystem":
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "paths":
                        view.update(map(id, ast.walk(item)))
                        views += 1
        for node in ast.walk(tree):
            if id(node) in view:
                continue
            if isinstance(node, ast.Name) and node.id == "Path" or \
                    isinstance(node, ast.Attribute) and node.attr == "Path":
                found.append(f"{path.name}:{node.lineno} Path")
            if isinstance(node, ast.Attribute) and node.attr == "paths" and \
                    (path.name, getattr(node.value, "id", None)) not in not_systems:
                found.append(f"{path.name}:{node.lineno} .paths")
    assert views == 1 and found == []


def test_every_export_has_a_caller_outside_the_tests():
    # A name `pathsep` exports is used by the library, a demo or the
    # benchmark; a helper only the tests need lives in the tests.
    root = SRC.parent.parent
    exported = [alias.name
                for node in ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((root / "demos").rglob("*.py")) + sorted((root / "bench").rglob("*.py"))
    lines = [line for p in files for line in p.read_text(encoding="utf-8").splitlines()]
    unused = [name for name in exported
              if not any(re.search(rf"\b{name}\b", line)
                         and not re.match(rf"\s*(def|class)\s+{name}\b", line)
                         for line in lines)]
    assert exported and unused == []


def test_no_function_calls_itself():
    # Python's call stack is shallow, so the library recurses nowhere: a
    # function calls itself neither by its bare name nor, as a method, as
    # `self.<name>`.  Other attribute calls, such as `self.backs.append`
    # in `_Paths.append`, are no self-calls.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name) and func.id == fn.name or \
                        id(fn) in methods and isinstance(func, ast.Attribute) and \
                        func.attr == fn.name and getattr(func.value, "id", None) == "self":
                    found.append(f"{path.name}:{node.lineno} {fn.name}")
    assert found == []
