"""Rules the library source keeps."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pathsep"


def test_library_has_no_assert_statements():
    # `python -O` strips `assert`; invariants must raise explicitly.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
