"""Properties of the library source itself."""

import ast
import pathlib

import periodkit


def test_no_assert_statements_in_library():
    # Invariant checks raise AssertionError explicitly, so they still run
    # under python -O, which strips assert statements.
    sources = sorted(pathlib.Path(periodkit.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
