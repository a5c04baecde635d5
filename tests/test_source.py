"""Properties of the library source itself."""

import ast
import pathlib
import sys

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


def test_library_imports_only_the_standard_library():
    # No runtime dependency; a relative import (level > 0) stays inside periodkit.
    def top_names(node):
        if isinstance(node, ast.Import):
            return [alias.name.split(".")[0] for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            return ["periodkit"] if node.level else [node.module.split(".")[0]]
        return []

    sources = sorted(pathlib.Path(periodkit.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno} {name}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in top_names(node)
        if name not in sys.stdlib_module_names and name != "periodkit"
    ]
    assert found == []
