#!/usr/bin/env python3
"""Print three line counts of the library source, per module and in total.

    python3 tools/loc.py [DIR]

DIR defaults to src/periodkit.  `lines` is what `wc -l` counts.  `doc` is
the lines of the docstrings: the string that opens a module, class or
function body, found with `ast`.  `code` is the lines that are not blank, not
comment-only and not part of a docstring.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers, from 1, covered by the docstrings of the tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int, int]:
    """(wc -l lines, code lines, docstring lines) of one source file."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text, filename=str(path)))
    code = sum(
        1
        for number, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#") and number not in docs
    )
    return text.count("\n"), code, len(docs)


def main(argv: list[str]) -> None:
    directory = Path(argv[0]) if argv else ROOT / "src" / "periodkit"
    total = [0, 0, 0]
    print(f"{'module':<24}{'lines':>7}{'code':>7}{'doc':>7}")
    for path in sorted(directory.glob("*.py")):
        row = counts(path)
        total = [a + b for a, b in zip(total, row)]
        print(f"{path.name:<24}" + "".join(f"{n:>7}" for n in row))
    print(f"{'total':<24}" + "".join(f"{n:>7}" for n in total))


if __name__ == "__main__":
    main(sys.argv[1:])
