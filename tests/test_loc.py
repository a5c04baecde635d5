"""The line counter that tracks the size of the library source."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import loc  # noqa: E402

MODULE = '''"""A module.

Its docstring spans three lines."""

# a comment-only line


def successor(x):
    """One docstring line."""
    return x + 1  # a comment after code
'''


def test_counts_lines_code_and_docstrings(tmp_path, capsys):
    # 10 lines: 4 of docstrings, 2 of code, one comment-only and 3 blank.
    (tmp_path / "sample.py").write_text(MODULE)
    assert loc.counts(tmp_path / "sample.py") == (10, 2, 4)
    loc.main([str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code", "doc"], ["sample.py", "10", "2", "4"], ["total", "10", "2", "4"]]
