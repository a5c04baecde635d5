#!/usr/bin/env python3
"""Regenerate the golden CLI outputs in tests/golden/."""

import contextlib
import io
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))
sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))
from golden_corpus import CORPUS

from periodkit.cli import main


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"command {argv} exited {code}")
    return buf.getvalue()


def regenerate():
    golden_dir = pathlib.Path(__file__).parent / "golden"
    golden_dir.mkdir(exist_ok=True)
    for name, argv in CORPUS:
        (golden_dir / name).write_text(run(argv))
        print(f"wrote {name}")


if __name__ == "__main__":
    regenerate()
