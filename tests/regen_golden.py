#!/usr/bin/env python3
"""Regenerate the golden CLI outputs in tests/golden/ and the pinned help text."""

import contextlib
import io
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))
sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))
from golden_corpus import CORPUS

from periodkit.cli import COMMANDS, main

HELP_FILE = pathlib.Path(__file__).parent / "golden_help.txt"


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"command {argv} exited {code}")
    return buf.getvalue()


def help_pages() -> str:
    """`periodkit --help` and `periodkit <cmd> --help` for every subcommand,
    each under a `$ ` line."""
    argvs = [["--help"]] + [[name, "--help"] for name in COMMANDS]
    return "".join(f"$ periodkit {' '.join(argv)}\n{run(argv)}" for argv in argvs)


def regenerate():
    golden_dir = pathlib.Path(__file__).parent / "golden"
    golden_dir.mkdir(exist_ok=True)
    for name, argv in CORPUS:
        (golden_dir / name).write_text(run(argv))
        print(f"wrote {name}")
    HELP_FILE.write_text(help_pages())
    print(f"wrote {HELP_FILE.name}")


if __name__ == "__main__":
    regenerate()
