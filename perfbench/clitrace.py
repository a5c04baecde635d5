"""Run one periodkit CLI command with the layer tracer installed.

Usage: python -X importtime perfbench/clitrace.py SPANS.json ARGV...

The command's stdout and exit code are those of `python -m periodkit ARGV`;
the spans and counts go to SPANS.json, the import times to stderr.
"""

import json
import sys

import layers

import periodkit.cli

if __name__ == "__main__":
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = layers.Tracer()
    tracer.install()
    try:
        code = periodkit.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(out_path, "w") as f:
            json.dump(tracer.export(), f)
    sys.exit(code)
