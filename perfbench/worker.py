"""One fresh interpreter per measured run (started by run.py).

It imports what the workload needs, runs one warm-up op per kind, prints
READY and the median of the speed probes it took at the start and at the
end of set-up (the parent times set-up up to that line), then runs its
passes and prints one JSON line with per-op timings, probes and verdicts.  With --trace 1 it
alternates untraced and traced passes over the same inputs instead, and
adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLITRACE = HERE / "clitrace.py"
SCRATCH = HERE / "out" / f"tmp-{os.getpid()}"

# Speed probes taken at each end of set-up.
SETUP_PROBES = 3

# Submodules each in-process workload calls into.
MODULES = {
    "finite_enum": ("curve_counts", "characters"),
    "exact_ring": ("amplitudes", "characters", "padic"),
    "analytic": ("complex_periods", "amplitudes"),
}


def load_corpus() -> list:
    namespace: dict = {}
    path = ROOT / "tests" / "golden_corpus.py"
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace["CORPUS"]


# ---------------------------------------------------------------------------
# Cold CLI ops: one child process each.


def run_cli(argv: list, traced_out: Path | None = None):
    if traced_out is None:
        cmd = [sys.executable, "-m", "periodkit", *argv]
    else:
        cmd = [sys.executable, "-X", "importtime", str(CLITRACE), str(traced_out), *argv]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr.decode("utf-8", "replace")


def check_cli(op, out, golden: Path) -> bool:
    code, stdout, stderr = out
    if op[1] == "warmup":
        return code == 0 and "Traceback" not in stderr
    return code == 0 and "Traceback" not in stderr and stdout == (golden / op[1]).read_bytes()


# ---------------------------------------------------------------------------
# Passes


def timed(fn, op):
    """(duration, output, probe): the op's time and output, and the time
    of the speed probe taken just before it."""
    probe = speed.probe()
    start = time.perf_counter()
    try:
        out = fn(op)
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        out = exc
    return time.perf_counter() - start, out, probe


def run_pass(args, ops, traced: bool, pk):
    """Durations, probes, verdicts, errors and (traced only) the pass's
    layer data."""
    layer_data = None
    if args.workload == "cli_cold":
        golden = Path(args.golden)
        if traced:
            SCRATCH.mkdir(parents=True, exist_ok=True)
            files = [SCRATCH / f"{i}.json" for i in range(len(ops))]
            results = [timed(lambda op, f=f: run_cli(op[2], f), op) for op, f in zip(ops, files)]
            layer_data = collect_cli_traces(files, [out for _, out, _ in results])
        else:
            results = [timed(lambda op: run_cli(op[2]), op) for op in ops]
        verdicts = [not isinstance(out, Exception) and check_cli(op, out, golden) for op, (_, out, _) in zip(ops, results)]
    else:
        layers.clear_caches()
        gc.collect()
        tracer = layers.Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            results = [timed(lambda op: workloads.run_op(pk, op), op) for op in ops]
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            layer_data = layers.layer_metrics(tracer.spans, tracer.counts)
            layer_data.update(layers.cache_ratios(pk))
        verdicts = workloads.check_pass(ops, [out for _, out, _ in results], args.corrupt)
    errors = [f"{op[0]}: {type(out).__name__}: {out}" for op, (_, out, _) in zip(ops, results) if isinstance(out, Exception)]
    return [d for d, _, _ in results], [c for _, _, c in results], verdicts, errors, layer_data


def collect_cli_traces(files: list, outs: list) -> dict:
    """Merge the span files and import times of the traced CLI children."""
    spans, counts, imports = [], {}, []
    for f, out in zip(files, outs):
        if isinstance(out, Exception) or not f.exists():
            continue
        data = json.loads(f.read_text())
        f.unlink()
        offset = len(spans)
        spans += [[n, s, e, p + offset if p >= 0 else -1] for n, s, e, p in data["spans"]]
        for k, v in data["counts"].items():
            counts[k] = counts.get(k, 0) + v
        imports.append(layers.parse_importtime(out[2]))
    metrics = layers.layer_metrics(spans, counts)
    metrics.update({k: 0.0 for k in layers.CACHES})
    for key in layers.IMPORT_PACKAGES:
        metrics[key] = statistics.fmean(i[key] for i in imports) if imports else 0.0
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--corrupt", action="store_true", help="self-test: perturb one expectation")
    ap.add_argument("--golden", default=str(ROOT / "tests" / "golden"))
    args = ap.parse_args()

    probes = [speed.probe() for _ in range(SETUP_PROBES)]
    pk = None
    corpus = None
    if args.workload == "cli_cold":
        corpus = load_corpus()
        run_one = lambda op: run_cli(op[2])  # noqa: E731
    else:
        import periodkit as pk  # a plain import statement, so -X importtime logs it

        for name in MODULES[args.workload]:
            importlib.import_module(f"periodkit.{name}")
        run_one = lambda op: workloads.run_op(pk, op)  # noqa: E731
    for op in workloads.warmup_ops(args.workload):
        run_one(op)
    probes += [speed.probe() for _ in range(SETUP_PROBES)]
    print("READY", statistics.median(probes), flush=True)
    if args.setup_only:
        return 0

    ops = workloads.make_ops(args.workload, args.seed, args.size, corpus)
    # A traced run alternates untraced and traced passes, so the two compare
    # like with like; it does about the same work as an untraced run.
    schedule = [False, True] * max(1, args.passes // 2) if args.trace else [False] * args.passes
    passes = []
    for traced in schedule:
        durations, probes, ok, errors, layer_data = run_pass(args, ops, traced, pk)
        passes.append({"durations": durations, "probes": probes, "ok": ok, "errors": errors, "traced": traced,
                       "layers": layer_data})
    shutil.rmtree(SCRATCH, ignore_errors=True)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    result = {"ops": ops, "passes": passes, "peak_rss_kb": resource.getrusage(who).ru_maxrss}
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
