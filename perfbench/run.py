#!/usr/bin/env python3
"""periodkit benchmark: end-to-end metrics per workload, per-layer metrics
from a separate traced run.

    python3 perfbench/run.py --workload finite_enum --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; it uses `src/periodkit` and
`tests/golden*` from there and installs nothing.  The last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Op times are reported at reference speed (see speed.py).  The full record
of the run (inputs, raw per-op timings and speed probes, verdicts, machine)
goes to perfbench/out/.  See perfbench/README.md for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import layers
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

# Set-up is measured this many times per run (one of them is the measuring
# worker's own) and reported as the median.
SETUP_SAMPLES = 3

# Roughly the seconds one pass takes on the reference machine (2-core Xeon,
# CPython 3.11, scipy 1.17).  --seconds is turned into a pass count with
# these, so every run of a workload does the same work and yields the same
# number of samples, whatever the speed of the code under test.  At
# --seconds 15 they give 2, 6, 6 and 12 passes.  On a shared machine the
# CPU runs up to 1.5x slower for stretches of seconds to minutes, so every
# op time is taken at reference speed (speed.py), and pass and median times
# are built from each op's median over the passes.
NOMINAL_PASS_S = {"cli_cold": 15.0, "finite_enum": 2.5, "exact_ring": 2.5, "analytic": 1.25}
MIN_PASSES = 2

# A run gives up, stopping its workers, this many seconds after it starts.
DEADLINE_S = 170


def spec_units(section: str) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json at the checkout root."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def passes_for(workload: str, seconds: int) -> int:
    return max(MIN_PASSES, math.floor(seconds / NOMINAL_PASS_S[workload]))


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten of n samples above it."""
    return 100 * (1 - 10 / n) if n > 10 else 0.0


def timings(passes: list, key: str) -> dict[str, float]:
    """pass_s, call_p50_s and call_tail_s from the op times in p[key] of
    each pass (every pass runs the same ops)."""
    op_times = [statistics.median(times) for times in zip(*(p[key] for p in passes))]
    samples = [t for p in passes for t in p[key]]
    return {
        "pass_s": sum(op_times),
        "call_p50_s": percentile(op_times, 50),
        "call_tail_s": percentile(samples, tail_percentile(len(samples))),
    }


def percentile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile: a weighted mean of all
    order statistics, with Beta(q(n+1), (1-q)(n+1)) weights.  It estimates
    the same percentile as a single order statistic, with less variance
    when one op's replicas straddle it."""
    xs = sorted(values)
    n = len(xs)
    p = q / 100
    if not 0 < p < 1:
        return xs[0] if p <= 0 else xs[-1]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    # Integrate the Beta density over each sample's share of [0, 1].
    steps = 100 * n
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = [0.0] * n
    for k in range(steps):
        x = (k + 0.5) / steps
        weights[k * n // steps] += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_norm)
    return sum(w * v for w, v in zip(weights, xs)) / sum(weights)


def machine_info() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "scipy": scipy_version,
        "cpu": cpu or platform.processor(),
        "platform": platform.platform(),
    }


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # One thread per process: keep numerical libraries from starting pools.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(argv: list, stderr_path: Path, deadline: float, importtime: bool = False):
    """Start a worker and wait for READY; returns (process, set-up seconds,
    the worker's speed probe during set-up)."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), str(WORKER), *argv]
    with open(stderr_path, "w") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, stderr=stderr, text=True, start_new_session=True
        )
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - start))
    line = proc.stdout.readline().split() if ready else []
    setup = time.perf_counter() - start
    if line[:1] != ["READY"]:
        stop(proc)
        raise RuntimeError(f"worker failed during set-up:\n{stderr_path.read_text()[-3000:]}")
    return proc, setup, float(line[1])


def stop(proc) -> None:
    """Kill the worker and any CLI child it started, then reap the worker."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # exited since the poll
            pass
    proc.wait()


def finish_worker(proc, stderr_path: Path, deadline: float) -> dict:
    out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{stderr_path.read_text()[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: int, size: str = "full", extra: list = ()) -> dict:
    """Run one benchmark run; returns the record (result under "result")."""
    deadline = time.perf_counter() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    passes = passes_for(workload, seconds) if size == "full" else MIN_PASSES
    argv = ["--workload", workload, "--seed", str(seed), "--passes", str(passes), "--size", size,
            "--trace", str(trace), *extra]
    stderr_path = OUT / f"{workload}-{os.getpid()}.stderr"
    setups = []  # (seconds, probe)
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, *setup = start_worker(argv + ["--setup-only"], stderr_path, deadline)
            try:
                proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
            finally:
                stop(proc)
            setups.append(setup)
    in_process = workload != "cli_cold"
    proc, *setup = start_worker(argv, stderr_path, deadline, importtime=bool(trace) and in_process)
    setups.append(setup)
    try:
        data = finish_worker(proc, stderr_path, deadline)
    finally:
        stop(proc)
    worker_stderr = stderr_path.read_text()
    stderr_path.unlink()

    all_passes = data["passes"]
    for p in all_passes:
        p["ref"] = speed.at_reference(p["durations"], p["probes"])
    attempted = sum(len(p["ok"]) for p in all_passes)
    failed = sum(not ok for p in all_passes for ok in p["ok"])
    timed_passes = [p for p in all_passes if not p["traced"]]
    samples = sum(len(p["ref"]) for p in timed_passes)
    at_ref = timings(timed_passes, "ref")

    if trace:
        traced = [p for p in all_passes if p["traced"]]
        keys = traced[0]["layers"].keys()
        metrics = {k: statistics.median(p["layers"][k] for p in traced) for k in keys}
        if in_process:
            metrics.update(layers.parse_importtime(worker_stderr))
        metrics["trace.untraced_pass_s"] = at_ref["pass_s"]
        metrics["trace.traced_pass_s"] = timings(traced, "ref")["pass_s"]
        metrics["trace.overhead_s"] = metrics["trace.traced_pass_s"] - metrics["trace.untraced_pass_s"]
        units = spec_units("per_layer")
    else:
        metrics = {
            "setup_s": statistics.median(s * speed.REF_S / c for s, c in setups),
            **at_ref,
            "ok_frac": 1 - failed / attempted,
            "peak_rss_mb": data["peak_rss_kb"] / 1024,
        }
        units = spec_units("end_to_end")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "passes": passes,
        "fail_frac": failed / attempted,
        "setup_samples_s": [s for s, _ in setups],
        "setup_probes_s": [c for _, c in setups],
        "pass_s_each": [sum(p["ref"]) for p in timed_passes],
        "raw_pass_s_each": [sum(p["durations"]) for p in timed_passes],
        "raw_timings": timings(timed_passes, "durations"),
        "call_tail": {"percentile": tail_percentile(samples), "samples": samples},
        "machine": machine_info(),
        "errors": [e for p in all_passes for e in p["errors"]][:20],
        "inputs": data["ops"],
        "durations": [p["durations"] for p in all_passes],
        "probes": [p["probes"] for p in all_passes],
        "verdicts": [p["ok"] for p in all_passes],
        "result": result,
    }


def source_present() -> bool:
    return all((ROOT / f).is_file() for f in ("BENCHMARK.json", "src/periodkit/__init__.py", "tests/golden_corpus.py"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Turn a termination request into SystemExit so workers are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not source_present():
        print(f"error: no periodkit source tree under {ROOT}", file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=str) + "\n")
    result = record["result"]
    print(f"{args.workload} seed={args.seed}: {record['passes']} passes, "
          f"tail = p{record['call_tail']['percentile']:.2f} of {record['call_tail']['samples']}, record in {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
