#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/selftest.py

For every workload, an untraced and a traced run must be correct and emit
every metric with a unit.  Then one deliberately corrupted expectation per
workload (a flipped byte in a temporary copy of one golden file for
cli_cold; a wrong expected a_p, norm or tau for the others) must show up as
failed operations and a run that is not correct.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
LAYER_PREFIXES = [f"{layer}." for layer in run.layers.LAYERS] + ["trace."]


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        check.failures += 1


check.failures = 0


def main() -> int:
    for workload in workloads.WORKLOADS:
        result = run.measure(workload, seed=7, seconds=1, trace=0, size="tiny")["result"]
        metrics = result["metrics"]
        check(result["correct"] and result["failed"] == 0, f"{workload}: tiny run is correct")
        check({k: m["unit"] for k, m in metrics.items()} == E2E,
              f"{workload}: the end-to-end metrics of BENCHMARK.json, with their units")
        traced = run.measure(workload, seed=7, seconds=1, trace=1, size="tiny")["result"]
        names = set(traced["metrics"])
        check(traced["correct"], f"{workload}: traced tiny run is correct")
        check({k: m["unit"] for k, m in traced["metrics"].items()} == PER_LAYER,
              f"{workload}: the per-layer metrics of BENCHMARK.json, with their units")
        check(all(any(n.startswith(p) for n in names) for p in LAYER_PREFIXES),
              f"{workload}: every layer and the tracing overhead are covered")

    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        golden = shutil.copytree(run.ROOT / "tests" / "golden", f"{tmp}/golden")
        target = f"{golden}/01_gauss.json"
        data = bytearray(open(target, "rb").read())
        data[10] ^= 0x01
        open(target, "wb").write(data)
        record = run.measure("cli_cold", 7, 1, 0, size="tiny", extra=["--golden", str(golden)])
        check(not record["result"]["correct"] and 0 < record["fail_frac"] < 1,
              f"cli_cold: flipped golden byte is caught (fail_frac {record['fail_frac']:.3f})")
    for workload in workloads.WORKLOADS[1:]:
        record = run.measure(workload, 7, 1, 0, size="tiny", extra=["--corrupt"])
        check(not record["result"]["correct"] and 0 < record["fail_frac"] < 1,
              f"{workload}: wrong expectation is caught (fail_frac {record['fail_frac']:.3f})")
    print("self-test " + ("passed" if not check.failures else f"FAILED ({check.failures})"))
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())
