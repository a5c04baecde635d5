#!/usr/bin/env python3
"""Summarise paired benchmark runs of a parent checkout and a change into one
BENCH_<n>.json record.

    python3 tools/bench_record.py PARENT_OUT CHANGE_OUT BENCH_12.json

PARENT_OUT and CHANGE_OUT are the perfbench/out directories of the two
checkouts.  A pair is one seed of one workload run on both sides with
--trace 0, that is, the files <workload>-seed<n>-trace0.json present in both.
For each workload and each end-to-end metric of BENCHMARK.json the record
holds both sides' median and quartiles over the pairs, and how many pairs
the change won, lost and tied ("better" in BENCHMARK.json says which
direction wins).  Quartiles use the inclusive method of
statistics.quantiles; a workload with fewer than two pairs is left out.

Each metric gets a verdict, the first of these that holds:

- "gain": the change won at least 9 in 10 of the pairs, and its median is
  better than the parent's by more than the parent's interquartile range;
- "regression": the change's median is worse than the parent's by more than
  the metric's "bound" in BENCHMARK.json times the parent's median;
- "unresolved": the parent's interquartile range is wider than that bound
  times its median, and not every change run beats every parent run;
- "no change".

A workload's verdict is the first of "regression", "unresolved" and "gain"
that one of its metrics has, else "no change".
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = re.compile(r"(?P<workload>\w+)-seed(?P<seed>\d+)-trace0\.json")


def end_to_end_metrics() -> dict[str, dict]:
    """Metric name -> its entry in BENCHMARK.json: "better", "lower" or
    "higher", the direction that counts as better, and "bound"."""
    return {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def read_runs(out_dir: Path) -> dict[tuple[str, int], dict[str, float]]:
    """(workload, seed) -> end-to-end metric values of that run."""
    runs = {}
    for path in out_dir.iterdir():
        match = RECORD.fullmatch(path.name)
        if match:
            metrics = json.loads(path.read_text())["result"]["metrics"]
            runs[match["workload"], int(match["seed"])] = {k: v["value"] for k, v in metrics.items()}
    return runs


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


VERDICTS = ("regression", "unresolved", "gain")  # a workload takes the first that one of its metrics has


def verdict(before: list[float], after: list[float], sign: int, bound: float, wins: int) -> str:
    """The verdict of one metric (module docstring); sign is 1 where lower is better, -1 where higher is."""
    parent, change = spread(before), spread(after)
    iqr, scale = parent["q3"] - parent["q1"], bound * abs(parent["median"])
    gain = sign * (parent["median"] - change["median"])
    if 10 * wins >= 9 * len(before) and gain > iqr:
        return "gain"
    if -gain > scale:
        return "regression"
    if iqr > scale and not all(sign * b > sign * a for b in before for a in after):
        return "unresolved"
    return "no change"


def summarise(parent: dict, change: dict, metrics: dict[str, dict]) -> dict:
    out = {}
    pairs = parent.keys() & change.keys()
    for workload in sorted({w for w, _ in pairs}):
        seeds = sorted(s for w, s in pairs if w == workload)
        if len(seeds) < 2:
            continue
        rows = {}
        for name, metric in metrics.items():
            before = [parent[workload, s][name] for s in seeds]
            after = [change[workload, s][name] for s in seeds]
            sign = 1 if metric["better"] == "lower" else -1
            wins = sum(sign * (b - a) > 0 for b, a in zip(before, after))
            losses = sum(sign * (b - a) < 0 for b, a in zip(before, after))
            rows[name] = {
                "better": metric["better"],
                "parent": spread(before),
                "change": spread(after),
                "wins": wins,
                "losses": losses,
                "ties": len(seeds) - wins - losses,
                "verdict": verdict(before, after, sign, metric["bound"], wins),
            }
        found = {row["verdict"] for row in rows.values()}
        overall = next((v for v in VERDICTS if v in found), "no change")
        out[workload] = {"seeds": seeds, "verdict": overall, "metrics": rows}
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    parent_dir, change_dir, dest = map(Path, argv)
    record = {"workloads": summarise(read_runs(parent_dir), read_runs(change_dir), end_to_end_metrics())}
    if not record["workloads"]:
        print("error: no workload has two seeds run on both sides", file=sys.stderr)
        return 1
    dest.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
