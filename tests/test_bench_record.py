"""The summariser that turns paired benchmark runs into a BENCH_*.json record."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_record  # noqa: E402


def write_run(out_dir, workload, seed, **metrics):
    values = dict.fromkeys(bench_record.end_to_end_metrics(), 1.0) | metrics
    result = {"metrics": {name: {"value": value, "unit": "s"} for name, value in values.items()}}
    (out_dir / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps({"result": result}))


def test_pairs_by_seed_and_counts_wins(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for seed, before, after, ok in ((1, 1.0, 0.8, 1.0), (2, 1.2, 0.9, 1.0), (3, 1.1, 1.1, 1.0), (4, 0.9, 1.0, 1.0)):
        write_run(parent, "analytic", seed, pass_s=before, ok_frac=ok)
        write_run(change, "analytic", seed, pass_s=after, ok_frac=ok - 0.5 * (seed == 4))
    write_run(parent, "analytic", 5, pass_s=9.0, ok_frac=1.0)  # no change run: not a pair
    write_run(parent, "cli_cold", 1, pass_s=1.0, ok_frac=1.0)  # one pair only: left out
    write_run(change, "cli_cold", 1, pass_s=1.0, ok_frac=1.0)
    (parent / "analytic-seed6-trace1.json").write_text("{}")  # traced runs are not read

    dest = tmp_path / "BENCH.json"
    assert bench_record.main([str(parent), str(change), str(dest)]) == 0
    record = json.loads(dest.read_text())["workloads"]
    assert list(record) == ["analytic"]
    assert record["analytic"]["seeds"] == [1, 2, 3, 4]
    pass_s = record["analytic"]["metrics"]["pass_s"]
    assert (pass_s["wins"], pass_s["losses"], pass_s["ties"]) == (2, 1, 1)
    assert pass_s["parent"]["median"] == 1.05 and pass_s["change"]["median"] == 0.95
    assert pass_s["parent"]["q1"] <= pass_s["parent"]["median"] <= pass_s["parent"]["q3"]
    ok_frac = record["analytic"]["metrics"]["ok_frac"]  # higher is better
    assert (ok_frac["wins"], ok_frac["losses"], ok_frac["ties"]) == (0, 1, 3)


def test_no_pairs_is_an_error(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert bench_record.main([str(tmp_path / "a"), str(tmp_path / "b"), str(tmp_path / "out.json")]) == 1
    assert bench_record.main([]) == 2
