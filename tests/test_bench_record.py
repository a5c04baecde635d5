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


def record_of(tmp_path, runs):
    """The record of runs, {workload: [(parent metrics, change metrics), ...]}, one pair per seed."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for workload, pairs in runs.items():
        for seed, (before, after) in enumerate(pairs, 1):
            write_run(parent, workload, seed, **before)
            write_run(change, workload, seed, **after)
    assert bench_record.main([str(parent), str(change), str(tmp_path / "BENCH.json")]) == 0
    return json.loads((tmp_path / "BENCH.json").read_text())["workloads"]


def test_one_verdict_per_metric_and_workload(tmp_path):
    # Ten pairs a workload.  The bound of pass_s, call_p50_s and call_tail_s
    # in BENCHMARK.json is 0.25.
    wide = [0.5, 0.6, 0.7, 0.8, 0.9, 1.1, 1.2, 1.3, 1.4, 1.5]  # an IQR of 0.5 on a median of 1.0
    analytic = [
        (
            {"pass_s": 1.0 + 0.01 * i, "call_p50_s": 1.0, "call_tail_s": wide[i]},
            {
                "pass_s": 0.8 + 0.01 * i,  # 10 wins, by 0.2: beyond the parent's IQR of 0.045
                "call_p50_s": 1.3,  # worse by 0.3, beyond 0.25 times the parent's median
                "call_tail_s": wide[9 - i],  # no shift, within a spread wider than the bound
            },
        )
        for i in range(10)
    ]
    exact_ring = [
        (
            {"pass_s": 1.0 + 0.01 * i, "call_tail_s": wide[i]},
            {
                "pass_s": 0.5 if i < 8 else 2.0,  # far better, but in 8 pairs of 10 only
                "call_tail_s": wide[i] - 0.01,  # 10 wins, but within the parent's IQR
            },
        )
        for i in range(10)
    ]
    # Better in every pair; and worse by 0.5, within 0.25 times the median of 4.0.
    finite_enum = [({"pass_s": 1.0, "call_p50_s": 4.0}, {"pass_s": 0.5, "call_p50_s": 4.5})] * 10
    record = record_of(tmp_path, {"analytic": analytic, "exact_ring": exact_ring, "finite_enum": finite_enum})
    verdicts = {w: {name: row["verdict"] for name, row in r["metrics"].items()} for w, r in record.items()}
    assert verdicts["analytic"] == {
        "pass_s": "gain",
        "call_p50_s": "regression",
        "call_tail_s": "unresolved",
        "setup_s": "no change",
        "ok_frac": "no change",
        "peak_rss_mb": "no change",
    }
    assert (verdicts["exact_ring"]["pass_s"], verdicts["exact_ring"]["call_tail_s"]) == ("no change", "unresolved")
    assert (verdicts["finite_enum"]["pass_s"], verdicts["finite_enum"]["call_p50_s"]) == ("gain", "no change")
    overall = {w: r["verdict"] for w, r in record.items()}
    assert overall == {"analytic": "regression", "exact_ring": "unresolved", "finite_enum": "gain"}


def test_no_pairs_is_an_error(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert bench_record.main([str(tmp_path / "a"), str(tmp_path / "b"), str(tmp_path / "out.json")]) == 1
    assert bench_record.main([]) == 2
