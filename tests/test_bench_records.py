"""Every checked-in benchmark record is well formed and its medians add up.

A performance claim cites a ``BENCH_<label>.json`` at the repository
root: the perfbench runs it rests on, each with its workload, seed,
side (``parent`` or ``change``), the end-to-end metrics, ``correct``,
``failed`` and the output digest, plus each side's medians.  The record
may name only the workloads and end-to-end metrics that
``BENCHMARK.json`` declares, every run must have passed the correctness
gate, and the stored medians must be the medians of the stored runs.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def record_problems(record: dict, benchmark: dict) -> list[str]:
    """What is wrong with one benchmark record; empty if nothing is."""
    workloads = {w["name"] for w in benchmark["workloads"]}
    metrics = {m["name"] for m in benchmark["end_to_end"]}
    problems: list[str] = []
    runs = record.get("runs")
    if not runs:
        return ["no runs"]
    for i, run in enumerate(runs):
        where = f"run {i} ({run.get('workload')}, seed {run.get('seed')}, {run.get('side')})"
        if run.get("workload") not in workloads:
            problems.append(f"{where}: undeclared workload")
        if run.get("side") not in SIDES:
            problems.append(f"{where}: side is not one of {SIDES}")
        if run.get("correct") is not True or run.get("failed") != 0:
            problems.append(f"{where}: not correct with 0 failed")
        if not isinstance(run.get("digest"), str):
            problems.append(f"{where}: no output digest")
        if set(run.get("metrics", {})) != metrics:
            problems.append(f"{where}: metrics are not the declared end-to-end ones")
    medians = record.get("medians", {})
    for workload in sorted({run.get("workload") for run in runs}):
        for side in sorted({run.get("side") for run in runs if run.get("workload") == workload}):
            mine = [r["metrics"] for r in runs if r.get("workload") == workload and r.get("side") == side]
            stored = medians.get(workload, {}).get(side)
            if stored is None:
                problems.append(f"{workload}/{side}: no stored medians")
                continue
            if set(stored) - metrics:
                problems.append(f"{workload}/{side}: medians of undeclared metrics")
            for name in sorted(metrics & set(stored)):
                values = [m[name] for m in mine if name in m]
                if not values or statistics.median(values) != stored[name]:
                    problems.append(f"{workload}/{side}: {name} median is not that of the runs")
    for workload in set(medians) - {run.get("workload") for run in runs}:
        problems.append(f"{workload}: medians without runs")
    return problems


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_checker_flags_bad_records():
    metrics = {m["name"]: 1.0 for m in _benchmark()["end_to_end"]}
    run = {"workload": "zeta_cold", "seed": 1, "side": "parent", "correct": True,
           "failed": 0, "digest": "ab", "metrics": metrics}
    good = {"runs": [run, dict(run, metrics=dict(metrics, wall_ref=3.0))],
            "medians": {"zeta_cold": {"parent": dict(metrics, wall_ref=2.0)}}}
    assert record_problems(good, _benchmark()) == []
    bad = {
        "runs": [dict(run, workload="nope"), dict(run, failed=1),
                 dict(run, metrics=dict(metrics, speed=1.0))],
        "medians": {"zeta_cold": {"parent": dict(metrics, wall_ref=5.0)}},
    }
    found = record_problems(bad, _benchmark())
    assert any("undeclared workload" in p for p in found)
    assert any("not correct" in p for p in found)
    assert any("metrics are not the declared" in p for p in found)
    assert any("wall_ref median" in p for p in found)
    assert record_problems({"runs": []}, _benchmark()) == ["no runs"]


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record_problems(record, _benchmark()) == []
