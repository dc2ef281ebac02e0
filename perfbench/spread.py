#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload zeta_cold --seeds 1-10

Runs are sequential.  For every end-to-end metric it prints the median
and the quartile spread ``(Q3 - Q1) / median`` of the values, with the
quartiles from ``statistics.quantiles(values, n=4)``, next to a third
of the metric's bound in ``BENCHMARK.json``.  The values go to
``.perfbench_out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    all_correct = True
    for seed in seed_list(args.seeds):
        result = run_once(args.workload, seed, args.seconds)
        all_correct &= result["correct"] and result["failed"] == 0
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)

    summary = {"workload": args.workload, "seeds": args.seeds, "correct": all_correct,
               "metrics": {}}
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        summary["metrics"][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                         "spread": spread, "values": v}
        print(f"{m['name']:>16}  median {med:.5g} {m['unit']:<3}  spread {spread:.4f}  "
              f"(a third of the bound: {m['bound'] / 3:.4f})")
    OUT.mkdir(exist_ok=True)
    (OUT / f"spread-{args.workload}.json").write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
