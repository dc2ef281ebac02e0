#!/usr/bin/env python3
"""Check that the benchmark's deterministic counters repeat exactly.

Usage, from the root of a checkout::

    python3 perfbench/check_counters.py --workload table_cold --seed 1

Runs the traced benchmark three times on one seed: twice with
``PYTHONHASHSEED=0`` and once with ``PYTHONHASHSEED=1``.  Every
per-layer metric that is not a time, every counter read off the
returned reports, and the digest of the rendered output must be
identical across the three runs.  Exits 1 and names the differences
otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
HASH_SEEDS = ("0", "0", "1")


def deterministic(workload: str, seed: int, seconds: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, env=env, check=True, stdout=subprocess.PIPE, text=True,
    )
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((OUT / f"{workload}-seed{seed}-trace1.json").read_text())
    out = {name: m["value"] for name, m in last["metrics"].items() if m["unit"] != "s"}
    out.update({f"counter.{k}": v for k, v in record["counters"].items()})
    out["digest"] = record["digest"]
    out["correct"] = last["correct"]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=1)
    args = ap.parse_args()

    runs = [deterministic(args.workload, args.seed, args.seconds, h) for h in HASH_SEEDS]
    differ = sorted(k for k in runs[0] if any(r.get(k) != runs[0][k] for r in runs[1:]))
    for key in differ:
        print(f"DIFFERS {key}: " + ", ".join(
            f"PYTHONHASHSEED={h}: {r.get(key)}" for h, r in zip(HASH_SEEDS, runs)))
    print(f"{args.workload} seed {args.seed}: {len(runs[0])} deterministic values, "
          f"{len(differ)} differ across {len(runs)} runs "
          f"(PYTHONHASHSEED {', '.join(HASH_SEEDS)})")
    return 1 if differ or not all(r["correct"] for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
