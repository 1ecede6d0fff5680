"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/prove.py [SEEDS]

Runs every workload of BENCHMARK.json once per seed 1..SEEDS (default
10) with its ``run_seconds`` and prints, per metric, the median and the
distance between the first and third quartile as a share of the
median, next to the metric's bound, and each run's wall time.  Exits 1
if a run fails or any spread exceeds its bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from arith import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    seeds = int(argv[0]) if argv else 10
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = False
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, seeds + 1):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            started = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - started
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                bad = True
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed} ({wall:.1f} s): " + ", ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values[name]
            if len(vals) < 2:
                continue
            spread = quartile_spread(vals)
            bad = bad or spread > bound
            print(f"  {workload:<13}{name:<16}median {statistics.median(vals):12.4f} "
                  f"{metric['unit']:<4} spread {spread:7.2%}  bound {bound:.0%}  "
                  f"{'ok' if spread <= bound else 'OVER BOUND'}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
