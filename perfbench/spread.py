"""Run the benchmark over several seeds and report each metric's spread against its bound.

    python3 perfbench/spread.py --workload oracle_scale --seeds 1 2 3 4 5

The spread is the interquartile distance of the per-run values as a share
of their median (statistics.quantiles with n=4). A steady benchmark keeps
every end-to-end spread well inside the metric's bound in BENCHMARK.json.
Runs go one after another, never in parallel; each run's values are
printed as it ends.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workload:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}, {result['failed']} failed")
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={vals[-1]:.6g}" for name, vals in values.items()), flush=True)
        for name, vals in values.items():
            spread = stats.relative_spread(vals)
            worst = max(worst, spread / bounds[name])
            print(f"{workload:14} {name:13} median {statistics.median(vals):12.6g}  "
                  f"spread {spread:6.3f}  bound {bounds[name]:.2f}  spread/bound {spread / bounds[name]:.2f}")
    print(f"largest spread/bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
