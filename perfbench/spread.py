"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload serve-screen --seeds 1-5

Runs ``perfbench/run.py`` once per seed, one after another, and prints
each metric's median and its inter-quartile range as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's
bound from ``BENCHMARK.json``; then the same for the unbounded raw
times the run prints (``e2e ...`` lines).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or declared["run_seconds"]
    first, _, last = args.seeds.partition("-")
    values: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for seed in range(int(first), int(last or first) + 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent, check=False)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines:
            if line.startswith("e2e ") and "." in line.split()[1]:
                _, name, _, value, _ = line.split()
                raw.setdefault(name, []).append(float(value))
        print(json.dumps({"seed": seed, "correct": result["correct"],
                          "failed": result["failed"],
                          **{k: round(v["value"], 4)
                             for k, v in result["metrics"].items()}}), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for spec in declared["end_to_end"]:
        vals = values.get(spec["name"], [])
        if len(vals) < 2:
            continue
        print(f"{spec['name']:>14}: median {stats.median(vals):.4g} {spec['unit']}, "
              f"spread {stats.spread(vals):.3f} (bound {spec['bound']})")
    for name, vals in raw.items():
        if len(vals) >= 2:
            print(f"{name:>14}: median {stats.median(vals):.4g}, "
                  f"spread {stats.spread(vals):.3f} (unbounded)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
