"""Steadiness of the end-to-end metrics over repeated runs.

    python3 bench/steady.py --runs 10 --first-seed 1 [--workload NAME ...]

Runs ``run.py`` once per seed (``first-seed`` onwards) for each workload
and prints, per metric, the median, the first and third quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median.  A spread under a
third of the metric's bound is marked ``steady``; ``setup_s`` is gated on
its median only, so its spread is shown but not marked.  The share of
failed operations must be identical in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()

    steady = True
    for workload in args.workload or names:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            steady &= result["correct"]
            shares.add((result["failed"], result["attempted"], result["failed"] / result["attempted"]))
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        if len({share for _, _, share in shares}) != 1:
            steady = False
            print(f"{workload}: failed share differs between runs: {sorted(shares)}")
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            limit = metric["bound"] / 3
            verdict = "-" if metric["name"] == "setup_s" else ("steady" if spread < limit else "UNSTEADY")
            steady &= verdict != "UNSTEADY"
            print(f"{workload:16} {metric['name']:12} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f} (bound/3 {limit:.4f}) {verdict}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
