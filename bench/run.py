"""Benchmark entry point: one workload, measured end to end or traced.

    python3 bench/run.py --workload landmark_sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload runs in whole rounds, each in a fresh
process (``worker.py``), until ``--seconds`` have passed and at least
``MIN_ROUNDS`` rounds are done; every round uses the same seed, so every
round must write byte-identical reports.  The end-to-end metrics are
medians over the rounds.  With ``--trace 1`` every workload runs once bare
and once traced, and the per-layer metrics come from the traced rounds.
The last line of standard output is the JSON result; metric names and
units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
MIN_ROUNDS = 3
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def worker(*args: str) -> dict:
    """Run one worker process to its end and return its JSON result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s: {args}") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise BenchError(f"worker exited {proc.returncode} without a result: {args}")
    return json.loads(lines[-1])


def run_round(workload: str, seed: int, out: Path, traced: bool) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--out", str(out)]
    return worker(*args, *(["--traced"] if traced else []))


def failed_checks(rounds: list[dict]) -> list[dict]:
    return [c for r in rounds for c in r["checks"] if not c["passed"]]


def measure(workload: str, seed: int, seconds: float, out: Path) -> tuple[dict, list[dict]]:
    rounds: list[dict] = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        r = run_round(workload, seed, out / f"round{len(rounds)}", traced=False)
        rounds.append(r)
        if r["failed"]:
            print(f"round {len(rounds) - 1}: {r['failed']} of {r['attempted']} operations failed")
        else:
            print(
                f"round {len(rounds) - 1}: setup {r['setup_s']:.3f} s, {r['gates']} gates "
                f"in {r['wall_s']:.3f} s, peak RSS {r['peak_rss_mb']:.1f} MB"
            )
    done = [r for r in rounds if not r["failed"]]
    if not done:
        raise BenchError("every round failed")
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "gates_per_s": statistics.median(r["gates"] / r["wall_s"] for r in done),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
    }
    return metrics, rounds


def measure_traced(
    workload: str, others: list[str], seed: int, out: Path
) -> tuple[dict, list[dict]]:
    """Bare and traced round of every workload; per-layer metrics and overhead.

    The per-layer metrics span all three workloads, so each traced run
    covers them all, starting with the one asked for.
    """
    order = [workload] + [w for w in others if w != workload]
    metrics: dict[str, float] = {}
    rounds: list[dict] = []
    trace = {"seed": seed, "overhead": {}, "block_overhead": {}, "spans": {}}
    for name in order:
        bare = run_round(name, seed, out / f"{name}-bare", traced=False)
        traced = run_round(name, seed, out / f"{name}-traced", traced=True)
        rounds += [bare, traced]
        if bare["failed"] or traced["failed"]:
            continue
        if traced["digest"] != bare["digest"]:
            traced["checks"].append(
                {"name": f"{name}.traced_equals_bare", "passed": False, "detail": "reports differ"}
            )
        overhead = traced["wall_s"] / bare["wall_s"] - 1.0
        print(
            f"{name}: bare {bare['wall_s']:.3f} s, traced {traced['wall_s']:.3f} s, "
            f"tracing overhead {100 * overhead:+.1f}%"
        )
        for label, value in traced["block_overhead"].items():
            print(f"{name}: probe block {label} tracing overhead {100 * value:+.1f}%")
        trace["overhead"][name] = overhead
        trace["block_overhead"].update(traced["block_overhead"])
        trace["spans"][name] = traced["spans"]
        metrics.update(traced["layer_metrics"])
    trace["metrics"] = metrics
    (out / "trace.json").write_text(json.dumps(trace, indent=1) + "\n")
    print(f"trace written to {(out / 'trace.json').relative_to(ROOT)}")
    return metrics, rounds


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        worker("--warmup")
        out = RESULTS / f"{args.workload}-s{args.seed}-t{args.trace}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        if args.trace:
            metrics, rounds = measure_traced(args.workload, names, args.seed, out)
            wanted = spec["per_layer"]
        else:
            metrics, rounds = measure(args.workload, args.seed, args.seconds, out)
            wanted = spec["end_to_end"]
        missing = {m["name"] for m in wanted} - set(metrics)
        extra = set(metrics) - {m["name"] for m in wanted}
        if missing or extra:
            raise BenchError(f"metrics missing {sorted(missing)}, unexpected {sorted(extra)}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    done = [r for r in rounds if not r["failed"]]
    bad = failed_checks(done)
    for check in bad:
        print(f"CHECK FAILED: {json.dumps(check)}")
    # traced runs compare each traced round with its bare twin instead
    reproducible = bool(args.trace) or len({r["digest"] for r in done}) == 1
    if not reproducible:
        print("REPRODUCIBILITY FAILED: rounds with one seed wrote different reports")
    n_checks = sum(len(r["checks"]) for r in done)
    print(f"{len(rounds)} rounds, {n_checks} checks, {len(bad)} failed")
    result = {
        "correct": bool(done) and not bad and reproducible,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
