"""One round of one workload, in the fresh process this script starts.

Prints one JSON object as its last line: set-up and workload times, gates,
peak resident memory, operations attempted and failed, the benchmark's
checks, a digest of every output file and, when traced, the spans and
per-layer metrics.  ``--warmup`` only imports the simulator (filling the
bytecode cache) and checks that it came from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def import_simulator() -> None:
    if not (SRC / "bncsim" / "__init__.py").is_file():
        raise SystemExit(f"no simulator sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bncsim
    import bncsim.cli  # noqa: F401
    import bncsim.harness  # noqa: F401

    if not Path(bncsim.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bncsim imported from {bncsim.__file__}, not {SRC}")


def digest(out: Path) -> str:
    """SHA-256 over every file the round wrote, in name order."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--warmup", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import_simulator()
    if args.warmup:
        print(json.dumps({"import_s": time.perf_counter() - t0}))
        return 0
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    args.out.mkdir(parents=True, exist_ok=True)
    workload.setup(args.seed, args.out)
    setup_s = time.perf_counter() - t0

    tracer = Tracer(enabled=args.traced)
    result = {"workload": workload.name, "attempted": workload.ops, "setup_s": setup_s}
    try:
        with workload.traced(tracer):
            t1 = time.perf_counter()
            workload.run(tracer)
            wall_s = time.perf_counter() - t1
    except Exception:  # a failing program fails this round's operations
        traceback.print_exc()
        result.update(failed=workload.ops, checks=[])
        print(json.dumps(result))
        return 0
    result.update(
        failed=0,
        wall_s=wall_s,
        gates=workload.gates(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        checks=workload.checks(),
        digest=digest(args.out),
    )
    if args.traced:
        result["layer_metrics"] = workload.layer_metrics(tracer)
        result["block_overhead"] = getattr(workload, "block_overhead", {})
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
