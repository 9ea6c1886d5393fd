"""Fleet benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload metro_local --seed 1 --seconds 20 --trace 0

Streams one workload (see ``perfbench/README.md``) through the real
backends, checks its outputs, prints a human-readable report and, as
the last line of standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
from a separate traced stream.  Exits non-zero, printing no result,
when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (ROOT / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


def _declared(kind: str) -> list[str]:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [entry["name"] for entry in manifest[kind]]


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts on
    first use (spawned workers need it), so no process outlives a run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Fleet benchmark (one workload per run).")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        from fleetbench import measure
        from fleetbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if workload.backend == "process":
        # One vCPU for this process and every worker it spawns: on a
        # 2-vCPU VM each request/reply hand-off between vCPUs pays a
        # wake-up that made run_s 21-24 s unpinned and 13-16 s pinned.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    wanted = _declared("per_layer" if args.trace else "end_to_end")

    try:
        if args.trace:
            result = measure.run_traced(workload, args.seed)
        else:
            result = measure.run(workload, args.seed, args.seconds)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        _stop_resource_tracker()

    for line in result.report:
        print(line)
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    missing = [name for name in wanted if name not in result.metrics]
    for name in missing:
        print(f"CHECK FAILED: metric {name} not measured on {workload.name}")
    print(
        json.dumps(
            {
                "correct": result.correct and not missing,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": result.metrics[name][0], "unit": result.metrics[name][1]}
                    for name in wanted
                    if name in result.metrics
                },
            }
        )
    )
    return 0 if result.correct and not missing else 1


if __name__ == "__main__":
    sys.exit(main())
