"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 perfbench/run.py --workload analytic|serve|mutate \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced phase (see ``perfbench/README.md``).  The line
before it records the run environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.sqlbackend import duckdb_available  # noqa: E402

from perfbench.workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the query engine.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    try:
        result = workload.run()
    except AssertionError as mismatch:
        print(f"answer check failed: {mismatch}", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "sql_dialect": "duckdb" if duckdb_available() else "sqlite",
        "setup_runs_s": workload.setup_times,
    }
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
