"""Self-test of the benchmark: exact counters repeat for a given seed.

Runs the traced benchmark twice per workload on the same seed and asserts
that every counted (not timed) per-layer metric is identical, and that both
runs pass their correctness gate.  From the root of a checkout:

    python3 perfbench/check_counters.py [--seed N] [--workload NAME ...]

Exit status 0 when every counter repeats; 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: counters computed from input sizes alone, so they must repeat exactly.
COMPUTED = (
    "field.table_entries",
    "poly.host_field_log2_max",
    "poly.divisors",
    "conju.codes_built",
    "linalg.rref_cells",
    "weights.words",
    "weights.digit_bytes_computed",
)
#: every per-layer metric in one of these units is a count and must repeat too.
COUNT_UNITS = ("count", "entries", "log2", "cells", "words", "bytes")


def traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    counted = [m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS]
    missing = [name for name in COMPUTED if name not in counted]
    if missing:
        print(f"not declared as counts in BENCHMARK.json: {missing}")
        return 1
    bad = 0
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        first, second = traced_run(workload, args.seed), traced_run(workload, args.seed)
        for run in (first, second):
            if not run["correct"] or run["failed"]:
                print(f"{workload}: {run['failed']} of {run['attempted']} operations failed")
                bad += 1
        for name in counted:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            status = "ok  " if a == b else "DIFF"
            bad += a != b
            print(f"{status} {workload:9s} {name:30s} {a!r:>14} {b!r:>14}")
    print("all counters repeat" if not bad else f"{bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
