"""One benchmark run in a fresh interpreter; started by run.py, not by hand.

Set-up (import `conjucyclic` and `conjucyclic.cli`, build the workload's
towers) ends with a line `READY` on stdout, so run.py can time it from
outside.  With --setup-only the process then exits.  Otherwise it prepares
the seeded inputs, runs timed passes over the workload's operation list
until --seconds of timed work is done, checks every output outside the
timed intervals, and prints one JSON object as its last line.

With --trace 1 it runs untraced passes for --seconds as above, then one more
pass with spans recorded around the library's public functions, which give
the per-layer metrics, and further traced passes for a third of --seconds,
whose best latencies against the untraced ones give trace.overhead_pct.

Garbage collection stays on, as in the library's users; timings include
it, though an operation's best pass is usually one without a collection.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
import traceback

import workloads
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def load_library():
    """Import the library from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import conjucyclic
    import conjucyclic.cli  # noqa: F401  (its import cost is part of set-up)
    import conjucyclic.refdata  # noqa: F401

    where = os.path.dirname(os.path.abspath(conjucyclic.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise ImportError(f"conjucyclic imported from {where}, not from {SRC}")
    return conjucyclic


def run_pass(ops, tracer=None):
    """Run every operation once; returns (latencies, results, errors)."""
    latencies, results, errors = [], [], []
    clock = time.perf_counter
    if tracer:
        tracer.phase = "pass"
        tracer.recording = True
    for op in ops:
        t0 = clock()
        try:
            result, error = op.run(), None
        except Exception:  # an operation that raises counts as failed
            result, error = None, traceback.format_exc(limit=3)
        latencies.append(clock() - t0)
        results.append(result)
        errors.append(error)
    if tracer:
        tracer.recording = False
    return latencies, results, errors


class Checker:
    """Checks every output outside the timed intervals.

    The first output of an operation gets the full check; a later output
    of the same operation must have the same key as the first.
    """

    def __init__(self):
        self.attempted = self.failed = 0
        self.seconds = 0.0
        self.messages = []
        self._keys = {}

    def check(self, ops, results, errors) -> None:
        t0 = time.perf_counter()
        for op, result, error in zip(ops, results, errors):
            self.attempted += 1
            if error is None:
                try:
                    if id(op) in self._keys:
                        if op.key(result) != self._keys[id(op)]:
                            raise workloads.CheckFailed("output differs from the first pass")
                    else:
                        op.check(result)
                        self._keys[id(op)] = op.key(result)
                except Exception:
                    error = traceback.format_exc(limit=3)
            if error is not None:
                self.failed += 1
                self.messages.append(f"{op.label}: {error}")
        self.seconds += time.perf_counter() - t0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    lib = load_library()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.recording = True
    for q in workload.tower_qs:
        lib.tower_for_q(q)
    if tracer:
        tracer.recording = False
        tracer.uninstall()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    workers = min(2, os.cpu_count() or 1)
    rng = random.Random(f"{args.workload}:{args.seed}")
    ops, warmups = workload.prepare(lib, rng, workers)

    checker = Checker()
    if warmups:
        checker.check(warmups, *run_pass(warmups)[1:])

    latencies = []
    timed = 0.0
    while not latencies or timed < args.seconds:
        lat, results, errors = run_pass(ops)
        checker.check(ops, results, errors)
        latencies.append(lat)
        timed += sum(lat)
        del results

    traced_wall = None
    layer = {}
    if tracer:
        tracer.install()
        lat, results, errors = run_pass(ops, tracer)
        checker.check(ops, results, errors)
        layer = tracer.layer_metrics(sum(lat))
        if args.spans_out:
            tracer.dump(args.spans_out)
        # more traced passes, their spans dropped, so that the overhead
        # compares the best traced pass of each operation with the best untraced
        traced, kept, timed = [lat], len(tracer.spans), sum(lat)
        while timed < args.seconds / 3:
            lat, results, errors = run_pass(ops, tracer)
            del tracer.spans[kept:]
            checker.check(ops, results, errors)
            traced.append(lat)
            timed += sum(lat)
        tracer.uninstall()
        traced_wall = sum(min(col) for col in zip(*traced))

    for msg in checker.messages[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    out = {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "workers": workers,
        "latencies": latencies,
        "labels": [op.label for op in ops],
        "sizes": [op.sizes for op in ops],
        "check_s": checker.seconds,
        "peak_rss_mb": peak_rss_mb(),
        "traced_wall": traced_wall,
        "layer": layer,
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
    }
    print(json.dumps(out, separators=(",", ":")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
