"""Benchmark of the conjucyclic library, timed end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep|classify|longcode \
        --seed N --seconds S --trace 0|1

Each run starts fresh interpreters (perfbench/worker.py) that import the
library from this checkout's src/.  With --trace 0 the run times set-up
from outside over several fresh interpreters, runs the workload for
--seconds of timed work, checks every output and prints the end-to-end
metrics of BENCHMARK.json.

The worker runs passes over the workload's fixed operation list until
--seconds of timed work is done, and each operation's time is its best
(fastest) pass.  A median is not steady enough on a shared machine: there
the same Python code runs up to 60 % slower for stretches of many seconds,
and the share of slow time changes from one run to the next, so the median
pass, and every figure built from it, moves with the host.  The slow
stretches are broken by short gaps at full speed, and an operation of a
few tens of milliseconds repeated dozens of times lands in some of them, so
its fastest pass moves far less between runs than its median (figures in
perfbench/README.md, under Noise).  The workloads are sized for that: many
passes over operations that each take milliseconds.
Set-up is one event per interpreter; setup_s is the median of several
interpreters, half started before the worker and half after it.

With --trace 1 the run prints the per-layer metrics of BENCHMARK.json
instead, measured by spans the benchmark's own files record around the
library's public functions (see tracer.py).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it is the full record:
environment, workload-specific figures (codewords/s, codes/s, the tail
percentile and its sample count) and the seed-commit reference numbers.
The record is also written to .perfbench/BENCH_<workload>_<seed>_<trace>.json,
and with --trace 1 the spans to .perfbench/SPANS_<workload>_<seed>.json.

The workloads, why each exists and which ROADMAP item each measures are
described in workloads.py.  Exit status is 0 only when a result was printed;
without src/conjucyclic in the checkout the run fails with status 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")
#: medians measured at the seed commit, quoted in every record.
REFERENCE = os.path.join(HERE, "seed_commit.json")

WORKLOADS = ("sweep", "classify", "longcode")
#: fresh interpreters timed for setup_s before and after the worker, which
#: is one more.
SETUP_BEFORE = SETUP_AFTER = 3
#: every child is killed after this, so a run ends well within 180 s.
DEADLINE_S = 170.0


class RunFailed(Exception):
    pass


def spawn(args, deadline):
    """Start a worker; returns (setup seconds until READY, remaining stdout lines)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("out of time before starting a worker")
    t0 = time.perf_counter()
    # own process group, so a kill also reaches the worker's pool processes
    proc = subprocess.Popen(
        [sys.executable, WORKER] + args,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(remaining, kill)
    timer.start()
    try:
        setup = None
        lines = []
        for line in proc.stdout:
            if setup is None and line.strip() == "READY":
                setup = time.perf_counter() - t0
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            kill()
            proc.wait()
    if code != 0 or setup is None:
        raise RunFailed(f"worker {' '.join(args)} exited with status {code}")
    return setup, lines


def percentile(values, pct):
    """Linear interpolation between order statistics (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(values):
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for pct in (50, 90, 99, 99.9):
        if len(values) * (100 - pct) / 100 >= 10:
            best = pct
    if best is None:
        return None
    return {"pct": best, "ms": 1e3 * percentile(values, best), "samples": len(values)}


def environment(numpy_version):
    src_files = []
    for dirpath, _, names in os.walk(SRC):
        src_files += [os.path.join(dirpath, n) for n in names if n.endswith(".py")]
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(src_files):
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "machine": platform.machine(),
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def op_best(latencies):
    """Latency of each operation in its fastest pass of the run."""
    return [min(col) for col in zip(*latencies)]


def workload_figures(workload, worker, best):
    """Figures named after the workload, reported in the record only."""
    out = {}
    if workload == "sweep":
        for tag, pick in (("w1", lambda w: w == 1), ("w2", lambda w: w > 1)):
            words = secs = 0.0
            for size, t in zip(worker["sizes"], best):
                if pick(size["workers"]):
                    words += size["words"]
                    secs += t
            out[f"sweep_{tag}_words_per_s"] = words / secs if secs else 0.0
    if workload == "classify":
        out["codes_per_s"] = len(best) / sum(best)
        out["code_p50_ms"] = 1e3 * statistics.median(best)
        out["code_p90_ms"] = 1e3 * percentile(best, 90)
    return out


def by_label(labels, best):
    """Seconds per operation label, summed over operations with that label."""
    out = {}
    for label, t in zip(labels, best):
        out[label] = out.get(label, 0.0) + t
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "conjucyclic", "__init__.py")):
        print(f"no library source at {SRC}; nothing to benchmark", file=sys.stderr)
        return 2
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}_{args.seed}_{args.trace}"
    spans_path = os.path.join(OUT_DIR, f"SPANS_{args.workload}_{args.seed}.json")

    base = ["--workload", args.workload]
    run_args = base + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
    if args.trace:
        run_args += ["--spans-out", spans_path]
    setups = []
    before, after = (0, 0) if args.trace else (SETUP_BEFORE, SETUP_AFTER)
    try:
        for _ in range(before):
            setups.append(spawn(base + ["--setup-only"], deadline)[0])
        setup, lines = spawn(run_args, deadline)
        setups.append(setup)
        worker = json.loads(lines[-1])
        for _ in range(after):
            setups.append(spawn(base + ["--setup-only"], deadline)[0])
    except (RunFailed, IndexError, json.JSONDecodeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    best = op_best(worker["latencies"])
    wall = sum(best)
    pass_walls = [sum(lat) for lat in worker["latencies"]]
    if args.trace:
        values = dict(worker["layer"])
        values["bench.check_s"] = worker["check_s"]
        values["trace.overhead_pct"] = 100.0 * (worker["traced_wall"] / wall - 1.0)
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "peak_rss_mb": worker["peak_rss_mb"],
            "op_p50_ms": 1e3 * statistics.median(best),
            "op_p90_ms": 1e3 * percentile(best, 90),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(worker["numpy"]),
        "workers_used": worker["workers"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "fail_rate": worker["failed"] / worker["attempted"],
        "passes": len(worker["latencies"]),
        "pass_walls_s": pass_walls,
        "setup_samples_s": setups,
        "check_s": worker["check_s"],
        "seconds_by_operation": by_label(worker["labels"], best),
        "tail": tail_percentile(best),
        "workload_figures": workload_figures(args.workload, worker, best),
        "metrics": metrics,
        "seed_commit_reference": load_json(REFERENCE).get(args.workload),
    }
    with open(os.path.join(OUT_DIR, f"BENCH_{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
