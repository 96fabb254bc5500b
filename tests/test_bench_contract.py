"""The library calls the benchmark makes must keep working.

perfbench/tracer.py wraps module functions and class methods of
`conjucyclic` by name at run time, and perfbench/workloads.py calls further
library names while preparing and checking its operations; a library change
that drops or renames one of them would break the benchmark without failing
any other test.
"""

import importlib
import random
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_tracer_target_resolves():
    import conjucyclic  # noqa: F401  (loads the modules the tracer walks)
    import conjucyclic.cli  # noqa: F401

    tracer = _perfbench_module("tracer")
    assert tracer.TARGETS
    for module_name, attr, span_name, _ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr} ({span_name}) is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr} is not callable"

    # and the tracer's own lookup succeeds: install, then restore everything
    spans = tracer.Tracer()
    try:
        spans.install()
        assert spans._saved
    finally:
        spans.uninstall()


def test_tracer_installs_after_the_workers_imports_alone():
    # Tracer.install looks each target module up in sys.modules, so every
    # module it targets must be loaded by the imports a benchmark worker
    # makes; a fresh interpreter sees what the test process's imports hide
    script = (
        "import worker\n"
        "worker.load_library()\n"
        "spans = worker.Tracer()\n"
        "spans.install()\n"
        "assert spans._saved\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script], cwd=PERFBENCH, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("name", ["sweep", "classify", "longcode"])
def test_workload_operations_run_and_pass_their_checks(name):
    # one pass of the benchmark's worker, in process and untimed
    import conjucyclic
    import conjucyclic.cli  # noqa: F401
    import conjucyclic.refdata  # noqa: F401

    workloads = _perfbench_module("workloads")
    assert sorted(workloads.WORKLOADS) == ["classify", "longcode", "sweep"]
    workload = workloads.WORKLOADS[name]
    for q in workload.tower_qs:
        conjucyclic.tower_for_q(q)
    ops, warmups = workload.prepare(conjucyclic, random.Random(f"{name}:1"), 2)
    assert ops
    for op in warmups + ops:
        op.check(op.run())
