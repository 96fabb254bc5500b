"""The names the benchmark tracer rebinds must exist in the library.

perfbench/tracer.py wraps module functions and class methods of
`conjucyclic` by name at run time; a library change that drops or renames
one of them would break the traced benchmark without failing any other
test.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_tracer_target_resolves():
    import conjucyclic  # noqa: F401  (loads the modules the tracer walks)
    import conjucyclic.cli  # noqa: F401

    sys.path.insert(0, str(PERFBENCH))
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))
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
