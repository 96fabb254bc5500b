"""Spans around the library's public functions, recorded from outside.

The tracer rebinds module attributes and class methods of `conjucyclic` at
run time; nothing under src/ knows about it.  A function imported by name
into several modules (say `expand`, bound in `conju`, `weights` and the
package) is rebound everywhere it appears, so every call path is seen.

Each span is (name, start, end, parent, phase, sizes).  Spans stay in
memory and are written out when the run ends.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from workloads import host_field_log2


def _tower_sizes(args, kwargs):
    p, m = args[0], args[1]
    return {"entries": p ** (2 * m)}


def _factor_sizes(args, kwargs):
    tower, n = args[0], args[1]
    return {"host_log2": host_field_log2(tower.q, n)}


def _rref_sizes(args, kwargs):
    rows = args[1]
    if isinstance(rows, (list, tuple)) and rows:
        return {"cells": len(rows) * len(rows[0])}
    return {"cells": 0}


def _sweep_sizes(args, kwargs):
    code = args[0]
    tower = code.tower
    words = tower.q ** code.card_log_q
    return {
        "words": words,
        "digit_bytes": words * code.n * tower.ext_degree,
        "workers": int(kwargs.get("workers", args[2] if len(args) > 2 else 1)),
    }


#: (module, attribute or Class.method, span name, sizes function)
TARGETS = (
    ("conjucyclic.field", "build_tower", "field.tower_build", _tower_sizes),
    ("conjucyclic.poly", "factor_x2n_minus_1", "poly.factor", _factor_sizes),
    ("conjucyclic.poly", "Factorization.divisor", "poly.divisor", None),
    ("conjucyclic.poly", "check_divisor", "poly.check_divisor", None),
    ("conjucyclic.poly", "poly_mod", "poly.poly_mod", None),
    ("conjucyclic.cyclic", "CyclicCode.__init__", "cyclic.code_init", None),
    ("conjucyclic.cyclic", "CyclicCode.symplectic_dual_matrix", "cyclic.dual_matrix", None),
    ("conjucyclic.conju", "ConjucyclicCode.__init__", "conju.code_build", None),
    ("conjucyclic.conju", "ConjucyclicCode.alternating_dual_matrix", "conju.alt_dual", None),
    ("conjucyclic.conju", "largest_cyclic_subcode", "conju.cyclic_subcode", None),
    ("conjucyclic.conju", "expand", "conju.expand", None),
    ("conjucyclic.linalg", "rref", "linalg.rref", _rref_sizes),
    ("conjucyclic.linalg", "in_span", "linalg.in_span", None),
    ("conjucyclic.linalg", "left_kernel", "linalg.left_kernel", None),
    ("conjucyclic.weights", "weight_distribution", "weights.sweep", _sweep_sizes),
    ("conjucyclic.weights", "is_alternating_dual_containing", "weights.dual_containing", None),
    ("conjucyclic.weights", "stabilizer_params", "weights.stabilizer", None),
)

LAYERS = ("field", "poly", "cyclic", "conju", "linalg", "weights")


class Tracer:
    def __init__(self) -> None:
        self.spans = []  # [name, start, end, parent, phase, sizes]
        self.recording = False
        self.phase = "setup"
        self._stack = []
        self._saved = []  # (owner, attribute, original) to restore

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        """Rebind every target in every loaded conjucyclic module."""
        if self._saved:
            return
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "conjucyclic" or name.startswith("conjucyclic."))
        ]
        for module_name, attr, span_name, sizes in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._rebind(cls, meth, original, self._wrap(original, span_name, sizes))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span_name, sizes)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _rebind(self, owner, attr, original, wrapper) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name, sizes_fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sizes = sizes_fn(args, kwargs) if sizes_fn else None
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.phase, sizes])
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end

        return wrapper

    # -- reading ----------------------------------------------------------

    def layer_metrics(self, pass_wall_s: float) -> dict:
        """Per-layer calls, busy and self time, plus the named counters."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]

        def ancestors(i):
            j = spans[i][3]
            while j >= 0:
                yield spans[j][0]
                j = spans[j][3]

        by_name = {}  # span name -> calls, busy (outermost spans), size sums and maxima
        layer = {l: [0, 0.0, 0.0] for l in LAYERS}  # calls, busy, self
        top_level = 0.0
        for i, (name, start, end, parent, phase, sizes) in enumerate(spans):
            dur = end - start
            lname = name.split(".")[0]
            up = list(ancestors(i))
            rec = by_name.setdefault(name, {"calls": 0, "busy": 0.0, "sum": {}, "max": {}})
            rec["calls"] += 1
            if name not in up:
                rec["busy"] += dur
            for k, v in (sizes or {}).items():
                rec["sum"][k] = rec["sum"].get(k, 0) + v
                rec["max"][k] = max(rec["max"].get(k, v), v)
            lay = layer[lname]
            lay[0] += 1
            if not any(a.split(".")[0] == lname for a in up):
                lay[1] += dur
            lay[2] += dur - child_time[i]
            if parent < 0 and phase == "pass":
                top_level += dur

        def busy(name):
            return by_name.get(name, {}).get("busy", 0.0)

        def calls(name):
            return by_name.get(name, {}).get("calls", 0)

        def sizes_of(name, agg, key):
            return by_name.get(name, {}).get(agg, {}).get(key, 0)

        out = {}
        for l in LAYERS:
            out[f"{l}.calls"] = layer[l][0]
            out[f"{l}.busy_s"] = layer[l][1]
            out[f"{l}.self_s"] = layer[l][2]
        sweep_busy = busy("weights.sweep")
        words = sizes_of("weights.sweep", "sum", "words")
        w1 = sum(s[2] - s[1] for s in spans if s[0] == "weights.sweep" and s[5]["workers"] == 1)
        wn = sum(s[2] - s[1] for s in spans if s[0] == "weights.sweep" and s[5]["workers"] > 1)
        out.update(
            {
                "field.tower_build_s": busy("field.tower_build"),
                "field.tower_builds": calls("field.tower_build"),
                "field.table_entries": sizes_of("field.tower_build", "sum", "entries"),
                "poly.factor_s": busy("poly.factor"),
                "poly.factor_calls": calls("poly.factor"),
                "poly.host_field_log2_max": sizes_of("poly.factor", "max", "host_log2"),
                "poly.divisor_s": busy("poly.divisor"),
                "poly.divisors": calls("poly.divisor"),
                "poly.poly_mod_s": busy("poly.poly_mod"),
                "cyclic.code_init_s": busy("cyclic.code_init"),
                "cyclic.dual_matrix_s": busy("cyclic.dual_matrix"),
                "conju.code_build_s": busy("conju.code_build"),
                "conju.codes_built": calls("conju.code_build"),
                "conju.alt_dual_s": busy("conju.alt_dual"),
                "conju.cyclic_subcode_s": busy("conju.cyclic_subcode"),
                "conju.expand_s": busy("conju.expand"),
                "linalg.rref_s": busy("linalg.rref"),
                "linalg.rref_calls": calls("linalg.rref"),
                "linalg.rref_cells": sizes_of("linalg.rref", "sum", "cells"),
                "linalg.in_span_s": busy("linalg.in_span"),
                "linalg.in_span_calls": calls("linalg.in_span"),
                "linalg.left_kernel_s": busy("linalg.left_kernel"),
                "weights.sweep_s": sweep_busy,
                "weights.sweeps": calls("weights.sweep"),
                "weights.words": words,
                "weights.words_per_busy_s": words / sweep_busy if sweep_busy else 0.0,
                "weights.digit_bytes_computed": sizes_of("weights.sweep", "sum", "digit_bytes"),
                "weights.w2_speedup": w1 / wn if w1 and wn else 0.0,
                "weights.dual_containing_s": busy("weights.dual_containing"),
                "weights.dual_containing_calls": calls("weights.dual_containing"),
                "weights.stabilizer_s": busy("weights.stabilizer"),
                "trace.coverage_pct": 100.0 * top_level / pass_wall_s if pass_wall_s else 0.0,
            }
        )
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON: one [name, start, end, parent, phase, sizes] each."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "phase", "sizes"],
                       "spans": self.spans}, fh, separators=(",", ":"))
