"""Golden-vector verification harness behind the `verify` CLI command.

Runs every known-answer check from refdata against a fresh build and
reports one line per check.  All comparisons are exact; the only knobs are
the enumeration budget and worker count, which the three length-11 weight
checks (minimum weight, distribution, stabilizer) take.
"""

from __future__ import annotations

import time

from . import refdata
from .conju import (
    ConjucyclicCode,
    conjucyclic_shift,
    expand,
    largest_cyclic_subcode,
    trace_pair,
)
from .conju import _inversion_constants
from .cyclic import shift_iterates
from .field import build_tower, tower_for_q
from .poly import degree, enumerate_divisors, factor_x2n_minus_1, normalize
from .weights import stabilizer_params, weight_distribution


def _span(tower, rows):
    """Naive GF(q)-span of a few rows (small cases only)."""
    if not rows:
        return {()}
    out = {tuple([0] * len(rows[0]))}
    for row in rows:
        out = {
            tuple(tower.add(x, tower.mul(k, y)) for x, y in zip(word, row))
            for word in out
            for k in tower.subfield
        }
    return out


def _check_f9_trace_pair_table():
    tower = build_tower(3, 1)
    for token, pair in refdata.F9_TRACE_PAIR_TABLE.items():
        alpha = refdata.decode(tower, token)
        got = trace_pair(tower, alpha)
        assert got == pair, f"{token}: {got} != {pair}"


def _check_f9_inversion_constants():
    tower = build_tower(3, 1)
    expected = tuple(refdata.decode(tower, t) for t in refdata.F9_INVERSION_CONSTANTS)
    assert _inversion_constants(tower) == expected


def _check_factors(data):
    tower = tower_for_q(data["q"])
    fac = factor_x2n_minus_1(tower, data["n"])
    expected = {refdata.decode_vector(tower, line) for line in data["factors"]}
    assert set(fac.base) == expected, f"factor sets differ: {fac.base}"
    assert fac.divisor_count == data["divisor_count"]
    count = sum(1 for _ in enumerate_divisors(fac))
    assert count == data["divisor_count"]


def _check_f9_n3_span():
    tower = build_tower(3, 1)
    gens = refdata.decode_matrix(tower, refdata.F9_N3_GENERATORS)
    words = _span(tower, gens)
    listed = {refdata.decode_vector(tower, l) for l in refdata.F9_N3_CODEWORDS}
    assert len(words) == 27 and words == listed

    expanded = {expand(tower, w) for w in words}
    listed_q = {refdata.decode_vector(tower, l) for l in refdata.F9_N3_EXPANDED}
    assert expanded == listed_q
    assert all(shift_iterates(w, 2)[1] in expanded for w in expanded), "not shift-closed"

    # the mirror generator is the minimum-degree monic word of the listing
    monic_words = [a for a in map(normalize, listed_q) if a and a[-1] == 1]
    g = min(monic_words, key=degree)
    assert g == (2, 2, 1, 1), f"mirror generator {g}"
    code = ConjucyclicCode(tower, 3, g)
    assert _span(tower, code.gen_matrix) == listed

    sub_span = _span(tower, largest_cyclic_subcode(code))
    listed_sub = {refdata.decode_vector(tower, l) for l in refdata.F9_N3_CYCLIC_SUBCODE}
    assert sub_span == listed_sub


def _build_reference_code(data):
    tower = tower_for_q(data["q"])
    return ConjucyclicCode(tower, data["n"], refdata.decode_vector(tower, data["g"]))


def _check_matrices(data):
    code = _build_reference_code(data)
    tower = code.tower
    assert code.cyclic.h == refdata.decode_vector(tower, data["h"])
    assert code.cyclic.h_star == refdata.decode_vector(tower, data["h_star"])
    gen = refdata.decode_matrix(tower, data["gen_matrix"])
    assert code.gen_matrix == gen, "generator matrix mismatch"
    dual = refdata.decode_matrix(tower, data["dual_matrix"])
    assert code.alternating_dual_matrix() == dual, "dual matrix mismatch"


def _check_ternary_n11_vectors():
    data = refdata.TERNARY_N11
    code = _build_reference_code(data)
    tower = code.tower
    rows = [expand(tower, row) for row in code.alternating_dual_matrix()]
    assert rows[0] == refdata.decode_vector(tower, data["tau_h_star"])
    assert rows[9] == refdata.decode_vector(tower, data["tau_shift9_h_star"])


def _check_quaternary_n11_vectors():
    data = refdata.QUATERNARY_N11
    code = _build_reference_code(data)
    tower = code.tower
    dual = code.alternating_dual_matrix()
    assert expand(tower, dual[0]) == refdata.decode_vector(tower, data["h_eps"])
    assert dual[0] == refdata.decode_vector(tower, data["w_h_eps"])
    for first, second in zip(dual, dual[1:]):
        assert second == conjucyclic_shift(tower, first), "dual rows are not T-iterates"


def _check_ternary_n11_weights(budget, workers):
    data = refdata.TERNARY_N11
    code = _build_reference_code(data)
    dist = weight_distribution(code, budget=budget, workers=workers)
    assert code.card_log_q == data["dim"]
    assert sum(dist.counts) == 3 ** data["dim"]
    assert dist.min_weight == data["min_weight"]
    assert dist.counts[5] > 0


def _check_quaternary_n11_weights(budget, workers):
    data = refdata.QUATERNARY_N11
    code = _build_reference_code(data)
    dist = weight_distribution(code, budget=budget, workers=workers)
    assert dist.counts == data["weight_distribution"], f"distribution {dist.counts}"
    assert dist.min_weight == data["min_weight"]


def _check_quaternary_n11_stabilizer(budget, workers):
    code = _build_reference_code(refdata.QUATERNARY_N11)
    params = stabilizer_params(code, budget=budget, workers=workers)
    n, k, d, q = refdata.QUATERNARY_N11["stabilizer"]
    assert str(params) == f"[[{n},{k},{d}]]_{q}", f"parameters {params}"
    assert params.pure, "not pure"


def run_checks(budget: int, workers: int) -> int:
    """Run all known-answer checks; print one line each; return fail count."""
    checks = [
        ("f9-trace-pair-table", _check_f9_trace_pair_table),
        ("f9-inversion-constants", _check_f9_inversion_constants),
        ("ternary-n11-factors", lambda: _check_factors(refdata.TERNARY_N11)),
        ("quaternary-n11-factors", lambda: _check_factors(refdata.QUATERNARY_N11)),
        ("f9-n3-codeword-listing", _check_f9_n3_span),
        ("ternary-n11-matrices", lambda: _check_matrices(refdata.TERNARY_N11)),
        ("ternary-n11-dual-vectors", _check_ternary_n11_vectors),
        ("quaternary-n11-matrices", lambda: _check_matrices(refdata.QUATERNARY_N11)),
        ("quaternary-n11-dual-vectors", _check_quaternary_n11_vectors),
        (
            "ternary-n11-min-weight",
            lambda: _check_ternary_n11_weights(budget, workers),
        ),
        (
            "quaternary-n11-distribution",
            lambda: _check_quaternary_n11_weights(budget, workers),
        ),
        (
            "quaternary-n11-stabilizer",
            lambda: _check_quaternary_n11_stabilizer(budget, workers),
        ),
    ]
    failures = 0
    for name, check in checks:
        start = time.perf_counter()
        try:
            check()
        except Exception as exc:  # report and keep going
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            elapsed = time.perf_counter() - start
            print(f"ok   {name} ({elapsed:.2f}s)")
    return failures
