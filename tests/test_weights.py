import dataclasses
import os

import numpy as np
import pytest

import naive
from conjucyclic import (
    BudgetExceededError,
    ConjucyclicCode,
    NotDualContainingError,
    ZeroCodeError,
    build_tower,
    conju,
    expand,
    is_alternating_dual_containing,
    is_conjucyclic,
    min_weight,
    stabilizer_params,
    tower_for_q,
    weight_distribution,
    weights,
)
from conjucyclic.poly import poly_mod, x_pow_minus_one
from conjucyclic.refdata import QUATERNARY_N11


def test_zero_code_distribution(f9):
    code = ConjucyclicCode(f9, 2, (2, 0, 0, 0, 1))
    dist = weight_distribution(code)
    assert dist.counts == [1, 0, 0]
    assert dist.min_weight is None
    assert dist.cardinality == 1
    with pytest.raises(ZeroCodeError):
        min_weight(code)


def test_full_space_code(f9):
    code = ConjucyclicCode(f9, 2, (1,))
    dist = weight_distribution(code)
    assert sum(dist.counts) == 3 ** 4 == dist.cardinality
    assert dist.counts[0] == 1
    assert min_weight(code) == 1


def test_distribution_matches_naive_enumeration():
    # oracle equivalence on every code with at most 3^6 codewords
    checked = 0
    sweep = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1)]
    for code in naive.divisor_codes(sweep):
        if code.tower.q ** code.card_log_q > 3 ** 6:
            continue
        words = naive.span(code.tower, code.gen_matrix, code.n)
        expected = naive.weight_histogram(words, code.n, naive.hamming_weight)
        dist = weight_distribution(code)
        assert dist.counts == expected
        assert sum(dist.counts) == code.tower.q ** code.card_log_q
        checked += 1
    assert checked > 50


def test_min_weight_matches_symplectic_mirror():
    # per-code transport: the Hamming distribution over GF(q^2) equals the
    # symplectic distribution of the expanded q-ary code, for every code
    # small enough to cross-check against a naive sweep
    checked = 0
    sweep = [(2, 1), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1)]
    for code in naive.divisor_codes(sweep):
        if code.card_log_q == 0 or code.tower.q ** code.card_log_q > 3 ** 8:
            continue
        words = naive.span(code.tower, code.cyclic.generator_matrix(), 2 * code.n)
        assert min_weight(code) == naive.min_positive_weight(
            words, naive.symplectic_weight
        )
        assert weight_distribution(code).counts == naive.weight_histogram(
            words, code.n, naive.symplectic_weight
        )
        checked += 1
    assert checked > 50


def test_per_codeword_weight_transport():
    for code in naive.divisor_codes([(3, 2), (4, 2)]):
        words = naive.span(code.tower, code.gen_matrix, code.n)
        for w in words:
            assert naive.hamming_weight(w) == naive.symplectic_weight(
                expand(code.tower, w)
            )


def test_worker_count_independence(ternary_code):
    base = weight_distribution(ternary_code, workers=1)
    for workers in (2, 4):
        assert weight_distribution(ternary_code, workers=workers).counts == base.counts


def test_worker_count_is_clamped_to_cores(ternary_code, monkeypatch):
    # the pool is capped by the CPUs this process may use (its affinity mask
    # where the platform has one, not the host's count) and by the outer
    # blocks of the histogram, so a one-block sweep starts no pool
    recorded = []

    class SerialPool:
        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(weights, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    base = weight_distribution(ternary_code, workers=1).counts
    assert weight_distribution(ternary_code, workers=10 ** 6).counts == base
    assert recorded == []
    monkeypatch.setattr(weights, "_CHUNK_WORDS", 1 << 8)
    assert weight_distribution(ternary_code, workers=10 ** 6).counts == base
    assert recorded == [2]
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert weight_distribution(ternary_code, workers=10 ** 6).counts == base
    assert recorded == [2, 3]


def test_multi_word_rows_match_naive_enumeration():
    # every family needs two uint64 words per codeword; (256, 5) fills bit 63
    # of the first word and (251, 4) has 9-bit digit fields
    pairs = [(2, 33), (3, 11), (4, 17), (5, 9), (9, 6), (27, 4), (81, 3), (256, 5), (251, 4)]
    for q, n in pairs:
        checked = 0
        for code in naive.divisor_codes([(q, n)]):
            if not 0 < q ** code.card_log_q <= 3 ** 8:
                continue
            words = naive.span(code.tower, code.gen_matrix, code.n)
            expected = naive.weight_histogram(words, code.n, naive.hamming_weight)
            assert weight_distribution(code).counts == expected
            checked += 1
            if checked == 12:
                break
        assert checked > 0


def visits(q, r):
    """Words the kernel visits on a span of r >= 1 rows: the inner span
    against zero and one representative per projective point of the outer
    half."""
    r_in, r_out = r // 2, r - r // 2
    return (q ** r_out - 1) // (q - 1) * q ** r_in + q ** r_in


def test_projective_sweep_matches_naive_on_both_sides(monkeypatch):
    # the kernel visits (q^r_out - 1)/(q - 1) q^r_in + q^r_in words for a
    # side of q^r words; at r = 1 the inner span is the zero word.  Scaling
    # by q - 1 makes every A_w (w > 0) of the enumerated side a multiple of
    # q - 1 by construction, so the naive spans are the check on the counts
    # themselves.  weight_distribution sweeps only the r' = r - e rows of
    # the enumerated side's words with c_0 = 0, and visits no word at r' = 0
    histogram, visited = weights._histogram, []

    def recording(outer, inner, kernel, n):
        visited.append(outer.shape[1] * inner.shape[1])
        return histogram(outer, inner, kernel, n)

    monkeypatch.setattr(weights, "_histogram", recording)
    grid = (2, 3, 4, 5, 7, 8, 9)
    seen, shortened = set(), set()
    for code in naive.divisor_codes([(q, n) for q in grid for n in (1, 2, 3)]):
        tower, q, n = code.tower, code.tower.q, code.n
        sides = (("code", code.gen_matrix), ("dual", code.alternating_dual_matrix()))
        enumerated = "dual" if len(sides[1][1]) < len(sides[0][1]) else "code"
        for side, rows in sides:
            r = len(rows)
            if not 1 <= r <= 3:
                continue
            words = naive.span(tower, rows, n)
            expected = naive.weight_histogram(words, n, naive.hamming_weight)
            for workers in (1, 2, 10 ** 6):
                visited.clear()
                assert naive.span_counts(tower, rows, n, workers) == expected
                assert sum(visited) == visits(q, r)
            seen.add((q, side, r))
            if side != enumerated:
                continue
            r_short = next(i for i in range(r) if q ** i == sum(w[0] == 0 for w in words))
            for workers in (1, 2, 10 ** 6):
                visited.clear()
                counts = weight_distribution(code, workers=workers)
                assert (counts.dual_counts if side == "dual" else counts.counts) == expected
                assert sum(visited) == (visits(q, r_short) if r_short else 0)
            shortened.add((r - r_short, r_short))
    assert seen == {(q, side, r) for q in grid for side in ("code", "dual") for r in (1, 2, 3)}
    assert shortened == {(e, r - e) for r in (1, 2, 3) for e in (1, 2) if e <= r}


def test_lift_matches_direct_enumeration_on_both_sides(monkeypatch):
    # the histogram lifted from the words with c_0 = 0 by A_w (n - w) = n S_w
    # against the sweep of the whole span, on both sides of every divisor
    # code of a small grid; e = 1 and 2 occur, as do n = 1, sides with
    # nothing left to sweep (r = e) and odd-q duals closed under T- only
    sweep, swept = weights._sweep, []

    def recording(tower, multiples, n, workers):
        swept.append(multiples.shape[1])
        return sweep(tower, multiples, n, workers)

    monkeypatch.setattr(weights, "_sweep", recording)
    seen = set()
    pairs = [(q, n) for q in (2, 3, 4, 5, 7, 8, 9) for n in (1, 2, 3)] + [(2, 4), (2, 5), (3, 4)]
    for code in naive.divisor_codes(pairs):
        tower, n = code.tower, code.n
        for side, rows in (("code", code.gen_matrix), ("dual", code.alternating_dual_matrix())):
            if not rows:
                continue
            swept.clear()
            lifted = weights._side_counts(tower, rows, n, 1)
            e = len(rows) - swept[0]
            assert lifted == naive.span_counts(tower, rows, n, 1)
            seen |= {("e", e), ("n", n), ("r = e", len(rows) == e)}
            if side == "dual" and tower.p != 2 and not is_conjucyclic(tower, rows):
                seen.add("T- only")
    assert {("e", 1), ("e", 2), ("n", 1), ("r = e", True), "T- only"} <= seen


def test_budget_enforcement(ternary_code):
    # the budget caps the smaller side: the ternary n = 11 code has 3^12
    # words and its alternating dual 3^10
    with pytest.raises(BudgetExceededError):
        weight_distribution(ternary_code, budget=3 ** 10 - 1)
    assert min_weight(ternary_code, budget=3 ** 10) == 5
    with pytest.raises(BudgetExceededError):
        min_weight(ternary_code, budget=10)


def direct_counts(code):
    """Histograms of the code and of its alternating dual, both enumerated."""
    tower, n = code.tower, code.n
    return (
        naive.span_counts(tower, code.gen_matrix, n, 1),
        naive.span_counts(tower, code.alternating_dual_matrix(), n, 1),
    )


def table_span(tower, rows, n):
    """(keys, weights) of every word in the GF(q)-span of the rows.

    Builds the span by lookups in the full GF(q^2) addition table, one row
    at a time; a word's key is its base-q^2 integer.
    """
    add = np.array([[tower.add(a, b) for b in range(tower.q2)] for a in range(tower.q2)])
    words = np.zeros((1, n), dtype=np.int64)
    for row in rows:
        multiples = np.array([[tower.mul(c, x) for x in row] for c in tower.subfield])
        words = add[words[:, None, :], multiples[None, :, :]].reshape(-1, n)
    keys = words @ tower.q2 ** np.arange(n, dtype=np.int64)
    assert np.all(np.diff(np.sort(keys)))  # q^len(rows) distinct words
    return keys, np.count_nonzero(words, axis=1)


def direct_stabilizer_distance(code):
    """(d, pure) of a dual-containing code from both enumerated spans.

    d is the least weight of a word of C outside C^perp, or the minimum
    weight of C when C = C^perp; pure when no nonzero word of C^perp is
    lighter than d.
    """
    tower, n = code.tower, code.n
    keys, weights_c = table_span(tower, code.gen_matrix, n)
    dual_keys, weights_d = table_span(tower, code.alternating_dual_matrix(), n)
    outside = weights_c[~np.isin(keys, dual_keys)]
    d = int(outside.min() if outside.size else weights_c[weights_c > 0].min())
    return d, not np.any((weights_d > 0) & (weights_d < d))


def test_macwilliams_matches_direct_enumeration():
    # every divisor code with q in {2, 3, 4, 5}, n <= 6 and at most 2^18
    # words on its larger side: both distributions against enumeration of
    # both sides, and against naive spans where q^k <= 3^8; on the 189
    # dual-containing codes, the distance d and the purity verdict against
    # the set difference C \ C^perp (all are pure; the impure witnesses are
    # below)
    checked = naive_checked = containing = 0
    pairs = [(q, n) for q in (2, 3, 4, 5) for n in range(1, 7)]
    for code in naive.divisor_codes(pairs):
        q, n, k = code.tower.q, code.n, code.card_log_q
        if q ** max(k, 2 * n - k) > 1 << 18:
            continue
        a, b = direct_counts(code)
        dist = weight_distribution(code)
        assert (dist.counts, dist.dual_counts) == (a, b)
        if is_alternating_dual_containing(code):
            params = stabilizer_params(code)
            assert (params.d, params.pure) == direct_stabilizer_distance(code)
            assert params.d_lower == dist.min_weight
            containing += 1
        if q ** k <= 3 ** 8:
            words = naive.span(code.tower, code.gen_matrix, n)
            assert a == naive.weight_histogram(words, n, naive.hamming_weight)
            naive_checked += 1
        checked += 1
    assert (checked, naive_checked, containing) == (618, 446, 189)


def test_macwilliams_matches_direct_enumeration_on_goldens(ternary_code, quaternary_code):
    for code in (ternary_code, quaternary_code):
        dist = weight_distribution(code)
        assert (dist.counts, dist.dual_counts) == direct_counts(code)
    assert weight_distribution(quaternary_code).counts == QUATERNARY_N11["weight_distribution"]


def test_impure_witnesses():
    # q = 4, n = 9: all 45 weight-3 codewords lie in the alternating dual
    # and the lightest word outside it has weight 4, the distance d; q = 2,
    # n = 14: all 7 weight-2 codewords do, and the lightest outside has
    # weight 3
    for q, n, g, d_lower, count in (
        (4, 9, (1, 0, 7, 0, 0, 0, 6, 0, 1), 3, 45),
        (2, 14, (1, 0, 1, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1), 2, 7),
    ):
        code = ConjucyclicCode(tower_for_q(q), n, g)
        params = stabilizer_params(code)
        assert params.pure is False
        assert (params.d_lower, params.d) == (d_lower, d_lower + 1)
        assert str(params) == f"[[{n},{params.k_logical},{d_lower + 1}]]_{q}"
        dual_words = naive.span(code.tower, code.alternating_dual_matrix(), n)
        dual_hist = naive.weight_histogram(dual_words, n, naive.hamming_weight)
        a = weight_distribution(code).counts
        assert a[d_lower] == dual_hist[d_lower] == count
        assert a[d_lower + 1] > dual_hist[d_lower + 1]
    # the 2^15-word binary code is small enough to check by set difference
    words = naive.span(code.tower, code.gen_matrix, n)
    assert dual_words < words
    assert min(naive.hamming_weight(w) for w in words - dual_words) == params.d == 3


def test_dual_containing_verdicts(f9, quaternary_code):
    assert is_alternating_dual_containing(ConjucyclicCode(f9, 2, (1,)))
    assert not is_alternating_dual_containing(ConjucyclicCode(f9, 2, (2, 0, 0, 0, 1)))
    assert is_alternating_dual_containing(quaternary_code)


def test_dual_containing_has_one_definition():
    # one object under every name, so a rebinding of any of them sees every call
    assert is_alternating_dual_containing is conju.is_alternating_dual_containing
    assert weights.is_alternating_dual_containing is conju.is_alternating_dual_containing


def test_dual_containing_matches_naive_inclusion():
    grid = [(2, 2), (3, 2), (4, 1), (5, 1), (7, 1), (8, 1), (9, 1)]
    for code in naive.divisor_codes(grid):
        words = naive.span(code.tower, code.gen_matrix, code.n)
        dual_words = naive.span(
            code.tower, code.alternating_dual_matrix(), code.n
        )
        verdict = is_alternating_dual_containing(code)
        assert verdict == (dual_words <= words)
        assert verdict == naive.dual_containing_by_elimination(code)


def test_dual_containing_is_one_division():
    # the one test g | tau(h*) against g dividing every symplectic-dual row,
    # and for odd q against g | x^n - 1 or g | x^n + 1, which does not use
    # the half-swap; odd and even q, and p | n at (2, 6), (3, 6), (5, 5), (9, 3)
    grid = [(2, 6), (3, 6), (4, 3), (5, 5), (7, 2), (9, 3), (25, 2)]
    verdicts = set()
    for code in naive.divisor_codes(grid):
        tower, n, g = code.tower, code.n, code.g
        verdict = is_alternating_dual_containing(code)
        assert verdict == naive.dual_containing_all_rows(code)
        if tower.p != 2:
            minus = x_pow_minus_one(tower, n)
            plus = (1,) + (0,) * (n - 1) + (1,)
            assert verdict == (not poly_mod(tower, minus, g) or not poly_mod(tower, plus, g))
        verdicts.add((tower.p == 2, verdict))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_stabilizer_params_full_space():
    tower = build_tower(3, 1)
    code = ConjucyclicCode(tower, 2, (1,))
    params = stabilizer_params(code)
    assert (params.n, params.k_logical, params.d_lower, params.q) == (2, 2, 1, 3)
    assert params.pure
    assert str(params) == "[[2,2,1]]_3"


def test_stabilizer_params_requires_dual_containing(f9):
    zero = ConjucyclicCode(f9, 2, (2, 0, 0, 0, 1))
    with pytest.raises(NotDualContainingError):
        stabilizer_params(zero)


def test_dual_containing_codes_have_enough_logical_space():
    for code in naive.divisor_codes([(2, 2), (3, 2), (4, 2), (5, 1)]):
        if is_alternating_dual_containing(code):
            assert code.card_log_q >= code.n
            if code.card_log_q:
                params = stabilizer_params(code)
                assert params.k_logical >= 0
                assert params.d_lower >= 1


def test_distribution_json(ternary_code):
    dist = weight_distribution(ternary_code)
    blob = dist.to_json()
    assert blob["card"] == "3^12"
    assert blob["minWeight"] == 5
    assert blob["counts"][0] == 1 and len(blob["counts"]) == 12


def test_distribution_is_frozen(f9):
    dist = weight_distribution(ConjucyclicCode(f9, 2, (2, 0, 1)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        dist.counts = [1]
