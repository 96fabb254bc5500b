import os

import pytest

import naive
from conjucyclic import (
    BudgetExceededError,
    ConjucyclicCode,
    NotDualContainingError,
    ZeroCodeError,
    build_tower,
    enumerate_divisors,
    expand,
    factor_x2n_minus_1,
    is_alternating_dual_containing,
    min_weight,
    stabilizer_params,
    tower_for_q,
    weight_distribution,
    weights,
)
from conjucyclic.refdata import QUATERNARY_N11


def all_divisor_codes(pairs):
    for q, n in pairs:
        tower = tower_for_q(q)
        for _, g in enumerate_divisors(factor_x2n_minus_1(tower, n)):
            yield ConjucyclicCode(tower, n, g)


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
    for code in all_divisor_codes(sweep):
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
    for code in all_divisor_codes(sweep):
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
    for code in all_divisor_codes([(3, 2), (4, 2)]):
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
    counts = weight_distribution(ternary_code, workers=10 ** 6).counts
    assert recorded or (os.cpu_count() or 1) == 1
    assert all(w <= (os.cpu_count() or 1) for w in recorded)
    assert counts == weight_distribution(ternary_code, workers=1).counts


def test_multi_word_rows_match_naive_enumeration():
    # every family needs two uint64 words per codeword; (256, 5) fills bit 63
    # of the first word and (251, 4) has 9-bit digit fields
    pairs = [(2, 33), (3, 11), (4, 17), (5, 9), (9, 6), (27, 4), (81, 3), (256, 5), (251, 4)]
    for q, n in pairs:
        checked = 0
        for code in all_divisor_codes([(q, n)]):
            if not 0 < q ** code.card_log_q <= 3 ** 8:
                continue
            words = naive.span(code.tower, code.gen_matrix, code.n)
            expected = naive.weight_histogram(words, code.n, naive.hamming_weight)
            assert weight_distribution(code).counts == expected
            checked += 1
            if checked == 12:
                break
        assert checked > 0


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
        weights._span_counts(tower, code.gen_matrix, n, 1),
        weights._span_counts(tower, code.alternating_dual_matrix(), n, 1),
    )


def test_macwilliams_matches_direct_enumeration():
    # every divisor code with q in {2, 3, 4, 5}, n <= 6 and at most 2^18
    # words on its larger side: both distributions, and the purity verdict,
    # against enumeration of both sides, and against naive spans where
    # q^k <= 3^8 (all 189 dual-containing codes here are pure; the impure
    # witnesses are below)
    checked = naive_checked = 0
    pairs = [(q, n) for q in (2, 3, 4, 5) for n in range(1, 7)]
    for code in all_divisor_codes(pairs):
        q, n, k = code.tower.q, code.n, code.card_log_q
        if q ** max(k, 2 * n - k) > 1 << 18:
            continue
        a, b = direct_counts(code)
        dist = weight_distribution(code)
        assert (dist.counts, dist.dual_counts) == (a, b)
        containing = is_alternating_dual_containing(code)
        if containing:
            d = next((w for w in range(1, n + 1) if a[w] > b[w]), None)
            pure = d is None or not any(b[1:d])
            assert stabilizer_params(code).pure == pure
        if q ** k <= 3 ** 8:
            words = naive.span(code.tower, code.gen_matrix, n)
            assert a == naive.weight_histogram(words, n, naive.hamming_weight)
            naive_checked += 1
        checked += 1
    assert (checked, naive_checked) == (618, 446)


def test_macwilliams_matches_direct_enumeration_on_goldens(ternary_code, quaternary_code):
    for code in (ternary_code, quaternary_code):
        dist = weight_distribution(code)
        assert (dist.counts, dist.dual_counts) == direct_counts(code)
    assert weight_distribution(quaternary_code).counts == QUATERNARY_N11["weight_distribution"]


def test_impure_witnesses():
    # q = 4, n = 9: all 45 weight-3 codewords lie in the alternating dual
    # and the lightest word outside it has weight 4; q = 2, n = 14: all 7
    # weight-2 codewords do, and the lightest word outside has weight 3
    for q, n, g, d_lower, count in (
        (4, 9, (1, 0, 7, 0, 0, 0, 6, 0, 1), 3, 45),
        (2, 14, (1, 0, 1, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1), 2, 7),
    ):
        code = ConjucyclicCode(tower_for_q(q), n, g)
        params = stabilizer_params(code)
        assert params.pure is False
        assert params.d_lower == d_lower
        dual_words = naive.span(code.tower, code.alternating_dual_matrix(), n)
        dual_hist = naive.weight_histogram(dual_words, n, naive.hamming_weight)
        a = weight_distribution(code).counts
        assert a[d_lower] == dual_hist[d_lower] == count
        assert a[d_lower + 1] > dual_hist[d_lower + 1]
    # the 2^15-word binary code is small enough to check by set difference
    words = naive.span(code.tower, code.gen_matrix, n)
    assert dual_words < words
    assert min(naive.hamming_weight(w) for w in words - dual_words) == 3


def test_dual_containing_verdicts(f9, quaternary_code):
    assert is_alternating_dual_containing(ConjucyclicCode(f9, 2, (1,)))
    assert not is_alternating_dual_containing(ConjucyclicCode(f9, 2, (2, 0, 0, 0, 1)))
    assert is_alternating_dual_containing(quaternary_code)


def test_dual_containing_matches_naive_inclusion():
    grid = [(2, 2), (3, 2), (4, 1), (5, 1), (7, 1), (8, 1), (9, 1)]
    for code in all_divisor_codes(grid):
        words = naive.span(code.tower, code.gen_matrix, code.n)
        dual_words = naive.span(
            code.tower, code.alternating_dual_matrix(), code.n
        )
        verdict = is_alternating_dual_containing(code)
        assert verdict == (dual_words <= words)
        assert verdict == naive.dual_containing_by_elimination(code)


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
    for code in all_divisor_codes([(2, 2), (3, 2), (4, 2), (5, 1)]):
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
