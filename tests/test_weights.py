import dataclasses
import functools
import itertools
import math
import os
import random
import threading

import numpy as np
import pytest

import naive
from conjucyclic import (
    BudgetExceededError,
    ConjucyclicCode,
    NotDualContainingError,
    build_tower,
    cli,
    conju,
    enumerate_divisors,
    expand,
    factor_x2n_minus_1,
    is_alternating_dual_containing,
    is_conjucyclic,
    packed,
    stabilizer_params,
    tower_for_q,
    weight_distribution,
    weights,
)
from conjucyclic.cyclic import split
from conjucyclic.field import FieldTower
from conjucyclic.poly import poly_mod
from conjucyclic.refdata import QUATERNARY_N11


def test_zero_code_distribution(f9):
    code = ConjucyclicCode(f9, 2, (2, 0, 0, 0, 1))
    dist = weight_distribution(code)
    assert dist.counts == [1, 0, 0]
    assert dist.min_weight is None
    assert dist.cardinality == 1


def test_full_space_code(f9):
    code = ConjucyclicCode(f9, 2, (1,))
    dist = weight_distribution(code)
    assert sum(dist.counts) == 3 ** 4 == dist.cardinality
    assert dist.counts[0] == 1
    assert dist.min_weight == 1


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
        words = naive.span(
            code.tower, naive.cyclic_generator_matrix(code.cyclic), 2 * code.n
        )
        dist = weight_distribution(code)
        assert dist.min_weight == naive.min_positive_weight(
            words, naive.symplectic_weight
        )
        assert dist.counts == naive.weight_histogram(
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

    monkeypatch.setattr(packed, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    base = weight_distribution(ternary_code, workers=1).counts
    assert weight_distribution(ternary_code, workers=10 ** 6).counts == base
    assert recorded == []
    monkeypatch.setattr(packed, "_CHUNK_WORDS", 1 << 8)
    assert weight_distribution(ternary_code, workers=10 ** 6).counts == base
    assert recorded == [2]
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert weight_distribution(ternary_code, workers=10 ** 6).counts == base
    assert recorded == [2, 3]


def test_sweeps_past_byte_weights_match_naive(monkeypatch):
    # a weight in row 1 is stored plus n + 1, so past 256 bins, at n >= 128
    # for a product of a GF(q) factor and a beta GF(q) one (whose inner
    # words count in both rows) and at n >= 256 for one factor, the
    # histogram counts intp weights, not byte pairs: p = 2 and odd p both
    # ways, and at (3, 200) one factor's 201 bins still paired; small
    # blocks give several steps per call, and a pool at 2 workers.  The
    # GF(q^2) rows reach the sweep as mirror log rows (naive.mirror_logs)
    rng = random.Random(128)
    monkeypatch.setattr(packed, "_CHUNK_WORDS", 1 << 6)
    monkeypatch.setattr(packed, "_BLOCK_WORDS", 1 << 8)
    cases = ((2, 260, (8,)), (4, 130, (3, 2)), (3, 129, (4, 3)), (3, 257, (6,)), (3, 200, (5,)))
    for q, n, dims in cases:
        tower = tower_for_q(q)
        beta = min(set(range(tower.q2)) - set(tower.subfield))
        factors = [
            [tuple(tower.mul(scale, rng.choice(tower.subfield)) for _ in range(n)) for _ in range(r)]
            for scale, r in zip((1, beta), dims)
        ]
        words = naive.span(tower, [row for rows in factors for row in rows], n)
        assert len(words) == q ** sum(dims) <= 1 << 12
        expected = naive.weight_histogram(words, n, naive.hamming_weight)
        mirror = [naive.mirror_logs(tower, rows) for rows in factors]
        for workers in (1, 2):
            assert packed._sweep(tower, mirror, n, workers) == expected


def test_concurrent_sweeps_match_serial(ternary_code, quaternary_code, monkeypatch):
    # each thread keeps its own scratch buffers: two user threads sweeping
    # at once, an odd-p code of two words per sum and a p = 2 code of one,
    # get the serial histograms; small blocks make every call take many
    # steps, so the two threads' steps interleave
    monkeypatch.setattr(packed, "_BLOCK_WORDS", 1 << 9)
    codes = (ternary_code, quaternary_code)
    serial = [weight_distribution(code) for code in codes]
    start, results = threading.Barrier(len(codes)), [[] for _ in codes]

    def sweep(j):
        start.wait()
        for _ in range(20):
            results[j].append(weight_distribution(codes[j]))

    threads = [threading.Thread(target=sweep, args=(j,)) for j in range(len(codes))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results == [[dist] * 20 for dist in serial]


def test_sweeps_leave_the_callers_buffer_size(quaternary_code, monkeypatch):
    # the pair XOR runs in each thread's own context with numpy's buffer
    # size set to packed._BUFSIZE, serial or in a pool, and the caller's
    # buffer size, numpy's default or its own inside np.errstate, stays;
    # small blocks and two cores make workers = 2 start a pool
    monkeypatch.setattr(packed, "_CHUNK_WORDS", 1 << 8)
    monkeypatch.setattr(packed, "_cores", lambda: 2)
    histogram, inside = packed._histogram, []

    def recorded(*args):
        result = histogram(*args)
        inside.append((np.getbufsize(), packed._scratch.unbuffered.run(np.getbufsize)))
        return result

    monkeypatch.setattr(packed, "_histogram", recorded)
    default, expected = np.getbufsize(), weight_distribution(quaternary_code)
    for size in (default, 4096):
        with np.errstate():
            np.setbufsize(size)
            for workers in (1, 2):
                assert weight_distribution(quaternary_code, workers=workers) == expected
                assert np.getbufsize() == size
    assert np.getbufsize() == default
    assert {bufsize for _, bufsize in inside} == {packed._BUFSIZE}
    assert len(inside) == 7 and {size for size, _ in inside} == {default, 4096}


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


def test_packed_span_starts_from_the_first_array():
    # no arrays give the zero word; otherwise every pick of one column per
    # array, the first array's pick varying slowest, with no zero word
    # added first; two 3-bit fields of base-3 digits per word
    add = packed.packed_add(3, 3, 2)
    assert packed.packed_span(add, [], 2).tolist() == [[0], [0]]
    a = np.array([[0, 1, 2]], dtype=np.uint64)
    assert packed.packed_span(add, [a], 1) is a
    b = np.array([[0, 8, 16]], dtype=np.uint64)  # the second digit
    assert packed.packed_span(add, [a, b], 1).tolist() == [[0, 8, 16, 1, 9, 17, 2, 10, 18]]
    c = np.array([[0, 2]], dtype=np.uint64)  # digit sums reduce mod 3
    assert packed.packed_span(add, [a, c], 1).tolist() == [[0, 2, 1, 0, 2, 1]]


def visits(q, r):
    """Words the kernel visits on a span of r >= 1 rows: the inner span
    against zero and one representative per projective point of the outer
    half."""
    r_in, r_out = r // 2, r - r // 2
    return (q ** r_out - 1) // (q - 1) * q ** r_in + q ** r_in


def factor_dims(code, side):
    """Dimensions of the length-n codes <gcd(f, x^n - 1)> and
    <gcd(f, x^n + 1)> whose product the odd-p route sweeps, f = g for the
    code and h* for its dual, by schoolbook gcds."""
    tower, n = code.tower, code.n
    f = code.cyclic.h_star if side == "dual" else code.cyclic.g
    minus = (naive.neg(tower, 1),) + (0,) * (n - 1) + (1,)
    plus = (1,) + (0,) * (n - 1) + (1,)
    return [n + 1 - len(naive.poly_gcd(tower, f, m)) for m in (minus, plus)]


def product_visits(q, dims):
    """Words the kernel visits on the product of two length-n factors of
    these dimensions, each shortened by one row.  With a >= b rows left:
    visits(q, a) when b = 0; else the representatives of the larger
    factor's last a - i rows, and zero, against its first i rows' span plus
    zero or one representative of each projective point of the other, with
    i = (a - b) // 2."""
    a, b = sorted((max(d - 1, 0) for d in dims), reverse=True)
    if not b:
        return visits(q, a) if a else 0
    i = (a - b) // 2
    points = lambda r: (q ** r - 1) // (q - 1)
    return (points(a - i) + 1) * q ** i * (points(b) + 1)


def test_projective_sweep_matches_naive_on_both_sides(monkeypatch):
    # the kernel visits (q^r_out - 1)/(q - 1) q^r_in + q^r_in words for a
    # side of q^r words; at r = 1 the inner span is the zero word.  Scaling
    # by q - 1 makes every A_w (w > 0) of the enumerated side a multiple of
    # q - 1 by construction, so the naive spans are the check on the counts
    # themselves.  weight_distribution sweeps only the r' = r - e rows of
    # the enumerated side's words with c_0 = 0, and visits no word at r' = 0;
    # for p = 2 those rows span one side, for odd p the product of two
    # length-n factors, which visits product_visits words.
    # Sides of up to 5 rows at q <= 3 give an outer half of 3 rows, whose
    # representatives reach past the span's columns [q, 2q)
    histogram, visited = packed._histogram, []

    def recording(outer, inner, *args):
        visited.append(outer.shape[1] * inner.shape[1])
        return histogram(outer, inner, *args)

    monkeypatch.setattr(packed, "_histogram", recording)
    grid = (2, 3, 4, 5, 7, 8, 9)
    seen, shortened = set(), set()
    for code in naive.divisor_codes([(q, n) for q in grid for n in (1, 2, 3)]):
        tower, q, n = code.tower, code.tower.q, code.n
        sides = (("code", code.gen_matrix), ("dual", code.alternating_dual_matrix()))
        enumerated = "dual" if len(sides[1][1]) < len(sides[0][1]) else "code"
        for side, rows in sides:
            r = len(rows)
            if not 1 <= r <= (5 if q <= 3 else 3):
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
            if tower.p == 2:
                expected_visits = visits(q, r_short) if r_short else 0
            else:
                expected_visits = product_visits(q, factor_dims(code, side))
            for workers in (1, 2, 10 ** 6):
                visited.clear()
                counts = weight_distribution(code, workers=workers)
                assert (counts.dual_counts if side == "dual" else counts.counts) == expected
                assert sum(visited) == expected_visits
            shortened.add((r - r_short, r_short))
    assert seen == {
        (q, side, r)
        for q in grid
        for side in ("code", "dual")
        for r in range(1, 6 if q <= 3 else 4)
    }
    assert shortened == {(e, r - e) for r in (1, 2, 3) for e in (1, 2) if e <= r}


def test_lift_matches_direct_enumeration_on_both_sides(monkeypatch):
    # the histogram lifted from the words with c_0 = 0 by A_w (n - w) = n S_w
    # against the sweep of the whole span, on both sides of every divisor
    # code of a small grid; e = 1 and 2 occur, as do n = 1, sides with
    # nothing left to sweep (r = e) and odd-q duals closed under T- only;
    # the shortened rows span exactly the words with c_0 = 0
    sweep, swept = packed._sweep, []

    def recording(tower, factors, n, workers):
        swept.append(sum(map(len, factors)))
        return sweep(tower, factors, n, workers)

    monkeypatch.setattr(packed, "_sweep", recording)
    seen = set()
    pairs = [(q, n) for q in (2, 3, 4, 5, 7, 8, 9) for n in (1, 2, 3)] + [(2, 4), (2, 5), (3, 4)]
    for code in naive.divisor_codes(pairs):
        tower, n = code.tower, code.n
        for side, rows in (("code", code.gen_matrix), ("dual", code.alternating_dual_matrix())):
            if not rows:
                continue
            swept.clear()
            lifted = naive.side_counts(tower, rows, n, 1)
            e = len(rows) - swept[0]
            assert lifted == naive.span_counts(tower, rows, n, 1)
            short = naive.shorten(tower, rows)
            words = naive.span(tower, rows, n)
            assert naive.span(tower, short, n) == {w for w in words if w[0] == 0}
            assert len(short) == len(rows) - e and e in (1, 2)
            seen |= {("e", e), ("n", n), ("r = e", len(rows) == e)}
            if side == "dual" and tower.p != 2 and not is_conjucyclic(tower, rows):
                seen.add("T- only")
    assert {("e", 1), ("e", 2), ("n", 1), ("r = e", True), "T- only"} <= seen


def test_odd_p_product_sweep_matches_the_gf_q2_route(monkeypatch):
    # for odd p the enumerated side is swept as <gcd(f, x^n - 1)> x
    # <gcd(f, x^n + 1)>, f = g or h*; against the GF(q^2)-row route
    # (naive.side_counts on gen_matrix or alternating_dual_matrix), and against
    # naive spans on small sides, on the first 80 divisors of each (q, n)
    # whose smaller side has at most 2^16 words; each code also runs at 2
    # workers with blocks small enough to start a pool; the kernel's visits
    # are pinned either way
    histogram, visited = packed._histogram, []

    def recording(outer, inner, *args):
        visited.append(outer.shape[1] * inner.shape[1])
        return histogram(outer, inner, *args)

    monkeypatch.setattr(packed, "_histogram", recording)
    default = packed._CHUNK_WORDS
    seen, checked, naive_checked = set(), 0, 0
    for q in (3, 5, 7, 9, 25, 27):
        tower = tower_for_q(q)
        for n in range(1, 13):
            fac = factor_x2n_minus_1(tower, n)
            for _, g in itertools.islice(enumerate_divisors(fac), 80):
                code = ConjucyclicCode(tower, n, g)
                k = code.card_log_q
                if q ** min(k, 2 * n - k) > 1 << 16:
                    continue
                side = "dual" if 2 * n - k < k else "code"
                rows = code.alternating_dual_matrix() if side == "dual" else code.gen_matrix
                expected = naive.side_counts(tower, rows, n, 1)
                if q ** len(rows) <= 3 ** 5:
                    words = naive.span(tower, rows, n)
                    assert expected == naive.weight_histogram(words, n, naive.hamming_weight)
                    naive_checked += 1
                dims = factor_dims(code, side)
                for chunk, grid in ((default, (1, 2, 10 ** 6)), (1 << 8, (2,))):
                    monkeypatch.setattr(packed, "_CHUNK_WORDS", chunk)
                    for workers in grid:
                        visited.clear()
                        dist = weight_distribution(code, workers=workers)
                        assert (dist.dual_counts if side == "dual" else dist.counts) == expected
                        assert sum(visited) == product_visits(q, dims)
                a, b = sorted((max(d - 1, 0) for d in dims), reverse=True)
                seen |= {side, ("p | n", n % tower.p == 0), ("n", n), ("b", min(b, 1))}
                seen |= {("empty", a > 0 == b), ("whole", n in dims), ("split", (a - b) // 2 > 0 < b)}
                checked += 1
    assert {"code", "dual", ("p | n", True), ("n", 1), ("b", 1), ("empty", True)} <= seen
    assert {("whole", True), ("split", True)} <= seen
    assert (checked, naive_checked) == (2288, 896)


def test_p2_mirror_sweep_matches_the_gf_q2_route(monkeypatch):
    # for p = 2 the enumerated side is swept from the shifts x f, ...,
    # x^(d - 1) f of its mirror generator, f = g or h*, after one pivot at
    # mirror position n; against the GF(q^2)-row route (naive.side_counts on
    # gen_matrix or alternating_dual_matrix) on the first 300 divisors of
    # each (q, n) whose smaller side has at most 2^16 words; each code also
    # runs at 2 workers with blocks small enough to start a pool.  e = 1
    # where no shifted row is nonzero at position n (f = x^n + 1, say)
    sweep, swept = packed._sweep, []

    def recording(tower, factors, n, workers):
        swept.append(sum(map(len, factors)))
        return sweep(tower, factors, n, workers)

    monkeypatch.setattr(packed, "_sweep", recording)
    default = packed._CHUNK_WORDS
    seen, es, checked = set(), [], 0
    for q in (2, 4, 8, 16):
        tower = tower_for_q(q)
        for n in range(1, 16 if q <= 4 else 9):
            fac = factor_x2n_minus_1(tower, n)
            for _, g in itertools.islice(enumerate_divisors(fac), 300):
                code = ConjucyclicCode(tower, n, g)
                k = code.card_log_q
                if q ** min(k, 2 * n - k) > 1 << 16:
                    continue
                side = "dual" if 2 * n - k < k else "code"
                rows = code.alternating_dual_matrix() if side == "dual" else code.gen_matrix
                expected = naive.side_counts(tower, rows, n, 1)
                for chunk, grid in ((default, (1, 2, 10 ** 6)), (1 << 8, (2,))):
                    monkeypatch.setattr(packed, "_CHUNK_WORDS", chunk)
                    for workers in grid:
                        swept.clear()
                        dist = weight_distribution(code, workers=workers)
                        assert (dist.dual_counts if side == "dual" else dist.counts) == expected
                if rows:
                    es.append(len(rows) - swept[0])
                seen |= {side, ("n", n), ("zero", k == 0), ("full", k == 2 * n)}
                checked += 1
    assert {"code", "dual", ("n", 1), ("zero", True), ("full", True)} <= seen
    assert set(es) == {1, 2} and es.count(1) == 911
    assert checked == 2120


def test_budget_enforcement(ternary_code):
    # the budget caps the smaller side: the ternary n = 11 code has 3^12
    # words and its alternating dual 3^10
    with pytest.raises(BudgetExceededError):
        weight_distribution(ternary_code, budget=3 ** 10 - 1)
    assert weight_distribution(ternary_code, budget=3 ** 10).min_weight == 5
    with pytest.raises(BudgetExceededError):
        weight_distribution(ternary_code, budget=10)


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


def test_macwilliams_matches_the_horner_oracle():
    # the evaluation at y = 2^w against the Horner expansion it replaced
    # (naive.macwilliams_horner) on every divisor code of the small property
    # grid: both directions over Q = q^2, and over the Euclidean Q = q on the
    # length-n cyclic code <g1> (g1 = g / gcd(g, x^n + 1) divides x^n - 1),
    # the transform _Constacyclic.counts applies, there and back
    grid = [(2, 8), (3, 6), (4, 5), (5, 4), (7, 3), (8, 3), (9, 3)]
    pairs = [(q, n) for q, n_max in grid for n in range(1, n_max + 1)]
    checked = 0
    for code in naive.divisor_codes(pairs):
        tower, n, k = code.tower, code.n, code.card_log_q
        q = tower.q
        dist = weight_distribution(code)
        sides = ((dist.counts, k, dist.dual_counts), (dist.dual_counts, 2 * n - k, dist.counts))
        for counts, dim, other in sides:
            oracle = naive.macwilliams_horner(counts, q ** dim, tower.q2)
            assert weights._macwilliams(counts, q ** dim, tower.q2) == oracle == other
        b0 = weights._split(tower, n, code.cyclic.g_logs)[0]
        cyclic, dim = b0.counts(1 << 28, 1), b0.dim
        dual = weights._macwilliams(cyclic, q ** dim, q)
        assert dual == naive.macwilliams_horner(cyclic, q ** dim, q)
        assert weights._macwilliams(dual, q ** (n - dim), q) == cyclic
        checked += 1
    assert checked == 544


def test_macwilliams_closed_forms():
    # the zero code and the full space, C(n, j) (Q - 1)^j words of weight
    # j, are each other's duals, up to n = 255
    for q2 in (2, 3, 4, 9, 16):
        for n in (*range(20), 31, 63, 64, 100, 127, 200, 254, 255):
            full = [math.comb(n, j) * (q2 - 1) ** j for j in range(n + 1)]
            zero = [1] + [0] * n
            assert weights._macwilliams(zero, 1, q2) == full
            assert weights._macwilliams(full, q2 ** n, q2) == zero


def test_macwilliams_digits_that_carry_fail():
    # histograms of no code give negative coefficients, which borrow from
    # the digit above.  Over Q = 4, [1, 10] gives (1 + 3 y) + 10 (1 - y) =
    # 11 - 7 y, whose borrow runs off the top digit; [1, 0, 4] gives
    # (1 + 3 y)^2 + 4 (1 - y)^2 = 5 - 2 y + 13 y^2, read at y = 32 as the
    # digits 5, 30, 12, which sum to 47, not 16
    for counts in ([1, 10], [1, 0, 4]):
        with pytest.raises(AssertionError, match="carried"):
            weights._macwilliams(counts, 1, 4)


#: (q, n) on both sides of the last n at which a p = 2 coordinate of 2m
#: bits takes a spare top bit without adding a word to the n coordinates
SPARE_BIT_BOUNDARIES = ((2, 21), (2, 22), (4, 12), (4, 13), (8, 9), (8, 10), (16, 7), (16, 8))


def test_multiples_gather_matches_the_per_entry_route():
    # packed._multiples takes every GF(q)-multiple of every row by a
    # gather per half; against naive.multiples, one entry at a time, bit for
    # bit with the same shape and dtype, on the rows each sweep takes: the
    # p = 2 mirror rows and both factors of the odd-p split, A- alone in
    # GF(q), A+ alone in beta GF(q) and the two together,
    # of g and h* for every divisor code of the small grid, at q = 25, 27,
    # 49 and 512 for multi-digit layouts and rows of nw > 1 words, and of
    # every eighth divisor at the spare-bit boundaries, whose p = 2 layouts
    # have the spare bit below and none above
    pairs = [(q, n) for q in (2, 3, 4, 5, 7, 8, 9) for n in (1, 2, 3, 4)]
    seen, checked = set(), 0
    codes = itertools.chain(
        naive.divisor_codes(pairs + [(25, 5), (27, 4), (49, 5), (512, 4)]),
        naive.divisor_codes(SPARE_BIT_BOUNDARIES, every=8),
    )
    for code in codes:
        tower, n = code.tower, code.n
        for f in (code.cyclic.g_logs, code.cyclic.h_star_logs):
            if tower.p == 2:
                cases = [[weights._mirror_short_rows(tower, n, f)]]
            else:
                minus, plus = (part.short_rows() for part in weights._split(tower, n, f))
                cases = [[minus], [[], plus], [minus, plus]]
            for factors in cases:
                rows = [row for rows in factors for row in rows]
                if not rows:
                    continue
                got, expected = packed._multiples(tower, factors, n), naive.multiples(tower, factors, n)
                assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
                assert np.array_equal(got, expected)
                seen |= {("p", min(tower.p, 3)), ("digits", tower.ext_degree), ("nw", len(got) > 1)}
                seen.add(("zero entry", any(t < 0 for row in rows for t in row)))
                if tower.p == 2:
                    d = tower.ext_degree
                    seen.add(("spare bit", packed._layout(2, d, n)[1] > d))
                checked += 1
    assert {("p", 2), ("p", 3), ("nw", True), ("zero entry", True), ("digits", 18)} <= seen
    assert {("spare bit", True), ("spare bit", False)} <= seen
    assert checked == 3464


def test_spare_bit_layouts_match_naive_at_their_boundaries():
    # below each boundary the p = 2 layout has a spare top bit and marks in
    # two passes, above it has none and marks in four; the spare bit never
    # adds a word per sum.  On each side of k = n, the code whose smaller
    # side is the largest up to 2^14 words gives the naive span histogram
    # of that side and its MacWilliams transform
    for d in range(2, 25, 2):
        for n in range(1, 130):
            assert -(-n // packed._layout(2, d, n)[2]) == -(-n // (64 // d))
    for j, (q, n) in enumerate(SPARE_BIT_BOUNDARIES):
        tower = tower_for_q(q)
        d = tower.ext_degree
        assert packed._layout(2, d, n)[1] == d + (j % 2 == 0)
        largest = {}
        for code in naive.divisor_codes([(q, n)]):
            k = code.card_log_q
            small = min(k, 2 * n - k)
            if k != n and q ** small <= 1 << 14 and small > largest.get(k < n, (-1,))[0]:
                largest[k < n] = small, code
        assert len(largest) == 2
        for below, (small, code) in largest.items():
            rows = code.gen_matrix if below else code.alternating_dual_matrix()
            expected = naive.weight_histogram(naive.span(tower, rows, n), n, naive.hamming_weight)
            other = naive.macwilliams_horner(expected, q ** small, tower.q2)
            dist = weight_distribution(code)
            assert (dist.counts, dist.dual_counts) == ((expected, other) if below else (other, expected))


def test_sweeps_make_no_per_entry_field_calls(ternary_code, quaternary_code, monkeypatch):
    # the multiples of the rows come from whole-array gathers: no
    # FieldTower.codes or FieldTower.logs call runs inside packed._multiples
    inside, entries, calls, multiples = [], [], [], packed._multiples

    def entered(tower, factors, n):
        inside.append(True)
        entries.append(len(factors))
        try:
            return multiples(tower, factors, n)
        finally:
            inside.pop()

    def counting(method):
        def wrapper(self, *args, **kwargs):
            if inside:
                calls.append(method.__name__)
            return method(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(packed, "_multiples", entered)
    for name in ("codes", "logs"):
        monkeypatch.setattr(FieldTower, name, counting(getattr(FieldTower, name)))
    for code in (ternary_code, quaternary_code):
        weight_distribution(code)
    assert len(entries) == 2 and calls == []


def test_sweeps_build_no_gf_q2_table():
    # the sweeps gather from O(q) tables of GF(q) and beta GF(q), so on a
    # fresh tower (the canonical ones may have built theirs elsewhere) no
    # GF(q^2) exp/log table appears: at the 2^24 cap, on the p = 2 mirror
    # route, on an odd-p product of two nonzero factors, and in the (2, 21)
    # stabilizer code's length-n sweeps
    cases = [
        (4096, 3, (2, 1, 1)),
        (4096, 3, (1, 1, 0)),
        (4, 11, (0, 2, 0)),
        (9, 5, (1, 0, 0, 0, 1, 1)),
        (2, 21, (0, 1, 0, 2, 0, 2)),
    ]
    for q, n, exps in cases:
        canonical = tower_for_q(q)
        tower = FieldTower(canonical.p, canonical.m, canonical.modulus)
        code = ConjucyclicCode(tower, n, factor_x2n_minus_1(tower, n).divisor(list(exps)))
        weight_distribution(code)
        if is_alternating_dual_containing(code):
            stabilizer_params(code)
        assert "_exp" not in vars(tower) and "_log" not in vars(tower), (q, n, exps)


def test_packed_negation_is_digitwise_and_canonical():
    # -v mod p in every digit field, canonical (0 stays 0), for random words
    # whose last coordinate is zero padding in half of them; no bit above
    # the fields is ever set
    rng = np.random.default_rng(29)
    for p in (3, 5, 7, 11, 13):
        for d in (1, 2, 4, 6):
            c, _, per, _, _ = packed._layout(p, d, 1)
            fields = per * d
            digits = rng.integers(0, p, size=(200, fields))
            digits[::2, -d:] = 0
            words = [sum(int(v) << (i * c) for i, v in enumerate(row)) for row in digits]
            add = packed.packed_add(p, c, fields)
            negated = packed.packed_neg(add, p, c, fields, np.array(words, dtype=np.uint64))
            for row, word in zip(digits, negated.tolist()):
                assert [word >> (i * c) & ((1 << c) - 1) for i in range(fields)] == [
                    (p - int(v)) % p for v in row
                ]
                assert word >> (fields * c) == 0
    words = np.array([5, 6], dtype=np.uint64)
    assert packed.packed_neg(packed.packed_add(2, 1, 64), 2, 1, 64, words) is words


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
    # the verdict on h* (g | h* for p = 2, x^n -/+ 1 | h* for odd p) against
    # g dividing every symplectic-dual row, and for odd q against
    # g | x^n - 1 or g | x^n + 1 by poly_mod; odd and even q, and p | n at
    # (2, 6), (3, 6), (5, 5), (9, 3)
    grid = [(2, 6), (3, 6), (4, 3), (5, 5), (7, 2), (9, 3), (25, 2)]
    verdicts = set()
    for code in naive.divisor_codes(grid):
        tower, n, g = code.tower, code.n, code.g
        verdict = is_alternating_dual_containing(code)
        assert verdict == naive.dual_containing_all_rows(code)
        if tower.p != 2:
            minus = (naive.neg(tower, 1),) + (0,) * (n - 1) + (1,)
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


@functools.lru_cache(maxsize=None)
def split_grid():
    """Every dual-containing code among the first 400 divisors of each
    (q, n) of the grid whose smaller side has at most 2^20 words."""
    pairs = [(q, n) for q in (2, 3, 4, 5, 7, 8, 9) for n in range(1, 13)]
    pairs += [(2, 14), (2, 15), (2, 17), (2, 21), (4, 11)]
    codes = []
    for q, n in pairs:
        tower = tower_for_q(q)
        for _, g in itertools.islice(enumerate_divisors(factor_x2n_minus_1(tower, n)), 400):
            code = ConjucyclicCode(tower, n, g)
            k = code.card_log_q
            if q ** min(k, 2 * n - k) <= 1 << 20 and is_alternating_dual_containing(code):
                codes.append(code)
    return tuple(codes)


def test_split_matches_the_exhaustive_oracle(monkeypatch):
    # d, d_lower, purity and k - n from the length-n codes B0, B0' and
    # A cap B0' (odd p: no sweep) against both histograms of C and C^perp,
    # on every dual-containing code of the grid; the certificate does not
    # close on 4 of them, all at (4, 9), and those take the exhaustive route
    fallbacks = []

    def recording(code, **kwargs):
        fallbacks.append((code.tower.q, code.n))
        return weight_distribution(code, **kwargs)

    monkeypatch.setattr(weights, "weight_distribution", recording)
    kinds = set()
    for code in split_grid():
        params = stabilizer_params(code)
        oracle = naive.stabilizer_params_exhaustive(code)
        assert (params.d, params.d_lower, params.pure, params.k_logical) == oracle
        kinds.add((code.tower.p == 2, params.pure))
    assert len(split_grid()) == 2001
    assert fallbacks == [(4, 9)] * 4
    assert kinds == {(False, True), (True, True), (True, False)}


def test_purity_does_not_close_the_bounds(capsys):
    # [[21,5,3]]_4 is pure, yet d(B0 - B0') = 5: B0' has 21 words of
    # weight 3, and a weight-3 word of C lies outside C^perp, so d comes
    # from the exhaustive route, whose 4^16 words the default budget does
    # not admit
    tower, n = tower_for_q(4), 21
    exps = (0, 0, 1, 0, 0, 2, 2, 1, 0)
    code = ConjucyclicCode(tower, n, factor_x2n_minus_1(tower, n).divisor(exps))
    with pytest.raises(BudgetExceededError):
        stabilizer_params(code)
    argv = ["quantum", "--q", "4", "--n", "21", "--exps", ",".join(map(str, exps))]
    assert cli.main(argv) == cli.EXIT_BUDGET_EXCEEDED
    capsys.readouterr()
    params = stabilizer_params(code, budget=2 ** 32)
    assert (str(params), params.d_lower, params.pure) == ("[[21,5,3]]_4", 3, True)
    b0 = weights._split(tower, n, code.cyclic.g_logs)[0]
    b0_perp = weights._split(tower, n, code.cyclic.h_star_logs)[0]
    c0, c1 = b0.counts(weights.DEFAULT_BUDGET, 1), b0_perp.counts(weights.DEFAULT_BUDGET, 1)
    assert next(w for w in range(1, n + 1) if c0[w] > c1[w]) == 5
    assert c1[3] == 21
    word = [0] * n
    for i, e in ((6, 14), (13, 6), (20, 4)):
        word[i] = tower.power(e)
    assert all(conju.alternating_inner(tower, word, r) == 0 for r in code.alternating_dual_matrix())
    assert len(code.gen_matrix) == 26
    assert all(conju.alternating_inner(tower, word, r) for r in code.gen_matrix)


def test_length_n_codes_match_enumeration():
    # every divisor of the odd-p cells of the small property grid, f = g
    # and f = h*: the split's first part is gcd(f, x^n - 1), the A- that
    # the product sweep uses; each part, the cyclic A- and the negacyclic
    # A+, has the histogram of its naive span, its dual is cyclic or
    # negacyclic again, Euclidean orthogonal to it and of the complementary
    # dimension, and the two histograms are each other's MacWilliams
    # transform over GF(q)
    grid = [(3, 6), (5, 4), (7, 3), (9, 3)]
    pairs = [(q, n) for q, n_max in grid for n in range(1, n_max + 1)]
    checked, proper = 0, set()

    def span_rows(part):  # the basis f, x f, ..., x^(dim - 1) f, none wrapping
        codes = part.tower.zech.to_codes(part.f)
        return [(0,) * i + codes + (0,) * (part.dim - 1 - i) for i in range(part.dim)]

    for code in naive.divisor_codes(pairs):
        tower, n, z = code.tower, code.n, code.tower.zech
        q = tower.q
        for f in (code.cyclic.g_logs, code.cyclic.h_star_logs):
            minus, plus = weights._split(tower, n, f)
            assert minus.f == z.gcd(f, z.binomial(n, z.minus_one))
            for part, c in ((minus, z.minus_one), (plus, 0)):
                proper.add((part is plus, 0 < part.dim < n))
                rows, dual = span_rows(part), part.dual()
                assert not z.divmod(z.binomial(n, c), dual.f)[1]
                counts = part.counts(weights.DEFAULT_BUDGET, 1)
                words = naive.span(tower, rows, n)
                assert counts == naive.weight_histogram(words, n, naive.hamming_weight)
                assert dual.dim == n - part.dim
                for u, v in itertools.product(rows, span_rows(dual)):
                    assert naive.euclidean_inner(tower, u, v) == 0
                dual_counts = dual.counts(weights.DEFAULT_BUDGET, 1)
                assert weights._macwilliams(counts, q ** part.dim, q) == dual_counts
                assert weights._macwilliams(dual_counts, q ** dual.dim, q) == counts
                checked += 1
    assert checked == 1408
    assert proper == {(False, False), (False, True), (True, False), (True, True)}


def test_b0_perp_is_the_dual_of_a():
    # B0' = <h*/gcd(h*, x^n + 1)>, C^perp's B0, is A^perp: stabilizer_params
    # takes it from A = <gcd(g, x^n + 1)> by one division; against the split
    # of h* on every p = 2 divisor code of the small grid and of even n,
    # where x^n + 1 has repeated factors, and on the p = 2 codes of split_grid
    pairs = [(q, n) for q in (2, 4, 8) for n in (1, 2, 3)] + [(2, 6), (2, 12), (4, 6), (8, 4)]
    codes = list(naive.divisor_codes(pairs)) + [c for c in split_grid() if c.tower.p == 2]
    for code in codes:
        tower, n = code.tower, code.n
        a = weights._split(tower, n, code.cyclic.g_logs)[1]
        assert a.dual().f == split(tower, n, code.cyclic.h_star_logs)[0]
    assert (len(codes), sum(c.n % 2 == 0 for c in codes)) == (1301, 692)


def test_stabilizer_params_reuses_a_as_the_dual_of_b0_perp(monkeypatch):
    # B0' is A^perp, and its histogram comes from its dual where that is
    # the smaller side: A itself, not a second division of x^n + 1.  On
    # this (2, 21) code, dim A = 10, dim B0 = 12 and dim B0' = 11, so B0
    # and B0' each sweep their dual, and only A and B0 take a division
    calls, dual = [], weights._Constacyclic.dual

    def counted(self):
        calls.append(self.dim)
        return dual(self)

    monkeypatch.setattr(weights._Constacyclic, "dual", counted)
    tower = tower_for_q(2)
    code = ConjucyclicCode(tower, 21, factor_x2n_minus_1(tower, 21).divisor([0, 1, 0, 2, 0, 2]))
    params = stabilizer_params(code)
    assert calls == [10, 12]
    assert str(params) == "[[21,1,3]]_2"
    assert (params.d, params.d_lower, params.pure) == naive.stabilizer_params_exhaustive(code)[:3]


def test_split_sweeps_fit_the_exhaustive_budget():
    # every length-n sweep has at most q^(deg g) words, the smaller side
    # that the exhaustive route enumerates, so that budget always suffices
    for code in split_grid():
        stabilizer_params(code, budget=code.tower.q ** code.k)


def test_split_sweeps_are_checked_against_the_budget(capsys, quaternary_code):
    # the [[11,1,5]]_4 code: B0 = <g1>, deg g1 = 5, has a 4^5-word dual,
    # and B0' has 4^5 words itself; the exhaustive route needs 4^10
    with pytest.raises(BudgetExceededError):
        stabilizer_params(quaternary_code, budget=4 ** 5 - 1)
    assert str(stabilizer_params(quaternary_code, budget=4 ** 5)) == "[[11,1,5]]_4"
    argv = ["quantum", "--q", "4", "--n", "11", "--exps", "0,2,0", "--budget"]
    assert cli.main(argv + [str(4 ** 5 - 1)]) == cli.EXIT_BUDGET_EXCEEDED
    assert cli.main(argv + [str(4 ** 5)]) == 0
    assert "stabilizer code: [[11,1,5]]_4 (pure)" in capsys.readouterr().out


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
