"""Acceptance gate: every criterion as one test with a printed verdict.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  All comparisons are exact; the only tolerances are the stated
wall-clock targets, which are asserted.
"""

import random
import time

import naive
from conjucyclic import (
    ConjucyclicCode,
    alternating_inner,
    build_tower,
    conjucyclic_shift,
    contract,
    enumerate_divisors,
    expand,
    factor_x2n_minus_1,
    is_alternating_dual_containing,
    is_conjucyclic,
    largest_cyclic_subcode,
    stabilizer_params,
    tower_for_q,
    trace_pair,
    weight_distribution,
)
from conjucyclic import linalg
from conjucyclic.conju import _inversion_constants
from conjucyclic.refdata import (
    F9_INVERSION_CONSTANTS,
    F9_N3_CODEWORDS,
    F9_N3_CYCLIC_SUBCODE,
    F9_N3_EXPANDED,
    F9_N3_GENERATORS,
    F9_TRACE_PAIR_TABLE,
    QUATERNARY_N11,
    TERNARY_N11,
    decode,
    decode_matrix,
    decode_vector,
)
from naive import symplectic_inner

SEED = 0xACCE97

# Computed by this package's exhaustive enumerator and frozen as a
# regression value (the enumerator is oracle-checked on every small code).
TERNARY_N11_DISTRIBUTION = [
    1, 0, 0, 0, 0, 264, 2112, 11880, 46200, 125840, 199584, 145560,
]


class report:
    """Prints 'CRITERION <n> <label>: PASS/FAIL' when the block exits."""

    def __init__(self, number: int, label: str) -> None:
        self.name = f"{number} {label}"
        self.note = ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else f"FAIL ({exc})"
        suffix = f" [{self.note}]" if self.note else ""
        print(f"\nCRITERION {self.name}{suffix}: {verdict}")
        return False


def all_divisors(q, n):
    tower = tower_for_q(q)
    return tower, list(enumerate_divisors(factor_x2n_minus_1(tower, n)))


def test_c1_factorization_goldens():
    with report(1, "factorization goldens") as r:
        start = time.perf_counter()
        for data in (TERNARY_N11, QUATERNARY_N11):
            tower = tower_for_q(data["q"])
            fac = factor_x2n_minus_1(tower, data["n"])
            expected = {decode_vector(tower, line) for line in data["factors"]}
            assert set(fac.base) == expected
            assert fac.multiplicity == data.get("multiplicity", 1)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        r.note = f"{elapsed:.2f}s"


def test_c2_divisor_counts():
    with report(2, "divisor counts 64 and 27") as r:
        start = time.perf_counter()
        fac3 = factor_x2n_minus_1(tower_for_q(3), 11)
        fac4 = factor_x2n_minus_1(tower_for_q(4), 11)
        assert fac3.divisor_count == 64
        assert sum(1 for _ in enumerate_divisors(fac3)) == 64
        assert fac4.divisor_count == 27
        assert sum(1 for _ in enumerate_divisors(fac4)) == 27
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        r.note = f"{elapsed:.2f}s"


def test_c3_trace_pair_table():
    with report(3, "GF(9) trace-pair table and inversion constants"):
        tower = build_tower(3, 1)
        for token, pair in F9_TRACE_PAIR_TABLE.items():
            assert trace_pair(tower, decode(tower, token)) == pair
        expected = tuple(decode(tower, tok) for tok in F9_INVERSION_CONSTANTS)
        assert _inversion_constants(tower) == expected


def test_c4_listed_length3_code():
    with report(4, "fully listed GF(9) length-3 code") as r:
        start = time.perf_counter()
        tower = build_tower(3, 1)
        gens = decode_matrix(tower, F9_N3_GENERATORS)
        words = naive.span(tower, gens, 3)
        assert len(words) == 27
        assert words == {decode_vector(tower, line) for line in F9_N3_CODEWORDS}
        expanded = {expand(tower, w) for w in words}
        assert expanded == {decode_vector(tower, line) for line in F9_N3_EXPANDED}
        assert all(naive.cyclic_shift(d) in expanded for d in expanded)
        listed_sub = {decode_vector(tower, line) for line in F9_N3_CYCLIC_SUBCODE}
        oracle = naive.cyclic_subcode_by_elimination(tower, gens)
        assert naive.span(tower, oracle, 3) == listed_sub
        code = ConjucyclicCode(tower, 3, (2, 2, 1, 1))
        assert naive.span(tower, code.gen_matrix, 3) == words
        assert naive.span(tower, largest_cyclic_subcode(code), 3) == listed_sub
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        r.note = f"{elapsed:.2f}s"


def test_c5_ternary_n11_code():
    with report(5, "ternary mirror n=11: matrices and 3^12 sweep") as r:
        tower = build_tower(3, 1)
        code = ConjucyclicCode(tower, 11, decode_vector(tower, TERNARY_N11["g"]))
        assert code.gen_matrix == decode_matrix(tower, TERNARY_N11["gen_matrix"])
        assert code.alternating_dual_matrix() == decode_matrix(
            tower, TERNARY_N11["dual_matrix"]
        )
        assert code.card_log_q == 12
        start = time.perf_counter()
        dist = weight_distribution(code)
        elapsed = time.perf_counter() - start
        assert sum(dist.counts) == 3 ** 12
        assert dist.counts[5] > 0
        assert dist.min_weight == 5
        assert dist.counts == TERNARY_N11_DISTRIBUTION
        assert elapsed < 5.0
        r.note = f"{elapsed:.2f}s"


def test_c6_quaternary_n11_code():
    with report(6, "quaternary mirror n=11: 4^12 sweep and [[11,1,5]]_4") as r:
        tower = build_tower(2, 2)
        code = ConjucyclicCode(
            tower, 11, decode_vector(tower, QUATERNARY_N11["g"])
        )
        start = time.perf_counter()
        dist = weight_distribution(code, workers=1)
        single = time.perf_counter() - start
        assert dist.counts == QUATERNARY_N11["weight_distribution"]
        assert sum(dist.counts) == 4 ** 12
        assert dist.min_weight == 5
        assert single < 60.0

        start = time.perf_counter()
        dist4 = weight_distribution(code, workers=4)
        four = time.perf_counter() - start
        assert dist4.counts == dist.counts
        assert four < 15.0

        assert is_alternating_dual_containing(code)
        params = stabilizer_params(code, workers=1)
        assert (params.n, params.k_logical, params.d_lower, params.q) == (11, 1, 5, 4)
        assert params.pure
        r.note = f"{single:.1f}s single-core, {four:.1f}s with 4 workers"


def test_c7_property_suites():
    with report(7, "property suites, q in {2,3,4,5}, n <= 6") as r:
        suite_start = time.perf_counter()
        rng = random.Random(SEED)
        towers = [tower_for_q(q) for q in (2, 3, 4, 5)]

        # commutation of the conjucyclic shift with the expansion
        cases = 0
        for tower in towers:
            for n in range(1, 7):
                for _ in range(45):
                    v = tuple(rng.randrange(tower.q2) for _ in range(n))
                    assert expand(
                        tower, conjucyclic_shift(tower, v)
                    ) == naive.cyclic_shift(expand(tower, v))
                    cases += 1
        assert cases >= 1000

        # symplectic form transports to the alternating form
        cases = 0
        for tower in towers:
            for n in range(1, 7):
                for _ in range(45):
                    u = tuple(rng.randrange(tower.q2) for _ in range(n))
                    v = tuple(rng.randrange(tower.q2) for _ in range(n))
                    assert symplectic_inner(
                        tower, expand(tower, u), expand(tower, v)
                    ) == alternating_inner(tower, u, v)
                    cases += 1
        assert cases >= 1000

        # the trace pair inverts exactly
        cases = 0
        for tower in towers:
            for a in range(tower.q2):
                assert contract(tower, trace_pair(tower, a))[0] == a
                cases += 1
            for _ in range(250):
                a = rng.randrange(tower.q2)
                assert contract(tower, trace_pair(tower, a))[0] == a
                cases += 1
        assert cases >= 1000

        # build every divisor code once for the remaining suites
        codes = {}
        for tower in towers:
            for n in range(1, 7):
                fac = factor_x2n_minus_1(tower, n)
                codes[(tower.q, n)] = [
                    ConjucyclicCode(tower, n, g)
                    for _, g in enumerate_divisors(fac)
                ]

        # per-codeword weight transport on random codewords
        cases = 0
        nonzero = [c for group in codes.values() for c in group if c.gen_matrix]
        while cases < 1000:
            code = nonzero[rng.randrange(len(nonzero))]
            word = [0] * code.n
            for row in code.gen_matrix:
                k = rng.choice(code.tower.subfield)
                word = [
                    code.tower.add(w, code.tower.mul(k, x))
                    for w, x in zip(word, row)
                ]
            assert naive.hamming_weight(word) == naive.symplectic_weight(
                expand(code.tower, tuple(word))
            )
            cases += 1

        # alternating dual span mirrors the symplectic dual span
        cases = 0
        for group in codes.values():
            for code in group:
                tower = code.tower
                expanded_dual = [
                    expand(tower, row) for row in code.alternating_dual_matrix()
                ]
                mirror = code.cyclic.symplectic_dual_matrix()
                basis_a, piv_a = linalg.rref(tower, expanded_dual)
                basis_b, piv_b = linalg.rref(tower, mirror)
                assert len(basis_a) == len(basis_b)
                for row in mirror:
                    assert linalg.in_span(tower, basis_a, piv_a, row)
                    cases += 1
                for row in expanded_dual:
                    assert linalg.in_span(tower, basis_b, piv_b, row)
                    cases += 1
        assert cases >= 1000

        # characteristic 2: both dual forms agree, duals stay shift-closed
        cases = 0
        for (q, n), group in codes.items():
            if q not in (2, 4):
                continue
            for code in group:
                dual = code.alternating_dual_matrix()
                assert naive.alternating_dual_matrix_char2(code) == dual
                assert is_conjucyclic(code.tower, dual)
                cases += 1 + len(dual)
        assert cases >= 1000

        # trace dual against the definition on every code with <= 4^4 words:
        # literal ambient scan where the ambient space is small, exact
        # elimination from the definition everywhere else
        cases = 0
        for (q, n), group in codes.items():
            if q not in (2, 4):
                continue
            tower = group[0].tower
            for code in group:
                if tower.q ** code.card_log_q > 4 ** 4:
                    continue
                dual = naive.trace_dual_matrix(code)
                oracle = naive.trace_dual_kernel_basis(tower, code.gen_matrix, n)
                assert naive.same_span(
                    tower,
                    [expand(tower, row) for row in dual],
                    [expand(tower, row) for row in oracle],
                )
                cases += 1
                if tower.q2 ** n <= 1024:
                    scanned = naive.trace_dual(tower, code.gen_matrix, n)
                    assert naive.span(tower, dual, n) == scanned
                    cases += len(scanned)
        assert cases >= 1000

        elapsed = time.perf_counter() - suite_start
        assert elapsed < 120.0
        r.note = f"{elapsed:.1f}s"


def test_c8_oracle_equivalence():
    with report(8, "code/mirror oracle equivalence, q in {2,3}, n <= 3") as r:
        start = time.perf_counter()
        checked = 0
        for q in (2, 3):
            for n in (1, 2, 3):
                tower, divisors = all_divisors(q, n)
                for _, g in divisors:
                    code = ConjucyclicCode(tower, n, g)
                    from_rows = naive.span(tower, code.gen_matrix, n)
                    mirror_words = naive.span(
                        tower, naive.cyclic_generator_matrix(code.cyclic), 2 * n
                    )
                    lifted = {contract(tower, d) for d in mirror_words}
                    assert from_rows == lifted
                    checked += 1
        elapsed = time.perf_counter() - start
        r.note = f"{checked} codes, {elapsed:.1f}s"
