import gc
import itertools
import random
import weakref

import pytest

import naive
from conjucyclic import (
    ConjucyclicCode,
    OddLengthError,
    WrongCharacteristicError,
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
    tower_for_q,
    trace_pair,
)
from conjucyclic import conju, linalg
from conjucyclic.conju import _inversion_constants
from conjucyclic.field import FieldTower
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

SEED = 0xC0DE


def random_vector(rng, tower, n):
    return tuple(rng.randrange(tower.q2) for _ in range(n))


# --- the trace-pair bijection ------------------------------------------------


def test_f9_trace_pair_table(f9):
    for token, pair in F9_TRACE_PAIR_TABLE.items():
        assert trace_pair(f9, decode(f9, token)) == pair


def test_trace_pair_is_bijective():
    for q in (2, 3, 4, 5):
        t = tower_for_q(q)
        images = {trace_pair(t, a) for a in range(t.q2)}
        assert len(images) == t.q2
        assert all(t.in_subfield(x) and t.in_subfield(y) for x, y in images)


def test_contraction_constants_are_computed_once_per_tower(monkeypatch):
    # code, alternating dual, cyclic subcode, expand and contract all read
    # one set of linear maps, built on the first of them (the only caller of
    # _prime_zech in conju); the cache holds the tower weakly, so a dropped
    # tower is freed
    tower = FieldTower(3, 1, (2, 2, 1))  # not the cached canonical object
    calls, prime_zech = [], conju._prime_zech
    monkeypatch.setattr(conju, "_prime_zech", lambda p: calls.append(p) or prime_zech(p))
    code = ConjucyclicCode(tower, 4, (2, 0, 1))
    code.alternating_dual_matrix()
    largest_cyclic_subcode(code)
    assert contract(tower, expand(tower, code.gen_matrix[0])) == code.gen_matrix[0]
    assert contract(tower, (1, 1)) == (conju._linear_maps(tower)[0][2],)
    assert calls == [3]
    freed = weakref.ref(tower)
    del tower, code
    gc.collect()
    assert freed() is None


def test_f9_inversion_constants(f9):
    expected = tuple(decode(f9, tok) for tok in F9_INVERSION_CONSTANTS)
    assert _inversion_constants(f9) == expected
    # beta^4 = b3 * 2 - b5 * 2
    assert contract(f9, (2, 2))[0] == f9.power(4)
    assert contract(f9, (0, 0))[0] == 0


def test_trace_pair_round_trip_everywhere():
    for q in (2, 3, 4, 5):
        t = tower_for_q(q)
        for a in range(t.q2):
            assert contract(t, trace_pair(t, a))[0] == a


# --- expansion GF(q^2)^n <-> GF(q)^(2n) --------------------------------------


def test_expand_basics(f9):
    assert expand(f9, (0, 0, 0)) == (0,) * 6
    assert expand(f9, (2, 1, 0)) == (2, 1, 0, 2, 1, 0)
    b = f9.power
    assert expand(f9, (b(2), b(6), b(2))) == (1, 2, 1, 2, 1, 2)


def test_contract_inverts_expand():
    rng = random.Random(SEED)
    for q in (2, 3, 4, 5):
        t = tower_for_q(q)
        for _ in range(150):
            n = rng.randrange(1, 7)
            v = random_vector(rng, t, n)
            assert contract(t, expand(t, v)) == v
    with pytest.raises(OddLengthError):
        contract(build_tower(3, 1), (1, 2, 0))


@pytest.mark.parametrize("code", [-1, 9])
def test_codes_outside_gf_q2_are_refused(code):
    # a negative code must not index the tables from their end
    t = build_tower(3, 1)
    with pytest.raises(ValueError, match="out of range for GF"):
        trace_pair(t, code)
    with pytest.raises(ValueError, match="out of range for GF"):
        expand(t, (code,))
    for vec in ((code, 0), (0, code)):
        with pytest.raises(ValueError, match="out of range for GF"):
            contract(t, vec)


def test_reference_contractions(f9, f16):
    v_g3 = decode_vector(f9, TERNARY_N11["g"]) + (0,) * 11
    assert contract(f9, v_g3) == decode_vector(f9, TERNARY_N11["gen_matrix"][0])
    v_g4 = decode_vector(f16, QUATERNARY_N11["g"]) + (0,) * 11
    assert contract(f16, v_g4) == decode_vector(f16, QUATERNARY_N11["gen_matrix"][0])


# --- the conjucyclic shift ----------------------------------------------------


def test_shift_basics(f9):
    assert conjucyclic_shift(f9, (0, 0, 0)) == (0, 0, 0)
    assert conjucyclic_shift(f9, (2, 1, 0)) == (0, 2, 1)
    rng = random.Random(SEED)
    for q in (2, 3, 4):
        t = tower_for_q(q)
        v = random_vector(rng, t, 5)
        out = v
        for _ in range(2 * len(v)):
            out = conjucyclic_shift(t, out)
        assert out == v
        half = v
        for _ in range(len(v)):
            half = conjucyclic_shift(t, half)
        assert half == tuple(t.conjugate(x) for x in v)


def test_shift_commutes_with_expansion():
    # exhaustive on tiny spaces, randomized beyond
    for q in (2, 3):
        t = tower_for_q(q)
        for v in itertools.product(range(t.q2), repeat=2):
            assert expand(t, conjucyclic_shift(t, v)) == naive.cyclic_shift(expand(t, v))
    rng = random.Random(SEED)
    for q in (2, 3, 4, 5):
        t = tower_for_q(q)
        for _ in range(250):
            n = rng.randrange(1, 7)
            v = random_vector(rng, t, n)
            assert expand(t, conjucyclic_shift(t, v)) == naive.cyclic_shift(expand(t, v))


# --- code construction ---------------------------------------------------------


@pytest.mark.parametrize(
    "data", [TERNARY_N11, QUATERNARY_N11], ids=["ternary", "quaternary"]
)
def test_reference_generator_matrices(data):
    tower = tower_for_q(data["q"])
    code = ConjucyclicCode(tower, data["n"], decode_vector(tower, data["g"]))
    assert code.gen_matrix == decode_matrix(tower, data["gen_matrix"])
    assert code.card_log_q == data["dim"]
    # rows are GF(q)-independent
    assert naive.rank(tower, [expand(tower, r) for r in code.gen_matrix]) == data["dim"]


@pytest.mark.parametrize(
    "data", [TERNARY_N11, QUATERNARY_N11], ids=["ternary", "quaternary"]
)
def test_reference_dual_matrices(data):
    tower = tower_for_q(data["q"])
    code = ConjucyclicCode(tower, data["n"], decode_vector(tower, data["g"]))
    dual = code.alternating_dual_matrix()
    assert dual == decode_matrix(tower, data["dual_matrix"])
    assert len(dual) == code.k
    assert naive.rank(tower, [expand(tower, r) for r in dual]) == code.k


def test_zero_and_full_codes(f9):
    zero = ConjucyclicCode(f9, 2, (2, 0, 0, 0, 1))
    assert zero.gen_matrix == []
    assert len(zero.alternating_dual_matrix()) == 4
    full = ConjucyclicCode(f9, 2, (1,))
    assert full.alternating_dual_matrix() == []
    assert len(full.gen_matrix) == 4


def test_generator_rows_are_shift_iterates(quaternary_code):
    rows = quaternary_code.gen_matrix
    for first, second in zip(rows, rows[1:]):
        assert second == conjucyclic_shift(quaternary_code.tower, first)


def test_code_rows_match_contracted_cyclic_rows():
    for code in naive.divisor_codes([(2, 3), (3, 2), (4, 2), (5, 1)]):
        expected = [
            contract(code.tower, row)
            for row in naive.cyclic_generator_matrix(code.cyclic)
        ]
        assert code.gen_matrix == expected


# --- alternating inner product --------------------------------------------------


def test_alternating_is_alternating_and_bilinear():
    rng = random.Random(SEED)
    for q in (2, 3, 4, 5):
        t = tower_for_q(q)
        for _ in range(100):
            n = rng.randrange(1, 6)
            u, v, w = (random_vector(rng, t, n) for _ in range(3))
            assert alternating_inner(t, u, u) == 0
            uv = alternating_inner(t, u, v)
            assert t.in_subfield(uv)
            assert uv == t.neg(alternating_inner(t, v, u))
            upw = tuple(t.add(a, b) for a, b in zip(u, w))
            assert alternating_inner(t, upw, v) == t.add(
                uv, alternating_inner(t, w, v)
            )
            for k in t.subfield:
                ku = tuple(t.mul(k, a) for a in u)
                assert alternating_inner(t, ku, v) == t.mul(k, uv)


def test_alternating_matches_symplectic_through_expansion():
    rng = random.Random(SEED)
    cases = 0
    for q in (2, 3, 4, 5):
        t = tower_for_q(q)
        for _ in range(300):
            n = rng.randrange(1, 7)
            u, v = random_vector(rng, t, n), random_vector(rng, t, n)
            assert symplectic_inner(t, expand(t, u), expand(t, v)) == alternating_inner(
                t, u, v
            )
            cases += 1
    assert cases >= 1000


def test_alternating_q2_specialization():
    # over GF(4): <u,v>_a = Tr(sum u_i conj(v_i))
    t = build_tower(2, 1)
    rng = random.Random(SEED)
    for _ in range(200):
        n = rng.randrange(1, 6)
        u, v = random_vector(rng, t, n), random_vector(rng, t, n)
        acc = 0
        for a, b in zip(u, v):
            acc = t.add(acc, t.mul(a, t.conjugate(b)))
        assert alternating_inner(t, u, v) == t.trace(acc)


def test_dual_rows_annihilate_generators(ternary_code, quaternary_code):
    for code in (ternary_code, quaternary_code):
        dual = code.alternating_dual_matrix()
        for u in code.gen_matrix:
            for v in dual:
                assert alternating_inner(code.tower, u, v) == 0


# --- duals: span equality and characteristic-2 forms -----------------------------


def test_dual_span_equals_contracted_symplectic_dual():
    for code in naive.divisor_codes([(2, 2), (3, 2), (4, 1), (5, 1)]):
        tower = code.tower
        lhs = [expand(tower, r) for r in code.alternating_dual_matrix()]
        rhs = code.cyclic.symplectic_dual_matrix()
        assert naive.same_span(tower, lhs, rhs)


def test_char2_dual_variant_matches(f9):
    for code in naive.divisor_codes([(2, 3), (4, 2)]):
        dual = code.alternating_dual_matrix()
        assert naive.alternating_dual_matrix_char2(code) == dual
    code3 = ConjucyclicCode(f9, 1, (1, 1))
    with pytest.raises(WrongCharacteristicError):
        naive.alternating_dual_matrix_char2(code3)
    with pytest.raises(WrongCharacteristicError):
        naive.trace_dual_matrix(code3)


def test_dual_orbit_matches_contraction_of_every_row():
    # odd and even q, and p | n at (2, 6), (3, 6), (5, 5), (9, 3): the
    # T- orbit of the first contracted row is the contraction of every
    # symplectic-dual row of the mirror, row for row
    grid = [(2, 6), (3, 6), (4, 3), (5, 5), (7, 2), (9, 3), (25, 2)]
    seen = set()
    for code in naive.divisor_codes(grid):
        assert code.alternating_dual_matrix() == naive.alternating_dual_by_contraction(code)
        seen.add(code.tower.q)
    assert seen == {q for q, _ in grid}


def test_quaternary_reference_char2_vectors(f16, quaternary_code):
    rows = quaternary_code.cyclic.symplectic_dual_matrix()
    assert rows[0] == decode_vector(f16, QUATERNARY_N11["h_eps"])
    dual = quaternary_code.alternating_dual_matrix()
    assert naive.alternating_dual_matrix_char2(quaternary_code) == dual
    assert dual[0] == decode_vector(f16, QUATERNARY_N11["w_h_eps"])
    for first, second in zip(dual, dual[1:]):
        assert second == conjucyclic_shift(f16, first)


def test_trace_dual_small_codes_brute_force():
    for code in naive.divisor_codes([(2, 1), (2, 2), (4, 1), (4, 2), (4, 3)]):
        tower = code.tower
        if tower.q ** code.card_log_q > 256:
            continue
        words = naive.span(tower, code.gen_matrix, code.n)
        expected = naive.trace_dual(tower, code.gen_matrix, code.n)
        got = naive.span(tower, naive.trace_dual_matrix(code), code.n)
        assert got == expected
        # and it really annihilates the code under Tr<.,.>_e
        for u in words:
            for v in got:
                acc = 0
                for a, b in zip(u, v):
                    acc = tower.add(acc, tower.mul(a, b))
                assert tower.trace(acc) == 0


def test_trace_dual_is_squaring_when_q_is_2():
    for code in naive.divisor_codes([(2, 2), (2, 3)]):
        tower = code.tower
        squared = [
            tuple(tower.mul(x, x) for x in row)
            for row in code.alternating_dual_matrix()
        ]
        assert naive.trace_dual_matrix(code) == squared


def test_trace_dual_of_reference_code_is_conjucyclic(quaternary_code):
    squared = naive.trace_dual_matrix(quaternary_code)
    assert is_conjucyclic(quaternary_code.tower, squared)


# --- closure tests -----------------------------------------------------------


def test_is_conjucyclic(f9, ternary_code, quaternary_code):
    assert is_conjucyclic(f9, [])
    assert is_conjucyclic(f9, ternary_code.gen_matrix)
    assert is_conjucyclic(
        quaternary_code.tower, quaternary_code.alternating_dual_matrix()
    )
    # a single non-real row whose shift leaves the span
    assert not is_conjucyclic(f9, [(f9.beta, 0, 0)])


def test_dual_closed_under_shift_char2():
    for code in naive.divisor_codes([(2, 3), (4, 2)]):
        assert is_conjucyclic(code.tower, code.alternating_dual_matrix())


def test_wider_subfields_round_trip():
    # q = 7 (odd prime) and q = 8 (cubic extension) exercise the same
    # invariants away from the small reference fields
    for q, n in [(7, 2), (8, 3)]:
        tower = tower_for_q(q)
        fac = factor_x2n_minus_1(tower, n)
        for _, g in enumerate_divisors(fac):
            code = ConjucyclicCode(tower, n, g)
            assert is_conjucyclic(tower, code.gen_matrix)
            dual = code.alternating_dual_matrix()
            for u in code.gen_matrix:
                for v in dual:
                    assert alternating_inner(tower, u, v) == 0
            assert naive.same_span(
                tower,
                [expand(tower, r) for r in dual],
                code.cyclic.symplectic_dual_matrix(),
            )


# --- largest cyclic subcode ----------------------------------------------------


def test_f9_n3_reference_subcode(f9):
    gens = decode_matrix(f9, F9_N3_GENERATORS)
    words = naive.span(f9, gens, 3)
    listed = {decode_vector(f9, line) for line in F9_N3_CODEWORDS}
    assert len(words) == 27 and words == listed
    expanded = {expand(f9, w) for w in words}
    assert expanded == {decode_vector(f9, line) for line in F9_N3_EXPANDED}
    listed_sub = {decode_vector(f9, line) for line in F9_N3_CYCLIC_SUBCODE}
    oracle = naive.cyclic_subcode_by_elimination(f9, gens)
    assert naive.span(f9, oracle, 3) == listed_sub
    # the listed code is the one built from its mirror generator x^3+x^2+2x+2
    code = ConjucyclicCode(f9, 3, (2, 2, 1, 1))
    assert naive.span(f9, code.gen_matrix, 3) == listed
    assert naive.span(f9, largest_cyclic_subcode(code), 3) == listed_sub


def test_closed_form_subcode_matches_elimination():
    # byte-identical to the elimination oracle, rows in the same order
    grid = [(2, 8), (3, 6), (4, 5), (5, 4), (7, 3), (8, 3), (9, 3)]
    pairs = [(q, n) for q, n_max in grid for n in range(1, n_max + 1)]
    checked = 0
    for code in naive.divisor_codes(pairs):
        oracle = naive.cyclic_subcode_by_elimination(code.tower, code.gen_matrix)
        assert largest_cyclic_subcode(code) == oracle
        checked += 1
    assert checked > 500


def test_subcode_remainder_sequence_matches_one_division_per_row():
    # the closed form's remainder sequence against k1 schoolbook divisions,
    # byte for byte, on every divisor code of the small property grid
    grid = [(2, 8), (3, 6), (4, 5), (5, 4), (7, 3), (8, 3), (9, 3)]
    pairs = [(q, n) for q, n_max in grid for n in range(1, n_max + 1)]
    checked = 0
    for code in naive.divisor_codes(pairs):
        assert largest_cyclic_subcode(code) == naive.largest_cyclic_subcode_by_division(code)
        checked += 1
    assert checked == 544


def test_log_space_mirror_matches_oracles():
    # h, h*, the generator matrix and the alternating dual, all built on
    # Zech logs, against schoolbook division and per-entry contraction on
    # every divisor code of the small property grid
    grid = [(2, 8), (3, 6), (4, 5), (5, 4), (7, 3), (8, 3), (9, 3)]
    pairs = [(q, n) for q, n_max in grid for n in range(1, n_max + 1)]
    checked = 0
    for code in naive.divisor_codes(pairs):
        tower, mirror = code.tower, code.cyclic
        x2n_minus_1 = (naive.neg(tower, 1),) + (0,) * (2 * code.n - 1) + (1,)
        assert naive.poly_divmod(tower, x2n_minus_1, code.g) == (mirror.h, ())
        assert mirror.h_star == naive.monic_reciprocal(tower, mirror.h)
        rows = naive.cyclic_generator_matrix(mirror)
        assert code.gen_matrix == [naive.contract_per_entry(tower, row) for row in rows]
        assert code.alternating_dual_matrix() == naive.alternating_dual_by_contraction(code)
        checked += 1
    assert checked == 544


def test_contract_matches_per_entry_oracle():
    # every pair of GF(q) for q <= 16, as one vector, and for q <= 4 every
    # pair of GF(q^2)
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        tower = tower_for_q(q)
        elements = tower.subfield if q > 4 else range(tower.q2)
        firsts, seconds = zip(*itertools.product(elements, repeat=2))
        vec = firsts + seconds
        assert contract(tower, vec) == naive.contract_per_entry(tower, vec)


def test_trace_pair_and_contract_match_per_entry_routes():
    # every element of GF(q^2) for q <= 64, in each half of contract's
    # input, and 10^5 sampled ones at q = 512, 1024 and the cap's 4093 and
    # 4096, on fresh towers, whose GF(q^2) tables go when they do
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 512, 1024, 4093, 4096):
        canonical, rng = tower_for_q(q), random.Random(q)
        tower = FieldTower(canonical.p, canonical.m, canonical.modulus)
        xs = list(range(tower.q2)) if q <= 64 else rng.choices(range(tower.q2), k=10**5)
        firsts, seconds = zip(*(naive.trace_pair_per_entry(tower, a) for a in xs))
        assert expand(tower, xs) == firsts + seconds, q
        assert [trace_pair(tower, a) for a in xs[:64]] == list(zip(firsts, seconds))[:64]
        vec = xs + rng.sample(xs, len(xs))
        assert contract(tower, vec) == naive.contract_per_entry(tower, vec), q


def test_construction_builds_no_gf_q2_table():
    # construction reads O(q) tables of GF(p)-linear maps, so on a fresh
    # tower (the canonical ones may have built theirs elsewhere) no GF(q^2)
    # exp/log table appears, at q = 512 and at the 2^24 cap, p = 2 and odd
    cases = [
        (512, 9, (1, 1, 1, 1, 1)),
        (512, 9, (2, 0, 1, 2, 0)),
        (4096, 3, (2, 1, 1)),
        (4096, 3, (1, 1, 0)),
        (4093, 3, (1, 1, 0, 1, 0, 0)),
        (4093, 3, (0, 1, 1, 1, 1, 0)),
        (2187, 4, (1, 0, 1, 1, 0)),
        (2187, 4, (0, 1, 0, 0, 1)),
    ]
    for q, n, exps in cases:
        canonical = tower_for_q(q)
        tower = FieldTower(canonical.p, canonical.m, canonical.modulus)
        code = ConjucyclicCode(tower, n, factor_x2n_minus_1(tower, n).divisor(list(exps)))
        rows = code.gen_matrix + code.alternating_dual_matrix() + largest_cyclic_subcode(code)
        is_alternating_dual_containing(code)
        assert all(contract(tower, expand(tower, row)) == row for row in rows)
        assert trace_pair(tower, tower.q2 - 1) == expand(tower, (tower.q2 - 1,))
        assert "_exp" not in vars(tower) and "_log" not in vars(tower), (q, n, exps)
    # a GF(q) multiple of a divisor is made monic on Zech logs
    tower = FieldTower(3, 1, (2, 2, 1))
    assert ConjucyclicCode(tower, 4, (1, 0, 2)).g == (2, 0, 1)
    assert "_exp" not in vars(tower) and "_log" not in vars(tower)


def test_subcode_of_single_parity_code_is_everything():
    # mirror <x+1> in characteristic 2: the subcode fills GF(q)^n
    for q, n in [(2, 2), (2, 3), (4, 2)]:
        tower = tower_for_q(q)
        code = ConjucyclicCode(tower, n, (1, 1))
        sub = code.largest_cyclic_subcode()
        expanded = [expand(tower, r) for r in sub]
        assert naive.rank(tower, expanded) == n
        words = naive.span(tower, sub, n)
        assert words == {
            v for v in itertools.product(tower.subfield, repeat=n)
        }


def test_subcode_of_repetition_mirror_is_whole_code():
    # mirror <1 + x + ... + x^(2n-1)>: the code is the constant vectors
    for q in (2, 3, 4, 5):
        tower = tower_for_q(q)
        n = 3
        g = (1,) * (2 * n)
        code = ConjucyclicCode(tower, n, g)
        const = tower.div(1, tower.trace(tower.beta))
        words = naive.span(tower, code.gen_matrix, n)
        assert words == {
            tuple(tower.mul(k, const) for _ in range(n)) for k in tower.subfield
        }
        sub_words = naive.span(tower, code.largest_cyclic_subcode(), n)
        assert sub_words == words


def test_subcode_properties_across_divisors():
    for code in naive.divisor_codes([(2, 2), (3, 2), (5, 1), (4, 2)]):
        tower = code.tower
        sub = code.largest_cyclic_subcode()
        code_basis, code_piv = linalg.rref(
            tower, [expand(tower, r) for r in code.gen_matrix]
        )
        for row in sub:
            assert all(tower.in_subfield(x) for x in row)
            # inside the code
            assert linalg.in_span(tower, code_basis, code_piv, expand(tower, row))
        if sub:
            sub_basis, sub_piv = linalg.rref(tower, [expand(tower, r) for r in sub])
            for row in sub:
                shifted = naive.cyclic_shift(row)  # plain shift: entries are real
                assert linalg.in_span(tower, sub_basis, sub_piv, expand(tower, shifted))


def test_empty_subcode_for_zero_code(f9):
    code = ConjucyclicCode(f9, 2, (2, 0, 0, 0, 1))
    assert code.largest_cyclic_subcode() == []


# --- serialization ---------------------------------------------------------------


def test_code_json_shape(ternary_code):
    blob = ternary_code.to_json()
    assert blob["q"] == 3 and blob["n"] == 11
    assert blob["genMatrix"] == [list(r) for r in ternary_code.gen_matrix]
    assert len(blob["dualMatrix"]) == 10
