import hashlib
import itertools
import json
import random
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

import naive
from conjucyclic import (
    ConjucyclicCode,
    FieldTooLargeError,
    NoPrimitivePolynomialError,
    NotPrimeError,
    build_tower,
    contract,
    expand,
    factor_x2n_minus_1,
    largest_cyclic_subcode,
    tower_for_q,
    weight_distribution,
)
from conjucyclic import field
from conjucyclic.field import CONWAY_POLYNOMIALS, FieldTower


def brute_order(tower, a):
    x, order = a, 1
    while x != 1:
        x = tower.mul(x, a)
        order += 1
        assert order <= tower.q2
    return order


def test_canonical_moduli():
    assert build_tower(3, 1).modulus == (2, 2, 1)
    assert build_tower(2, 1).modulus == (1, 1, 1)
    assert build_tower(2, 2).modulus == (1, 1, 0, 0, 1)
    assert build_tower(5, 1).modulus == (2, 4, 1)


def test_beta_square_in_f9():
    t = build_tower(3, 1)
    # x^2 + 2x + 2 = 0 means beta^2 = beta + 1, code 4
    assert t.mul(t.beta, t.beta) == 4
    assert t.power(2) == 4


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_beta_has_full_order(q):
    t = tower_for_q(q)
    assert brute_order(t, t.beta) == t.q2 - 1
    assert len(t.subfield) == t.q


def test_f16_tower_over_f4():
    t = build_tower(2, 2)
    assert (t.q, t.q2) == (4, 16)
    assert brute_order(t, t.beta) == 15


def test_conjugation_is_involutive_automorphism():
    for q in (2, 3, 4, 5):
        t = tower_for_q(q)
        for a in range(t.q2):
            assert t.conjugate(t.conjugate(a)) == a
        for a in range(t.q2):
            for b in range(t.q2):
                assert t.conjugate(t.mul(a, b)) == t.mul(t.conjugate(a), t.conjugate(b))
                assert t.conjugate(t.add(a, b)) == t.add(t.conjugate(a), t.conjugate(b))


def test_conjugation_fixed_points():
    for q in (2, 3, 4, 5):
        t = tower_for_q(q)
        assert t.conjugate(0) == 0
        fixed = {a for a in range(t.q2) if t.conjugate(a) == a}
        assert fixed == set(t.subfield)
        assert len(fixed) == t.q


def test_conjugate_beta_in_f9():
    t = build_tower(3, 1)
    assert t.conjugate(t.beta) == t.power(3)


def test_trace_values_in_f9():
    t = build_tower(3, 1)
    assert t.trace(0) == 0
    assert t.trace(t.beta) == 1
    assert t.trace(t.power(2)) == 0


def test_trace_is_linear_onto_subfield():
    for q in (2, 3, 4, 5):
        t = tower_for_q(q)
        for a in range(t.q2):
            tr = t.trace(a)
            assert t.in_subfield(tr)
            for b in range(t.q2):
                assert t.trace(t.add(a, b)) == t.add(t.trace(a), t.trace(b))
            for k in t.subfield:
                assert t.trace(t.mul(k, a)) == t.mul(k, t.trace(a))
        assert t.add(t.beta, t.conjugate(t.beta)) != 0
        assert t.sub(t.beta, t.power(2 * t.q - 1)) != 0


def test_subfield_is_closed():
    for q in (2, 3, 4, 5, 9):
        t = tower_for_q(q)
        sub = set(t.subfield)
        assert len(sub) == t.q
        for a in sub:
            for b in sub:
                assert t.add(a, b) in sub
                assert t.mul(a, b) in sub


@pytest.mark.parametrize("q", (2, 3, 4, 5, 9, 25, 27, 512))
def test_arithmetic_identities(q):
    t = tower_for_q(q)
    rng = random.Random(q)
    # every element below 2^12, and 0, 1 and a sample at q = 512
    if t.q2 < 1 << 12:
        xs = list(range(t.q2))
    else:
        xs = [0, 1, *rng.sample(range(2, t.q2), 2000)]
    for a in xs:
        assert t.neg(a) == naive.neg(t, a)
        assert t.add(a, t.neg(a)) == 0
        if a:
            assert t.mul(a, t.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        t.inv(0)
    # logs and codes read off the tables, and add_rows, agree with per-entry
    # mul and add
    ys = rng.sample(xs, len(xs))
    logs = naive.element_logs(t, xs)
    assert [x == 0 for x in xs] == [k < 0 for k in logs]
    assert [t.power(k) if k >= 0 else 0 for k in logs] == xs
    assert t.power(0) == 1
    for k in (-t.q2, -2, -1, 0, 1, t.q2 - 2, 5 * t.q2 + 3):
        assert t.power(k + 1) == t.mul(t.power(k), t.beta)
    zlogs = [t.zech.log[g] for g in t.subfield]
    for c in {1, t.beta, t.neg(1), ys[0] or 2}:
        (lc,) = naive.element_logs(t, [c])
        assert naive.log_codes(t, logs, lc) == [t.mul(c, x) for x in xs]
        assert naive.log_codes(t, logs, -lc) == [t.div(x, c) for x in xs]
        assert naive.log_codes(t, zlogs, lc, t.q + 1) == [t.mul(c, g) for g in t.subfield]
    assert t.add_rows(xs, ys) == [t.add(x, y) for x, y in zip(xs, ys)]


def test_digit_round_trip():
    # code p is beta, and the base-p digits of a code are its coordinates
    # on the power basis 1, beta, ..., beta^(2m-1)
    for q in (3, 4, 9):
        t = tower_for_q(q)
        assert t.beta == t.p
        for a in range(t.q2):
            acc, power, rest = 0, 1, a
            for _ in range(t.ext_degree):
                acc = t.add(acc, t.mul(rest % t.p, power))
                power, rest = t.mul(power, t.beta), rest // t.p
            assert acc == a


def test_build_errors(monkeypatch):
    with pytest.raises(NotPrimeError):
        build_tower(4, 1)
    with pytest.raises(NotPrimeError):
        tower_for_q(6)
    with pytest.raises(FieldTooLargeError):
        build_tower(2, 13)
    with pytest.raises(FieldTooLargeError):
        build_tower(2**61 - 1, 1)  # prime, but refused before any primality test
    with pytest.raises(FieldTooLargeError):
        tower_for_q(2**61 - 1)
    with pytest.raises(ValueError):
        build_tower(3, 0)
    # a modulus given directly passes the same checks
    with pytest.raises(ValueError):
        FieldTower(2, 0, (1,))
    with pytest.raises(NotPrimeError):
        FieldTower(4, 1, (1, 1, 1))
    # coefficients are integers, reduced mod p, never truncated or parsed
    assert FieldTower(2, 1, (3, -1, 1)).modulus == (1, 1, 1)
    for coeff in (1.9, "1"):
        with pytest.raises(TypeError):
            FieldTower(2, 1, (coeff, 1, 1))

    def no_tables(self):
        raise AssertionError("tables built for a field above the cap")

    monkeypatch.setattr(FieldTower, "_build_tables", no_tables)
    with pytest.raises(FieldTooLargeError):
        FieldTower(2, 13, (1,) + (0,) * 25 + (1,))


def test_fallback_modulus_is_lex_smallest_primitive():
    t = tower_for_q(11)
    assert brute_order(t, t.beta) == 120
    # nothing lexicographically earlier is primitive
    for tail in itertools.product(range(11), repeat=2):
        if tail >= t.modulus[:2]:
            break
        if tail[0] == 0:
            continue
        with pytest.raises(NoPrimitivePolynomialError):
            FieldTower(11, 1, list(tail) + [1])


def test_modulus_search_runs_once_per_degree(monkeypatch):
    # 5^6 is not in the Conway table, so the tower needs the fallback search
    calls = []
    original = field.is_primitive
    monkeypatch.setattr(
        field, "is_primitive", lambda f, p: calls.append(1) or original(f, p)
    )
    field.build_tower.cache_clear()
    first = build_tower(5, 3)
    searched = len(calls)
    assert searched > 0
    assert build_tower(5, 3) is first
    assert len(calls) == searched


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_modulus_search_matches_unfiltered_scan(p):
    # the search skips constant terms whose norm cannot generate GF(p)*
    d = 2
    while p ** d <= 6561:
        assert field.smallest_primitive(p, d) == naive.smallest_primitive(p, d)
        d += 1


def test_primitivity_matches_shift_register():
    # every monic f with f(0) != 0, degree d >= 2 and p^d <= 729; the shift
    # register refuses exactly the moduli whose x does not generate GF(p^d)*
    checked = 0
    for p in filter(field.is_prime, range(2, 28)):
        d = 2
        while p ** d <= 729:
            for f0 in range(1, p):
                for rest in itertools.product(range(p), repeat=d - 1):
                    f = (f0, *rest, 1)
                    try:
                        naive.tower_tables(p, d, f)
                    except NoPrimitivePolynomialError:
                        expected = False
                    else:
                        expected = True
                    assert field.is_primitive(f, p) == expected, (p, f)
                    checked += 1
            d += 1
    assert checked == 3578


# sha256 over repr((p, 2m, modulus)) of every tower with p^(2m) <= 2^24
# outside the Conway table, in (p, m) order; pins the fallback search.
MODULI_DIGEST = "35587e63f8180a612b7626460647a4729a81c85bf9ac138d38b7611848edcb15"


def test_moduli_to_the_cap_are_pinned():
    digest = hashlib.sha256()
    towers = 0
    for p in filter(field.is_prime, range(2, 1 << 12)):
        m = 1
        while p ** (2 * m) <= field.MAX_FIELD_SIZE:
            if p ** (2 * m) not in CONWAY_POLYNOMIALS:
                digest.update(repr((p, 2 * m, field.smallest_primitive(p, 2 * m))).encode())
                towers += 1
            m += 1
    assert towers == 596
    assert digest.hexdigest() == MODULI_DIGEST


def _small_fields():
    """Every (p, m) with q^2 = p^(2m) <= 2^16: the Conway table and beyond."""
    for p in filter(field.is_prime, range(2, 257)):
        m = 1
        while p ** (2 * m) <= 1 << 16:
            yield p, m
            m += 1


@pytest.mark.parametrize("p,m", list(_small_fields()))
def test_tables_match_shift_register(p, m):
    size = p ** (2 * m)
    modulus = CONWAY_POLYNOMIALS.get(size) or field.smallest_primitive(p, 2 * m)
    t = FieldTower(p, m, modulus)
    exp, log = naive.tower_tables(p, 2 * m, modulus)
    assert list(t._exp) == exp
    assert list(t._log) == log
    assert_subfield_from_tables(t, exp, log)


def assert_subfield_from_tables(t, exp, log):
    # the powers of gamma, built without the tables, as read off them
    gammas = exp[:: t.q + 1]
    assert t.subfield == tuple(sorted([0] + gammas))
    assert t.zech.code == gammas + [0]
    assert t.zech.log == {c: log[c] // (t.q + 1) for c in [0] + gammas}


@pytest.mark.parametrize(
    "m,modulus",
    [
        (2, (1, 1, 1, 1, 1)),  # irreducible, x has order 5 in GF(16)*
        (1, (1, 0, 1)),  # (x + 1)^2
        (1, (0, 1, 1)),  # f(0) = 0
        (10, (1,) + (0,) * 19 + (1,)),  # x^20 + 1 = (x^5 + 1)^4, on numpy's route
    ],
)
def test_both_builders_reject_non_primitive_moduli(m, modulus, monkeypatch):
    # the constructor refuses before any table is built, and the table
    # builders (both routes) keep their own check
    bare = types.SimpleNamespace(p=2, ext_degree=2 * m, modulus=modulus, q2=4**m)
    with pytest.raises(NoPrimitivePolynomialError, match="not primitive"):
        FieldTower._build_tables(bare)
    with pytest.raises(NoPrimitivePolynomialError, match="not primitive"):
        naive.tower_tables(2, 2 * m, modulus)

    def no_tables(self):
        raise AssertionError("tables built for a modulus that is not primitive")

    monkeypatch.setattr(FieldTower, "_build_tables", no_tables)
    with pytest.raises(NoPrimitivePolynomialError, match="not primitive"):
        FieldTower(2, m, modulus)


@pytest.mark.parametrize("q", [2, 25, 101, 243, 512, 1024])
def test_table_routes_agree_across_the_threshold(q, monkeypatch):
    # up to 2^18 the tables take the pure-Python recurrence and 2^20 numpy's
    # coset rows; moving the threshold sends the same modulus the other way:
    # q = 2 is one coset row, 25 and 243 odd p at m = 2 and 5, and 101 a
    # prime q, each half of a GF(q^2) element one digit
    t = tower_for_q(q)
    assert (t.q2 <= field.PURE_TABLE_SIZE) == (q < 1024)
    exp, log = list(t._exp), list(t._log)  # built before the threshold moves
    monkeypatch.setattr(field, "PURE_TABLE_SIZE", 0 if q < 1024 else t.q2)
    other = FieldTower(t.p, t.m, t.modulus)
    assert list(other._exp) == exp
    assert list(other._log) == log
    assert_subfield_from_tables(other, exp, log)


def test_tower_tables_at_q2_2_20():
    t = tower_for_q(1024)
    assert t.q2 == 1 << 20
    assert sorted(t._exp) == list(range(1, t.q2))
    assert all(t._log[e] == i for i, e in enumerate(t._exp))
    assert t.mul(t.power(-1), t.beta) == 1
    rng = random.Random(0)
    for a in (rng.randrange(t.q2) for _ in range(1000)):
        assert t.conjugate(t.conjugate(a)) == a


def test_json_round_trip():
    t = build_tower(2, 2)
    blob = json.dumps(t.to_json())
    again = FieldTower(**json.loads(blob))
    assert again.modulus == t.modulus
    assert (again.p, again.m) == (t.p, t.m)
    assert naive.element_logs(again, range(again.q2)) == naive.element_logs(t, range(t.q2))


def test_canonical_tower_is_cached_per_p_m():
    assert tower_for_q(3) is build_tower(3, 1)
    assert tower_for_q(4) is build_tower(2, 2)


def test_tower_tables_are_built_once_on_first_use():
    t = FieldTower(3, 2, CONWAY_POLYNOMIALS[81])  # not the cached canonical object
    keys = set(vars(t))
    assert not keys & {"exp", "log", "_exp", "_log"}
    # factoring, GF(q) membership and GF(q) display read the Zech table only
    factor_x2n_minus_1(t, 4)
    assert [t.in_subfield(c) for c in range(t.q2)] == [c in t.subfield for c in range(t.q2)]
    shown = [t.element_str(c) for c in t.subfield]
    assert set(vars(t)) == keys
    assert t.mul(t.beta, t.beta) == t.p ** 2
    assert set(vars(t)) == keys | {"_exp", "_log"}
    assert shown == [str(c) if c < t.p else f"b{t._log[c]}" for c in t.subfield]
    keys = set(vars(t))
    code = ConjucyclicCode(t, 4, (2, 0, 1))  # x^2 + 2 divides x^8 - 1
    for row in code.gen_matrix:
        assert contract(t, expand(t, row)) == row
    code.alternating_dual_matrix()
    largest_cyclic_subcode(code)
    weight_distribution(code)
    assert set(vars(t)) == keys


def test_concurrent_first_use_builds_one_set_of_tables():
    # two threads make the first GF(q^2) call on one fresh tower at once;
    # q = 1024 takes numpy's route, long enough for both to be inside it
    canonical = tower_for_q(1024)
    t = FieldTower(2, 10, canonical.modulus)
    xs = random.Random(1024).sample(range(t.q2), 1000)
    barrier = threading.Barrier(2, timeout=60)

    def first_use(_):
        barrier.wait()
        return naive.element_logs(t, xs), naive.log_codes(t, range(-1, 999), 7), t._exp, t._log

    with ThreadPoolExecutor(2) as pool:
        first, second = pool.map(first_use, range(2), timeout=120)
    assert first[:2] == second[:2]
    assert first[0] == naive.element_logs(canonical, xs)
    assert first[1] == naive.log_codes(canonical, range(-1, 999), 7)
    assert first[2] is second[2] is t._exp and first[3] is second[3] is t._log
    assert list(t._exp) == list(canonical._exp)


def test_element_display_and_parse():
    t = build_tower(3, 1)
    assert t.element_str(0) == "0"
    assert t.element_str(2) == "2"
    assert t.element_str(t.power(7)) == "b7"
    assert t.parse_element("b7") == t.power(7)
    assert t.parse_element("2") == 2


def test_element_display_refuses_codes_outside_the_field():
    # a negative code printed as itself (every one is below p), and q^2 read
    # past the end of the log table
    t = build_tower(3, 1)
    for code in (-1, -7, 9):
        with pytest.raises(ValueError, match="out of range"):
            t.element_str(code)
    assert [t.element_str(code) for code in range(9)] == ["0", "1", "2"] + [
        f"b{k}" for k in naive.element_logs(t, range(3, 9))
    ]
