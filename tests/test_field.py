import hashlib
import itertools
import json
import random

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
    assert t.exp[2] == 4


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
    assert t.conjugate(t.beta) == t.exp[3]


def test_trace_values_in_f9():
    t = build_tower(3, 1)
    assert t.trace(0) == 0
    assert t.trace(t.beta) == 1
    assert t.trace(t.exp[2]) == 0


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
        two_q_minus_1 = (2 * t.q - 1) % (t.q2 - 1)
        assert t.sub(t.beta, t.exp[two_q_minus_1]) != 0


def test_subfield_is_closed():
    for q in (2, 3, 4, 5, 9):
        t = tower_for_q(q)
        sub = set(t.subfield)
        assert len(sub) == t.q
        for a in sub:
            for b in sub:
                assert t.add(a, b) in sub
                assert t.mul(a, b) in sub


def test_arithmetic_identities():
    t = build_tower(3, 1)
    for a in range(9):
        assert t.add(a, t.neg(a)) == 0
        if a:
            assert t.mul(a, t.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        t.inv(0)


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
    assert t.exp == exp
    assert t.log == log


@pytest.mark.parametrize(
    "m,modulus",
    [
        (2, (1, 1, 1, 1, 1)),  # irreducible, x has order 5 in GF(16)*
        (1, (1, 0, 1)),  # (x + 1)^2
        (1, (0, 1, 1)),  # f(0) = 0
    ],
)
def test_both_builders_reject_non_primitive_moduli(m, modulus):
    with pytest.raises(NoPrimitivePolynomialError, match="not primitive"):
        FieldTower(2, m, modulus)
    with pytest.raises(NoPrimitivePolynomialError, match="not primitive"):
        naive.tower_tables(2, 2 * m, modulus)


def test_tower_tables_at_q2_2_20():
    t = tower_for_q(1024)
    assert t.q2 == 1 << 20
    assert sorted(t.exp) == list(range(1, t.q2))
    assert all(t.log[e] == i for i, e in enumerate(t.exp))
    assert t.mul(t.exp[-1], t.beta) == 1
    rng = random.Random(0)
    for a in (rng.randrange(t.q2) for _ in range(1000)):
        assert t.conjugate(t.conjugate(a)) == a


def test_json_round_trip():
    t = build_tower(2, 2)
    blob = json.dumps(t.to_json())
    again = FieldTower(**json.loads(blob))
    assert again.modulus == t.modulus
    assert (again.p, again.m) == (t.p, t.m)
    assert again.exp == t.exp


def test_canonical_tower_is_cached_per_p_m():
    assert tower_for_q(3) is build_tower(3, 1)
    assert tower_for_q(4) is build_tower(2, 2)


def test_tower_gains_no_state_after_construction():
    t = FieldTower(3, 1, (2, 2, 1))  # not the cached canonical object
    keys = set(vars(t))
    code = ConjucyclicCode(t, 4, (2, 0, 1))  # x^2 + 2 divides x^8 - 1
    for row in code.gen_matrix:
        assert contract(t, expand(t, row)) == row
    largest_cyclic_subcode(code)
    weight_distribution(code)
    assert set(vars(t)) == keys


def test_element_display_and_parse():
    t = build_tower(3, 1)
    assert t.element_str(0) == "0"
    assert t.element_str(2) == "2"
    assert t.element_str(t.exp[7]) == "b7"
    assert t.parse_element("b7") == t.exp[7]
    assert t.parse_element("2") == 2
