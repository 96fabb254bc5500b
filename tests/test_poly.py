import hashlib
import itertools
import json
import random
import sys
from types import SimpleNamespace

import pytest

import naive

from conjucyclic import (
    CyclicCode,
    NotADivisorError,
    ZeroConstantTermError,
    build_tower,
    enumerate_divisors,
    factor_x2n_minus_1,
    monic_reciprocal,
    tower_for_q,
)
from conjucyclic import poly
from conjucyclic.field import _prime_zech, factorize, is_prime
from conjucyclic.poly import (
    _multiplicative_order,
    _probe,
    check_divisor,
    degree,
    normalize,
    poly_mod,
)
from conjucyclic.refdata import QUATERNARY_N11, TERNARY_N11, decode_vector
from naive import poly_eval, poly_mul, poly_pow
from test_cli import FACTOR_QS


def zech_mul(field, a, b) -> tuple:
    """a * b on the field's ZechLogs, codes in and out."""
    z = field.zech
    return z.to_codes(z.reduce(z.product(z.to_logs(a), z.to_logs(b))))


def zech_divmod(field, a, b) -> tuple:
    """Quotient and remainder on the field's ZechLogs, codes in and out."""
    z = field.zech
    return tuple(map(z.to_codes, z.divmod(z.to_logs(a), z.to_logs(b))))


def zech_gcd(field, a, b) -> tuple:
    """Monic gcd on the field's ZechLogs, codes in and out."""
    z = field.zech
    return z.to_codes(z.gcd(z.to_logs(a), z.to_logs(b)))


def x_pow_minus_one(tower, n: int) -> tuple:
    """x^n - 1 as codes, negating 1 digit by digit."""
    return (naive.neg(tower, 1),) + (0,) * (n - 1) + (1,)


def zech_powmod(field, a, e: int, f) -> tuple:
    """a^e mod f on the field's ZechLogs, codes in and out."""
    z = field.zech
    return z.to_codes(z.powmod(z.to_logs(a), e, z.to_logs(f)))


def is_irreducible(tower, g):
    """Root absence for degree <= 3, Frobenius gcds above."""
    d = degree(g)
    if d <= 3:
        return all(poly_eval(tower, g, a) != 0 for a in tower.subfield) or d == 1
    x = (0, 1)
    for i in range(1, d):
        frob = x
        for _ in range(i):
            frob = poly_mod(tower, poly_pow(tower, frob, tower.q), g)
        diff = normalize(
            [tower.sub(a, b) for a, b in itertools.zip_longest(frob, x, fillvalue=0)]
        )
        if degree(naive.poly_gcd(tower, diff, g)) != 0:
            return False
    return True


def test_basic_arithmetic():
    t = build_tower(3, 1)
    assert zech_gcd(t, (2, 0, 1), (2, 1)) == (2, 1)  # gcd(x^2-1, x-1) = x-1... x+2
    assert zech_mul(t, (1, 1), (2, 1)) == (2, 0, 1)  # (x+1)(x+2) = x^2+2
    q, r = zech_divmod(t, (2, 0, 1), (1, 1))
    assert (q, r) == ((2, 1), ())
    with pytest.raises(ZeroDivisionError):
        zech_divmod(t, (1, 1), ())


def test_poly_eval():
    t = build_tower(3, 1)
    # 2 + x + x^2 at x = 2: 2 + 2 + 4 = 8 = 2 mod 3
    assert poly_eval(t, (2, 1, 1), 2) == 2
    assert poly_eval(t, (), 2) == 0
    assert poly_eval(t, (1, 1), t.beta) == t.add(1, t.beta)
    # roots of x^2 - 1 over GF(3) are exactly 1 and 2
    roots = [a for a in t.subfield if poly_eval(t, (2, 0, 1), a) == 0]
    assert roots == [1, 2]


def test_factorization_is_deterministic():
    for q, n in [(3, 11), (4, 11), (9, 7)]:
        tower = tower_for_q(q)
        first = factor_x2n_minus_1(tower, n)
        second = factor_x2n_minus_1(tower, n)
        assert first.base == second.base
        assert (first.n0, first.ell, first.multiplicity) == (
            second.n0,
            second.ell,
            second.multiplicity,
        )


def test_divmod_against_reference_cofactor(f9):
    g = decode_vector(f9, TERNARY_N11["g"])
    q, r = zech_divmod(f9, x_pow_minus_one(f9, 22), g)
    assert r == ()
    assert q == decode_vector(f9, TERNARY_N11["h"])


def test_reciprocal():
    t = build_tower(3, 1)
    assert monic_reciprocal(t, (1, 1)) == (1, 1)
    h = decode_vector(t, TERNARY_N11["h"])
    assert monic_reciprocal(t, h) == decode_vector(t, TERNARY_N11["h_star"])
    t16 = build_tower(2, 2)
    h4 = decode_vector(t16, QUATERNARY_N11["h"])
    assert monic_reciprocal(t16, h4) == decode_vector(t16, QUATERNARY_N11["h_star"])
    with pytest.raises(ZeroConstantTermError):
        monic_reciprocal(t, (0, 1))


def test_reciprocal_is_involutive_up_to_monic():
    t = build_tower(5, 1)
    for coeffs in itertools.product(range(5), repeat=4):
        h = normalize((1,) + coeffs)
        if not h or h[0] == 0:
            continue
        twice = monic_reciprocal(t, monic_reciprocal(t, h))
        scaled = tuple(t.mul(t.inv(h[-1]), c) for c in h)
        assert twice == scaled


@pytest.mark.parametrize(
    "data", [TERNARY_N11, QUATERNARY_N11], ids=["ternary", "quaternary"]
)
def test_reference_factorizations(data):
    tower = tower_for_q(data["q"])
    fac = factor_x2n_minus_1(tower, data["n"])
    expected = {decode_vector(tower, line) for line in data["factors"]}
    assert set(fac.base) == expected
    assert fac.divisor_count == data["divisor_count"]
    assert fac.multiplicity == data.get("multiplicity", 1)


def test_trivial_factorization():
    t = build_tower(3, 1)
    fac = factor_x2n_minus_1(t, 1)
    assert set(fac.base) == {(1, 1), (2, 1)}
    assert (fac.t, fac.ell, fac.divisor_count) == (2, 0, 4)
    divisors = dict(enumerate_divisors(fac))
    assert divisors == {
        (0, 0): (1,),
        (0, 1): (2, 1),
        (1, 0): (1, 1),
        (1, 1): (2, 0, 1),
    }


def test_factors_sorted_canonically():
    for q, n in [(2, 6), (3, 6), (4, 5), (5, 4), (9, 2)]:
        fac = factor_x2n_minus_1(tower_for_q(q), n)
        assert list(fac.base) == sorted(fac.base, key=lambda g: (degree(g), g))
        assert len(set(fac.base)) == fac.t


def test_factors_are_monic_irreducible_and_multiply_back():
    for q, n in [
        (2, 3), (2, 6), (3, 4), (3, 11), (4, 3), (4, 11), (5, 5), (9, 7),
        (8, 9), (9, 10), (25, 7), (27, 7),
    ]:
        tower = tower_for_q(q)
        fac = factor_x2n_minus_1(tower, n)
        assert fac.multiplicity == tower.p ** fac.ell
        assert 2 * n == fac.n0 * fac.multiplicity
        product = (1,)
        for g in fac.base:
            assert g[-1] == 1
            assert all(tower.in_subfield(c) for c in g)
            assert is_irreducible(tower, g)
            product = poly_mul(tower, product, poly_pow(tower, g, fac.multiplicity))
        assert product == x_pow_minus_one(tower, 2 * n)


def test_divisor_enumeration_is_lexicographic_and_complete():
    tower = tower_for_q(4)
    fac = factor_x2n_minus_1(tower, 3)
    seen = []
    target = x_pow_minus_one(tower, 6)
    for exps, g in enumerate_divisors(fac):
        seen.append(exps)
        assert degree(g) == sum(e * d for e, d in zip(exps, fac.degrees))
        assert poly_mod(tower, target, g) == ()
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen)) == fac.divisor_count == 27


def test_divisor_counts():
    assert factor_x2n_minus_1(build_tower(3, 1), 11).divisor_count == 64
    assert factor_x2n_minus_1(build_tower(2, 2), 11).divisor_count == 27


def test_divisor_expansion_matches_enumeration():
    fac = factor_x2n_minus_1(build_tower(3, 1), 3)
    for exps, g in enumerate_divisors(fac):
        assert fac.divisor(exps) == g
    with pytest.raises(ValueError):
        fac.divisor((99,) * fac.t)


def test_check_divisor_rejections(f9):
    with pytest.raises(NotADivisorError):
        check_divisor(f9, 2, (1, 1, 1))  # x^2+x+1 does not divide x^4-1 over GF(3)
    with pytest.raises(NotADivisorError):
        check_divisor(f9, 2, ())
    with pytest.raises(NotADivisorError):
        check_divisor(f9, 1, (f9.beta, 1))  # coefficient outside GF(3)


def test_check_divisor_scales_to_monic(f9):
    # a GF(q^2) multiple of a GF(q) divisor is accepted: g is made monic
    # first, and only then must its coefficients lie in GF(q)
    assert CyclicCode(f9, 1, (f9.beta, f9.beta)).g == (1, 1)
    with pytest.raises(NotADivisorError):
        CyclicCode(f9, 1, (f9.beta, 1))


def test_generator_codes_out_of_range_are_refused():
    # checked before the monic scaling, which would read a negative code
    # through Python's negative list index and build <x + 1>
    tower = build_tower(3, 1)
    for g in ((-1, -1), (9, 9)):
        with pytest.raises(ValueError, match="out of range"):
            CyclicCode(tower, 1, g)


def test_divisor_exponents_must_be_integers():
    fac = factor_x2n_minus_1(build_tower(3, 1), 3)
    for exponent in (1.9, "1"):
        with pytest.raises(TypeError):
            fac.divisor((exponent,) + (0,) * (fac.t - 1))


def test_large_host_field_path():
    # q = 9 over GF(3): Phi_7 and Phi_14 each split into two cubics
    # (ord_7(9) = 3) by the odd-characteristic split over GF(p^2)
    tower = tower_for_q(9)
    fac = factor_x2n_minus_1(tower, 7)
    assert fac.n0 == 14
    product = (1,)
    for g in fac.base:
        product = poly_mul(tower, product, poly_pow(tower, g, fac.multiplicity))
    assert product == x_pow_minus_one(tower, 14)
    sizes = sorted(degree(g) for g in fac.base)
    assert sum(sizes) == 14


def test_host_field_path_for_cubic_subfield():
    # q = 8 over GF(2): x^10 - 1 = ((x - 1) Phi_5)^2, and Phi_5 stays
    # irreducible because ord_5(8) = 4 = deg Phi_5
    tower = tower_for_q(8)
    fac = factor_x2n_minus_1(tower, 5)
    assert (fac.n0, fac.multiplicity) == (5, 2)
    assert sorted(fac.degrees) == [1, 4]
    product = (1,)
    for g in fac.base:
        product = poly_mul(tower, product, poly_pow(tower, g, fac.multiplicity))
    assert product == x_pow_minus_one(tower, 10)


def test_multiplicative_order():
    assert _multiplicative_order(3, 1) == 1
    assert _multiplicative_order(2, 79) == 39
    assert _multiplicative_order(9, 7) == 3
    assert _multiplicative_order(4, 3) == 1


def cyclotomic_coset_sizes(q, n0):
    sizes, seen = [], set()
    for j in range(n0):
        if j not in seen:
            coset = {j * q ** i % n0 for i in range(n0)}
            seen |= coset
            sizes.append(len(coset))
    return sorted(sizes)


@pytest.mark.parametrize("q, n", [(2, 79), (3, 47)])
def test_long_lengths_split_into_coset_sized_irreducibles(q, n):
    # Phi_79 over GF(2) splits into two factors of degree 39 (the p = 2
    # trace split), Phi_47 and Phi_94 over GF(3) into two of degree 23 each
    # (the odd-p split).  Monic factors that multiply back, one per
    # q-cyclotomic coset and of the coset's size, are all irreducible.
    tower = tower_for_q(q)
    fac = factor_x2n_minus_1(tower, n)
    assert sorted(fac.degrees) == cyclotomic_coset_sizes(q, fac.n0)
    product = (1,)
    for g in fac.base:
        assert g[-1] == 1
        assert all(tower.in_subfield(c) for c in g)
        product = poly_mul(tower, product, poly_pow(tower, g, fac.multiplicity))
    assert product == x_pow_minus_one(tower, 2 * n)


def test_json_shape():
    fac = factor_x2n_minus_1(build_tower(3, 1), 2)
    blob = fac.to_json()
    assert set(blob) == {"n0", "ell", "t", "multiplicity", "factors"}
    assert blob["t"] == len(blob["factors"])


def _factor_digest(pairs) -> str:
    digest = hashlib.sha256()
    for q, n in pairs:
        fac = factor_x2n_minus_1(tower_for_q(q), n)
        digest.update(json.dumps(fac.to_json(), sort_keys=True).encode())
    return digest.hexdigest()


# sha256 of json.dumps(Factorization.to_json(), sort_keys=True) over these
# (q, n), concatenated in order; pins factor lists beyond the n <= 12 of
# the CLI's FACTOR_DIGEST, at splitting fields up to GF(3^100).
LARGE_FACTOR_PAIRS = ((3, 121), (3, 200), (4, 255), (7, 100), (49, 38), (512, 9))
LARGE_FACTOR_DIGEST = "19e923a5f81faf0e6453e2e1e8f0a03f0f1a4c9bad20bb163640bb97cc830a74"


def test_larger_factorizations_are_pinned():
    assert _factor_digest(LARGE_FACTOR_PAIRS) == LARGE_FACTOR_DIGEST


# the same digest over (3, 500) and (49, 200), computed with the square-and-
# multiply probe before the Frobenius-image one replaced it
LONG_FACTOR_PAIRS = ((3, 500), (49, 200))
LONG_FACTOR_DIGEST = "b9b7c1455287d71eb5ca2fe49499928b9368c7038e1812fe41f5387c202185a0"


def test_long_factorizations_are_pinned():
    assert _factor_digest(LONG_FACTOR_PAIRS) == LONG_FACTOR_DIGEST


# the same digest over (3, 1000) and (7, 250), computed with the product fold
# of a^((q^r - 1)/2) before the trace fold replaced it
LONGEST_FACTOR_PAIRS = ((3, 1000), (7, 250))
LONGEST_FACTOR_DIGEST = "8d828676f92ec9bd830dab5d22e761e3e267eb0178c245932ebb1b2539938d39"


def test_longest_factorizations_are_pinned():
    assert _factor_digest(LONGEST_FACTOR_PAIRS) == LONGEST_FACTOR_DIGEST


# the same digest over lengths where most Phi_d are lifted or twisted from a
# smaller one, computed when Cantor-Zassenhaus still split every Phi_d
LIFTED_FACTOR_PAIRS = ((3, 4000), (4, 255), (2, 1023), (4, 1023))
LIFTED_FACTOR_DIGEST = "ba67f93ec098d61e6794a8a22ec397aade3536c495918cdd6fb7c7535703e11d"


def test_lifted_factorizations_are_pinned():
    assert _factor_digest(LIFTED_FACTOR_PAIRS) == LIFTED_FACTOR_DIGEST


def test_factorization_leaves_no_allocations_behind():
    # result tuples built from generator expressions strand blocks on
    # CPython's per-length tuple free lists; list-built ones do not.  Odd p
    # and p = 2 take different probes
    for q, n in ((9, 11), (4, 35)):
        tower = tower_for_q(q)
        for _ in range(3):
            factor_x2n_minus_1(tower, n)
        before = sys.getallocatedblocks()
        for _ in range(50):
            factor_x2n_minus_1(tower, n)
        assert sys.getallocatedblocks() - before < 1000, (q, n)


# the CLI digest's grid, two long lengths, and q = 512 (p = 2, m = 9), where
# every 2^j-th power scales the coefficient logs by 2^j mod 511
PROBE_CASES = [(q, n) for q in FACTOR_QS for n in range(1, 13)] + [
    (3, 121), (4, 255), (512, 35), (512, 51)
]


@pytest.mark.parametrize("q", sorted({q for q, _ in PROBE_CASES}))
def test_probe_matches_square_and_multiply(q):
    # the library's probe of a monomial gamma^c x^j (plus gamma^shift for
    # odd p), and the oracle's Frobenius-image fold of a dense polynomial
    tower = tower_for_q(q)
    z, rng = tower.zech, random.Random(q)
    for n in [n for q2, n in PROBE_CASES if q2 == q]:
        n0 = 2 * n
        while n0 % tower.p == 0:
            n0 //= tower.p
        for d, phi in naive.cyclotomic_by_division(tower, n0).items():
            r, divisor = _multiplicative_order(q, d), z.divisor(phi)
            for _ in range(3):
                j, c = rng.randrange(d), rng.randrange(z.q1)
                shift = rng.randrange(-1, z.q1) if tower.p > 2 else -1
                a = z.divide([-1] * j + [c], divisor)[1]
                assert _probe(tower, phi, d, r, j, c, shift) == naive.edf_probe(
                    tower, a, phi, r, shift
                ), (n, d, j, c, shift)
                a = z.to_logs([rng.choice(tower.subfield) for _ in range(len(phi) - 1)])
                assert naive.frobenius_probe(tower, a, phi, d, r) == naive.edf_probe(
                    tower, a, phi, r
                ), (n, d, a)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49])
def test_factors_match_splitting_every_phi(q):
    # the oracle splits every Phi_d by Cantor-Zassenhaus on dense probes; the
    # library lifts and twists all but the base Phi_d
    tower = tower_for_q(q)
    for n in range(1, 41):
        oracle = naive.factor_by_splitting_every_phi(tower, n)
        assert list(factor_x2n_minus_1(tower, n).base) == oracle, n


@pytest.mark.parametrize(
    "q, n, base", [(3, 22, {1, 11}), (3, 1000, {1, 5, 8, 20, 40, 80})]
)
def test_only_base_cyclotomics_are_split(monkeypatch, q, n, base):
    # (3, 22): Phi_2 and Phi_22 are Phi_1 and Phi_11 twisted by -1, and
    # Phi_44(x) = Phi_22(x^2); (3, 1000): every other d | 2000 has 5^2 | d
    # with ord_d(3) = 5 ord_(d/5)(3), or is 4 or 16 (lifted by 2), or
    # 2 * odd (twisted)
    seen, split = set(), poly._split_equal_degree

    def spy(tower, f, d, r, rng):
        seen.add(d)
        return split(tower, f, d, r, rng)

    monkeypatch.setattr(poly, "_split_equal_degree", spy)
    factor_x2n_minus_1(tower_for_q(q), n)
    assert seen == base


def _oracle_fields():
    """(library field, scalar oracle, coefficient values) for every q with
    q^2 <= 2^12 and for GF(p), p < 64, on the ints."""
    for q in range(2, 65):
        if len(factorize(q)) == 1:
            tower = tower_for_q(q)
            yield pytest.param(tower, tower, tower.subfield, id=f"tower-{q}")
    for p in filter(is_prime, range(2, 64)):
        gf = SimpleNamespace(p=p, zech=_prime_zech(p))
        yield pytest.param(gf, naive.PrimeScalars(p), tuple(range(p)), id=f"prime-{p}")


def _random_poly(rng, values, deg):
    return normalize([rng.choice(values) for _ in range(deg)] + [rng.choice(values[1:])])


@pytest.mark.parametrize("gf, oracle, values", _oracle_fields())
def test_arithmetic_matches_schoolbook_oracle(gf, oracle, values):
    rng = random.Random(len(values) * gf.p)
    pick = random.Random(gf.p)  # own stream, so rng draws the inputs it always drew
    for _ in range(12):
        a = _random_poly(rng, values, rng.randrange(0, 14))
        b = _random_poly(rng, values, rng.randrange(0, 8))
        zero_padded = a + (0,) * rng.randrange(3)
        assert zech_mul(gf, zero_padded, b) == naive.poly_mul(oracle, a, b)
        assert zech_divmod(gf, zero_padded, b) == naive.poly_divmod(oracle, a, b)
        assert poly_mod(gf, a, b) == naive.poly_divmod(oracle, a, b)[1]
        assert zech_gcd(gf, a, b) == naive.poly_gcd(oracle, a, b)
        common = _random_poly(rng, values, rng.randrange(1, 4))
        assert zech_gcd(gf, zech_mul(gf, a, common), zech_mul(gf, b, common)) == (
            naive.poly_gcd(oracle, naive.poly_mul(oracle, a, common), naive.poly_mul(oracle, b, common))
        )
        if degree(b) >= 1:
            base = naive.poly_divmod(oracle, a, b)[1]
            e = rng.randrange(0, 20)
            assert zech_powmod(gf, base, e, b) == naive.poly_powmod(oracle, base, e, b)
        h = normalize((rng.choice(values[1:]),) + a)
        assert monic_reciprocal(gf, h) == naive.monic_reciprocal(oracle, h)
        z, c = gf.zech, pick.choice(values[1:])
        assert z.to_codes(z.monic(z.to_logs(a))) == naive.monic(oracle, a)
        for log_c, scalar in ((z.log[c], c), (z.minus_one, oracle.neg(1))):
            scaled = z.to_codes(z.reduce(z.scale(z.to_logs(a), log_c)))
            assert scaled == naive.poly_mul(oracle, (scalar,), a)
            d = pick.randrange(1, 9)
            assert z.to_codes(z.binomial(d, log_c)) == (scalar,) + (0,) * (d - 1) + (1,)
    assert zech_mul(gf, (), values[1:2]) == () and zech_gcd(gf, (), ()) == ()


def test_coefficients_outside_the_subfield_are_refused():
    tower = tower_for_q(4)
    assert not tower.in_subfield(tower.beta)
    for call in (
        lambda: zech_mul(tower, (1, tower.beta), (1, 1)),
        lambda: zech_divmod(tower, (1, 0, 1), (tower.beta, 1)),
        lambda: zech_gcd(tower, (tower.beta,), (1, 1)),
        lambda: zech_powmod(tower, (tower.beta,), 3, (1, 1, 1)),
        lambda: monic_reciprocal(tower, (1, tower.beta)),
    ):
        with pytest.raises(ValueError, match="not in GF"):
            call()
