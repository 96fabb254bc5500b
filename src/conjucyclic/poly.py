"""Polynomials over GF(q) and the factorization of x^(2n) - 1.

A polynomial is a tuple of element codes, low degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  Coefficients are
expected to lie in the subfield GF(q) of the ambient tower, which is where
all generator polynomials of the cyclic codes of interest live.  The
arithmetic asks of `tower` only add, neg, mul and inv, so field.PrimeField
serves for polynomials over GF(p).

Factorization of x^(2n) - 1 stays inside GF(q): write 2n = p^ell * n0 with
gcd(n0, p) = 1, split x^(n0) - 1 into the cyclotomic polynomials Phi_d,
d | n0, split each Phi_d into its irreducible factors of degree ord_d(q) by
Cantor-Zassenhaus equal-degree factorization, and raise everything to the
p^ell-th power.  The trial polynomials of the randomized split come from a
generator seeded afresh in every call, and the factors are unique and
sorted, so repeated runs agree bit for bit.

Every divisor comes from one table, Factorization.powers, holding each
factor's powers up to the multiplicity: Factorization.divisor,
enumerate_divisors and the self-check x^(2n) - 1 = divisor((p^ell, ...))
all multiply its entries.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dataclass_field

from .errors import NotADivisorError, ZeroConstantTermError


def normalize(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def degree(a) -> int:
    """Degree, with the zero polynomial reported as -1."""
    return len(a) - 1


def poly_add(tower, a, b) -> tuple:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = tower.add(out[i], c)
    return normalize(out)


def poly_mul(tower, a, b) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = tower.add(out[i + j], tower.mul(ai, bj))
    return normalize(out)


def poly_divmod(tower, a, b) -> tuple:
    """Quotient and remainder with deg r < deg b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, lead_inv = degree(b), tower.inv(b[-1])
    if degree(a) < db:
        return (), normalize(a)
    quot = [0] * (len(a) - db)
    neg_b = [tower.neg(x) for x in b]
    for k in range(len(a) - 1, db - 1, -1):
        c = tower.mul(a[k], lead_inv)
        if c:
            quot[k - db] = c
            for j, nbj in enumerate(neg_b):
                if nbj:
                    a[k - db + j] = tower.add(a[k - db + j], tower.mul(c, nbj))
    return normalize(quot), normalize(a)


def poly_mod(tower, a, b) -> tuple:
    return poly_divmod(tower, a, b)[1]


def monic(tower, a) -> tuple:
    if not a:
        return ()
    if a[-1] == 1:
        return normalize(a)
    inv = tower.inv(a[-1])
    return normalize([tower.mul(inv, x) for x in a])


def poly_gcd(tower, a, b) -> tuple:
    a, b = normalize(a), normalize(b)
    while b:
        a, b = b, poly_mod(tower, a, b)
    return monic(tower, a)


def x_pow_minus_one(tower, n: int) -> tuple:
    """x^n - 1 as a coefficient tuple."""
    out = [0] * (n + 1)
    out[0] = tower.neg(1)
    out[n] = 1
    return tuple(out)


def monic_reciprocal(tower, h) -> tuple:
    """Monic reciprocal x^deg(h) * h(1/x), normalized to leading coefficient 1.

    Requires a nonzero constant term (automatic for divisors of x^N - 1);
    applying it twice gives back the monic normalization of h.
    """
    h = normalize(h)
    if not h or h[0] == 0:
        raise ZeroConstantTermError("reciprocal needs a nonzero constant term")
    return monic(tower, tuple(reversed(h)))


def poly_str(tower, a) -> str:
    """Human form like '2 + x + b5*x^2' with beta-power coefficients."""
    if not a:
        return "0"
    parts = []
    for i, c in enumerate(a):
        if c == 0:
            continue
        cs = tower.element_str(c)
        if i == 0:
            parts.append(cs)
        else:
            xs = "x" if i == 1 else f"x^{i}"
            parts.append(xs if cs == "1" else f"{cs}*{xs}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# Factorization of x^(2n) - 1 over GF(q)
# ---------------------------------------------------------------------------


def _multiplicative_order(q: int, n0: int) -> int:
    """Least r >= 1 with q^r = 1 mod n0, for gcd(q, n0) = 1."""
    if n0 == 1:
        return 1
    order, acc = 1, q % n0
    while acc != 1:
        acc = (acc * q) % n0
        order += 1
    return order


def poly_powmod(tower, a, e: int, f) -> tuple:
    """a^e mod f by square and multiply; a must already be reduced mod f."""
    result, base = (1,), a
    while e:
        if e & 1:
            result = poly_mod(tower, poly_mul(tower, result, base), f)
        base = poly_mod(tower, poly_mul(tower, base, base), f)
        e >>= 1
    return result


def _split_equal_degree(tower, f, r: int, rng) -> list:
    """Monic irreducible factors of f, a squarefree product of degree-r ones.

    Cantor-Zassenhaus: for a random a of degree < deg f, the gcd of f with
    a^((q^r - 1)/2) - 1 (odd p) or with the trace a + a^2 + ... + a^(2^(mr-1))
    (p = 2) is a proper factor with probability about 1/2.
    """
    if degree(f) == r:
        return [f]
    while True:
        a = normalize(rng.choice(tower.subfield) for _ in range(degree(f)))
        if tower.p == 2:
            term = probe = a
            for _ in range(tower.m * r - 1):
                term = poly_mod(tower, poly_mul(tower, term, term), f)
                probe = poly_add(tower, probe, term)
        else:
            power = poly_powmod(tower, a, (tower.q ** r - 1) // 2, f)
            probe = poly_add(tower, power, (tower.neg(1),))
        g = poly_gcd(tower, f, probe)
        if 0 < degree(g) < degree(f):
            return _split_equal_degree(tower, g, r, rng) + _split_equal_degree(
                tower, poly_divmod(tower, f, g)[0], r, rng
            )


@dataclass(frozen=True)
class Factorization:
    """Complete factorization x^(2n) - 1 = prod base[i]^multiplicity over GF(q)."""

    tower: object
    n: int
    n0: int
    ell: int
    multiplicity: int
    base: tuple
    degrees: tuple = dataclass_field(init=False)
    #: powers[i][e] = base[i]^e for 0 <= e <= multiplicity; every divisor
    #: is a product of one entry per row.
    powers: tuple = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(degree(g) for g in self.base))
        rows = []
        for g in self.base:
            row = [(1,)]
            for _ in range(self.multiplicity):
                row.append(poly_mul(self.tower, row[-1], g))
            rows.append(tuple(row))
        object.__setattr__(self, "powers", tuple(rows))

    @property
    def t(self) -> int:
        return len(self.base)

    @property
    def divisor_count(self) -> int:
        return (self.multiplicity + 1) ** self.t

    def divisor(self, exponents) -> tuple:
        """Expand the divisor prod base[i]^exponents[i]."""
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != self.t or any(
            e < 0 or e > self.multiplicity for e in exponents
        ):
            raise ValueError(
                f"exponents must be {self.t} values in [0, {self.multiplicity}]"
            )
        out = (1,)
        for row, e in zip(self.powers, exponents):
            if e:
                out = poly_mul(self.tower, out, row[e])
        return out

    def to_json(self) -> dict:
        return {
            "n0": self.n0,
            "ell": self.ell,
            "t": self.t,
            "multiplicity": self.multiplicity,
            "factors": [list(g) for g in self.base],
        }


def factor_x2n_minus_1(tower, n: int) -> Factorization:
    """Factor x^(2n) - 1 over GF(q) into monic irreducibles.

    Factors are sorted by (degree, coefficient codes) so output order never
    depends on iteration internals.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    p = tower.p
    two_n = 2 * n
    n0, ell = two_n, 0
    while n0 % p == 0:
        n0 //= p
        ell += 1
    # seeded per call, so every call draws the same trial polynomials and
    # does the same work
    rng = random.Random(0)
    cyclotomic = {}
    base = []
    for d in range(1, n0 + 1):
        if n0 % d:
            continue
        # Phi_d = (x^d - 1) / prod of Phi_e over the proper divisors e of d
        phi = x_pow_minus_one(tower, d)
        for e, phi_e in cyclotomic.items():
            if d % e == 0:
                phi = poly_divmod(tower, phi, phi_e)[0]
        cyclotomic[d] = phi
        base += _split_equal_degree(tower, phi, _multiplicative_order(tower.q, d), rng)
    base.sort(key=lambda g: (degree(g), g))
    fac = Factorization(
        tower=tower, n=n, n0=n0, ell=ell, multiplicity=p ** ell, base=tuple(base)
    )
    full = fac.divisor((fac.multiplicity,) * fac.t)
    assert full == x_pow_minus_one(tower, two_n), "factorization self-check failed"
    return fac


def enumerate_divisors(fac: Factorization):
    """Yield every (exponents, divisor) pair, exponent tuples in lex order."""
    for exponents in itertools.product(range(fac.multiplicity + 1), repeat=fac.t):
        yield exponents, fac.divisor(exponents)


def check_divisor(tower, n: int, g) -> tuple:
    """Validate that g divides x^(2n) - 1; return (monic g, cofactor h)."""
    g = monic(tower, normalize(g))
    if not g:
        raise NotADivisorError("the zero polynomial is not a divisor")
    for c in g:
        if not tower.in_subfield(c):
            raise NotADivisorError(
                "generator coefficients must lie in the subfield GF(q)"
            )
    quotient, remainder = poly_divmod(tower, x_pow_minus_one(tower, 2 * n), g)
    if remainder:
        raise NotADivisorError(
            f"polynomial of degree {degree(g)} does not divide x^{2 * n} - 1"
        )
    return g, quotient
