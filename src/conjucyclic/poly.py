"""Polynomials over GF(q) and the factorization of x^(2n) - 1.

A polynomial is a tuple of element codes, low degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  Coefficients must
lie in the subfield GF(q) of the ambient tower, where all generator
polynomials of the cyclic codes of interest live: the arithmetic runs on
their logs to a generator gamma of GF(q)*, and a coefficient outside GF(q)
(its tower log no multiple of q + 1) raises ValueError.  ZechLogs is the
arithmetic (a FieldTower carries one for GF(q) as `zech`, gamma = beta^(q+1),
and field.py's modulus search one on GF(p)); its log lists, -1 for a zero,
are also read by FieldTower.codes, conju's generator matrix, dual logs and
largest cyclic subcode, and weights' shortened mirror rows, which the sweep
packs from them.  A code's own polynomials
(cyclic.CyclicCode: g, its prepared divisor and h*) are log lists from
construction on, and every question asked of the code runs on those lists;
the few functions here that take and return codes (poly_mod,
monic_reciprocal) convert at their edges.

Factorization of x^(2n) - 1 stays inside GF(q): write 2n = p^ell * n0 with
gcd(n0, p) = 1, split x^(n0) - 1 into the cyclotomic polynomials Phi_d,
d | n0, each into its irreducible factors of degree ord_d(q), and raise
everything to the p^ell-th power.  Walking d upwards, most Phi_d take
their factors from a smaller Phi, by Phi_d(x) = Phi_(d/l)(x^l) or by a
twist with a root of unity in GF(q) (_cyclotomic_factors).  Only the base
Phi_d, Moebius products of binomials x^k - 1, go to Cantor-Zassenhaus,
which probes with the trace of a random monomial gamma^c x^j: one sparse
vector and one division by the factor (_probe).  The probes come from a
generator seeded afresh in every call, and the factors are unique and
sorted, so repeated runs agree bit for bit.

Every divisor comes from one table, Factorization.powers, holding each
factor's powers up to the multiplicity: Factorization.divisor,
enumerate_divisors and the self-check x^(2n) - 1 = divisor((p^ell, ...))
all multiply its entries.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field as dataclass_field

from .errors import NotADivisorError, ZeroConstantTermError


class ZechLogs:
    """GF(q)[x] on logs to a generator gamma of GF(q)*, q - 1 = q1.

    A log list holds, low degree first, the log in [0, q1) of each nonzero
    coefficient and -1 for each zero one, with no trailing -1.  Products
    add logs; sums use Zech's logarithm Z(k) = log(1 + gamma^k)
    (Lidl-Niederreiter, sec. 10.1): gamma^a + gamma^b = gamma^(b + Z(a - b)).
    Inside a product or division a log may stand unreduced in [0, 3 q1)
    and any negative value is zero: `zech` repeats Z three times, so no
    index a - b needs reducing, and holds -2 q1 where 1 + gamma^k = 0.
    code[i] is the code of gamma^i, code[-1] = 0, log inverts code, and
    minus_one is log(-1).  Other modules make, scale and normalize log
    lists by these methods: binomial for x^d + gamma^c (x^d - 1 included),
    scale to multiply by a constant or negate, monic to divide by the lead.
    """

    def __init__(self, p: int, powers, one_plus) -> None:
        """powers: codes of gamma^k, one_plus: codes of 1 + gamma^k, k < q1."""
        self.p, self.q1, self.code = p, len(powers), list(powers) + [0]
        self.log = dict(zip(powers, range(self.q1)))
        self.log[0] = -1
        self.minus_one = self.q1 // 2 if p > 2 else 0
        zech = [self.log[c] for c in one_plus]
        zech[self.minus_one] = -2 * self.q1
        self.zech = zech * 3

    def to_logs(self, a) -> list:
        try:
            return self.reduce([self.log[c] for c in a])
        except KeyError as err:
            raise ValueError(f"coefficient {err.args[0]} is not in GF({self.q1 + 1})") from None

    def to_codes(self, a) -> tuple:
        code = self.code
        return tuple([code[c] for c in a])

    def reduce(self, a) -> list:
        """Logs into [0, q1), zeros to -1, trailing zeros dropped."""
        q1 = self.q1
        out = [c % q1 if c >= 0 else -1 for c in a]
        while out and out[-1] < 0:
            out.pop()
        return out

    def add_scaled(self, out, shift: int, c: int, terms) -> None:
        """out[shift + j] += gamma^(c + t) for each (j, t) in terms, in place:
        the one inner loop of every sum, product and division."""
        zech = self.zech
        for j, t in terms:
            k, t = shift + j, c + t
            o = out[k]
            out[k] = t + zech[o - t] if o >= 0 else t

    def monic(self, a) -> list:
        """a divided by its lead; a reduced, and [] stays []."""
        lead, q1 = a[-1] if a else 0, self.q1
        return [(c - lead) % q1 if c >= 0 else -1 for c in a]

    def scale(self, a, c: int) -> list:
        """gamma^c * a, unreduced; c = minus_one negates."""
        return [t + c if t >= 0 else -1 for t in a]

    def binomial(self, d: int, c: int) -> list:
        """x^d + gamma^c for d >= 1; binomial(d, minus_one) is x^d - 1."""
        return [c] + [-1] * (d - 1) + [0]

    def add(self, a, b) -> list:
        out = list(a) + [-1] * (len(b) - len(a))
        self.add_scaled(out, 0, 0, [(j, c) for j, c in enumerate(b) if c >= 0])
        return self.reduce(out)

    def product(self, a, b) -> list:
        """a * b, unreduced."""
        out = [-1] * max(len(a) + len(b) - 1, 0)
        terms = [(j, c) for j, c in enumerate(b) if c >= 0]
        for i, c in enumerate(a):
            if c >= 0:
                self.add_scaled(out, i, c, terms)
        return out

    def divisor(self, b) -> tuple:
        """b ready for division: deg b, log(1 / lead) and, for each nonzero
        b_j below the lead, (j, log(-b_j / lead))."""
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        lead_inv = -b[-1] % self.q1
        shift = self.minus_one + lead_inv
        return len(b) - 1, lead_inv, [(j, (t + shift) % self.q1) for j, t in enumerate(b[:-1]) if t >= 0]

    def divide(self, a, divisor) -> tuple:
        """Unreduced quotient and remainder of a (unreduced, overwritten)."""
        db, lead_inv, terms = divisor
        quot = [-1] * max(len(a) - db, 0)
        for k in range(len(a) - 1, db - 1, -1):
            if a[k] >= 0:
                c = a[k] % self.q1
                quot[k - db] = c + lead_inv
                self.add_scaled(a, k - db, c, terms)
        return quot, self.reduce(a[:db])

    def divmod(self, a, b) -> tuple:
        quot, rem = self.divide(list(a), self.divisor(b))
        return self.reduce(quot), rem

    def gcd(self, a, b) -> list:
        """Monic gcd."""
        while b:
            a, b = b, self.divide(list(a), self.divisor(b))[1]
        return self.monic(a)

    def powmod(self, a, e: int, f) -> list:
        """a^e mod f by square and multiply; a must already be reduced mod f."""
        f, result = self.divisor(f), [0]
        while e:
            if e & 1:
                result = self.divide(self.product(result, a), f)[1]
            e >>= 1
            if e:
                a = self.divide(self.product(a, a), f)[1]
        return result


def normalize(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def degree(a) -> int:
    """Degree, with the zero polynomial reported as -1."""
    return len(a) - 1


def poly_mod(tower, a, b) -> tuple:
    """Remainder of a by b, deg r < deg b."""
    z = tower.zech
    return z.to_codes(z.divide(z.to_logs(a), z.divisor(z.to_logs(b)))[1])


def monic_reciprocal(tower, h) -> tuple:
    """Monic reciprocal x^deg(h) * h(1/x), normalized to leading coefficient 1.

    Requires a nonzero constant term (automatic for divisors of x^N - 1);
    applying it twice gives back the monic normalization of h.
    """
    h = normalize(h)
    if not h or h[0] == 0:
        raise ZeroConstantTermError("reciprocal needs a nonzero constant term")
    z = tower.zech
    return z.to_codes(z.monic(z.to_logs(h)[::-1]))


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


def _probe(tower, f, d: int, r: int, j: int, c: int, shift: int) -> list:
    """The Cantor-Zassenhaus probe of a = gamma^c x^j modulo f | x^d - 1:
    for p = 2 the trace a + a^2 + ... + a^(2^(mr-1)) to GF(2), for odd p
    the quadratic character (t + gamma^shift)^((q-1)/2) - 1 of the trace
    t = a + a^q + ... + a^(q^(r-1)) to GF(q), shift -1 adding zero.

    The s-th power of a monomial is again one, gamma^(c s) x^(j s mod d)
    modulo x^d - 1, so the trace is a sparse vector of length d, summed on
    the Zech logs where exponents meet, and one division by f.
    """
    z = tower.zech
    s, k = (2, tower.m * r) if tower.p == 2 else (tower.q, r)
    terms = []
    for _ in range(k):
        terms.append((j, c))
        j, c = j * s % d, c * s % z.q1
    t = [-1] * d
    z.add_scaled(t, 0, 0, terms)
    t = z.divide(t, z.divisor(f))[1]
    if tower.p == 2:
        return t
    return z.add(z.powmod(z.add(t, [shift]), (tower.q - 1) // 2, f), [z.minus_one])


def _split_equal_degree(tower, f, d: int, r: int, rng) -> list:
    """Monic irreducible factors of the log list f, a squarefree product of
    degree-r ones dividing x^d - 1, gcd(d, p) = 1.

    Cantor-Zassenhaus on monomials: the gcd of f with the probe of a random
    gamma^c x^j (and, for odd p, a random constant added to its trace) is a
    proper factor often enough.  It can always be one: at the roots of two
    factors the traces differ as functions of (c, j), the characters
    (c, j) -> c^(s^i) zeta^(j s^i) of distinct roots zeta being linearly
    independent (Dedekind); for odd p a constant then moves one trace to a
    square and the other to a nonsquare or zero.
    """
    z = tower.zech
    if len(f) - 1 == r:
        return [f]
    while True:
        j, c = rng.randrange(d), rng.randrange(z.q1)
        shift = rng.randrange(-1, z.q1) if tower.p > 2 else -1
        g = z.gcd(f, _probe(tower, f, d, r, j, c, shift))
        if 0 < len(g) - 1 < len(f) - 1:
            return _split_equal_degree(tower, g, d, r, rng) + _split_equal_degree(
                tower, z.divmod(f, g)[0], d, r, rng
            )


def _cyclotomic(z, d: int, primes) -> list:
    """Phi_d, with primes those of d, as the Moebius product of x^(d/k) - 1
    over the squarefree k | d: the binomials with an even number of primes
    in k multiplied, the others divided out, each quotient exact."""
    up, down = [0], []
    for size in range(len(primes) + 1):
        for k in itertools.combinations(primes, size):
            binomial = z.binomial(d // math.prod(k), z.minus_one)
            if size % 2:
                down.append(binomial)
            else:
                up = z.reduce(z.product(up, binomial))
    for binomial in down:
        up = z.divmod(up, binomial)[0]
    return up


def _cyclotomic_factors(tower, d: int, r: int, primes, known, rng) -> list:
    """Monic irreducible factors of Phi_d, each of degree r = ord_d(q), as
    log lists; known[e] = (ord_e(q), the factors of Phi_e) for every e | d
    below d, and primes are those of d.

    Two identities (Lidl-Niederreiter, ch. 2-3) take them from a smaller Phi:
    for a prime l with l^2 | d, Phi_d(x) = Phi_(d/l)(x^l), and when
    ord_d(q) = l ord_(d/l)(q) each g(x^l) keeps degree r and so stays
    irreducible; for d = d1 e, e > 1, e | q - 1, gcd(d1, e) = 1, the roots
    of Phi_d are those of Phi_d1 times the zeta of order e in GF(q), so
    its factors are zeta^(deg g) g(x/zeta), g | Phi_d1, of degree
    ord_d1(q) = r: on logs, coefficient i shifts by (deg g - i) log zeta;
    Phi_(2m)(x) = Phi_m(-x) is e = 2.  Trying e = l^a, the full power of
    each prime l of d, finds every such d.  Only the remaining, base Phi_d
    go to Cantor-Zassenhaus.
    """
    q1 = tower.zech.q1
    for ell in primes:
        r1, below = known[d // ell]
        if d % (ell * ell) == 0 and r == ell * r1:
            lifted = []
            for g in below:
                g_lift = [-1] * (ell * (len(g) - 1) + 1)
                g_lift[::ell] = g
                lifted.append(g_lift)
            return lifted
        e = ell
        while d % (e * ell) == 0:
            e *= ell
        if q1 % e == 0:
            return [
                [(c + (r - i) * k * (q1 // e)) % q1 if c >= 0 else -1 for i, c in enumerate(g)]
                for k in range(1, e)
                if k % ell
                for g in known[d // e][1]
            ]
    return _split_equal_degree(tower, _cyclotomic(tower.zech, d, primes), d, r, rng)


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
    #: powers[i][e] is the log list of base[i]^e for 0 <= e <= multiplicity;
    #: every divisor is a product of one entry per row.
    powers: tuple = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple([degree(g) for g in self.base]))
        z = self.tower.zech
        rows = []
        for g in self.base:
            g, row = z.to_logs(g), [[0]]
            for _ in range(self.multiplicity):
                row.append(z.reduce(z.product(row[-1], g)))
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
        exponents = tuple([operator.index(e) for e in exponents])
        if len(exponents) != self.t or any(
            e < 0 or e > self.multiplicity for e in exponents
        ):
            raise ValueError(
                f"exponents must be {self.t} values in [0, {self.multiplicity}]"
            )
        z, out = self.tower.zech, [0]
        for row, e in zip(self.powers, exponents):
            if e:
                out = z.reduce(z.product(out, row[e]))
        return z.to_codes(out)

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
    p, z = tower.p, tower.zech
    two_n = 2 * n
    n0, ell = two_n, 0
    while n0 % p == 0:
        n0 //= p
        ell += 1
    # seeded per call, so every call draws the same probes and does the
    # same work
    rng = random.Random(0)
    divisors = [d for d in range(1, n0 + 1) if n0 % d == 0]
    primes = [d for d in divisors if d > 1 and all(d % k for k in range(2, math.isqrt(d) + 1))]
    known = {}
    for d in divisors:
        r = _multiplicative_order(tower.q, d)
        d_primes = [prime for prime in primes if d % prime == 0]
        known[d] = r, _cyclotomic_factors(tower, d, r, d_primes, known, rng)
    base = sorted(
        [z.to_codes(g) for _, factors in known.values() for g in factors],
        key=lambda g: (degree(g), g),
    )
    fac = Factorization(
        tower=tower, n=n, n0=n0, ell=ell, multiplicity=p ** ell, base=tuple(base)
    )
    full = fac.divisor((fac.multiplicity,) * fac.t)
    assert full == z.to_codes(z.binomial(two_n, z.minus_one)), "factorization self-check failed"
    return fac


def enumerate_divisors(fac: Factorization):
    """Yield every (exponents, divisor) pair, exponent tuples in lex order."""
    for exponents in itertools.product(range(fac.multiplicity + 1), repeat=fac.t):
        yield exponents, fac.divisor(exponents)


def check_divisor(tower, n: int, g) -> tuple:
    """Validate that g divides x^(2n) - 1; return the log lists of monic g
    and of the cofactor h, with g's prepared ZechLogs.divisor between them.
    g is made monic first, so a GF(q^2) multiple of a GF(q) divisor passes."""
    g = normalize(g)
    if not g:
        raise NotADivisorError("the zero polynomial is not a divisor")
    for c in g:
        tower.check_element(c)
    if g[-1] != 1:
        g = tuple([tower.div(c, g[-1]) for c in g])
    z = tower.zech
    try:
        g = z.to_logs(g)
    except ValueError:
        raise NotADivisorError(
            "generator coefficients must lie in the subfield GF(q)"
        ) from None
    divisor = z.divisor(g)
    quotient, remainder = z.divide(z.binomial(2 * n, z.minus_one), divisor)
    if remainder:
        raise NotADivisorError(
            f"polynomial of degree {degree(g)} does not divide x^{2 * n} - 1"
        )
    return g, divisor, z.reduce(quotient)
