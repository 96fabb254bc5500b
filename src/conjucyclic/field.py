"""Finite field towers GF(p) <= GF(q) <= GF(q^2) with exact table arithmetic.

The quadratic extension GF(q^2), q = p^m, is built once as GF(p)[x]/(f) for
a fixed primitive modulus f of degree 2m.  Elements are integer codes: the
base-p digits of the code are the coordinates of the element on the power
basis 1, beta, ..., beta^(2m-1), little-endian, so code 0 is the zero
element and code p is beta itself.  Multiplicative structure lives in
exp/log tables of size q^2 - 1, Python lists sharing one int object per
value, built with numpy by doubling: beta^L .. beta^(2L-1) are beta^0 ..
beta^(L-1) times beta^L, a GF(p)-linear map on packed digits applied as
2^8-entry lookups per digit group (q^2 = 2^24: 3.9 s, 1.07 GB peak RSS).
Element addition is digitwise mod p on the codes; polynomials over GF(q)
use the tower's Zech table of GF(q) instead (poly.ZechLogs, q - 1 entries).

The subfield GF(q) is carved out of GF(q^2) by the fixed-point test
x^q == x instead of being built as a separate structure, which keeps
conjugation and trace trivially consistent with subfield membership.

The canonical tower is a pure function of (p, m), so that constructions
are reproducible bit for bit: a built-in table of Conway polynomials covers
p^(2m) in {4, 9, 16, 25, 49, 64, 81, 256}; anything else falls back to the
lexicographically smallest primitive polynomial, comparing coefficient
tuples low-degree-first.  The search runs on poly.py's arithmetic over
PrimeField(p) and accepts f when x has order p^d - 1 modulo f.  Other
moduli are passed to FieldTower(p, m, modulus) directly.  Both routes
refuse m < 1, then sizes above the 2^24 cap before any primality test or
table, then a composite p.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import (
    FieldTooLargeError,
    NoPrimitivePolynomialError,
    NotPrimeError,
)
from .poly import ZechLogs, poly_mod, poly_powmod

#: Hard cap on q^2 so the exp/log tables stay in memory.  Measured build
#: time, resident and peak RSS: q = 4096 (the cap) 3.9 s, 0.82 / 1.07 GB;
#: q = 2048 0.8 s, 0.23 / 0.29 GB; q = 3^7 1.6 s, 0.26 / 0.34 GB (one core
#: of a 2-core Xeon, Python 3.11, numpy 2.4).
MAX_FIELD_SIZE = 1 << 24

# Conway polynomials, keyed by field size p^(2m), coefficients
# low-degree-first including the leading 1.
CONWAY_POLYNOMIALS = {
    4: (1, 1, 1),
    9: (2, 2, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 4, 1),
    49: (3, 6, 1),
    64: (1, 1, 0, 1, 1, 0, 1),
    81: (2, 0, 0, 2, 1),
    256: (1, 0, 1, 1, 1, 0, 0, 0, 1),
}


def factorize(n: int) -> dict:
    """Prime factorization by trial division, {prime: exponent}."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return factorize(n) == {n: 1}


def prime_power(q: int) -> tuple[int, int]:
    """Split q = p^m, raising NotPrimeError if q is not a prime power."""
    if q < 2:
        raise NotPrimeError(f"{q} is not a prime power")
    fac = factorize(q)
    if len(fac) != 1:
        raise NotPrimeError(f"{q} is not a prime power")
    [(p, m)] = fac.items()
    return p, m


class PrimeField:
    """GF(p) on the ints 0 .. p - 1, with the Zech table poly.py asks of a field."""

    def __init__(self, p: int) -> None:
        self.p = p
        self.zech = _prime_zech(p)


@functools.lru_cache(maxsize=16)
def _prime_zech(p: int) -> ZechLogs:
    """Logs of GF(p) to its least primitive root.  The cache holds the last
    few p, so a modulus search builds its table once without a table
    staying behind for every prime searched."""
    gamma = next(
        g for g in range(1, p) if all(pow(g, (p - 1) // r, p) != 1 for r in factorize(p - 1))
    )
    powers = [1]
    while len(powers) < p - 1:
        powers.append(powers[-1] * gamma % p)
    return ZechLogs(p, powers, [(x + 1) % p for x in powers])


def is_primitive(f, p: int) -> bool:
    """f, monic of degree d over GF(p), is irreducible and x generates GF(p^d)*.

    Decided by the order of x alone (Lidl-Niederreiter, ch. 3): if x is a
    unit with x^(p^d) = x and x^((p^d - 1)/r) != 1 for every prime r | p^d - 1,
    then x has order p^d - 1, so all p^d - 1 nonzero residues mod f are
    units, GF(p)[x]/(f) is a field and f is irreducible.  A separate
    irreducibility test (Rabin's) would reject nothing more.
    """
    gf, f, d = PrimeField(p), tuple(f), len(f) - 1
    x = poly_mod(gf, (0, 1), f)
    if f[0] == 0 or poly_powmod(gf, x, p ** d, f) != x:  # f(0) = 0: x is no unit
        return False
    order = p ** d - 1
    return all(poly_powmod(gf, x, order // r, f) != (1,) for r in factorize(order))


def smallest_primitive(p: int, d: int) -> tuple[int, ...]:
    """Lexicographically smallest monic primitive polynomial of degree d.

    Only tails whose (-1)^d * f(0), the norm of a root, generates GF(p)*
    are tested: no other f can be primitive.
    """
    for f0 in range(1, p):
        norm = (-1) ** d * f0 % p
        if all(pow(norm, (p - 1) // r, p) != 1 for r in factorize(p - 1)):
            for rest in itertools.product(range(p), repeat=d - 1):
                if is_primitive((f0, *rest, 1), p):
                    return (f0, *rest, 1)
    raise NoPrimitivePolynomialError(f"no primitive polynomial of degree {d} over GF({p})")


# Packed digit vectors: each base-p digit takes a field of c bits in a uint64
# word.  The tower tables below and the weight sweep share this arithmetic.

def digit_bits(p: int) -> int:
    """Bits per packed GF(p) digit: 1 for p = 2, else room for a sum of two."""
    return 1 if p == 2 else (2 * p - 2).bit_length()


def packed_add(p: int, c: int, fields: int):
    """add(a, b, out, tmp): digitwise a + b mod p on words of `fields` c-bit digits.

    Writes the sum to out (which may be a) and overwrites tmp; callers
    preallocate both, as fresh temporaries cost page faults.  The digits
    add by XOR for p = 2; for odd p they add as integers without carrying
    into each other, and p is subtracted from every digit that reached p.
    """
    if p == 2:
        return lambda a, b, out, tmp: np.bitwise_xor(a, b, out=out)
    ones = sum(1 << (i * c) for i in range(fields))
    bias, shift = np.uint64(((1 << (c - 1)) - p) * ones), np.uint64(c - 1)
    ones, p = np.uint64(ones), np.uint64(p)

    def add(a, b, out, tmp):
        # a field's top bit after adding 2^(c-1) - p is set iff its sum is >= p
        np.add(a, b, out=out)
        np.add(out, bias, out=tmp)
        tmp >>= shift
        tmp &= ones
        tmp *= p
        out -= tmp

    return add


def packed_span(add, multiples, nw):
    """All sums picking one column of each (nw, k_i) array: (nw, prod k_i)
    packed words, the first array's pick varying slowest."""
    acc = np.zeros((nw, 1), dtype=np.uint64)
    for mult in multiples:
        shape = (nw, acc.shape[1], mult.shape[1])
        out, tmp = np.empty(shape, dtype=np.uint64), np.empty(shape, dtype=np.uint64)
        add(acc[:, :, None], mult[:, None, :], out, tmp)
        acc = out.reshape(nw, -1)
    return acc


def _check_tower(p: int, m: int) -> None:
    """Refuse m < 1, GF(p^(2m)) above the 2^24 cap and a composite p."""
    if m < 1:
        raise ValueError(f"extension degree m must be >= 1, got {m}")
    # the size check comes first: it is instant, the primality test is not
    if 2 * m > 24 or p ** (2 * m) > MAX_FIELD_SIZE:
        raise FieldTooLargeError(f"GF({p}^{2 * m}) exceeds the table cap of 2^24 elements")
    if not is_prime(p):
        raise NotPrimeError(f"characteristic {p} is not prime")


class FieldTower:
    """The pair (GF(q), GF(q^2)) with a fixed primitive element beta.

    Instances are immutable after construction; every operation is pure,
    so a tower can be shared freely across threads or worker processes.

    Attributes:
        p: prime characteristic.
        m: extension degree of GF(q) over GF(p); q = p^m.
        q, q2: field cardinalities.
        modulus: primitive modulus of GF(q^2) over GF(p), low-degree-first.
        beta: code of the primitive element (residue class of the variable).
        exp, log: discrete log tables; exp[i] is the code of beta^i.
        subfield: sorted codes of the q elements of GF(q), which are 0 and
            the powers of beta^(q+1).
        zech: GF(q) as logs to beta^(q+1), the arithmetic of poly.py.
    """

    def __init__(self, p: int, m: int, modulus) -> None:
        _check_tower(p, m)
        self.p = p
        self.m = m
        self.q = p ** m
        self.q2 = self.q ** 2
        self.ext_degree = 2 * m
        self.modulus = tuple(int(c) % p for c in modulus)
        if len(self.modulus) != self.ext_degree + 1 or self.modulus[-1] != 1:
            raise ValueError(
                f"modulus must be monic of degree {self.ext_degree} over GF({p})"
            )
        self._build_tables()
        self.beta = self.exp[1]
        gammas = self.exp[:: self.q + 1]
        self.subfield = tuple(sorted([0] + gammas))
        self.zech = ZechLogs(p, gammas, [self.add(1, c) for c in gammas])

    # -- construction -------------------------------------------------

    def _build_tables(self) -> None:
        p, d, n, c = self.p, self.ext_degree, self.q2 - 1, digit_bits(self.p)
        per = max(1, 8 // c)  # digits per lookup group: 8 bits' worth, or one digit
        groups, width, digit = -(-d // per), per * c, (1 << c) - 1
        add, mask = packed_add(p, c, d), (1 << width) - 1
        shifts = np.arange(d, dtype=np.uint64) * c

        def times_x(v):  # reduce by x^d = -modulus[:d]
            return [(a - v[-1] * f) % p for a, f in zip([0] + v[:-1], self.modulus)]

        # exp[:size] holds beta^0 .. beta^(size-1) packed, and power is beta^size;
        # each pass doubles size by one GF(p)-linear map, multiplication by beta^size
        exp = np.empty(n, dtype=np.uint64)
        exp[0], size, power = 1, 1, times_x([1] + [0] * (d - 1))
        tmp = np.empty(n // 2 + 1, dtype=np.uint64)
        while size < n:
            basis = np.zeros((groups * per, d), dtype=np.uint64)  # row j: beta^(size + j)
            for j in range(d):
                basis[j], power = power, times_x(power)
            scalars = np.arange(digit + 1, dtype=np.uint64)[:, None, None]
            mults = (scalars * basis % p << shifts).sum(axis=2).T.reshape(groups, per, -1)
            # tables[t][v]: beta^size times the element whose group-t digits are v
            tables = packed_span(add, [mults[:, k] for k in reversed(range(per))], groups)
            block = exp[: min(size, n - size)]
            out, size = exp[size : size + len(block)], size + len(block)
            np.take(tables[0], block & mask, out=out)
            for t in range(1, groups):
                add(out, tables[t][block >> t * width & mask], out, tmp[: len(out)])
            power = times_x([int(exp[size - 1]) >> (j * c) & digit for j in range(d)])
        del tmp, block, out  # block and out are views that would keep exp alive
        if p > 2:
            exp = sum((exp >> s & digit) * p ** j for j, s in enumerate(shifts))
        log = np.full(n + 1, -1, dtype=np.int64)
        log[exp] = np.arange(n)
        if (log[1:] < 0).any() or power != [1] + [0] * (d - 1):
            raise NoPrimitivePolynomialError(
                f"modulus {self.modulus} over GF({p}) is not primitive"
            )
        self.exp = exp.tolist()
        del exp
        # the log list reuses the exp list's int objects, value v >= 1 being
        # exp[log[v]]; codes 0 (no log) and 1 (log 0) are set by hand
        log = log[log]
        self.log = np.array(self.exp, dtype=object)[log].tolist()
        self.log[:2] = [-1, 0]

    # -- element arithmetic (codes are plain ints) ---------------------

    def check_element(self, a: int) -> int:
        if not 0 <= a < self.q2:
            raise ValueError(f"element code {a} out of range for GF({self.q2})")
        return a

    def add(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        s, mult = 0, 1
        while a or b:
            s += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return s

    def neg(self, a: int) -> int:
        p = self.p
        if p == 2:
            return a
        s, mult = 0, 1
        while a:
            s += (-a % p) * mult
            a //= p
            mult *= p
        return s

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q2 - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self.exp[-self.log[a] % (self.q2 - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    # -- conjugation, trace, subfield ----------------------------------

    def conjugate(self, a: int) -> int:
        """The field automorphism x -> x^q fixing GF(q); an involution."""
        if a == 0:
            return 0
        return self.exp[(self.log[a] * self.q) % (self.q2 - 1)]

    def trace(self, a: int) -> int:
        """Trace of GF(q^2) down to GF(q): x + x^q."""
        return self.add(a, self.conjugate(a))

    def in_subfield(self, a: int) -> bool:
        return self.conjugate(a) == a

    # -- encoding helpers ----------------------------------------------

    def element_str(self, a: int) -> str:
        """Display form: prime-subfield constants as digits, else 'b<k>' for beta^k."""
        if a < self.p:
            return str(a)
        return f"b{self.log[a]}"

    def parse_element(self, token: str) -> int:
        """Inverse of element_str; also accepts plain integer codes."""
        token = token.strip()
        if token.startswith("b"):
            return self.exp[int(token[1:]) % (self.q2 - 1)]
        return self.check_element(int(token))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    def __repr__(self) -> str:
        return f"FieldTower(p={self.p}, m={self.m}, modulus={self.modulus})"


@functools.lru_cache(maxsize=None)
def build_tower(p: int, m: int, /) -> FieldTower:
    """Construct the canonical tower GF(p^m) <= GF(p^(2m)), cached per (p, m).

    The modulus comes from the Conway table when present, else from the
    lexicographically smallest primitive polynomial search.
    """
    _check_tower(p, m)
    modulus = CONWAY_POLYNOMIALS.get(p ** (2 * m)) or smallest_primitive(p, 2 * m)
    return FieldTower(p, m, modulus)


def tower_for_q(q: int) -> FieldTower:
    """Canonical tower for a prime-power subfield size q."""
    if q >= 2 and q * q > MAX_FIELD_SIZE:  # before the trial division in prime_power
        raise FieldTooLargeError(f"GF({q}^2) exceeds the table cap of 2^24 elements")
    p, m = prime_power(q)
    return build_tower(p, m)

