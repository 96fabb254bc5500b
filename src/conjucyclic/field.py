"""Finite field towers GF(p) <= GF(q) <= GF(q^2) with exact table arithmetic.

The quadratic extension GF(q^2), q = p^m, is GF(p)[x]/(f) for a fixed
primitive modulus f of degree 2m.  Elements are integer codes: the base-p
digits of the code are the coordinates of the element on the power basis
1, beta, ..., beta^(2m-1), little-endian, so code 0 is the zero element and
code p is beta itself.  Multiplicative structure lives in exp/log tables of
size q^2 - 1, flat array('i') tables built once, on the first GF(q^2)
operation: without numpy by the recurrence exp[i + 1] = beta exp[i] up to
q^2 = 2^18, and above it by numpy a coset of GF(q)* at a time: row j of
exp is gamma^j beta^0 .. gamma^j beta^q, the row before times gamma
(q^2 = 2^24: 0.9-1.1 s, 0.17 GB peak RSS).  Only FieldTower's element
arithmetic and element_str read them, and packed.coset_tables fills them
above 2^18; neither a weight sweep nor construction reads them, as both
read O(q)-entry tables (packed._subfield_tables, conju._linear_maps).
Element addition and negation are digitwise mod p on the codes;
polynomials over GF(q) use the tower's Zech table of GF(q) instead
(poly.ZechLogs, q - 1 entries).

The subfield GF(q) is 0 and the q - 1 powers of gamma = beta^(q+1), which
the constructor steps out on codes mod f without the GF(q^2) tables, by
the same map v -> gamma v, so a tower that only factors x^(2n) - 1 never
builds them (q = 4096: 0.02 s, its modulus search included).  Membership
in GF(q) and the display of its elements read the Zech table.

The canonical tower is a pure function of (p, m), so that constructions
are reproducible bit for bit: a built-in table of Conway polynomials covers
p^(2m) in {4, 9, 16, 25, 49, 64, 81, 256}; anything else falls back to the
lexicographically smallest primitive polynomial, comparing coefficient
tuples low-degree-first.  The search runs on poly.ZechLogs over GF(p),
logs to the least primitive root, and accepts f when x has order p^d - 1
modulo f.  Other moduli are passed to FieldTower(p, m, modulus) directly.
Both routes refuse m < 1, then sizes above the 2^24 cap before any
primality test or table, then a composite p, and the constructor refuses a
modulus that is_primitive rejects; the table builders check it again.
"""

from __future__ import annotations

import functools
import itertools
import operator
import threading
from array import array

from .errors import (
    FieldTooLargeError,
    NoPrimitivePolynomialError,
    NotPrimeError,
)
from .poly import ZechLogs

#: Hard cap on q^2 so the GF(q^2) tables fit in memory.  Up to
#: PURE_TABLE_SIZE the tables come from the pure-Python recurrence, above it
#: from numpy's coset rows.  A tower and its tables in a fresh process,
#: imports (numpy's too) included, pure against numpy (numpy's doubling
#: before it in parentheses): q = 1024 0.42 against 0.15 s (0.21); q = 3^7
#: 1.36 against 0.43 s (0.98); prime q = 2039 3.3 against 0.31 s (0.40; the
#: p^2-entry low table at d = 2); q = 4096, the cap, 5.2 against 0.96 s (1.6)
#: at 0.15 against 0.17 GB peak RSS (0.34), on a 2-core Xeon, Python 3.11,
#: numpy 2.4.  So above 2^18 numpy's route is the faster for every p
#: measured; at q = 512 the pure route takes 0.11 s, and keeps numpy's
#: import (0.15 s) off the commands that build no sweep.
MAX_FIELD_SIZE = 1 << 24
PURE_TABLE_SIZE = 1 << 18
_TABLES_LOCK = threading.Lock()

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
    z, d = _prime_zech(p), len(f) - 1
    if f[0] == 0:  # x is no unit
        return False
    f = z.to_logs(f)
    x = z.divmod([-1, 0], f)[1]
    if z.powmod(x, p ** d, f) != x:
        return False
    order = p ** d - 1
    return all(z.powmod(x, order // r, f) != [0] for r in factorize(order))


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


def _check_tower(p: int, m: int) -> None:
    """Refuse m < 1, GF(p^(2m)) above the 2^24 cap and a composite p."""
    if m < 1:
        raise ValueError(f"extension degree m must be >= 1, got {m}")
    # the size check comes first: it is instant, the primality test is not
    if 2 * m > 24 or p ** (2 * m) > MAX_FIELD_SIZE:
        raise FieldTooLargeError(f"GF({p}^{2 * m}) exceeds the table cap of 2^24 elements")
    if not is_prime(p):
        raise NotPrimeError(f"characteristic {p} is not prime")


def _times_x(v, p, f) -> list:
    """beta v on the digit list v: shifted up one place, reduced by x^d = -f[:d]."""
    return [(a - v[-1] * fj) % p for a, fj in zip([0] + v[:-1], f)]


def _gamma_tables(tower) -> list:
    """_linear_tables of v -> gamma v, gamma = beta^(q+1), from gamma = x^(q+1)
    mod f in GF(p)[x] and its shifts gamma beta^j.  Reads p, ext_degree and
    modulus alone (FieldTower.add reads p), so the table builders run on any
    namespace of those fields."""
    p, d, f = tower.p, tower.ext_degree, tower.modulus
    z, images = _prime_zech(p), []
    col = list(z.to_codes(z.powmod([-1, 0], p ** (d // 2) + 1, z.to_logs(f))))
    col += [0] * (d - len(col))
    for _ in range(d):  # col is gamma beta^j
        images.append(sum(a * p ** i for i, a in enumerate(col)))
        col = _times_x(col, p, f)
    return _linear_tables(tower, images)


def _linear_tables(tower, images) -> list:
    """(low, high), q entries each, for the GF(p)-linear map L with L(beta^j)
    = images[j], j < 2m: L(v) is low[v % q] plus high[v // q], as low is
    spanned by the images of v's low m digits and high by those of its high
    m.  An image may have more digits than 2m (two codes packed as a + q^2 b,
    say), as digitwise addition adds every digit."""
    p, m, add = tower.p, tower.ext_degree // 2, functools.partial(FieldTower.add, tower)
    tables = []
    for half in (images[:m], images[m:]):
        table = [0]
        for image in half:  # table spans the images before; add each multiple of this one
            mults = itertools.accumulate([image] * (p - 1), add, initial=0)
            table = [add(y, x) for x in mults for y in table]
        tables.append(table)
    return tables


class _Table:
    """FieldTower._exp or _log: on the first read, the build of both tables.

    A descriptor without __set__, so the instance attributes the build sets
    are found first from then on, and a table read costs what a plain
    attribute read does (a __getattr__ hook instead would slow every
    attribute read of a tower).
    """

    def __set_name__(self, owner, name) -> None:
        self.name = name

    def __get__(self, tower, owner=None):
        if tower is None:
            return self
        with _TABLES_LOCK:  # one build; a reader that found _exp waits for _log here
            if "_log" not in vars(tower):
                tower._exp, tower._log = tower._build_tables()
        return vars(tower)[self.name]


class FieldTower:
    """The pair (GF(q), GF(q^2)) with a fixed primitive element beta.

    The tables are built once, on first use, and a concurrent first use
    is safe; every operation is pure, so a tower can be shared freely
    across threads or worker processes.

    Attributes:
        p: prime characteristic.
        m: extension degree of GF(q) over GF(p); q = p^m.
        q, q2: field cardinalities.
        modulus: primitive modulus of GF(q^2) over GF(p), low-degree-first.
        beta: code of the primitive element (residue class of the variable).
        _exp, _log: private array('i') log tables (_exp[i] is beta^i,
            _log[0] = -1), built on first read, by the element arithmetic
            (mul, power, conjugate, ...) or by element_str outside GF(q),
            their only readers; packed.coset_tables fills them above 2^18
            through numpy views.
        subfield: sorted codes of the q elements of GF(q), which are 0 and
            the powers of beta^(q+1).
        zech: GF(q) as logs to beta^(q+1), the arithmetic of poly.py.
    """

    _exp, _log = _Table(), _Table()

    def __init__(self, p: int, m: int, modulus) -> None:
        _check_tower(p, m)
        self.p = p
        self.m = m
        self.q = p ** m
        self.q2 = self.q ** 2
        self.ext_degree = 2 * m
        self.modulus = tuple(operator.index(c) % p for c in modulus)
        if len(self.modulus) != self.ext_degree + 1 or self.modulus[-1] != 1:
            raise ValueError(
                f"modulus must be monic of degree {self.ext_degree} over GF({p})"
            )
        if not is_primitive(self.modulus, p):
            raise NoPrimitivePolynomialError(
                f"modulus {self.modulus} over GF({p}) is not primitive"
            )
        self.beta = p  # the code of x: digit 1 in place 1
        gammas = self._subfield_powers()
        self.subfield = tuple(sorted([0] + gammas))
        # 1 + c differs from c in the lowest digit only
        self.zech = ZechLogs(p, gammas, [c - c % p + (c + 1) % p for c in gammas])

    # -- construction -------------------------------------------------

    def _subfield_powers(self) -> list:
        """Codes of gamma^0 .. gamma^(q-2), two _gamma_tables lookups a step."""
        (low, high), q, add = _gamma_tables(self), self.q, self.add
        powers, v = [0] * (q - 1), 1
        for i in range(q - 1):
            powers[i] = v
            v = add(low[v % q], high[v // q])
        return powers

    def _build_tables(self) -> tuple:
        """exp and log by exp[i + 1] = beta exp[i]; above PURE_TABLE_SIZE by numpy's coset rows.

        beta v is v's digits shifted up one place plus -t f, t the digit
        shifted out: two lookups on v = h p^k + lo, as digits 0 .. k of
        beta v depend only on lo and t and the others only on h, which
        holds t (for d = 2, h is t and the second lookup adds 0).
        """
        p, d, f, n = self.p, self.ext_degree, self.modulus, self.q2 - 1
        if self.q2 > PURE_TABLE_SIZE:  # the one place outside a sweep that loads numpy
            from .packed import coset_tables

            leaders = [[1] + [0] * (d - 1)]  # beta^0 .. beta^q
            while len(leaders) <= p ** (d // 2):
                leaders.append(_times_x(leaders[-1], p, f))
            return coset_tables(p, d, f, _gamma_tables(self), leaders)

        def part(t, j0, j1, out):  # digits j0 .. j1 - 1 of beta v, over the digits shifted in
            for j in range(j0, j1):  # digit a - t f_j at place j: col rotated by t f_j
                col, s = range(0, p ** (j + 1), p ** j), t * f[j] % p
                out = [y + z for z in [*col[p - s:], *col[:p - s]] for y in out]
            return out

        k, pk = d // 2, p ** (d // 2)
        rows = [part(t, 1, k + 1, [-t * f[0] % p]) for t in range(p)]
        low = [rows[h // p ** (d - 1 - k)] for h in range(p ** (d - k))]
        high = [y for t in range(p) for y in part(t, k + 1, d, [0])]
        exp, log, v = array("i", [0]) * n, array("i", [-1]) * (n + 1), 1
        for i in range(n):
            exp[i], log[v] = v, i
            v = low[h := v // pk][v % pk] + high[h]
        if v != 1 or log[1] != 0:  # beta^n != 1, or beta^i = 1 for some 0 < i < n
            raise NoPrimitivePolynomialError(f"modulus {f} over GF({p}) is not primitive")
        return exp, log

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
        return a if p == 2 else sum(-(a // p ** i) % p * p ** i for i in range(self.ext_degree))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q2 - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self._exp[-self._log[a] % (self.q2 - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def power(self, k: int) -> int:
        """beta^k for any integer k."""
        return self._exp[k % (self.q2 - 1)]

    def add_rows(self, xs, ys) -> list:
        """Entrywise sums of two rows of codes, by XOR when p = 2."""
        if self.p == 2:
            return [x ^ y for x, y in zip(xs, ys)]
        add = self.add
        return [add(x, y) if x and y else x or y for x, y in zip(xs, ys)]

    # -- conjugation, trace, subfield ----------------------------------

    def conjugate(self, a: int) -> int:
        """The field automorphism x -> x^q fixing GF(q); an involution."""
        if a == 0:
            return 0
        return self._exp[(self._log[a] * self.q) % (self.q2 - 1)]

    def trace(self, a: int) -> int:
        """Trace of GF(q^2) down to GF(q): x + x^q."""
        return self.add(a, self.conjugate(a))

    def in_subfield(self, a: int) -> bool:
        return a in self.zech.log

    # -- encoding helpers ----------------------------------------------

    def element_str(self, a: int) -> str:
        """Display form: prime-subfield constants as digits, else 'b<k>' for
        beta^k; raises ValueError for a code outside GF(q^2)."""
        if self.check_element(a) < self.p:
            return str(a)
        k = self.zech.log.get(a)  # in GF(q), log_beta is (q + 1) log_gamma
        return f"b{self._log[a] if k is None else (self.q + 1) * k}"

    def parse_element(self, token: str) -> int:
        """Inverse of element_str; also accepts plain integer codes."""
        token = token.strip()
        if token.startswith("b"):
            return self.power(int(token[1:]))
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

