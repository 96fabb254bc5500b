"""Additive conjucyclic codes over GF(q^2) and their q-ary cyclic mirrors.

A code C <= GF(q^2)^n is conjucyclic when it is closed under the shift

    T(c) = (conj(c_{n-1}), c_0, ..., c_{n-2}),

the cyclic shift that conjugates the wrapped coordinate.  Writing beta for
the tower's primitive element, every element alpha of GF(q^2) is pinned by
its trace pair (Tr(beta * alpha), Tr(beta^q * alpha)), and expanding a
vector entrywise into trace pairs (first components, then second
components) is a GF(q)-linear bijection of GF(q^2)^n onto GF(q)^{2n} that
turns T into the plain cyclic shift.  GF(q)-linear conjucyclic codes of
length n therefore correspond exactly to q-ary cyclic codes of length 2n,
and this module constructs a conjucyclic code from any monic divisor g of
x^(2n) - 1: its additive generator matrix stacks the T-iterates of the
contraction of the g coefficient vector.

The alternating inner product implemented here is the pullback of the
symplectic form through the expansion, scaled so that

    symplectic(expand(u), expand(v)) == alternating(u, v)

holds identically; for characteristic 2 it coincides with the usual
trace-Hermitian-style form.  The alternating dual is the orbit of one
contracted row under a negated shift T-, and dual containment is decided
here on the mirror's h*: g | h* for p = 2, x^n - 1 or x^n + 1 dividing h*
for odd p.  The largest plain-cyclic subcode is the length-n cyclic code
<g / gcd(g, x^n + 1)>, in closed form.

The mirror's polynomials are Zech log lists of GF(q) from the code's
construction on (cyclic.CyclicCode), and everything above runs on them.
Contraction turns them into GF(q^2) codes by lists of A gamma^k and
-B gamma^k, and expand and contract read q-entry tables of the GF(p)-linear
maps behind them (_linear_maps), so construction builds no GF(q^2) exp/log
table.
"""

from __future__ import annotations

import functools
import weakref

from . import linalg
from .cyclic import CyclicCode, shift_iterates, split
from .errors import LengthMismatchError, OddLengthError
from .field import _linear_tables, _prime_zech


def _inversion_constants(tower):
    """(A, B) with alpha = A * Tr(beta*alpha) - B * Tr(beta^q * alpha)."""
    return _linear_maps(tower)[0][:2]


#: _linear_maps per tower, held weakly, so a dropped tower and its tables are freed
_LINEAR_MAPS = weakref.WeakKeyDictionary()


def _linear_maps(tower) -> tuple:
    """((A, B, A - B), trace, times, scaled), once per tower and with no
    GF(q^2) exp/log table, from GF(p)[x]/(f) on field._prime_zech(p), where
    beta is x and X = x^q mod f is conj(beta).  trace is _linear_tables of
    alpha -> Tr(beta alpha) + q^2 Tr(X alpha), the trace pair packed in one
    code, from Tr(beta^(j+1)) = x^(j+1) + X^(j+1) and Tr(X beta^j) = X x^j +
    x X^j; times, of x -> A x and y -> -B y; scaled, their values at gamma^k
    and at -gamma^k, read by Zech logs k of GF(q).  As conj swaps a trace
    pair, conj(A x - B y) = A y - B x for x, y in GF(q), so -B = conj(A)."""
    maps = _LINEAR_MAPS.get(tower)
    if maps is None:
        p, q, d, add = tower.p, tower.q, tower.ext_degree, tower.add
        z = _prime_zech(p)
        f = z.to_logs(tower.modulus)
        mul = lambda u, v: z.divide(z.product(u, v), z.divisor(f))[1]
        code = lambda u: sum(z.code[t] * p ** i for i, t in enumerate(u))
        beta = [[-1] * j + [0] for j in range(d)]  # beta^j
        x, conj_x, conj_xs = beta[1], z.powmod(beta[1], q, f), [[0]]
        while len(conj_xs) <= d:
            conj_xs.append(mul(conj_xs[-1], conj_x))  # X^j = conj(beta^j)
        a = z.powmod(z.add(x, z.scale(z.powmod(x, 2 * q - 1, f), z.minus_one)), q * q - 2, f)
        neg_b = z.powmod(a, q, f)
        trace = _linear_tables(tower, [
            add(code(mul(x, b)), code(conj_xs[j + 1]))
            + tower.q2 * add(code(mul(conj_x, b)), code(mul(x, conj_xs[j])))
            for j, b in enumerate(beta)
        ])
        times = [_linear_tables(tower, [code(mul(c, b)) for b in beta]) for c in (a, neg_b)]
        la, lb = (_apply(tower, t, tower.zech.code[:-1]) for t in times)
        # indexed by a log in [-1, 2(q - 1)): two periods, and 0 at -1
        scaled = [[(s[k:] + s[:k]) * 2 + [0] for s in (la, lb)] for k in (0, tower.zech.minus_one)]
        a, neg_b = code(a), code(neg_b)
        maps = _LINEAR_MAPS[tower] = (a, tower.neg(neg_b), add(a, neg_b)), trace, times, scaled
    return maps


def _apply(tower, tables, vec) -> list:
    """The map of _linear_tables on each code of vec, a sequence."""
    (low, high), q = tables, tower.q
    return tower.add_rows([low[v % q] for v in vec], [high[v // q] for v in vec])


def trace_pair(tower, alpha: int) -> tuple:
    """(Tr(beta * alpha), Tr(beta^q * alpha)): a GF(q)-linear bijection
    of GF(q^2) onto GF(q)^2; raises ValueError for a code outside it."""
    return expand(tower, (alpha,))


def expand(tower, vec) -> tuple:
    """GF(q^2)^n -> GF(q)^{2n}: first trace-pair components, then second."""
    q2, vec = tower.q2, list(map(tower.check_element, vec))
    pairs = _apply(tower, _linear_maps(tower)[1], vec)
    return tuple(v % q2 for v in pairs) + tuple(v // q2 for v in pairs)


def _contract_logs(tower, firsts, seconds, negate: bool) -> tuple:
    """(row, twisted) from Zech logs of GF(q) in [-1, 2(q - 1)), -1 for
    zero: row[i] is A x - B y for x = gamma^firsts[i], y = gamma^seconds[i],
    and twisted[i] is conj(row[i]) = A y - B x, or its negative if negate."""
    scaled, add = _linear_maps(tower)[3], tower.add_rows
    (la, lb), (ta, tb) = scaled[0], scaled[negate]
    row = add([la[t] for t in firsts], [lb[t] for t in seconds])
    return tuple(row), tuple(add([ta[t] for t in seconds], [tb[t] for t in firsts]))


def contract(tower, vec) -> tuple:
    """Inverse of expand; raises OddLengthError on odd-length input and
    ValueError for an entry outside GF(q^2)."""
    if len(vec) % 2:
        raise OddLengthError("contract needs an even-length q-ary vector")
    n, times = len(vec) // 2, _linear_maps(tower)[2]
    vec = list(map(tower.check_element, vec))
    return tuple(tower.add_rows(_apply(tower, times[0], vec[:n]), _apply(tower, times[1], vec[n:])))


def conjucyclic_shift(tower, vec) -> tuple:
    """T: right cyclic shift conjugating the wrapped coordinate."""
    if not vec:
        return tuple(vec)
    return (tower.conjugate(vec[-1]),) + tuple(vec[:-1])


def alternating_inner(tower, u, v) -> int:
    """(beta^2 - beta^{2q}) * sum_i (u_i conj(v_i) - conj(u_i) v_i).

    GF(q)-bilinear and alternating; its scale is pinned by the identity
    symplectic(expand(u), expand(v)) == alternating(u, v).
    """
    if len(u) != len(v):
        raise LengthMismatchError(f"lengths {len(u)} != {len(v)}")
    scale = tower.sub(tower.power(2), tower.power(2 * tower.q))
    acc = 0
    for a, b in zip(u, v):
        acc = tower.add(acc, tower.mul(a, tower.conjugate(b)))
        acc = tower.sub(acc, tower.mul(tower.conjugate(a), b))
    return tower.mul(scale, acc)


def is_conjucyclic(tower, rows) -> bool:
    """True when the GF(q)-span of the rows is closed under the shift T."""
    rows = [tuple(r) for r in rows]
    if not rows:
        return True
    basis, pivots = linalg.rref(tower, [expand(tower, r) for r in rows])
    return all(
        linalg.in_span(tower, basis, pivots, expand(tower, conjucyclic_shift(tower, r)))
        for r in rows
    )


def _dual_logs(code) -> list:
    """tau(h*), the first row of the mirror's symplectic dual, as logs: h*
    padded with zeros (-1) or truncated to 2n entries as coefficient_vector
    does."""
    n, z = code.n, code.tower.zech
    v = (code.cyclic.h_star_logs + [-1] * (2 * n))[: 2 * n]
    return z.scale(v[n:], z.minus_one) + v[:n]


def is_alternating_dual_containing(code) -> bool:
    """Whether the alternating dual is contained in the code, decided on h*.

    The mirror's symplectic dual has the rows tau(x^i h*), and with sigma
    negating the upper half, tau(v) = x^n sigma(v) mod x^(2n) - 1.  For
    p = 2, sigma is the identity and every row is a ring multiple of the
    first, x^n h*; x^n is a unit mod g (g divides x^(2n) - 1), so the test
    is g | h*, which needs deg g <= deg h* = 2n - deg g, so k <= n.  For
    odd p, split by CRT over the coprime x^n - 1 and x^n + 1, g = g- g+
    and h = h- h+ with g- h- = x^n - 1: sigma swaps the two components, so
    all rows lie in <g> exactly when g- = 1 or g+ = 1, that is when g
    divides x^n + 1 or x^n - 1.  As g h = x^(2n) - 1, g | x^n + 1 exactly
    when x^n - 1 divides h, or h* (x^n - 1 is its own monic reciprocal),
    and likewise for x^n - 1: two remainders by binomials x^n -/+ 1.
    """
    z, n, h = code.tower.zech, code.n, code.cyclic.h_star_logs
    if z.p == 2:
        return code.k <= n and not z.divide(list(h), code.cyclic.g_divisor)[1]
    return any(not z.divide(list(h), z.divisor(z.binomial(n, c)))[1] for c in (z.minus_one, 0))


def largest_cyclic_subcode(code):
    """Basis of the largest q-ary cyclic code inside a conjucyclic code.

    On the mirror side the subcode is the set of words (a, a) =
    a(x)(1 + x^n) in <g>, the length-n cyclic code <g1>, g1 =
    g / gcd(g, x^n + 1) from cyclic.split.  Row i of the basis is the word
    of <g1> equal to 1 at position s + i (mod n) and 0 at the other k1 - 1
    positions of that block, where d1 = deg g1, k1 = n - d1 and
    s = (dim - k1) mod n; this is the canonical basis that elimination on
    the expanded generator rows yields.  Row i is
    x^(d1 + i) - (x^(d1 + i) mod g1), rotated right by s - d1, and scaled
    by contract((1, 1)), the GF(q) constant that maps (a, a) back to a
    vector over GF(q^2); each entry is written straight to its rotated
    position.  The remainders are one register stepped in place, on the
    logs of g: x^(d1 + i + 1) mod g1 is x * (x^(d1 + i) mod g1) with the
    coefficient c shifted out to x^d1 replaced by -c (g1 - x^d1).
    """
    tower, n, z = code.tower, code.n, code.tower.zech
    q1 = z.q1
    g1 = split(tower, n, code.cyclic.g_logs)[0]
    d1 = len(g1) - 1
    k1 = n - d1
    s = (code.card_log_q - k1) % n
    scale = _linear_maps(tower)[0][2]
    log_neg_scale = (z.log[scale] + z.minus_one) % q1
    # g1 is monic, so its divisor terms are (j, log(-g1_j)), and x^d1 mod g1
    # is g1 - x^d1 negated
    terms = z.divisor(g1)[2]
    rem = z.scale(g1[:-1], z.minus_one)
    rows = []
    for i in range(k1):
        row = [0] * n
        row[(s + i) % n] = scale
        for j, c in enumerate(rem):
            if c >= 0:
                row[(j + s - d1) % n] = z.code[(log_neg_scale + c) % q1]
        rows.append(tuple(row))
        rem.insert(0, -1)
        top = rem.pop()
        if top >= 0:
            z.add_scaled(rem, 0, top % q1, terms)
    return rows


class ConjucyclicCode:
    """The GF(q)-linear conjucyclic code over GF(q^2) attached to a divisor.

    Attributes:
        tower: the ambient field tower.
        n: code length over GF(q^2).
        cyclic: the mirror q-ary cyclic code of length 2n.
        g: monic generator polynomial of the mirror (divisor of x^(2n)-1).
        gen_matrix: additive generator matrix; (2n - deg g) rows in
            GF(q^2)^n, the T-iterates of the contracted g vector.  Its
            GF(q)-row-span is the code, of size q^(2n - deg g).
    """

    def __init__(self, tower, n: int, g) -> None:
        self.tower = tower
        self.n = n
        self.cyclic = CyclicCode(tower, n, g)
        self.g = self.cyclic.g
        self.card_log_q = self.cyclic.dim

    @functools.cached_property
    def gen_matrix(self) -> list:
        """Built on first use (see the class docstring): weight enumeration,
        dual containment and the stabilizer parameters never read it."""
        tower, n, v = self.tower, self.n, self.cyclic.g_logs + [-1] * (2 * self.n)
        row, conj = _contract_logs(tower, v[:n], v[n : 2 * n], False)
        return shift_iterates(row, self.card_log_q, conj)

    @property
    def k(self) -> int:
        """deg g (not the dimension 2n - deg g): the alternating dual's rows."""
        return self.cyclic.k

    def alternating_dual_matrix(self):
        """Additive generator matrix of the alternating dual, of size q^(deg g).

        Row i is the contraction of the mirror's symplectic-dual row
        tau(x^i h*), built as the T- iterates of row 0 = contract(tau(h*)),
        where T-(c) = (-conj(c_{n-1}), c_0, ..., c_{n-2}).  Shifting v by x
        and then applying tau gives tau(v) shifted cyclically with the
        entries landing at positions 0 and n negated; contract turns that
        twisted shift into T-.  So the dual is closed under T-, and under T
        in general only in characteristic 2, where T- = T.
        """
        tower, n, r = self.tower, self.n, _dual_logs(self)
        first, twisted = _contract_logs(tower, r[:n], r[n:], True)
        return shift_iterates(first, self.k, twisted)

    def largest_cyclic_subcode(self):
        """Basis of the largest q-ary cyclic code contained in this code."""
        return largest_cyclic_subcode(self)

    def to_json(self) -> dict:
        return {
            "q": self.tower.q,
            "n": self.n,
            "g": list(self.g),
            "genMatrix": [list(r) for r in self.gen_matrix],
            "dualMatrix": [list(r) for r in self.alternating_dual_matrix()],
        }

    def __repr__(self) -> str:
        return (
            f"ConjucyclicCode(q2={self.tower.q2}, n={self.n}, "
            f"log_q_size={self.card_log_q})"
        )
