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
here by one division, g | tau(h*) on the mirror.  The largest plain-cyclic
subcode is the length-n cyclic code <g / gcd(g, x^n + 1)>, in closed form.
"""

from __future__ import annotations

from . import linalg
from .cyclic import CyclicCode, shift_iterates, symplectic_swap
from .errors import LengthMismatchError, OddLengthError, WrongCharacteristicError
from .poly import degree, poly_divmod, poly_gcd, x_power_remainders


def _inversion_constants(tower):
    """(A, B) with alpha = A * Tr(beta*alpha) - B * Tr(beta^q * alpha)."""
    q, modulus = tower.q, tower.q2 - 1
    a = tower.inv(tower.sub(tower.beta, tower.exp[(2 * q - 1) % modulus]))
    return a, tower.mul(tower.exp[(q - 1) % modulus], a)


def trace_pair(tower, alpha: int) -> tuple:
    """(Tr(beta * alpha), Tr(beta^q * alpha)): a GF(q)-linear bijection
    of GF(q^2) onto GF(q)^2."""
    beta = tower.beta
    return tuple(tower.trace(tower.mul(b, alpha)) for b in (beta, tower.conjugate(beta)))


def expand(tower, vec) -> tuple:
    """GF(q^2)^n -> GF(q)^{2n}: first trace-pair components, then second."""
    pairs = [trace_pair(tower, x) for x in vec]
    return tuple(first for first, _ in pairs) + tuple(second for _, second in pairs)


def contract(tower, vec) -> tuple:
    """Inverse of expand; raises OddLengthError on odd-length input."""
    if len(vec) % 2:
        raise OddLengthError("contract needs an even-length q-ary vector")
    n = len(vec) // 2
    a, b = _inversion_constants(tower)
    return tuple(
        tower.sub(tower.mul(a, first), tower.mul(b, second))
        for first, second in zip(vec[:n], vec[n:])
    )


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
    modulus = tower.q2 - 1
    scale = tower.sub(tower.exp[2 % modulus], tower.exp[(2 * tower.q) % modulus])
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


def _dual_row(code):
    """tau(h*): the first row of the mirror's symplectic dual."""
    mirror = code.cyclic
    return symplectic_swap(code.tower, mirror.coefficient_vector(mirror.h_star))


def is_alternating_dual_containing(code) -> bool:
    """Whether the alternating dual is contained in the code: g | tau(h*).

    The mirror's symplectic dual has the rows tau(x^i h*), and with sigma
    negating the upper half, tau(v) = x^n sigma(v) mod x^(2n) - 1.  For
    p = 2, sigma is the identity and every row is a ring multiple of the
    first, r = tau(h*).  For odd p, split by CRT over the coprime x^n - 1
    and x^n + 1, g = g- g+ and h = h- h+ with g- h- = x^n - 1: sigma swaps
    the two components, so all rows lie in <g> exactly when g- = 1 or
    g+ = 1, that is when g divides x^n + 1 or x^n - 1.  The one test g | r
    forces this: if g- != 1 != g+, then g- divides r mod x^n - 1, which is
    h+* (h-* mod g+*) up to a unit (* the monic reciprocal), so g- divides
    h-* mod g+*, nonzero of degree below deg g+; likewise deg g+ < deg g-.
    """
    return code.cyclic.contains(_dual_row(code))


def largest_cyclic_subcode(code):
    """Basis of the largest q-ary cyclic code inside a conjucyclic code.

    On the mirror side the subcode is the set of words (a, a) =
    a(x)(1 + x^n) in <g>, that is the length-n cyclic code <g1> with
    g1 = g / gcd(g, x^n + 1).  Row i of the basis is the word of <g1>
    equal to 1 at position s + i (mod n) and 0 at the other k1 - 1
    positions of that block, where d1 = deg g1, k1 = n - d1 and
    s = (dim - k1) mod n; this is the canonical basis that elimination on
    the expanded generator rows yields.  Row i is
    x^(d1 + i) - (x^(d1 + i) mod g1), rotated right by s - d1, and scaled
    by contract((1, 1)), the GF(q) constant that maps (a, a) back to a
    vector over GF(q^2); each entry is written straight to its rotated
    position.  The remainders come from one sequence,
    x^(d1 + i + 1) mod g1 = x * (x^(d1 + i) mod g1) mod g1.
    """
    tower, n = code.tower, code.n
    x_n_plus_1 = (1,) + (0,) * (n - 1) + (1,)
    g1, _ = poly_divmod(tower, code.g, poly_gcd(tower, code.g, x_n_plus_1))
    d1 = degree(g1)
    k1 = n - d1
    s = (code.card_log_q - k1) % n
    scale = contract(tower, (1, 1))[0]
    neg_scale, mul = tower.neg(scale), tower.mul
    rows = []
    for i, rem in enumerate(x_power_remainders(tower, g1, d1, k1)):
        row = [0] * n
        row[(s + i) % n] = scale
        for j, c in enumerate(rem):
            row[(j + s - d1) % n] = mul(neg_scale, c)
        rows.append(tuple(row))
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
        g_row = contract(tower, self.cyclic.coefficient_vector(self.g))
        self.gen_matrix = shift_iterates(g_row, self.card_log_q, tower.conjugate)

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
        neg, conj = self.tower.neg, self.tower.conjugate
        first = contract(self.tower, _dual_row(self))
        return shift_iterates(first, self.k, lambda x: neg(conj(x)))

    def trace_dual_matrix(self):
        """Basis of the trace dual {v : Tr(<u, v>_e) = 0 for all u in C}.

        Characteristic 2 only: there the alternating form reduces to
        Tr(sum u_i conj(v_i)) up to a nonzero scale, so conjugating every
        entry of the alternating dual basis yields the trace dual.  For
        q = 2 the conjugation is the coordinatewise squaring map.
        """
        if self.tower.p != 2:
            raise WrongCharacteristicError("the trace dual needs characteristic 2")
        conj = self.tower.conjugate
        return [tuple(map(conj, row)) for row in self.alternating_dual_matrix()]

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
