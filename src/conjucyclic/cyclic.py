"""q-ary linear cyclic codes of even length 2n and their dual machinery.

A cyclic code D of length 2n is <g(x)> for a monic divisor g of x^(2n) - 1.
Its words are the multiples of g, spanned by the right cyclic shifts of
the coefficient vector of g.  The Euclidean dual is generated by shifts of
the monic reciprocal of h = (x^(2n) - 1)/g; applying the half-swap map

    tau(v) = (-v_n, ..., -v_{2n-1}, v_0, ..., v_{n-1})

to those rows turns them into a generator matrix of the symplectic dual.
Codewords are tuples of element codes drawn from the subfield GF(q) of the
ambient tower.  A code works g, its prepared divisor and h* out once, at
construction, as Zech log lists of GF(q) (poly.ZechLogs), which conju.py's
questions run on; the tuples g, h and h_star are their codes.

Degenerate divisors are legal and round-trip everywhere: g = x^(2n) - 1
gives the zero code (no generator rows) and g = 1 the full space.
"""

from __future__ import annotations

from .errors import LengthMismatchError
from .poly import check_divisor, normalize, poly_mod


def shift_iterates(row, count: int, twisted=None) -> list:
    """The first count iterates row, S(row), S(S(row)), ... of the twisted
    right shift S(v) = (twist(v_{m-1}), v_0, ..., v_{m-2}); [] for count 0.

    twisted is the tuple twist(row), for a twist that maps one entry and
    is an involution (None: the identity, so S is the plain cyclic shift).
    Then S^m applies twist to every entry and S^(2m) is the identity, so
    for i <= 2m the row S^i(v) is the window [2m - i, 3m - i) of
    v + twist(v) + v.
    """
    m = len(row)
    assert count <= 2 * m, f"{count} iterates of a length-{m} row"
    window = row + (row if twisted is None else twisted) + row
    return [window[2 * m - i : 3 * m - i] for i in range(count)]


def split(tower, n, f) -> tuple:
    """(f / gcd(f, x^n + 1), gcd(f, x^n + 1)) for a log list f of tower.zech
    dividing x^(2n) - 1: the generators of the length-n codes B0 and A for
    p = 2 and, as x^n -/+ 1 are coprime for odd p, A- = <gcd(f, x^n - 1)>
    and A+ (see the weights module docstring)."""
    z = tower.zech
    plus = z.gcd(f, z.binomial(n, 0))
    return z.divmod(f, plus)[0], plus


def symplectic_swap(tower, v):
    """Multiply by the block matrix [[0, I], [-I, 0]]: (-v_R, v_L).

    Squares to -identity; over GF(2^k) it simply swaps the two halves.
    """
    if len(v) % 2:
        raise LengthMismatchError("symplectic swap needs an even-length vector")
    n = len(v) // 2
    return tuple(tower.neg(x) for x in v[n:]) + tuple(v[:n])


class CyclicCode:
    """The q-ary cyclic code <g(x)> of length 2n.

    Attributes:
        tower: ambient FieldTower (codewords live in its subfield GF(q)).
        n: half-length; codewords have length 2n.
        g: monic generator polynomial, a divisor of x^(2n) - 1.
        h: cofactor (x^(2n) - 1) / g.
        h_star: monic reciprocal of h.
        g_logs, h_star_logs: g and h* as log lists of tower.zech.
        g_divisor: g prepared for ZechLogs.divide.
        k: deg g.  dim: 2n - k, so the code has q^dim codewords.
    """

    def __init__(self, tower, n: int, g) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        z = tower.zech
        self.tower = tower
        self.n = n
        self.g_logs, self.g_divisor, h = check_divisor(tower, n, g)
        self.k = len(self.g_logs) - 1
        self.dim = 2 * n - self.k
        # the monic reciprocal; h(0) != 0 as h divides x^(2n) - 1
        self.h_star_logs = z.monic(h[::-1])
        self.g, self.h, self.h_star = map(z.to_codes, (self.g_logs, h, self.h_star_logs))

    def coefficient_vector(self, poly) -> tuple:
        """Pad a polynomial of degree < 2n out to a length-2n tuple."""
        out = list(poly) + [0] * (2 * self.n - len(poly))
        return tuple(out[: 2 * self.n])

    def symplectic_dual_matrix(self):
        """k x 2n generator matrix of the symplectic dual: row i is
        tau(x^i h*), the half-swap of the i-th shift of h*."""
        rows = shift_iterates(self.coefficient_vector(self.h_star), self.k)
        return [symplectic_swap(self.tower, row) for row in rows]

    def contains(self, vec) -> bool:
        """Membership: every entry lies in GF(q) and g divides the word's
        polynomial.  Raises ValueError for a code outside [0, q^2)."""
        if len(vec) != 2 * self.n:
            raise LengthMismatchError(
                f"codewords have length {2 * self.n}, got {len(vec)}"
            )
        if min(vec) < 0 or max(vec) >= self.tower.q2:
            raise ValueError(f"element codes must lie in [0, {self.tower.q2})")
        if not all(map(self.tower.in_subfield, vec)):
            return False
        return not poly_mod(self.tower, normalize(vec), self.g)

    def __repr__(self) -> str:
        return (
            f"CyclicCode(q={self.tower.q}, length={2 * self.n}, "
            f"deg_g={self.k}, dim={self.dim})"
        )
