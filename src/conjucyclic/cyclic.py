"""q-ary linear cyclic codes of even length 2n and their dual machinery.

A cyclic code D of length 2n is <g(x)> for a monic divisor g of x^(2n) - 1.
Its generator matrix stacks the right cyclic shifts of the coefficient
vector of g.  The Euclidean dual is generated by shifts of the monic
reciprocal of h = (x^(2n) - 1)/g; applying the half-swap map

    tau(v) = (-v_n, ..., -v_{2n-1}, v_0, ..., v_{n-1})

to those rows turns them into a generator matrix of the symplectic dual.
Codewords are tuples of element codes drawn from the subfield GF(q) of the
ambient tower.

Degenerate divisors are legal and round-trip everywhere: g = x^(2n) - 1
gives the zero code (empty generator matrix) and g = 1 the full space.
"""

from __future__ import annotations

from .errors import LengthMismatchError
from .poly import check_divisor, degree, monic_reciprocal, normalize, poly_mod


def cyclic_shift(v, steps: int = 1):
    """Right cyclic shift: (v[-1], v[0], ..., v[-2]) for steps = 1."""
    n = len(v)
    if n == 0:
        return tuple(v)
    steps %= n
    return tuple(v[n - steps:]) + tuple(v[: n - steps])


def shift_iterates(row, count: int, shift=cyclic_shift) -> list:
    """The count rows row, shift(row), shift(shift(row)), ...; [] for count 0."""
    rows = []
    for _ in range(count):
        rows.append(row)
        row = shift(row)
    return rows


def symplectic_swap(tower, v):
    """Multiply by the block matrix [[0, I], [-I, 0]]: (-v_R, v_L).

    Squares to -identity; over GF(2^k) it simply swaps the two halves.
    """
    if len(v) % 2:
        raise LengthMismatchError("symplectic swap needs an even-length vector")
    n = len(v) // 2
    return tuple(tower.neg(x) for x in v[n:]) + tuple(v[:n])


def euclidean_inner(tower, u, v) -> int:
    if len(u) != len(v):
        raise LengthMismatchError(f"lengths {len(u)} != {len(v)}")
    acc = 0
    for a, b in zip(u, v):
        acc = tower.add(acc, tower.mul(a, b))
    return acc


def symplectic_inner(tower, u, v) -> int:
    """sum_j (u_j v_{m+j} - u_{m+j} v_j) on vectors of even length 2m:
    the Euclidean product of the half-swapped u with v."""
    return euclidean_inner(tower, symplectic_swap(tower, u), v)


class CyclicCode:
    """The q-ary cyclic code <g(x)> of length 2n.

    Attributes:
        tower: ambient FieldTower (codewords live in its subfield GF(q)).
        n: half-length; codewords have length 2n.
        g: monic generator polynomial, a divisor of x^(2n) - 1.
        h: cofactor (x^(2n) - 1) / g.
        h_star: monic reciprocal of h.
        k: deg g.  dim: 2n - k, so the code has q^dim codewords.
    """

    def __init__(self, tower, n: int, g) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.tower = tower
        self.n = n
        self.g, self.h = check_divisor(tower, n, g)
        self.k = degree(self.g)
        self.dim = 2 * n - self.k
        self.h_star = monic_reciprocal(tower, self.h)

    def coefficient_vector(self, poly) -> tuple:
        """Pad a polynomial of degree < 2n out to a length-2n tuple."""
        out = list(poly) + [0] * (2 * self.n - len(poly))
        return tuple(out[: 2 * self.n])

    def generator_matrix(self):
        """(2n - k) x 2n matrix; row i is the i-th shift of the g vector.

        Empty for the zero code g = x^(2n) - 1.
        """
        return shift_iterates(self.coefficient_vector(self.g), self.dim)

    def euclidean_dual_matrix(self):
        """k x 2n generator matrix of the Euclidean dual, shifts of h*."""
        return shift_iterates(self.coefficient_vector(self.h_star), self.k)

    def symplectic_dual_matrix(self):
        """k x 2n generator matrix of the symplectic dual.

        Each Euclidean-dual row passes through the half-swap map; rank
        stays k and every row pairs to zero symplectically with every
        generator row.
        """
        return [
            symplectic_swap(self.tower, row) for row in self.euclidean_dual_matrix()
        ]

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
