"""Slow, obviously-correct reference computations used as test oracles.

Everything here enumerates explicitly, one scalar field operation at a
time, and deliberately avoids the library's vectorized kernels and
elimination shortcuts so that agreement is meaningful.
"""

from __future__ import annotations

import itertools


def span(tower, rows, length):
    """All GF(q)-linear combinations of the rows, as a set of tuples."""
    words = {tuple([0] * length)}
    for row in rows:
        words = {
            tuple(tower.add(x, tower.mul(k, y)) for x, y in zip(word, row))
            for word in words
            for k in tower.subfield
        }
    return words


def rank(tower, rows) -> int:
    """Rank of the rows, by exact elimination."""
    from conjucyclic import linalg

    return len(linalg.rref(tower, rows)[0])


def same_span(tower, rows_a, rows_b) -> bool:
    """Mutual membership test: the two row spaces coincide."""
    from conjucyclic import linalg

    basis_a, piv_a = linalg.rref(tower, rows_a)
    basis_b, piv_b = linalg.rref(tower, rows_b)
    if len(basis_a) != len(basis_b):
        return False
    return all(linalg.in_span(tower, basis_a, piv_a, r) for r in rows_b) and all(
        linalg.in_span(tower, basis_b, piv_b, r) for r in rows_a
    )


def divisor_codes(pairs):
    """The conjucyclic code of every divisor of x^(2n) - 1, per (q, n)."""
    from conjucyclic import ConjucyclicCode, enumerate_divisors, factor_x2n_minus_1, tower_for_q

    for q, n in pairs:
        tower = tower_for_q(q)
        for _, g in enumerate_divisors(factor_x2n_minus_1(tower, n)):
            yield ConjucyclicCode(tower, n, g)


def span_counts(tower, rows, n, workers):
    """Hamming weight histogram over the GF(q)-span of the rows, by the
    packed sweep on the full span: no shortening and no lift.

    The rows must be GF(q)-independent so that messages and words are in
    bijection.
    """
    from conjucyclic import weights

    return weights._sweep(tower, weights._multiples(tower, rows, n), n, workers)


def hamming_weight(vec):
    return sum(1 for x in vec if x)


def symplectic_weight(vec):
    m = len(vec) // 2
    return sum(1 for j in range(m) if vec[j] or vec[m + j])


def weight_histogram(words, length, weight_fn):
    counts = [0] * (length + 1)
    for word in words:
        counts[weight_fn(word)] += 1
    return counts


def min_positive_weight(words, weight_fn):
    weights = sorted(weight_fn(w) for w in words if any(w))
    return weights[0] if weights else None


def trace_dual(tower, generators, n):
    """{v in GF(q^2)^n : Tr(<u, v>_e) = 0 for all u}, by ambient scan.

    Checking against the generators suffices: the pairing is GF(q)-linear
    in u and every codeword is a GF(q)-combination of generators.
    """
    out = set()
    for v in itertools.product(range(tower.q2), repeat=n):
        good = True
        for u in generators:
            acc = 0
            for a, b in zip(u, v):
                acc = tower.add(acc, tower.mul(a, b))
            if tower.trace(acc) != 0:
                good = False
                break
        if good:
            out.add(tuple(v))
    return out


def trace_dual_kernel_basis(tower, generators, n):
    """Basis of the trace dual, via exact elimination on the definition.

    Writes v = contract(d) coordinatewise, so Tr(<u, v>_e) becomes a
    GF(q)-linear functional of the 2n expansion coordinates of v; the dual
    is the kernel of one linear condition per generator row.
    """
    from conjucyclic import contract
    from conjucyclic import linalg
    from conjucyclic.conju import _inversion_constants

    a_const, b_const = _inversion_constants(tower)
    rows = []
    for u in generators:
        first = [tower.trace(tower.mul(u[i], a_const)) for i in range(n)]
        second = [tower.neg(tower.trace(tower.mul(u[i], b_const))) for i in range(n)]
        rows.append(tuple(first + second))
    kernel = linalg.right_kernel(tower, rows, 2 * n)
    return [contract(tower, d) for d in kernel]


def trace_dual_kernel(tower, generators, n):
    """Same set as trace_dual, through trace_dual_kernel_basis."""
    basis = trace_dual_kernel_basis(tower, generators, n)
    return span(tower, basis, n)


def cyclic_subcode_by_elimination(tower, rows):
    """Largest q-ary cyclic subcode of the span of conjucyclic rows.

    On the q-ary side the subcode is exactly the set of codewords whose two
    halves agree, so it falls out of one exact kernel computation on the
    rref of the expanded rows; contracting back yields vectors whose
    entries all lie in GF(q).
    """
    from conjucyclic import contract, expand
    from conjucyclic import linalg

    rows = [tuple(r) for r in rows]
    if not rows:
        return []
    basis, _ = linalg.rref(tower, [expand(tower, r) for r in rows])
    if not basis:
        return []
    n = len(rows[0])
    halves_diff = [
        tuple(tower.sub(row[i], row[n + i]) for i in range(n)) for row in basis
    ]
    out = []
    for a in linalg.left_kernel(tower, halves_diff):
        word = [0] * (2 * n)
        for c, row in zip(a, basis):
            if c:
                word = [tower.add(w, tower.mul(c, x)) for w, x in zip(word, row)]
        vec = contract(tower, tuple(word))
        assert all(tower.in_subfield(x) for x in vec)
        out.append(vec)
    return out


def dual_containing_by_elimination(code):
    """Whether every expanded alternating-dual row lies in the row space
    of the expanded generator matrix, by exact elimination."""
    from conjucyclic import expand
    from conjucyclic import linalg

    tower = code.tower
    basis, pivots = linalg.rref(tower, [expand(tower, r) for r in code.gen_matrix])
    return all(
        linalg.in_span(tower, basis, pivots, expand(tower, row))
        for row in code.alternating_dual_matrix()
    )


def alternating_dual_by_contraction(code):
    """The alternating dual matrix row by row: the contraction of every
    symplectic-dual row of the q-ary mirror."""
    from conjucyclic import contract

    return [contract(code.tower, row) for row in code.cyclic.symplectic_dual_matrix()]


def dual_containing_all_rows(code):
    """Whether g divides every row of the mirror's symplectic dual."""
    mirror = code.cyclic
    return all(mirror.contains(row) for row in mirror.symplectic_dual_matrix())


def alternating_dual_matrix_char2(code):
    """Characteristic-2 form of the alternating dual matrix.

    Applies the half-swap to the reciprocal-cofactor vector once and then
    iterates T; row-for-row equal to code.alternating_dual_matrix()
    because the half-swap and the cyclic shift commute when -1 = 1.
    """
    from conjucyclic import (
        WrongCharacteristicError,
        conjucyclic_shift,
        contract,
        symplectic_swap,
    )

    tower = code.tower
    if tower.p != 2:
        raise WrongCharacteristicError("this dual construction needs characteristic 2")
    rows = []
    if code.k:
        vec = symplectic_swap(tower, code.cyclic.coefficient_vector(code.cyclic.h_star))
        row = contract(tower, vec)
        for _ in range(code.k):
            rows.append(row)
            row = conjucyclic_shift(tower, row)
    return rows


def smallest_primitive(p, d):
    """Lexicographically smallest monic primitive polynomial of degree d,
    scanning every tail (low-degree-first) with a nonzero constant term."""
    from conjucyclic import NoPrimitivePolynomialError
    from conjucyclic.field import is_primitive

    for tail in itertools.product(range(p), repeat=d):
        if tail[0] == 0:
            continue
        f = list(tail) + [1]
        if is_primitive(f, p):
            return tuple(f)
    raise NoPrimitivePolynomialError(f"no primitive polynomial of degree {d} over GF({p})")


def tower_tables(p, d, modulus):
    """(exp, log) of GF(p)[x]/(modulus) by stepping a shift register.

    exp[i] is the code of x^i (base-p digits of its power-basis
    coordinates, little-endian) for i < p^d - 1; log is its inverse with
    log[0] = -1.  Raises NoPrimitivePolynomialError unless x generates the
    multiplicative group.
    """
    from conjucyclic import NoPrimitivePolynomialError

    n = p ** d
    exp = [0] * (n - 1)
    log = [-1] * n
    cur = [0] * d
    cur[0] = 1
    for i in range(n - 1):
        code = 0
        for j in range(d - 1, -1, -1):
            code = code * p + cur[j]
        if log[code] != -1:
            raise NoPrimitivePolynomialError(f"modulus {modulus} over GF({p}) is not primitive")
        exp[i] = code
        log[code] = i
        # multiply by x, reducing x^d = -modulus[:d]
        carry = cur[d - 1]
        for j in range(d - 1, 0, -1):
            cur[j] = cur[j - 1]
        cur[0] = 0
        if carry:
            for j in range(d):
                cur[j] = (cur[j] - carry * modulus[j]) % p
    if any(cur[j] != (1 if j == 0 else 0) for j in range(d)):
        raise NoPrimitivePolynomialError(f"modulus {modulus} over GF({p}) is not primitive")
    return exp, log


class PrimeScalars:
    """GF(p) on the ints 0 .. p - 1, one scalar operation per call."""

    def __init__(self, p: int) -> None:
        self.p = p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        return pow(a, -1, self.p)


def _trim(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_mul(field, a, b) -> tuple:
    """Schoolbook product, one field add and mul per coefficient pair."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return _trim(out)


def poly_divmod(field, a, b) -> tuple:
    """Schoolbook long division: quotient and remainder, deg r < deg b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, lead_inv = len(b) - 1, field.inv(b[-1])
    if len(a) - 1 < db:
        return (), _trim(a)
    quot = [0] * (len(a) - db)
    neg_b = [field.neg(x) for x in b]
    for k in range(len(a) - 1, db - 1, -1):
        c = field.mul(a[k], lead_inv)
        if c:
            quot[k - db] = c
            for j, nbj in enumerate(neg_b):
                if nbj:
                    a[k - db + j] = field.add(a[k - db + j], field.mul(c, nbj))
    return _trim(quot), _trim(a)


def monic(field, a) -> tuple:
    if not a:
        return ()
    inv = field.inv(a[-1])
    return tuple(field.mul(inv, x) for x in a)


def poly_gcd(field, a, b) -> tuple:
    """Monic gcd by Euclid on the schoolbook division."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, poly_divmod(field, a, b)[1]
    return monic(field, a)


def poly_powmod(field, a, e: int, f) -> tuple:
    """a^e mod f, reducing after every one of e schoolbook products."""
    result = poly_divmod(field, (1,), f)[1]
    for _ in range(e):
        result = poly_divmod(field, poly_mul(field, result, a), f)[1]
    return result


def monic_reciprocal(field, h) -> tuple:
    return monic(field, tuple(reversed(_trim(h))))


def poly_pow(tower, a, e: int) -> tuple:
    """a^e by square-and-multiply on the schoolbook product."""
    result = (1,)
    base = _trim(a)
    while e:
        if e & 1:
            result = poly_mul(tower, result, base)
        base = poly_mul(tower, base, base)
        e >>= 1
    return result


def largest_cyclic_subcode_by_division(code):
    """Closed-form cyclic subcode basis with one long division per row:
    row i is x^(d1+i) - (x^(d1+i) mod g1), rotated right by s - d1 and
    scaled by contract((1, 1))."""
    from conjucyclic import contract, cyclic_shift

    tower, n = code.tower, code.n
    x_n_plus_1 = (1,) + (0,) * (n - 1) + (1,)
    g1 = poly_divmod(tower, code.g, poly_gcd(tower, code.g, x_n_plus_1))[0]
    d1 = len(g1) - 1
    k1 = n - d1
    s = (code.card_log_q - k1) % n
    scale = contract(tower, (1, 1))[0]
    rows = []
    for i in range(k1):
        word = [0] * (d1 + i) + [1] + [0] * (k1 - 1 - i)
        for j, c in enumerate(poly_divmod(tower, tuple(word), g1)[1]):
            word[j] = tower.neg(c)
        rows.append(tuple(tower.mul(scale, c) for c in cyclic_shift(word, s - d1)))
    return rows


def poly_eval(tower, a, x: int) -> int:
    """a(x) by Horner's rule."""
    acc = 0
    for c in reversed(a):
        acc = tower.add(tower.mul(acc, x), c)
    return acc
