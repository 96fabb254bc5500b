"""Slow, obviously-correct reference computations used as test oracles.

Everything here enumerates explicitly, one scalar field operation at a
time, and deliberately avoids the library's vectorized kernels and
elimination shortcuts so that agreement is meaningful.
"""

from __future__ import annotations

import itertools
import random


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


def divisor_codes(pairs, every=1):
    """The conjucyclic code of every divisor of x^(2n) - 1, per (q, n), or
    of every `every`-th one in enumeration order."""
    from conjucyclic import ConjucyclicCode, enumerate_divisors, factor_x2n_minus_1, tower_for_q

    for q, n in pairs:
        tower = tower_for_q(q)
        divisors = enumerate_divisors(factor_x2n_minus_1(tower, n))
        for _, g in itertools.islice(divisors, 0, None, every):
            yield ConjucyclicCode(tower, n, g)


def mirror_logs(tower, rows):
    """Rows of GF(q^2)^n as the sweep's mirror rows: each expanded into
    GF(q)^2n by the paper's map, entry by entry, and written as logs of
    tower.zech, -1 for a zero."""
    from conjucyclic import expand

    return [[tower.zech.log[x] for x in expand(tower, row)] for row in rows]


def span_counts(tower, rows, n, workers):
    """Hamming weight histogram over the GF(q)-span of the rows, by the
    packed sweep on the full span: no shortening and no lift.

    The rows must be GF(q)-independent so that messages and words are in
    bijection.
    """
    from conjucyclic import weights

    return weights._sweep(tower, [mirror_logs(tower, rows)], n, workers)


def coordinates(tower, factors, n):
    """The sweep's log rows as rows of GF(q^2)^n, one entry at a time: a
    mirror row of length 2n gives v_i + beta v_(n+i), a row of length n
    gives v_i in the first factor and beta v_i in the second; a log is
    read mod q - 1, and any negative one is a zero."""
    z, rows = tower.zech, []
    for half, logs in enumerate(factors):
        for row in logs:
            v = [z.code[t % z.q1] if t >= 0 else 0 for t in row]
            if len(row) == 2 * n:
                rows.append([tower.add(a, tower.mul(tower.beta, b)) for a, b in zip(v[:n], v[n:])])
            else:
                rows.append([tower.mul(tower.power(half), a) for a in v])
    return rows


def pack(tower, rows, n):
    """Rows of GF(q^2)^n as an (nw, len(rows)) uint64 array, packed as weights says.

    A base-p digit takes c bits, 1 for p = 2, else room for a sum of two
    digits.  A coordinate of d digits takes d c bits, and for p = 2 one
    spare bit more where the n coordinates need no more words with it.
    """
    import numpy as np

    p, d = tower.p, tower.ext_degree
    c = 1 if p == 2 else (2 * p - 2).bit_length()
    words = -(-n // (64 // (d * c)))  # words per row without a spare bit
    width = d * c + (p == 2 and 64 // (d + 1) * words >= n)
    per = 64 // width
    nw = -(-n // per)
    codes = np.fromiter(itertools.chain.from_iterable(rows), np.uint64).reshape(-1, n)
    if nw * per > n:
        codes = np.concatenate([codes, np.zeros((len(rows), nw * per - n), np.uint64)], axis=1)
    coords = codes  # for p = 2 (c = 1) a code's bits are its packed digits
    if p > 2:
        coords = np.zeros_like(codes)
        for k in range(tower.ext_degree):  # base-p digit k to bit k * c
            coords |= codes // p ** k % p << np.uint64(k * c)
    shifts = np.arange(per, dtype=np.uint64) * np.uint64(width)
    words = np.bitwise_or.reduce(coords.reshape(len(rows), nw, per) << shifts, axis=2)
    return np.ascontiguousarray(words.T)


def multiples(tower, factors, n):
    """(nw, r, q) packed words: [:, j, i] is tower.subfield[i] times row j
    of the factors' log rows (coordinates), one entry at a time: the
    per-entry route that packed._multiples replaces by gathers.

    tower.subfield is sorted, so column 0 is the zero word and column 1 the
    row itself.  Each product is one GF(q^2) multiplication.
    """
    rows, scaled = coordinates(tower, factors, n), []
    for row in rows:
        scaled.extend([tower.mul(c, x) for x in row] for c in tower.subfield)
    packed = pack(tower, scaled, n)
    return packed.reshape(len(packed), len(rows), tower.q)


def element_logs(tower, vec):
    """The log to beta of each entry, -1 for a zero one, read from the
    tower's GF(q^2) log table."""
    log = tower._log
    return [log[x] for x in vec]


def log_codes(tower, logs, shift=0, unit=1):
    """beta^(shift + unit * t) for each log t, and 0 where t < 0, read from
    the tower's GF(q^2) exp table; unit q + 1 reads the Zech logs of GF(q)."""
    exp, modulus = tower._exp, tower.q2 - 1
    return [exp[(shift + unit * t) % modulus] if t >= 0 else 0 for t in logs]


def shorten(tower, rows):
    """A GF(q)-basis of the words of the rows' span that vanish at 0.

    Each trace-pair component of coordinate 0 is eliminated in turn over
    GF(q): the first row with a nonzero component is the pivot and leaves,
    and every other row with a nonzero component becomes row - c pivot,
    c in GF(q), which clears it (each distinct -c pivot is formed once).
    trace_pair is a GF(q)-linear bijection, so the heads are read off the
    rows each time, and both vanish exactly when coordinate 0 does.
    Returns the r - e remaining rows; e is the number of pivots.
    """
    from conjucyclic.conju import trace_pair

    rows = list(rows)
    for t in (0, 1):
        heads = [trace_pair(tower, row[0])[t] for row in rows]
        i = next((j for j, h in enumerate(heads) if h), None)
        if i is None:
            continue
        pivot, h = rows.pop(i), heads.pop(i)
        scales = [tower.neg(tower.div(g, h)) for g in heads]  # -c
        logs, cs = element_logs(tower, pivot), set(scales) - {0}
        times = {c: log_codes(tower, logs, lc) for c, lc in zip(cs, element_logs(tower, cs))}
        rows = [tower.add_rows(row, times[c]) if c else row for row, c in zip(rows, scales)]
    assert not any(row[0] for row in rows), "coordinate 0 not cleared"
    return rows


def side_counts(tower, rows, n, workers):
    """Exact Hamming weight histogram over the GF(q)-span of a side's rows.

    The side must be closed under T or T-, as both sides are.  Shortens
    the rows to the words with c_0 = 0 before anything is packed, sweeps
    that shortened side and lifts its histogram.
    """
    from conjucyclic import weights

    short = shorten(tower, rows)
    # a nonzero side vanishing at 0 would vanish everywhere, by transitivity
    assert not rows or len(short) < len(rows), "a nonzero side vanishes at coordinate 0"
    counts = weights._sweep(tower, [mirror_logs(tower, short)], n, workers)
    return weights._lift(counts, n, tower.q ** len(rows))


def stabilizer_params_exhaustive(code, budget=1 << 28, workers=1):
    """(d, d_lower, pure, k_logical) of a dual-containing code by the route
    that sweeps the smaller of the whole code and its alternating dual.

    With A and B the histograms of C and C^perp, d = min{w > 0 : A_w > B_w}
    for dim > n; dim = n (C = C^perp, so A = B) takes d = d_lower.  The code
    is pure when B_w = 0 for every 0 < w < d, so always when dim = n.
    """
    from conjucyclic import weight_distribution

    n, k = code.n, code.card_log_q
    dist = weight_distribution(code, budget=budget, workers=workers)
    a, b = dist.counts, dist.dual_counts
    d = next(w for w in range(1, n + 1) if a[w] > b[w]) if k > n else dist.min_weight
    pure = not any(b[1:d])
    return d, dist.min_weight, pure, k - n


def macwilliams_horner(counts, size, q2):
    """The other side's histogram from one side's, which has size words.

    Expands sum_i counts[i] (1 + (q2 - 1) y)^(n - i) (1 - y)^i by Horner
    steps in y and divides each coefficient by size.
    """
    total, power = [counts[0]], [1]
    for c in counts[1:]:
        total = [a + (q2 - 1) * b for a, b in zip(total + [0], [0] + total)]
        power = [a - b for a, b in zip(power + [0], [0] + power)]
        total = [t + c * v for t, v in zip(total, power)]
    assert all(t % size == 0 for t in total), "MacWilliams transform is not integral"
    return [t // size for t in total]


def neg(tower, a: int) -> int:
    """-a in GF(q^2), negating each base-p digit of the code."""
    s, mult = 0, 1
    while a:
        s += (-a % tower.p) * mult
        a //= tower.p
        mult *= tower.p
    return s


def euclidean_inner(tower, u, v) -> int:
    """sum_j u_j v_j."""
    from conjucyclic import LengthMismatchError

    if len(u) != len(v):
        raise LengthMismatchError(f"lengths {len(u)} != {len(v)}")
    acc = 0
    for a, b in zip(u, v):
        acc = tower.add(acc, tower.mul(a, b))
    return acc


def symplectic_inner(tower, u, v) -> int:
    """sum_j (u_j v_{m+j} - u_{m+j} v_j) on vectors of even length 2m."""
    from conjucyclic import LengthMismatchError

    if len(u) != len(v) or len(u) % 2:
        raise LengthMismatchError(f"lengths {len(u)}, {len(v)}: need one even length")
    m, acc = len(u) // 2, 0
    for j in range(m):
        acc = tower.add(acc, tower.sub(tower.mul(u[j], v[m + j]), tower.mul(u[m + j], v[j])))
    return acc


def cyclic_shift(v, steps: int = 1):
    """Right cyclic shift by steps (any integer), one position at a time."""
    out = tuple(v)
    for _ in range(steps % len(v) if v else 0):
        out = out[-1:] + out[:-1]
    return out


def negated_conjucyclic_shift(tower, v):
    """T-(v) = (-conj(v_{n-1}), v_0, ..., v_{n-2})."""
    if not v:
        return tuple(v)
    return (neg(tower, tower.conjugate(v[-1])),) + tuple(v[:-1])


def cyclic_generator_matrix(code):
    """(2n - k) x 2n generator matrix of a CyclicCode: row i is the i-th
    right shift of the g vector, shifted one step at a time; empty for the
    zero code g = x^(2n) - 1."""
    rows, row = [], code.coefficient_vector(code.g)
    for _ in range(code.dim):
        rows.append(row)
        row = cyclic_shift(row)
    return rows


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


def inversion_constants(tower) -> tuple:
    """(A, B) with alpha = A * Tr(beta*alpha) - B * Tr(beta^q * alpha), by
    the tower's table arithmetic: A = 1 / (beta - beta^(2q - 1)) and
    B = beta^(q - 1) A."""
    a = tower.inv(tower.sub(tower.beta, tower.power(2 * tower.q - 1)))
    return a, tower.mul(tower.power(tower.q - 1), a)


def trace_pair_per_entry(tower, alpha: int) -> tuple:
    """(Tr(beta * alpha), Tr(beta^q * alpha)) by the tower's mul and trace."""
    beta = tower.beta
    return tuple(tower.trace(tower.mul(b, alpha)) for b in (beta, tower.conjugate(beta)))


def contract_per_entry(tower, vec) -> tuple:
    """The inverse of expand one entry at a time: A * first - B * second by
    the tower's own mul and sub, with (A, B) the inversion constants."""
    n = len(vec) // 2
    a, b = inversion_constants(tower)
    return tuple(
        tower.sub(tower.mul(a, first), tower.mul(b, second))
        for first, second in zip(vec[:n], vec[n:])
    )


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
    from conjucyclic import linalg

    a_const, b_const = inversion_constants(tower)
    rows = []
    for u in generators:
        first = [tower.trace(tower.mul(u[i], a_const)) for i in range(n)]
        second = [tower.neg(tower.trace(tower.mul(u[i], b_const))) for i in range(n)]
        rows.append(tuple(first + second))
    kernel = linalg.right_kernel(tower, rows, 2 * n)
    return [contract_per_entry(tower, d) for d in kernel]


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
    from conjucyclic import expand
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
        vec = contract_per_entry(tower, tuple(word))
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
    """The alternating dual matrix row by row: the per-entry contraction of
    every symplectic-dual row of the q-ary mirror."""
    return [contract_per_entry(code.tower, row) for row in code.cyclic.symplectic_dual_matrix()]


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
    from conjucyclic import WrongCharacteristicError, conjucyclic_shift, symplectic_swap

    tower = code.tower
    if tower.p != 2:
        raise WrongCharacteristicError("this dual construction needs characteristic 2")
    rows = []
    if code.k:
        vec = symplectic_swap(tower, code.cyclic.coefficient_vector(code.cyclic.h_star))
        row = contract_per_entry(tower, vec)
        for _ in range(code.k):
            rows.append(row)
            row = conjucyclic_shift(tower, row)
    return rows


def trace_dual_matrix(code):
    """Basis of the trace dual {v : Tr(<u, v>_e) = 0 for all u in C}.

    Characteristic 2 only: there the alternating form reduces to
    Tr(sum u_i conj(v_i)) up to a nonzero scale, so conjugating every
    entry of the alternating dual basis yields the trace dual.  For
    q = 2 the conjugation is the coordinatewise squaring map.
    """
    from conjucyclic import WrongCharacteristicError

    tower = code.tower
    if tower.p != 2:
        raise WrongCharacteristicError("the trace dual needs characteristic 2")
    return [tuple(map(tower.conjugate, row)) for row in code.alternating_dual_matrix()]


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


def edf_probe(tower, a, f, r: int, shift: int = -1) -> list:
    """The Cantor-Zassenhaus probe of the log list a modulo f on the tower's
    ZechLogs, with no Frobenius fold: for odd p the trace
    t = a + a^q + ... + a^(q^(r-1)), each term by its own square and
    multiply, then (t + gamma^shift)^((q-1)/2) - 1, shift -1 adding zero;
    for p = 2 the trace a + a^2 + ... + a^(2^(mr-1)), one squaring and
    reduction per term."""
    z = tower.zech
    if tower.p != 2:
        trace = [shift]
        for i in range(r):
            trace = z.add(trace, z.powmod(a, tower.q ** i, f))
        return z.add(z.powmod(trace, (tower.q - 1) // 2, f), [z.minus_one])
    divisor = z.divisor(f)
    term = probe = a
    for _ in range(tower.m * r - 1):
        term = z.divide(z.product(term, term), divisor)[1]
        probe = z.add(probe, term)
    return probe


def cyclotomic_by_division(tower, n0) -> dict:
    """{d: Phi_d as a log list} for every d | n0, each x^d - 1 divided by
    the Phi_e of its proper divisors e."""
    z, phis = tower.zech, {}
    for d in range(1, n0 + 1):
        if n0 % d == 0:
            phi = z.binomial(d, z.minus_one)
            for e in phis:
                if d % e == 0:
                    phi = z.divmod(phi, phis[e])[0]
            phis[d] = phi
    return phis


def frobenius_probe(tower, a, f, d: int, r: int) -> list:
    """edf_probe's value for f | x^d - 1, gcd(d, p) = 1, with the trace
    summed from Frobenius images: a(x)^s for s a power of p is
    sum a_i^s x^(i*s mod d) modulo x^d - 1, a permutation of coefficient
    positions and one division by f.  Doubling over the bits of the
    trace's length k, the trace of 2j terms is acc + acc^(s^j), of 2j + 1
    terms a + (that)^s."""
    z, divisor = tower.zech, tower.zech.divisor(f)
    s, k = (2, tower.m * r) if tower.p == 2 else (tower.q, r)

    def image(b, e):  # b^e mod f, e a power of p
        out, step, scale = [-1] * d, e % d, e % z.q1
        for i, c in enumerate(b):
            if c >= 0:
                out[i * step % d] = c * scale % z.q1
        return z.divide(out, divisor)[1]

    acc, j = a, 1
    for bit in bin(k)[3:]:
        acc, j = z.add(acc, image(acc, s ** j)), 2 * j
        if bit == "1":
            acc, j = z.add(a, image(acc, s)), j + 1
    if tower.p == 2:
        return acc
    return z.add(z.powmod(acc, (tower.q - 1) // 2, f), [z.minus_one])


def factor_by_splitting_every_phi(tower, n) -> list:
    """The monic irreducible factors of x^(2n) - 1 over GF(q), as codes
    sorted by (degree, codes): every Phi_d, d | n0, from
    cyclotomic_by_division, split into factors of degree ord_d(q) by
    Cantor-Zassenhaus on dense random polynomials probed by frobenius_probe."""
    z, rng = tower.zech, random.Random(0)
    n0 = 2 * n
    while n0 % tower.p == 0:
        n0 //= tower.p
    factors = []
    for d, phi in cyclotomic_by_division(tower, n0).items():
        r = next(r for r in range(1, d + 1) if (tower.q ** r - 1) % d == 0)
        pending = [phi]
        while pending:
            f = pending.pop()
            if len(f) - 1 == r:
                factors.append(f)
                continue
            a = z.reduce([rng.randrange(-1, z.q1) for _ in range(len(f) - 1)])
            g = z.gcd(f, frobenius_probe(tower, a, f, d, r))
            pending += [g, z.divmod(f, g)[0]] if 0 < len(g) - 1 < len(f) - 1 else [f]
    return sorted([z.to_codes(g) for g in factors], key=lambda g: (len(g), g))


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
    tower, n = code.tower, code.n
    x_n_plus_1 = (1,) + (0,) * (n - 1) + (1,)
    g1 = poly_divmod(tower, code.g, poly_gcd(tower, code.g, x_n_plus_1))[0]
    d1 = len(g1) - 1
    k1 = n - d1
    s = (code.card_log_q - k1) % n
    scale = contract_per_entry(tower, (1, 1))[0]
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
