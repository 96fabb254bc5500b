"""Exact Gaussian elimination over a field carried by a FieldTower.

Vectors and matrix rows are sequences of element codes.  The routines work
for any field the codes represent (the full GF(q^2) or its subfield GF(q));
all arithmetic goes through the tower's exact tables, never floats.

Note that GF(q)-linear questions about vectors over GF(q^2) (span
membership, rank) must be asked after expanding each coordinate into a pair
of GF(q) coordinates; see conju.expand.
"""

from __future__ import annotations


def rref(tower, rows):
    """Reduced row echelon form.

    Returns (rows, pivots): the nonzero reduced rows as tuples and the
    pivot column of each.  Deterministic for a given input order.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return [], []
    ncols = len(work[0])
    out = []
    pivots = []
    row_idx = 0
    for col in range(ncols):
        pivot = None
        for r in range(row_idx, len(work)):
            if work[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        work[row_idx], work[pivot] = work[pivot], work[row_idx]
        inv = tower.inv(work[row_idx][col])
        work[row_idx] = [tower.mul(inv, x) for x in work[row_idx]]
        for r in range(len(work)):
            if r != row_idx and work[r][col] != 0:
                c = work[r][col]
                work[r] = [
                    tower.sub(x, tower.mul(c, y))
                    for x, y in zip(work[r], work[row_idx])
                ]
        pivots.append(col)
        row_idx += 1
        if row_idx == len(work):
            break
    for r in range(row_idx):
        out.append(tuple(work[r]))
    return out, pivots


def reduce_vector(tower, basis, pivots, vec):
    """Residual of vec after elimination against an rref basis."""
    residual = list(vec)
    for row, col in zip(basis, pivots):
        c = residual[col]
        if c != 0:
            residual = [tower.sub(x, tower.mul(c, y)) for x, y in zip(residual, row)]
    return tuple(residual)


def in_span(tower, basis, pivots, vec) -> bool:
    return not any(reduce_vector(tower, basis, pivots, vec))


def right_kernel(tower, rows, ncols):
    """Basis of {x : M x = 0} for the matrix with the given rows.

    The basis is the canonical one read off the rref (one vector per free
    column, in ascending column order).
    """
    basis, pivots = rref(tower, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    kernel = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for row, col in zip(basis, pivots):
            vec[col] = tower.neg(row[f])
        kernel.append(tuple(vec))
    return kernel


def left_kernel(tower, rows):
    """Basis of {a : a M = 0}; vectors have one entry per row of M."""
    nrows = len(rows)
    if nrows == 0:
        return []
    transposed = [tuple(r[i] for r in rows) for i in range(len(rows[0]))]
    return right_kernel(tower, transposed, nrows)

