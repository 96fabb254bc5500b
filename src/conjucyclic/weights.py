"""Exhaustive Hamming weight enumeration, dual containment and
stabilizer-code parameters.

Dual containment is decided on the q-ary mirror by polynomial
divisibility: the alternating dual lies in the code exactly when g divides
every row of the mirror's symplectic dual.

A code C with k = 2n - deg g and its alternating dual C^perp (2n - k
dimensions) determine each other's weight distributions: the expansion
carries the alternating form to the symplectic form and Hamming weight
over GF(q^2) to symplectic weight, so with Q = q^2 the MacWilliams
identity W_C(x, y) = |C^perp|^-1 W_{C^perp}(x + (Q - 1) y, x - y) holds
exactly.  Only the strictly smaller side is enumerated (C itself on a tie
k = n); the other side's histogram is expanded from it in Python integers,
and every division by the enumerated side's size is asserted exact.  The
budget caps the enumerated side: q^min(k, 2n - k) words.

Enumeration runs over messages: a side spanned by r GF(q)-independent
rows has exactly q^r words, one per message in GF(q)^r.  A word is packed
into uint64 words: each base-p digit takes a c-bit field and adds as in
field.packed_add, a coordinate takes 2m*c contiguous bits, and
64 // (2m*c) whole coordinates share a word (at most 42 bits under the
2^24 table cap, so none straddles two words).  A coordinate is zero
exactly when its bits are, so the weight is the popcount of one mark bit
per nonzero coordinate; no table lookups run inside the hot loop.

The kernel is a blocked meet-in-the-middle sweep: the rows are split in
half, all GF(q)-combinations of each half are materialized as packed
words, and the histogram accumulates over outer-block + inner-span sums in
vectorized blocks.  Work partitions across a thread pool by slicing the
outer span (equivalently, fixing leading message digits); numpy's bitwise
ufuncs release the interpreter lock, and per-thread histograms merge by
integer addition, so the result is identical for any worker count and
schedule.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, NotDualContainingError, ZeroCodeError
from .field import digit_bits, packed_add, packed_span

#: Default cap on the number of enumerated words, q^min(k, 2n - k).
DEFAULT_BUDGET = 1 << 28

_CHUNK_WORDS = 1 << 16


@dataclass
class WeightDistribution:
    """Exact weight histogram: counts[w] codewords of weight w.

    dual_counts is the same histogram for the alternating dual, which has
    q^(2n - dim) words.
    """

    counts: list
    q: int
    dim: int
    dual_counts: list

    @property
    def cardinality(self) -> int:
        return self.q ** self.dim

    @property
    def min_weight(self):
        """Smallest positive weight present, or None for the zero code."""
        for w, c in enumerate(self.counts):
            if w > 0 and c:
                return w
        return None

    def to_json(self) -> dict:
        return {
            "counts": [int(c) for c in self.counts],
            "card": f"{self.q}^{self.dim}",
            "minWeight": self.min_weight,
        }


@dataclass(frozen=True)
class StabilizerParams:
    """Parameters [[n, k_logical, >= d_lower]]_q of the derived stabilizer code.

    d_lower is the minimum weight of the code C.  pure tells whether the
    stabilizer C^perp has no nonzero word lighter than the code's distance
    min{w > 0 : A_w > B_w}; then that distance equals d_lower.
    """

    n: int
    k_logical: int
    d_lower: int
    q: int
    pure: bool

    def __str__(self) -> str:
        return f"[[{self.n},{self.k_logical},{self.d_lower}]]_{self.q}"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "kLogical": self.k_logical,
            "dLower": self.d_lower,
            "q": self.q,
            "pure": self.pure,
        }


def _layout(tower):
    """(c, width, per): bits per digit, bits per coordinate, coordinates per word."""
    c = digit_bits(tower.p)
    width = tower.ext_degree * c
    return c, width, 64 // width


def _pack(tower, rows, n):
    """Rows of GF(q^2)^n as an (nw, len(rows)) uint64 array, packed as above."""
    c, width, per = _layout(tower)
    out = np.zeros((-(-n // per), len(rows)), dtype=np.uint64)
    for i, row in enumerate(rows):
        words = [0] * len(out)
        for j, x in enumerate(row):
            coord = sum(d << (k * c) for k, d in enumerate(tower.digits(x)))
            words[j // per] |= coord << (j % per * width)
        out[:, i] = words
    return out


def _kernel(tower):
    """(add, low, top): packed addition and the nonzero-coordinate masks."""
    c, width, per = _layout(tower)
    top = np.uint64(sum(1 << (i * width + width - 1) for i in range(per)))
    return packed_add(tower.p, c, per * tower.ext_degree), ~top, top


def _histogram(outer, inner, kernel, n):
    add, low, top = kernel
    counts = np.zeros(n + 1, dtype=np.int64)
    step = max(1, min(outer.shape[1], _CHUNK_WORDS // inner.size))
    x = np.empty((len(inner), step, inner.shape[1]), dtype=np.uint64)
    y, weights = np.empty_like(x), np.empty(x.shape[1:], dtype=np.intp)
    for lo in range(0, outer.shape[1], step):
        block = outer[:, lo : lo + step, None]
        rows = block.shape[1]
        xs, ys, ws = x[:, :rows], y[:, :rows], weights[:rows]
        add(block, inner[:, None, :], xs, ys)
        # top bit of a coordinate: set iff any of its bits is
        np.bitwise_and(xs, low, out=ys)
        ys += low
        ys |= xs
        ys &= top
        np.sum(np.bitwise_count(ys), axis=0, out=ws)
        counts += np.bincount(ws.ravel(), minlength=n + 1)
    return counts


def _span_counts(tower, rows, n, workers):
    """Exact Hamming weight histogram over the GF(q)-span of the rows.

    The rows must be GF(q)-independent so that messages and words are in
    bijection (true for every generator and dual matrix built in this
    package).
    """
    r = len(rows)
    if r == 0:
        return [1] + [0] * n
    multiples = [
        _pack(tower, [[tower.mul(k, x) for x in row] for k in tower.subfield], n)
        for row in rows
    ]
    kernel, nw = _kernel(tower), len(multiples[0])
    inner = packed_span(kernel[0], multiples[: r // 2], nw)
    outer = packed_span(kernel[0], multiples[r // 2 :], nw)
    workers = min(max(1, int(workers)), os.cpu_count() or 1)
    if workers == 1 or outer.shape[1] < 2 * workers:
        total = _histogram(outer, inner, kernel, n)
    else:
        parts = np.array_split(outer, workers, axis=1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            total = sum(pool.map(lambda o: _histogram(o, inner, kernel, n), parts))
    counts = [int(c) for c in total]
    assert sum(counts) == tower.q ** r, "histogram does not cover the span"
    return counts


def _macwilliams(counts, size, q2):
    """The other side's histogram from one side's, which has size words.

    Expands sum_i counts[i] (1 + (q2 - 1) y)^(n - i) (1 - y)^i by Horner
    steps in y and divides each coefficient by size.
    """
    total, power = [counts[0]], [1]
    for c in counts[1:]:
        total = [a + (q2 - 1) * b for a, b in zip(total + [0], [0] + total)]
        power = [a - b for a, b in zip(power + [0], [0] + power)]
        total = [t + c * v for t, v in zip(total, power)]
    out = []
    for t in total:
        w, rem = divmod(t, size)
        assert rem == 0, "MacWilliams transform is not integral"
        out.append(w)
    return out


def _enumerate_counts(code, budget, workers):
    """(A, B): weight histograms of the code and of its alternating dual.

    Enumerates the strictly smaller side, C itself on a tie, and gets the
    other by the MacWilliams transform.
    """
    tower, n, k = code.tower, code.n, code.card_log_q
    q, dual_k = tower.q, 2 * n - k
    if q ** min(k, dual_k) > budget:
        raise BudgetExceededError(
            f"{q}^{min(k, dual_k)} enumerated words (the smaller of the code and "
            f"its alternating dual) exceed the budget of {budget}"
        )
    if dual_k < k:
        b = _span_counts(tower, code.alternating_dual_matrix(), n, workers)
        a = _macwilliams(b, q ** dual_k, tower.q2)
    else:
        a = _span_counts(tower, code.gen_matrix, n, workers)
        b = _macwilliams(a, q ** k, tower.q2)
    assert a[0] == b[0] == 1, "A_0 or B_0 is not 1"
    assert sum(a) == q ** k and sum(b) == q ** dual_k, "histogram sizes"
    return a, b


def weight_distribution(code, budget: int = DEFAULT_BUDGET, workers: int = 1):
    """Exact Hamming weight distributions of a conjucyclic code and its dual.

    Enumerates q^min(k, 2n - k) words, k = 2n - deg g; raises
    BudgetExceededError first if that count exceeds the budget.
    """
    a, b = _enumerate_counts(code, budget, workers)
    return WeightDistribution(
        counts=a, q=code.tower.q, dim=code.card_log_q, dual_counts=b
    )


def min_weight(code, budget: int = DEFAULT_BUDGET, workers: int = 1) -> int:
    """Minimum Hamming weight over the nonzero codewords."""
    if not code.gen_matrix:
        raise ZeroCodeError("the zero code has no nonzero codeword")
    w = weight_distribution(code, budget=budget, workers=workers).min_weight
    assert w is not None
    return w


def is_alternating_dual_containing(code) -> bool:
    """Whether the alternating dual is contained in the code.

    On the q-ary mirror side this holds exactly when g divides every row
    of the symplectic dual.
    """
    mirror = code.cyclic
    return all(mirror.contains(row) for row in mirror.symplectic_dual_matrix())


def stabilizer_params(
    code, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> StabilizerParams:
    """Derive [[n, k - n, >= min weight]]_q and purity from a dual-containing code.

    With A and B the histograms of C and C^perp, the code is pure when
    B_w = 0 for every 0 < w < min{w > 0 : A_w > B_w}; k = n (C = C^perp)
    is pure by convention.
    """
    if not is_alternating_dual_containing(code):
        raise NotDualContainingError(
            "code is not alternating dual-containing; no stabilizer code"
        )
    n, k = code.n, code.card_log_q
    assert k >= n, "dual-containing code smaller than q^n"
    dist = weight_distribution(code, budget=budget, workers=workers)
    a, b = dist.counts, dist.dual_counts
    pure = True
    if k > n:
        d = next(w for w in range(1, n + 1) if a[w] > b[w])
        pure = not any(b[1:d])
    return StabilizerParams(
        n=n, k_logical=k - n, d_lower=dist.min_weight, q=code.tower.q, pure=pure
    )
