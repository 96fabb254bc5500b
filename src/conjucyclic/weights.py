"""Exhaustive Hamming weight enumeration, dual containment and
stabilizer-code parameters.

Dual containment is decided on the q-ary mirror by polynomial
divisibility: the alternating dual lies in the code exactly when g divides
every row of the mirror's symplectic dual.

Enumeration runs over messages: a code spanned by r generator rows over
GF(q) has exactly q^r codewords, one per message in GF(q)^r.  A codeword
is packed into uint64 words: each base-p digit takes a c-bit field and
adds as in field.packed_add, a coordinate takes 2m*c contiguous bits, and
64 // (2m*c) whole coordinates share a word (at most 42 bits under the
2^24 table cap, so none straddles two words).  A coordinate is zero
exactly when its bits are, so the weight is the popcount of one mark bit
per nonzero coordinate; no table lookups run inside the hot loop.

The kernel is a blocked meet-in-the-middle sweep: the generator rows are
split in half, all GF(q)-combinations of each half are materialized as
packed words, and the histogram accumulates over outer-block + inner-span
sums in vectorized blocks.  Work partitions across a thread pool by slicing
the outer span (equivalently, fixing leading message digits); numpy's
bitwise ufuncs release the interpreter lock, and per-thread histograms
merge by integer addition, so the result is identical for any worker count
and schedule.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, NotDualContainingError, ZeroCodeError
from .field import digit_bits, packed_add, packed_span

#: Default cap on the number of enumerated codewords.
DEFAULT_BUDGET = 1 << 28

_CHUNK_WORDS = 1 << 16


@dataclass
class WeightDistribution:
    """Exact weight histogram: counts[w] codewords of weight w."""

    counts: list
    q: int
    dim: int

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
    """Parameters [[n, k_logical, >= d_lower]]_q of the derived stabilizer code."""

    n: int
    k_logical: int
    d_lower: int
    q: int
    pure: bool = True

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


def _enumerate_counts(code, budget, workers):
    """Exact Hamming weight histogram over the GF(q)-span of the generator rows.

    The rows must be GF(q)-independent so that messages and codewords are
    in bijection (true for every generator matrix built in this package).
    """
    tower, rows, n = code.tower, code.gen_matrix, code.n
    r = len(rows)
    if tower.q ** r > budget:
        raise BudgetExceededError(
            f"{tower.q}^{r} codewords exceed the budget of {budget}"
        )
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
    assert sum(counts) == tower.q ** r, "histogram does not cover the code"
    return counts


def weight_distribution(code, budget: int = DEFAULT_BUDGET, workers: int = 1):
    """Exact Hamming weight distribution of a conjucyclic code.

    Enumerates all q^(2n - deg g) codewords; raises BudgetExceededError
    first if that count exceeds the budget.
    """
    counts = _enumerate_counts(code, budget, workers)
    return WeightDistribution(counts=counts, q=code.tower.q, dim=code.card_log_q)


def min_weight(code, budget: int = DEFAULT_BUDGET, workers: int = 1) -> int:
    """Minimum Hamming weight over the nonzero codewords (full sweep)."""
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
    """Derive [[n, k - n, >= min weight]]_q from a dual-containing code."""
    if not is_alternating_dual_containing(code):
        raise NotDualContainingError(
            "code is not alternating dual-containing; no stabilizer code"
        )
    k = code.card_log_q
    assert k >= code.n, "dual-containing code smaller than q^n"
    d = min_weight(code, budget=budget, workers=workers)
    return StabilizerParams(
        n=code.n, k_logical=k - code.n, d_lower=d, q=code.tower.q
    )
