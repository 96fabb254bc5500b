"""Exhaustive Hamming weight enumeration, dual containment and
stabilizer-code parameters.

Dual containment is decided on the q-ary mirror by polynomial
divisibility: the alternating dual lies in the code exactly when g divides
every row of the mirror's symplectic dual.

Enumeration runs over messages: a code spanned by r generator rows over
GF(q) has exactly q^r codewords, one per message in GF(q)^r.  Every element
is stored as its base-p digit vector, so codeword addition is digitwise
mod p and a coordinate is zero exactly when its digit group is all zero;
this works uniformly for every prime power q with no table lookups inside
the hot loop.

The kernel is a blocked meet-in-the-middle sweep: the generator rows are
split in half, all GF(q)-combinations of each half are materialized as
digit matrices, and the histogram accumulates over outer-block + inner-span
sums in vectorized chunks.  Work partitions across processes by slicing the
outer span (equivalently, fixing leading message digits); per-worker
histograms merge by integer addition, so the result is identical for any
worker count and schedule.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, NotDualContainingError, ZeroCodeError

#: Default cap on the number of enumerated codewords.
DEFAULT_BUDGET = 1 << 28

_CHUNK_ELEMS = 1 << 24


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


def _dtype_for(p):
    # digit sums reach 2(p-1) before reduction; keep them in range
    return np.uint8 if p <= 128 else np.uint16


def _digit_rows(tower, rows, width):
    """Stack rows as base-p digit matrices: shape (len(rows), width * 2m)."""
    dtype = _dtype_for(tower.p)
    out = np.zeros((len(rows), width * tower.ext_degree), dtype=dtype)
    for i, row in enumerate(rows):
        flat = []
        for x in row:
            flat.extend(tower.digits(x))
        out[i] = flat
    return out


def _scalar_multiples(tower, rows, width):
    """For each row, the digit matrix of all q subfield multiples of it."""
    out = []
    for row in rows:
        mults = [
            tuple(tower.mul(k, x) for x in row) for k in tower.subfield
        ]
        out.append(_digit_rows(tower, mults, width))
    return out


def _span_digits(p, multiples, ncols):
    """All sums picking one multiple per row: (q^r, D) digit matrix."""
    if not multiples:
        return np.zeros((1, ncols), dtype=_dtype_for(p))
    acc = multiples[0]
    for mult in multiples[1:]:
        acc = acc[:, None, :] + mult[None, :, :]
        if p == 2:
            acc &= 1
        else:
            acc %= p
        acc = acc.reshape(-1, acc.shape[-1])
    return acc


def _histogram_chunk(args):
    outer, inner, p, groups, digits_per_group = args
    counts = np.zeros(groups + 1, dtype=np.int64)
    if outer.shape[1] == 0:
        counts[0] += len(outer) * len(inner)
        return counts
    step = max(1, _CHUNK_ELEMS // max(1, len(inner) * outer.shape[1]))
    for lo in range(0, len(outer), step):
        block = outer[lo : lo + step, None, :] + inner[None, :, :]
        if p == 2:
            block &= 1
        else:
            block %= p
        nz = block.reshape(-1, groups, digits_per_group).any(axis=2)
        counts += np.bincount(
            nz.sum(axis=1, dtype=np.int64), minlength=groups + 1
        )
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
    multiples = _scalar_multiples(tower, rows, n)
    ncols = n * tower.ext_degree
    half = r // 2
    inner = _span_digits(tower.p, multiples[:half], ncols)
    outer = _span_digits(tower.p, multiples[half:], ncols)
    workers = max(1, int(workers))
    if workers == 1 or len(outer) < 2 * workers:
        total = _histogram_chunk((outer, inner, tower.p, n, tower.ext_degree))
    else:
        bounds = [len(outer) * i // workers for i in range(workers + 1)]
        jobs = [
            (outer[lo:hi], inner, tower.p, n, tower.ext_degree)
            for lo, hi in zip(bounds, bounds[1:])
            if hi > lo
        ]
        total = np.zeros(n + 1, dtype=np.int64)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_histogram_chunk, jobs):
                total += part
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
