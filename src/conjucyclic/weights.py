"""Exhaustive Hamming weight enumeration and stabilizer-code parameters.

A code C of dimension k = 2n - deg g (card_log_q; ConjucyclicCode.k is
deg g) and its alternating dual C^perp (2n - k dimensions) determine each
other's weight distributions: the expansion carries the alternating form
to the symplectic form and Hamming weight over GF(q^2) to symplectic
weight, so with Q = q^2 the MacWilliams identity
W_C(x, y) = |C^perp|^-1 W_{C^perp}(x + (Q - 1) y, x - y) holds exactly.
Only the strictly smaller side is enumerated (C itself on a tie k = n);
the other side's histogram is expanded from it in Python integers, and
every division by the enumerated side's size is asserted exact.  The
budget caps the enumerated side: q^min(k, 2n - k) words.

Both sides are closed under a shift that moves the coordinates cyclically:
C under T and C^perp under T- (conju).  Each shift maps every entry
through a bijection that fixes 0, so it acts transitively on the
coordinates and keeps the weight.  The sweep therefore covers only the
shortened side, the words with c_0 = 0: GF(q)-elimination on the two
trace-pair components of coordinate 0 leaves a basis of r - e rows, e in
{1, 2} (e = 0 would make a nonzero side vanish everywhere).  Counting the
pairs (word, zero coordinate) twice gives A_w (n - w) = n S_w, with S_w
the shortened side's words of weight w, the same at every coordinate by
transitivity; so A_w = n S_w / (n - w) for w < n, each division asserted
exact, and A_n is what remains of q^r.  This is exact, and the sweep is
q^e times smaller.

Enumeration runs over messages: a side spanned by r GF(q)-independent
rows has exactly q^r words, one per message in GF(q)^r.  Scaling a word by
a nonzero lambda in GF(q) keeps its weight, so the nonzero words fall into
(q^r - 1)/(q - 1) classes of q - 1 words of equal weight, one class per
GF(q)-projective point, and the sweep visits about one word per class.  A
word is packed into uint64 words: each base-p digit takes a c-bit field
and adds as in field.packed_add, a coordinate takes 2m*c contiguous bits,
and 64 // (2m*c) whole coordinates share a word (at most 42 bits under the
2^24 table cap, so none straddles two words).  A coordinate is zero
exactly when its bits are, so the weight is the popcount of one mark bit
per nonzero coordinate; no table lookups run inside the hot loop.

The kernel is a blocked meet-in-the-middle sweep: the rows are split in
half, and the inner half's full span and the outer half's projective
representatives (the messages whose first nonzero digit is 1) are built
as packed words by field.packed_span.  One histogram routine counts the
weights of every outer-word + inner-word sum in vectorized blocks: H over
the representatives, and Z over the zero word alone (the inner span
itself).  A sum with an outer representative stands for its q - 1 nonzero
multiples, so A = (q - 1) H + Z.  On the r' = r - e shortened rows the
kernel visits (q^r'_out - 1)/(q - 1) q^r'_in + q^r'_in words, about
q^(r - e)/(q - 1) of the enumerated side's q^r.  Work partitions across a
thread pool, at most one thread per CPU this process may use and per
outer block, by slicing the outer words (equivalently, fixing leading
message digits); numpy's bitwise ufuncs release the interpreter lock, and
per-thread histograms merge by integer addition, so the result is
identical for any worker count and schedule.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .conju import is_alternating_dual_containing, trace_pair
from .errors import BudgetExceededError, NotDualContainingError, ZeroCodeError
from .field import digit_bits, packed_add, packed_span

#: Default cap on the words of the enumerated side, q^min(k, 2n - k); the
#: sweep visits about 1/(q^e (q - 1)) of them, e in {1, 2}.
DEFAULT_BUDGET = 1 << 28

_CHUNK_WORDS = 1 << 16


@dataclass(frozen=True)
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
        return next((w for w, c in enumerate(self.counts) if w and c), None)

    def to_json(self) -> dict:
        return {
            "counts": [int(c) for c in self.counts],
            "card": f"{self.q}^{self.dim}",
            "minWeight": self.min_weight,
        }


@dataclass(frozen=True)
class StabilizerParams:
    """Parameters [[n, k_logical, d]]_q of the derived stabilizer code.

    k_logical = dim - n for the code's dimension dim = 2n - deg g (its
    card_log_q; ConjucyclicCode.k is deg g).  d is the exact distance, the
    least weight of a word of C outside C^perp (see stabilizer_params);
    d_lower is the minimum weight of C, a lower bound on d.  pure tells
    whether C^perp has no nonzero word lighter than d; then d = d_lower.
    """

    n: int
    k_logical: int
    d: int
    d_lower: int
    q: int
    pure: bool

    def __str__(self) -> str:
        return f"[[{self.n},{self.k_logical},{self.d}]]_{self.q}"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "kLogical": self.k_logical,
            "d": self.d,
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
    nw = -(-n // per)
    codes = np.zeros((len(rows), nw * per), dtype=np.uint64)
    codes[:, :n] = np.reshape(rows, (-1, n))
    coords = np.zeros_like(codes)
    for k in range(tower.ext_degree):  # base-p digit k to bit k * c
        coords |= codes // tower.p ** k % tower.p << np.uint64(k * c)
    shifts = np.arange(per, dtype=np.uint64) * np.uint64(width)
    words = np.bitwise_or.reduce(coords.reshape(len(rows), nw, per) << shifts, axis=2)
    return np.ascontiguousarray(words.T)


def _multiples(tower, rows, n):
    """(nw, r, q) packed words: [:, j, i] is tower.subfield[i] times row j.

    tower.subfield is sorted, so column 0 is the zero word and column 1 the
    row itself.
    """
    scaled = [[tower.mul(k, x) for x in row] for row in rows for k in tower.subfield]
    packed = _pack(tower, scaled, n)
    return packed.reshape(len(packed), len(rows), tower.q)


def _kernel(tower):
    """(add, low, top): packed addition and the nonzero-coordinate masks."""
    c, width, per = _layout(tower)
    top = np.uint64(sum(1 << (i * width + width - 1) for i in range(per)))
    return packed_add(tower.p, c, per * tower.ext_degree), ~top, top


def _block(outer_words, inner):
    """Outer words per histogram block: about _CHUNK_WORDS sums at a time."""
    return max(1, min(outer_words, _CHUNK_WORDS // inner.size))


def _histogram(outer, inner, kernel, n):
    """Weight histogram of every outer-word + inner-word sum."""
    add, low, top = kernel
    counts = np.zeros(n + 1, dtype=np.int64)
    step = _block(outer.shape[1], inner)
    x = np.empty((len(inner), step, inner.shape[1]), dtype=np.uint64)
    y, weights = np.empty_like(x), np.empty(x.shape[1:], dtype=np.intp)
    for lo in range(0, outer.shape[1], step):
        block = outer[:, lo : lo + step, None]
        rows = block.shape[1]
        xs, ys, ws = x[:, :rows], y[:, :rows], weights[:rows]
        add(block, inner[:, None, :], xs, ys)
        # mark the top bit of each coordinate iff any of its bits is set
        np.bitwise_and(xs, low, out=ys)
        ys += low
        ys |= xs
        ys &= top
        np.sum(np.bitwise_count(ys), axis=0, out=ws)
        counts += np.bincount(ws.ravel(), minlength=n + 1)
    return counts


def _projective_span(add, multiples, nw):
    """One word per GF(q)-projective point of the span, zero excluded.

    The representatives are the messages whose first nonzero digit is 1:
    row j plus the span of the rows after it, for each j.  Column 1 of each
    multiples array is the row itself (see _multiples).  The span of the
    trailing rows grows one row at a time; the result has
    (nw, (q^r - 1)/(q - 1)) words.
    """
    reps, tail = [], []  # tail: [the span of the rows after j], none at first
    for j in reversed(range(len(multiples))):
        reps.append(packed_span(add, [multiples[j][:, 1:2], *tail], nw))
        if j:
            tail = [packed_span(add, [multiples[j], *tail], nw)]
    return np.concatenate(reps, axis=1)


def _cores():
    """The CPUs this process may run on: its affinity mask where there is one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep(tower, multiples, n, workers):
    """Exact Hamming weight histogram over the span of packed multiples.

    multiples is an (nw, r, q) array as built by _multiples, of r
    GF(q)-independent rows.  The outer half runs over one representative
    per projective point and Z over the zero word, so A = (q - 1) H + Z as
    in the module docstring.  No more threads start than the histogram has
    outer blocks, so a one-block sweep starts no pool.
    """
    nw, r, q = multiples.shape
    if r == 0:
        return [1] + [0] * n
    rows = [multiples[:, j] for j in range(r)]
    kernel = _kernel(tower)
    inner = packed_span(kernel[0], rows[: r // 2], nw)
    outer = _projective_span(kernel[0], rows[r // 2 :], nw)
    blocks = -(-outer.shape[1] // _block(outer.shape[1], inner))
    workers = min(max(1, int(workers)), _cores(), blocks)
    if workers == 1:
        total = _histogram(outer, inner, kernel, n)
    else:
        parts = np.array_split(outer, workers, axis=1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            total = sum(pool.map(lambda o: _histogram(o, inner, kernel, n), parts))
    zero = _histogram(np.zeros((nw, 1), dtype=np.uint64), inner, kernel, n)
    counts = [int(c) for c in (q - 1) * total + zero]
    assert sum(counts) == q ** r, "histogram does not cover the span"
    return counts


def _shorten(tower, multiples, heads):
    """Multiples of a GF(q)-basis of the words of the span that vanish at 0.

    multiples is an (nw, r, q) array as built by _multiples, and heads[j]
    the trace pair of row j's coordinate 0.  Each trace-pair component is
    eliminated in turn over GF(q): the first row with a nonzero component
    is the pivot and leaves, and every other row with a nonzero component
    subtracts the GF(q)-multiple of the pivot that clears it.  Only those
    rows change, each by one packed addition: the multiples of
    row - c pivot are those of the row plus the pivot's, permuted by
    lambda -> -c lambda.  Returns the (nw, r - e, q) multiples of the
    remaining rows; e is the number of pivots.
    """
    add = _kernel(tower)[0]
    index = {x: i for i, x in enumerate(tower.subfield)}
    multiples, heads = multiples.copy(), [list(h) for h in heads]
    keep = list(range(len(heads)))
    for t in (0, 1):
        live = [j for j in keep if heads[j][t]]
        if not live:
            continue
        pivot, rest = live[0], live[1:]
        keep.remove(pivot)
        if not rest:
            continue
        scales = [tower.div(heads[j][t], heads[pivot][t]) for j in rest]
        perms = [[index[tower.neg(tower.mul(c, x))] for x in tower.subfield] for c in scales]
        out = multiples[:, rest]
        add(out, multiples[:, pivot][:, perms], out, np.empty_like(out))
        multiples[:, rest] = out
        for j, c in zip(rest, scales):
            heads[j] = [tower.sub(a, tower.mul(c, b)) for a, b in zip(heads[j], heads[pivot])]
    assert not any(any(heads[j]) for j in keep), "coordinate 0 not cleared"
    return multiples[:, keep]


def _side_counts(tower, rows, n, workers):
    """Exact Hamming weight histogram over the GF(q)-span of a side's rows.

    The side must be closed under T or T-, as both sides are.  Sweeps only
    the shortened side, whose words have c_0 = 0, and lifts its histogram
    S by A_w (n - w) = n S_w as in the module docstring.
    """
    q, r = tower.q, len(rows)
    heads = [trace_pair(tower, row[0]) for row in rows]
    short = _shorten(tower, _multiples(tower, rows, n), heads)
    # a nonzero side vanishing at 0 would vanish everywhere, by transitivity
    assert r == 0 or short.shape[1] < r, "a nonzero side vanishes at coordinate 0"
    short_counts = _sweep(tower, short, n, workers)
    counts = []
    for w in range(n):
        assert n * short_counts[w] % (n - w) == 0, "the lift is not integral"
        counts.append(n * short_counts[w] // (n - w))
    counts.append(q ** r - sum(counts))
    assert counts[n] >= 0, "the lift exceeds the span"
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
    assert all(t % size == 0 for t in total), "MacWilliams transform is not integral"
    return [t // size for t in total]


def _enumerate_counts(code, budget, workers):
    """(A, B): weight histograms of the code and of its alternating dual.

    Enumerates the strictly smaller side, C itself on a tie, through its
    shortened side, and gets the other by the MacWilliams transform.
    """
    tower, n, k = code.tower, code.n, code.card_log_q
    q, dual_k = tower.q, 2 * n - k
    if q ** min(k, dual_k) > budget:
        raise BudgetExceededError(
            f"{q}^{min(k, dual_k)} enumerated words (the smaller of the code and "
            f"its alternating dual) exceed the budget of {budget}"
        )
    if dual_k < k:
        b = _side_counts(tower, code.alternating_dual_matrix(), n, workers)
        a = _macwilliams(b, q ** dual_k, tower.q2)
    else:
        a = _side_counts(tower, code.gen_matrix, n, workers)
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


def stabilizer_params(
    code, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> StabilizerParams:
    """Derive [[n, dim - n, d]]_q and purity from a dual-containing code.

    With A and B the histograms of C and C^perp, d = min{w > 0 : A_w > B_w}
    for dim > n; dim = n (C = C^perp, so A = B) takes d = d_lower.  The code
    is pure when B_w = 0 for every 0 < w < d, so always when dim = n.
    """
    if not is_alternating_dual_containing(code):
        raise NotDualContainingError(
            "code is not alternating dual-containing; no stabilizer code"
        )
    n, k = code.n, code.card_log_q
    assert k >= n, "dual-containing code smaller than q^n"
    dist = weight_distribution(code, budget=budget, workers=workers)
    a, b = dist.counts, dist.dual_counts
    d = next(w for w in range(1, n + 1) if a[w] > b[w]) if k > n else dist.min_weight
    pure = not any(b[1:d])
    return StabilizerParams(
        n=n, k_logical=k - n, d=d, d_lower=dist.min_weight, q=code.tower.q, pure=pure
    )
