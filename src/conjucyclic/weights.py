"""Exhaustive Hamming weight enumeration and stabilizer-code parameters.

A code C of dimension k = 2n - deg g (card_log_q; ConjucyclicCode.k is
deg g) and its alternating dual C^perp (2n - k dimensions) determine each
other's weight distributions: the expansion carries the alternating form
to the symplectic form and Hamming weight over GF(q^2) to symplectic
weight, so with Q = q^2 the MacWilliams identity
W_C(x, y) = |C^perp|^-1 W_{C^perp}(x + (Q - 1) y, x - y) holds exactly.
Only the strictly smaller side is enumerated (C itself on a tie k = n);
the other side's histogram is expanded from it in one Python integer, the
expansion evaluated at y = 2^w with every coefficient one base-2^w digit
(_macwilliams), and every division by the enumerated side's size is
asserted exact.  The budget caps the enumerated side: q^min(k, 2n - k)
words.

Both sides are closed under a shift that moves the coordinates cyclically:
C under T and C^perp under T- (conju).  Each shift maps every entry
through a bijection that fixes 0, so it acts transitively on the
coordinates and keeps the weight.  The sweep therefore covers only the
shortened side, the words with c_0 = 0, which span r - e of the side's r
dimensions, e in {1, 2} (e = 0 would make a nonzero side vanish
everywhere).  A basis comes from the side's mirror generator f, g for C
and h* for C^perp, before anything is packed (_mirror_counts): for p = 2
the shifts x f, ..., x^(d - 1) f of <f> with one pivot eliminated at
mirror position n, for odd p a split; both are below.  Counting the pairs
(word, zero coordinate) twice gives
A_w (n - w) = n S_w, with S_w the shortened side's words of weight w, the
same at every coordinate by transitivity; so A_w = n S_w / (n - w) for
w < n, each division asserted exact, and A_n is what remains of q^r
(_lift).  This is exact, and the sweep is q^e times smaller.

Enumeration runs over messages: a side spanned by r GF(q)-independent
rows has exactly q^r words, one per message in GF(q)^r.  Scaling a word by
a nonzero lambda in GF(q) keeps its weight, so the nonzero words fall into
(q^r - 1)/(q - 1) classes of q - 1 words of equal weight, one class per
GF(q)-projective point, and the sweep visits about one word per class.  A
word is packed into uint64 words straight from the mirror's GF(q) logs:
coordinate i is v_i + beta v_(n+i), zero exactly where both mirror
positions are, as 1 and beta are independent over GF(q); each of its 2m
base-p digits takes a c-bit field and adds as in packed.packed_add, and a
coordinate takes its 2m*c digit bits plus, for p = 2, one spare top bit
wherever that adds no uint64 word to the n coordinates (packed._layout).
64 // width whole coordinates of width bits share a word (at most 42 bits
under the 2^24 table cap, so none straddles two words).  Digits are kept
canonical, so a coordinate of a sum x + y is zero exactly where the bits
of x and -y agree: the sweep
negates its inner words once (packed.packed_neg, the identity for p = 2),
and the hot loop forms x XOR (-y), whose weight is the popcount of one
mark bit per nonzero coordinate.  The marks take two passes where a
coordinate's top bit is a carry bit, clear in canonical words: an odd-p
digit's, or the spare bit.  They take four for the p = 2 layouts with no
room for one, (q, n) = (2, 28) and (4, 14) among them.  No table lookups
and no digit additions run inside the hot loop.

The kernel, in packed (numpy's one module, imported by the first sweep
with a row to pack: _sweep), is a blocked meet-in-the-middle sweep: the
rows' GF(q)-multiples are gathers from two packed tables of q - 1 entries,
gamma^k and beta gamma^k, at summed logs, the rows are split in half, and
the inner half's full span is built as packed words by packed.packed_span.
The outer words are the zero word and the outer half's projective
representatives (the messages whose first nonzero digit is 1).  One
histogram routine counts the weights of every outer-word + inner-word sum
in vectorized blocks, one call per thread: H over the representatives,
and Z over the zero word alone (the inner span itself), read off the first
block.  A sum with an outer representative stands for its q - 1 nonzero
multiples, so A = (q - 1) H + Z.  Weights that fit in a byte are counted
two at a time, by one np.bincount over the bytes read as uint16 pairs, in
scratch buffers per thread (a sweep's pool threads end with the sweep).  On the r' = r - e
shortened rows the kernel visits (q^r'_out - 1)/(q - 1) q^r'_in + q^r'_in
words, about q^(r - e)/(q - 1) of the enumerated side's q^r.  Work
partitions across a thread pool, at most one thread per CPU this process
may use and per whole block of outer words (about 2^16 sums), by slicing
the outer words (equivalently, fixing leading message digits); numpy's
bitwise ufuncs release the interpreter lock, and per-thread histograms
merge by integer addition, so the result is identical for any worker
count and schedule.

The mirror D = <g> of length 2n splits into length-n codes (cyclic.split;
_Constacyclic holds one), which the odd-p sweep and stabilizer_params use.
Block i of D is the pair (v_i, v_(n+i)), coordinate i's two trace-pair
components, so a GF(q)-linear bijection of GF(q)^2 applied to every block
keeps the GF(q^2) Hamming weight.

- Odd p: x^(2n) - 1 = (x^n - 1)(x^n + 1) with coprime factors, and the
  block map (a, b) -> (a + b, a - b) takes C onto A- x A+, where
  A-/+ = <gcd(g, x^n -/+ 1)> is a length-n cyclic / negacyclic code, and a
  word (u, w) weighs |supp u cup supp w|.  C^perp goes onto a copy of
  A+^perp x A-^perp, the factors swapped, which the union weight does not
  see; those are <gcd(h*, x^n + 1)> and <gcd(h*, x^n - 1)>.
  weight_distribution sweeps the enumerated side as this product
  (_mirror_counts), f = g for C and f = h* for C^perp, and saves twice:
  - each factor scales by GF(q)* on its own, so a pair of nonzero parts
    stands for (q - 1)^2 words; the sweep visits about q^(r-2)/(q - 1)^2
    words where both factors are nonzero, against q^(r-e)/(q - 1);
  - each factor shortens for free (_Constacyclic.short_rows).  The
    product of the shortened factors is the side's words with c_0 = 0 (e
    is the number of nonzero factors), and x times a word of D, cyclic on
    u and negacyclic on w, is the transitive shift that the lift needs.
  The A- part's entries pack as themselves and the A+ part's as beta
  times them, so a coordinate of a sum vanishes only where both parts do.
  With a >= b shortened rows in the factors and P(r) = (q^r - 1)/(q - 1), the kernel
  (packed._sweep) visits (P(a - i) + 1) q^i (P(b) + 1) words,
  i = (a - b) // 2; b = 0 leaves the one-side sweep above.
- Odd-p stabilizer codes: C^perp <= C forces A- or A+ to be all of
  GF(q)^n (conju.is_alternating_dual_containing), so C holds that
  factor's n GF(q)-independent weight-1 words, and d_lower = 1.  C^perp
  holds them all only if 2n - dim >= n, so d = 1 for dim > n, and for
  dim = n too: every such code is [[n, dim - n, 1]]_q, and pure.
- p = 2 sweeps: tau is multiplication by the unit x^n, so C^perp's mirror
  is <h*> itself.  The side whose mirror is <f> has the basis f, x f, ...,
  x^(d-1) f, d = 2n - deg f, and none of these wraps; as f(0) != 0, the
  last d - 1 span its words that vanish at mirror position 0.  Coordinate
  0 is zero where positions 0 and n both are, and x^j f has f_(n-j) at
  position n: the first row nonzero there is the pivot and leaves, and
  every other such row gains a GF(q) multiple of it, its scale read off
  f's logs (_mirror_short_rows).  This runs on the mirror's own logs, and
  the rows are packed as mirror words; e = 2, or e = 1 where no row is
  nonzero at n (f = x^n + 1, say).
- p = 2 stabilizer codes: x^(2n) - 1 = (x^n + 1)^2.  Write v = a + x^n b
  in D and s = a + b = v mod (x^n + 1), which lies in A = <g+>,
  g+ = gcd(g, x^n + 1).  v (1 + x^n) is the word (s, s), and (s, s) lies
  in D exactly when s lies in B0 = <g1>, g1 = g / g+, the largest cyclic
  subcode; A <= B0, as g+ has each factor at least as often as g1.  So
  wt(v) >= wt(s), with equality on the (s, s) words, and d(C) = d(B0).
  C^perp's mirror is <h*>, so B0' = <h*/gcd(h*, x^n + 1)> <= B0 plays
  B0's part for it: d(C^perp) = d(B0').  B0' is A^perp, by one division:
  if x^n + 1 = prod f_i^mu and g = prod f_i^e_i, then h = (x^(2n) + 1)/g
  = prod f_i^(2 mu - e_i), h/gcd(h, x^n + 1) = prod f_i^max(mu - e_i, 0)
  = (x^n + 1)/g+, and monic reciprocation commutes with a gcd against
  the self-reciprocal x^n + 1.  Write B0 - B0' for the set difference.
  The words (s, s), s in B0 - B0', lie in C - C^perp.  Any other word v
  of C - C^perp has s = 0, so v = (a, a) with a in B0 - B0', or s != 0
  in A <= B0, and then s lies in B0 - B0' or in A cap B0'; hence
  min(d(B0 - B0'), d(A cap B0')) <= d_Q <= d(B0 - B0'),
  with d(B0 - B0') = min{w : A_w(B0) > A_w(B0')} from two length-n
  distributions.  Where d(A cap B0') >= d(B0 - B0'), d_Q is exact; as
  A cap B0' <= B0', that holds when B0' has no nonzero word lighter than
  d(B0 - B0').  Purity, d(B0') >= d_Q, does not give it: d_Q < d(B0 - B0')
  occurs ((4, 21), exponents 0,0,1,0,0,2,2,1,0: pure [[21,5,3]]_4, but
  d(B0 - B0') = 5).  Elsewhere d_Q comes from the exhaustive route above.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conju import is_alternating_dual_containing
from .cyclic import shift_iterates, split
from .errors import BudgetExceededError, NotDualContainingError

#: Default cap on the words of the enumerated side, q^min(k, 2n - k); the
#: sweep visits about 1/(q^e (q - 1)) of them, e in {1, 2}, and an odd-p side
#: with two nonzero length-n factors about 1/(q^2 (q - 1)^2).
DEFAULT_BUDGET = 1 << 28


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


def _lift(short_counts, n, size):
    """A side's histogram from that of its words with c_0 = 0, by
    A_w (n - w) = n S_w as in the module docstring; the side has size
    words and must be closed under a shift that is transitive on the
    coordinates and keeps the weight."""
    counts = []
    for w in range(n):
        assert n * short_counts[w] % (n - w) == 0, "the lift is not integral"
        counts.append(n * short_counts[w] // (n - w))
    counts.append(size - sum(counts))
    assert counts[n] >= 0, "the lift exceeds the span"
    return counts


def _check_budget(q, e, budget, what):
    """Raise BudgetExceededError if q^e words to sweep, what, exceed the budget."""
    if q ** e > budget:
        raise BudgetExceededError(f"{q}^{e} enumerated words {what} exceed the budget of {budget}")


class _Constacyclic:
    """The length-n code <f> over GF(q), f a log list of tower.zech dividing
    x^n - lambda = binomial(n, c), lambda = +-1: c is minus_one for a cyclic
    code and 0 for a negacyclic one.  Its shift (lambda v_(n-1), v_0, ...)
    is transitive on the coordinates and keeps the weight, as _lift needs.
    perp is its Euclidean dual where that is known, else None."""

    def __init__(self, tower, n, f, c):
        self.tower, self.n, self.f, self.c = tower, n, f, c
        self.dim, self.perp = n + 1 - len(f), None

    def short_rows(self):
        """The words with c_0 = 0, as log lists: the shifts x f, ...,
        x^(dim - 1) f, windows of f's log list, which do not wrap (so are
        words whichever lambda) and, as f(0) != 0, span the words m f,
        deg m < dim, with m(0) = 0."""
        return shift_iterates((self.f + [-1] * self.n)[: self.n], self.dim)[1:]

    def dual(self):
        """The Euclidean dual <h*>, h = (x^n - lambda)/f, of the same lambda,
        whose perp is this code."""
        z = self.tower.zech
        h = z.divmod(z.binomial(self.n, self.c), self.f)[0]
        dual = _Constacyclic(self.tower, self.n, z.monic(h[::-1]), self.c)
        dual.perp = self
        return dual

    def meet(self, other):
        """The intersection <lcm(f, f')> with the code <f'> of the same lambda."""
        z = self.tower.zech
        lcm = z.product(self.f, z.divmod(other.f, z.gcd(self.f, other.f))[0])
        return _Constacyclic(self.tower, self.n, z.reduce(lcm), self.c)

    def counts(self, budget, workers):
        """Hamming weight histogram, from a sweep of the smaller of the code
        and its dual (the code on a tie), lifted, and MacWilliams over GF(q)
        for a dual.  The budget caps the swept side's words."""
        q, n = self.tower.q, self.n
        side = (self.perp or self.dual()) if 2 * self.dim > n else self
        _check_budget(q, side.dim, budget, f"of a length-{n} cyclic code")
        counts = _lift(_sweep(self.tower, [side.short_rows()], n, workers), n, q ** side.dim)
        return counts if side is self else _macwilliams(counts, q ** side.dim, q)


def _split(tower, n, f):
    """cyclic.split's two parts as _Constacyclic codes: the cyclic A- and
    the negacyclic A+ for odd p, B0 and A for p = 2."""
    parts = split(tower, n, f)
    return [_Constacyclic(tower, n, part, c) for part, c in zip(parts, (tower.zech.minus_one, 0))]


def _mirror_short_rows(tower, n, f):
    """p = 2: the words with c_0 = 0 of the side whose mirror is <f>, as
    mirror log rows of length 2n: the shifts x f, ..., x^(d - 1) f with the
    first one nonzero at mirror position n as the pivot, which leaves, and
    its multiple added to every other row nonzero there, as the module
    docstring says.  f is a reduced log list of tower.zech; the rows' logs
    are left unreduced (ZechLogs.add_scaled), any negative one a zero.
    """
    z, rows = tower.zech, shift_iterates((f + [-1] * (2 * n))[: 2 * n], 2 * n + 1 - len(f))[1:]
    pivot = next((row for row in rows if row[n] >= 0), None)
    if pivot:
        rows.remove(pivot)  # the shifts of f are distinct
        terms = [(k, t) for k, t in enumerate(pivot) if t >= 0]
        for row in (row for row in rows if row[n] >= 0):  # p = 2: plus clears position n
            z.add_scaled(row, 0, (row[n] - pivot[n]) % z.q1, terms)
    return rows


def _mirror_counts(tower, n, f, workers):
    """Hamming weight histogram of the side whose mirror generator is f,
    g for C or h* for C^perp, from its words with c_0 = 0 and the lift:
    for p = 2 the side's own shortened mirror rows (_mirror_short_rows),
    for odd p the product of _split's A- in GF(q) and A+ in beta GF(q), the
    first and second factor of packed._sweep."""
    parts = _split(tower, n, f) if tower.p != 2 else ()
    factors = [part.short_rows() for part in parts] if parts else [_mirror_short_rows(tower, n, f)]
    return _lift(_sweep(tower, factors, n, workers), n, tower.q ** (2 * n + 1 - len(f)))


def _sweep(tower, factors, n, workers):
    """packed._sweep's histogram of the factors' span; for no rows, the
    zero word's [1, 0, ..., 0], without importing packed (numpy)."""
    if not any(factors):
        return [1] + [0] * n
    from . import packed  # numpy loads with the first sweep that has a row

    return packed._sweep(tower, factors, n, workers)


def _macwilliams(counts, size, q2):
    """The other side's histogram from one side's, which has size words.

    Evaluates sum_i counts[i] (1 + (q2 - 1) y)^(n - i) (1 - y)^i at
    y = 2^w by Horner steps on one Python integer (Kronecker substitution).
    The coefficients size B_j are non-negative and sum to the transform at
    y = 1, counts[0] q2^n, so w is that sum's bit length and each is one
    base-2^w digit; the digits are read off and divided by size.  A
    malformed histogram gives a negative coefficient, which borrows from
    the digit above: nothing may be left above the digits, and they must
    still sum to counts[0] q2^n.
    """
    n = len(counts) - 1
    w = (counts[0] * q2 ** n).bit_length()
    acc, power = counts[0], 1
    for c in counts[1:]:
        acc += acc * (q2 - 1) << w
        power -= power << w
        acc += c * power
    mask, total = (1 << w) - 1, []
    for _ in counts:
        total.append(acc & mask)
        acc >>= w
    assert not acc and sum(total) == counts[0] * q2 ** n, "MacWilliams digits carried"
    assert all(t % size == 0 for t in total), "MacWilliams transform is not integral"
    return [t // size for t in total]


def weight_distribution(code, budget: int = DEFAULT_BUDGET, workers: int = 1):
    """Exact Hamming weight distributions of a conjucyclic code and its dual.

    Enumerates the strictly smaller side, C itself on a tie, through its
    shortened side, and gets the other by the MacWilliams transform.  That
    side has q^min(k, 2n - k) words, k = 2n - deg g; raises
    BudgetExceededError first if that count exceeds the budget.
    """
    tower, n, k = code.tower, code.n, code.card_log_q
    q, dual_k = tower.q, 2 * n - k
    _check_budget(q, min(k, dual_k), budget, "(the smaller of the code and its alternating dual)")
    dual = dual_k < k
    f = code.cyclic.h_star_logs if dual else code.cyclic.g_logs
    counts = _mirror_counts(tower, n, f, workers)
    if dual:
        a, b = _macwilliams(counts, q ** dual_k, tower.q2), counts
    else:
        a, b = counts, _macwilliams(counts, q ** k, tower.q2)
    assert a[0] == b[0] == 1, "A_0 or B_0 is not 1"
    assert sum(a) == q ** k and sum(b) == q ** dual_k, "histogram sizes"
    return WeightDistribution(counts=a, q=q, dim=k, dual_counts=b)


def stabilizer_params(
    code, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> StabilizerParams:
    """Derive [[n, dim - n, d]]_q and purity from a dual-containing code.

    d is the least weight of a word of C outside C^perp for dim > n, and
    the minimum weight of C for dim = n (C = C^perp); the code is pure when
    C^perp has no nonzero word lighter than d.  Both come from the mirror's
    length-n codes, as the module docstring proves:

    - odd p: C^perp <= C forces A- or A+ to be all of GF(q)^n, so C holds
      n weight-1 words that C^perp cannot all hold when dim > n; the
      answer is [[n, dim - n, 1]], d_lower 1, pure, with no sweep;
    - p = 2: d_lower = d(C) = d(B0), and d(B0 - B0') = min{w : A_w(B0) >
      A_w(B0')} (d(B0) when dim = n) and d(A cap B0') bound d.  Where they
      do not meet, d comes from the exhaustive route, min{w : A_w > B_w}
      over both histograms of C and C^perp; a pure code, B0' having no
      nonzero word lighter than d, may take it too.

    Every length-n sweep has at most q^(deg g) words, the smaller side that
    the exhaustive route enumerates, and is checked against the budget.
    """
    if not is_alternating_dual_containing(code):
        raise NotDualContainingError(
            "code is not alternating dual-containing; no stabilizer code"
        )
    tower, n, k = code.tower, code.n, code.card_log_q
    assert k >= n, "dual-containing code smaller than q^n"
    if tower.p != 2:
        return StabilizerParams(n=n, k_logical=k - n, d=1, d_lower=1, q=tower.q, pure=True)
    b0, a = _split(tower, n, code.cyclic.g_logs)
    b0_perp = a.dual()  # B0', C^perp's B0, is A^perp: see the module docstring
    c0 = b0.counts(budget, workers)
    d_lower = next(w for w in range(1, n + 1) if c0[w])
    c1 = b0_perp.counts(budget, workers) if k > n else c0
    d = next((w for w in range(1, n + 1) if c0[w] > c1[w]), d_lower)
    # B0' has a word lighter than d(B0 - B0'): certify d on A cap B0'
    if any(c1[1:d]) and any(a.meet(b0_perp).counts(budget, workers)[1:d]):
        dist = weight_distribution(code, budget=budget, workers=workers)
        d = next(w for w in range(1, n + 1) if dist.counts[w] > dist.dual_counts[w])
    return StabilizerParams(
        n=n, k_logical=k - n, d=d, d_lower=d_lower, q=tower.q, pure=not any(c1[1:d])
    )
