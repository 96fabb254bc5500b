"""The three benchmark workloads: seeded inputs, timed operations, checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one returns.  The seed picks the inputs (divisor exponent
vectors) in untimed preparation; the library receives only the generated
divisors.  Each operation is an `Op`: `run()` is the timed call into the
library and `check(result)` is the untimed correctness gate, which raises
`CheckFailed` (or anything else) when the output is wrong.  When an
operation runs again in a later pass, its `key(result)` must equal the one
of the first, fully checked, pass.

The ROADMAP items referred to below are the open items of ROADMAP.md:
item 2 (MacWilliams from the smaller side), item 3 (bit-packed sweep
kernel), item 4 (one route per question: closed-form cyclic subcode and
divisibility-only dual containment) and item 5 (factorization without a
splitting field, numpy tower tables).

sweep
    Why: exhaustive weight enumeration, so the `weights` kernel does almost
    all of the work.  Four codes, each drawn by the seed from the divisors
    of a fixed (q, n, k) and shape (see _sweep_code), so the cost does not
    depend on the seed: it crosses p = 2 with odd p (the XOR path against
    the mod-p path) and k <= n with k > n.  Each code is swept at
    workers = 1 and again at workers = min(2, nproc).  The codes have 1.6
    to 4.8 million codewords and a pass takes about ten seconds, so a run
    makes three or four passes.  Codes a quarter that size, with about
    twelve passes a run, spread no less between runs (7.5 % against 7 %,
    quartile distance over median, five seeds run alternately).
    Measures: items 2 and 3.  Item 2 should gain only on the two k > n
    codes (their dual is the smaller side); item 3 on all four.
    Bypass control: item 2 on the two k <= n codes (prediction: no change),
    and any `linalg` change (item 4) on the whole workload.

classify
    Why: the coding theorist's loop over many small codes, where `weights`
    does almost nothing.  16 divisor codes per (q, n) family, a seeded
    systematic sample of the divisor lattice (see prepare_classify), 128
    operations per pass, each of a few milliseconds.  Each runs divisor ->
    ConjucyclicCode -> alternating dual -> dual containment -> largest
    cyclic subcode, plus stabilizer_params when the code is dual-containing
    and q^k <= 2^16 (a few tiny sweeps, so a sweep change that adds
    per-call set-up shows here as a cost).
    Measures: item 4 (the two elimination-backed calls dominate).
    Bypass control: item 3 and item 2 (prediction: no change beyond the
    per-call cost of the tiny sweeps) and item 5's tower tables.

longcode
    Why: the largest structures whose single calls still take at most
    tens of milliseconds.  The only workload where `field` dominates
    set-up (the q = 512 tower table) and `poly` (splitting-field search)
    takes a large share (about 40 %) of the timed work, and where `linalg`
    sees matrices of up to 102 columns instead of at most 42.  Four bare
    factorizations with splitting fields of 2^15.8 to 2^18 elements, then
    four pipelines at n = 9 to 51: the factorization, then three codes
    with deg g = n and a fixed cyclic-subcode dimension, each asked two
    questions as two operations (alternating dual with dual containment,
    and the largest cyclic subcode).  32 operations per pass.  Calls that
    take a second or more, such as factoring at (2, 47) or eliminating at
    (3, 121), are left out: on a shared machine a single timed call that
    long cannot be told apart from the host's slow stretches (see run.py).
    Measures: items 4 and 5.
    Bypass control: items 2 and 3 (no sweep runs here; prediction: no
    change).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable


class CheckFailed(Exception):
    """An operation's output failed the benchmark's correctness gate."""


def require(cond, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    """One timed operation and its untimed check."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    #: sizes reported with the operation (e.g. codewords swept, workers).
    sizes: dict = field(default_factory=dict)
    #: what must repeat exactly when the operation runs again.
    key: Callable[[Any], Any] = lambda result: result


@dataclass
class Workload:
    #: subfield sizes whose towers are built during set-up.
    tower_qs: tuple
    prepare: Callable  # (lib, rng, workers) -> (list of Op, warm-up list of Op)


# ---------------------------------------------------------------------------
# Independent arithmetic used by input generation and checks
# ---------------------------------------------------------------------------


def split_length(p: int, n: int):
    """2n = p^ell * n0 with gcd(n0, p) = 1; returns (n0, ell)."""
    n0, ell = 2 * n, 0
    while n0 % p == 0:
        n0 //= p
        ell += 1
    return n0, ell


def coset_sizes(q: int, n0: int):
    """Sizes of the q-cyclotomic cosets mod n0, ascending."""
    seen = set()
    sizes = []
    for j in range(n0):
        if j in seen:
            continue
        k, size = j, 0
        while k not in seen:
            seen.add(k)
            size += 1
            k = (k * q) % n0
        sizes.append(size)
    return tuple(sorted(sizes))


def prime_of(q: int) -> int:
    return next(d for d in range(2, q + 1) if q % d == 0)


def host_field_log2(q: int, n: int) -> float:
    """log2 of the splitting field GF(q^s) that factoring x^(2n) - 1 needs."""
    n0, _ = split_length(prime_of(q), n)
    s, acc = 1, q % n0
    while n0 > 1 and acc != 1:
        acc = (acc * q) % n0
        s += 1
    return round(s * math.log2(q), 6)


def exponent_vectors(degrees, mult, total):
    """All exponent vectors in [0, mult]^t with sum e_i * deg_i == total."""
    return [
        e
        for e in itertools.product(range(mult + 1), repeat=len(degrees))
        if degree_of(e, degrees) == total
    ]


def degree_of(exps, degrees) -> int:
    return sum(e * d for e, d in zip(exps, degrees))


def subcode_degree(exps, degrees, in_plus) -> int:
    """deg of g / gcd(g, x^n + 1), for g = prod f_i^e_i and x^n + 1 squarefree.

    The largest cyclic subcode is the length-n cyclic code generated by
    that quotient, so its dimension is n minus this degree.  in_plus[i] is
    1 when f_i divides x^n + 1.
    """
    return sum(d * max(0, e - v) for e, d, v in zip(exps, degrees, in_plus))


def factors_of_x_n_plus_1(lib, tower, n, fac):
    """in_plus for subcode_degree: which base factors divide x^n + 1."""
    if n % prime_of(tower.q) == 0:
        raise CheckFailed("x^n + 1 is not squarefree when p divides n")
    plus = [0] * (2 * n)
    plus[0] = plus[n] = 1
    return tuple(int(lib.CyclicCode(tower, n, f).contains(tuple(plus))) for f in fac.base)


def reciprocal_partners(lib, tower, fac):
    """partner[i] is the index of the monic reciprocal of base factor i."""
    index = {f: i for i, f in enumerate(fac.base)}
    return tuple(index[lib.poly.monic_reciprocal(tower, f)] for f in fac.base)


def shape(exps, degrees, in_plus, partners):
    """What a divisor's cost depends on, without naming its factors.

    One entry per orbit of the reciprocal map: the factor degree, whether
    the factors divide x^n + 1, and the exponents of the orbit.  Divisors
    of one shape have the same deg g and cyclic-subcode degree, and build
    matrices of the same sizes.
    """
    orbits = []
    for i, j in enumerate(partners):
        if i < j:
            orbits.append((degrees[i], in_plus[i], tuple(sorted((exps[i], exps[j])))))
        elif i == j:
            orbits.append((degrees[i], in_plus[i], (exps[i],)))
    return tuple(sorted(orbits))


class ShapePicker:
    """Seeded choice of a divisor of the same shape as a reference one.

    The benchmark fixes the reference divisors, so the cost of a pass does
    not depend on the seed; the seed picks, for each reference, a divisor
    of the same shape and the same dual-containment verdict (which decides
    whether a sweep follows).  Where the shape has one member, every seed
    gets the reference itself.
    """

    def __init__(self, lib, tower, n, fac, in_plus, candidates):
        self.lib, self.tower, self.n, self.fac = lib, tower, n, fac
        partners = reciprocal_partners(lib, tower, fac)
        self.shape_of = lambda e: shape(e, fac.degrees, in_plus, partners)
        self.classes = {}
        for e in candidates:
            self.classes.setdefault(self.shape_of(e), []).append(e)

    def contained(self, exps) -> bool:
        code = self.lib.ConjucyclicCode(self.tower, self.n, self.fac.divisor(exps))
        return self.lib.is_alternating_dual_containing(code)

    def pick(self, rng, reference, count=1):
        """`count` seeded divisors like `reference`, distinct while there are enough."""
        verdict = self.contained(reference)
        members = list(self.classes[self.shape_of(reference)])
        rng.shuffle(members)
        alike = [e for e in members if e == reference or self.contained(e) == verdict]
        return [alike[i % len(alike)] for i in range(count)]


def check_factorization(fac, q: int, n: int) -> None:
    p = prime_of(q)
    n0, ell = split_length(p, n)
    sizes = coset_sizes(q, n0)
    require(fac.n0 == n0 and fac.ell == ell, "n0 / ell mismatch")
    require(
        sum(d * fac.multiplicity for d in fac.degrees) == 2 * n,
        "sum of deg * multiplicity != 2n",
    )
    require(fac.t == len(sizes), "t != number of cyclotomic cosets")
    require(tuple(fac.degrees) == sizes, "factor degrees != coset sizes")
    require(fac.divisor_count == (p ** ell + 1) ** len(sizes), "divisor count")


def is_dual_containing(lib, code) -> bool:
    """Independent route: every alternating-dual row expands into the mirror."""
    return all(
        code.cyclic.contains(lib.expand(code.tower, r))
        for r in code.alternating_dual_matrix()
    )


def check_dual(lib, code, dual, contained) -> None:
    """The alternating dual and the dual-containment verdict of one code."""
    require(dual == code.alternating_dual_matrix(), "dual matrix not repeatable")
    require(len(dual) == code.k, "dual has deg g rows")
    require(contained == is_dual_containing(lib, code), "dual-containment verdict")


def check_subcode(lib, code, subcode) -> None:
    """The largest cyclic subcode of one code, up to its dimension."""
    tower, n = code.tower, code.n
    for vec in subcode:
        require(len(vec) == n, "subcode vector length")
        require(all(tower.in_subfield(x) for x in vec), "subcode vector not in GF(q)^n")
        e = lib.expand(tower, vec)
        require(e[:n] == e[n:], "subcode expansion halves differ")
        require(code.cyclic.contains(e), "subcode expansion not in the mirror code")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

#: (q, n, k, operation): k = 2n - deg g, so each sweep covers q^k codewords.
SWEEP_CODES = (
    (4, 11, 11, "weights"),
    (3, 13, 13, "weights"),
    (2, 21, 22, "stabilizer"),
    (3, 13, 14, "stabilizer"),
)


def _sweep_code(lib, rng, q, n, k, dual_containing):
    """A seeded code with q^k codewords, of the shape of a fixed reference.

    The sweep's cost depends on the shape (up to 25 % between shapes at
    (4, 11, 11)), so the seed picks only among divisors of one shape.
    """
    tower = lib.tower_for_q(q)
    fac = lib.factor_x2n_minus_1(tower, n)
    candidates = [
        exps
        for exps in exponent_vectors(fac.degrees, fac.multiplicity, 2 * n - k)
        if not dual_containing
        or is_dual_containing(lib, lib.ConjucyclicCode(tower, n, fac.divisor(exps)))
    ]
    if not candidates:
        raise CheckFailed(f"no dual-containing divisor code at (q, n, k) = {(q, n, k)}")
    in_plus = (0,) * fac.t  # the cyclic subcode plays no part in a sweep
    picker = ShapePicker(lib, tower, n, fac, in_plus, candidates)
    (exps,) = picker.pick(rng, max(picker.classes.values(), key=len)[0])
    return lib.ConjucyclicCode(tower, n, fac.divisor(exps))


def _check_distribution(code, dist):
    q = code.tower.q
    counts = dist.counts
    require(sum(counts) == q ** code.card_log_q, "counts do not sum to q^k")
    require(counts[0] == 1, "A_0 != 1")
    require(all(c % (q - 1) == 0 for c in counts[1:]), "(q - 1) does not divide A_w")


def prepare_sweep(lib, rng, workers):
    ops = []
    for q, n, k, kind in SWEEP_CODES:
        code = _sweep_code(lib, rng, q, n, k, kind == "stabilizer")
        results = {}  # workers -> result, for the w1 == w2 check
        reference = {}  # min weight from an untimed reference sweep

        def check(result, w, code=code, kind=kind, results=results, reference=reference):
            results[w] = result
            if kind == "weights":
                _check_distribution(code, result)
            else:
                if "d" not in reference:
                    dist = lib.weight_distribution(code, workers=workers)
                    _check_distribution(code, dist)
                    reference["d"] = dist.min_weight
                require(result.n == code.n and result.q == code.tower.q, "n / q")
                require(result.k_logical == code.card_log_q - code.n, "k - n logical")
                require(result.d_lower == reference["d"], "d != min weight")
            if len(set(results)) > 1:
                first = results[min(results)]
                require(
                    all(r == first for r in results.values()),
                    "1-worker and multi-worker results differ",
                )

        words = q ** k
        for w in sorted({1, workers}):
            if kind == "weights":
                run = lambda code=code, w=w: lib.weight_distribution(code, workers=w)
            else:
                run = lambda code=code, w=w: lib.stabilizer_params(code, workers=w)
            ops.append(
                Op(
                    label=f"{kind}-q{q}-n{n}-k{k}-w{w}",
                    run=run,
                    check=lambda r, w=w, check=check: check(r, w),
                    sizes={"words": words, "workers": w},
                )
            )

    def warm_run():
        data = lib.refdata.TERNARY_N11
        tower = lib.tower_for_q(data["q"])
        code = lib.ConjucyclicCode(
            tower, data["n"], lib.refdata.decode_vector(tower, data["g"])
        )
        return code, lib.weight_distribution(code, workers=1)

    def warm_check(result):
        code, dist = result
        _check_distribution(code, dist)
        require(dist.min_weight == lib.refdata.TERNARY_N11["min_weight"], "golden min weight")

    return ops, [Op("warmup-ternary-n11", warm_run, warm_check)]


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

CLASSIFY_FAMILIES = ((2, 15), (4, 9), (9, 5), (2, 21), (3, 13), (4, 15), (5, 12), (8, 7))
CLASSIFY_PER_FAMILY = 16
#: stabilizer_params runs only on dual-containing codes with q^k <= this.
CLASSIFY_SWEEP_CAP = 1 << 16


def _pipeline_key(result):
    code, *rest = result
    return (code.g, code.gen_matrix, *rest)


def _classify_op(lib, fac, tower, n, exps, in_plus):
    q = tower.q

    def run():
        code = lib.ConjucyclicCode(tower, n, fac.divisor(exps))
        dual = code.alternating_dual_matrix()
        contained = lib.is_alternating_dual_containing(code)
        subcode = code.largest_cyclic_subcode()
        stab = None
        if contained and q ** code.card_log_q <= CLASSIFY_SWEEP_CAP:
            stab = lib.stabilizer_params(code, workers=1)
        return code, dual, contained, subcode, stab

    def check(result):
        code, dual, contained, subcode, stab = result
        require(code.k == degree_of(exps, fac.degrees), "deg g != chosen degree")
        check_dual(lib, code, dual, contained)
        check_subcode(lib, code, subcode)
        require(
            len(subcode) == n - subcode_degree(exps, fac.degrees, in_plus),
            "cyclic subcode dimension != n - deg(g / gcd(g, x^n + 1))",
        )
        if stab is not None:
            require(stab.k_logical == code.card_log_q - n, "k - n logical")
            require(1 <= stab.d_lower <= n, "d out of range")
            # quantum Singleton bound, valid for the lower bound on d too
            require(stab.k_logical <= n - 2 * (stab.d_lower - 1), "quantum Singleton")

    return Op(label=f"classify-q{q}-n{n}", run=run, check=check, key=_pipeline_key)


def prepare_classify(lib, rng, workers):
    """Systematic sample of each family's divisor lattice.

    The lattice is ordered by (deg g, deg of the cyclic-subcode generator,
    shape) and the middle divisor of each of 16 equal slices is a
    reference; the seed then picks a divisor of the same shape and verdict
    (see ShapePicker).  Every seed gets the same mix of code sizes, which
    set the cost, while the codes themselves differ.
    """
    ops = []
    for q, n in CLASSIFY_FAMILIES:
        tower = lib.tower_for_q(q)
        fac = lib.factor_x2n_minus_1(tower, n)
        in_plus = factors_of_x_n_plus_1(lib, tower, n, fac)
        lattice = list(itertools.product(range(fac.multiplicity + 1), repeat=fac.t))
        picker = ShapePicker(lib, tower, n, fac, in_plus, lattice)
        lattice.sort(
            key=lambda e: (
                degree_of(e, fac.degrees),
                subcode_degree(e, fac.degrees, in_plus),
                picker.shape_of(e),
                e,
            )
        )
        step = len(lattice) / CLASSIFY_PER_FAMILY
        for i in range(CLASSIFY_PER_FAMILY):
            (exps,) = picker.pick(rng, lattice[int((i + 0.5) * step)])
            ops.append(_classify_op(lib, fac, tower, n, exps, in_plus))
    return ops, []


# ---------------------------------------------------------------------------
# longcode
# ---------------------------------------------------------------------------

#: factorizations whose splitting fields are GF(2^18), GF(4^9), GF(3^10)
#: and GF(9^5).
LONGCODE_FACTOR = ((2, 27), (4, 27), (3, 22), (9, 11))
#: (q, n, s): factor, one code with deg g = n whose largest cyclic subcode
#: has dimension n - s, then the elimination-backed calls.  The divisor is
#: of the most common shape with these degrees (see ShapePicker), so the
#: elimination cost hardly depends on the seed.
LONGCODE_PIPELINE = ((2, 51, 16), (4, 35, 12), (5, 21, 9), (512, 9, 2))
#: codes per pipeline, each its own operation: codes of one shape still
#: differ in elimination cost by up to 30 %, and three of them vary less
#: from seed to seed than one.
LONGCODE_CODES = 3


def _factor_op(lib, q, n):
    tower = lib.tower_for_q(q)
    return Op(
        label=f"factor-q{q}-n{n}",
        run=lambda: lib.factor_x2n_minus_1(tower, n),
        check=lambda fac: check_factorization(fac, q, n),
    )


def _pipeline_ops(lib, rng, q, n, sub):
    """The factorization, then LONGCODE_CODES codes with deg g = n."""
    tower = lib.tower_for_q(q)
    fac = lib.factor_x2n_minus_1(tower, n)
    in_plus = factors_of_x_n_plus_1(lib, tower, n, fac)
    candidates = [
        e
        for e in exponent_vectors(fac.degrees, fac.multiplicity, n)
        if subcode_degree(e, fac.degrees, in_plus) == sub
    ]
    picker = ShapePicker(lib, tower, n, fac, in_plus, candidates)
    # reference: the first divisor of the first most common shape
    picks = picker.pick(rng, max(picker.classes.values(), key=len)[0], LONGCODE_CODES)

    def dual_op(exps):
        def run():
            code = lib.ConjucyclicCode(tower, n, fac.divisor(exps))
            return code, code.alternating_dual_matrix(), lib.is_alternating_dual_containing(code)

        def check(result):
            require(result[0].k == n, "deg g != n")
            check_dual(lib, *result)

        return Op(label=f"dual-q{q}-n{n}", run=run, check=check, key=_pipeline_key)

    def subcode_op(exps):
        def run():
            code = lib.ConjucyclicCode(tower, n, fac.divisor(exps))
            return code, code.largest_cyclic_subcode()

        def check(result):
            check_subcode(lib, *result)
            require(len(result[1]) == n - sub, "cyclic subcode dimension")

        return Op(label=f"subcode-q{q}-n{n}", run=run, check=check, key=_pipeline_key)

    ops = [_factor_op(lib, q, n)]
    for exps in picks:
        ops += [dual_op(exps), subcode_op(exps)]
    return ops


def prepare_longcode(lib, rng, workers):
    ops = [_factor_op(lib, q, n) for q, n in LONGCODE_FACTOR]
    for q, n, sub in LONGCODE_PIPELINE:
        ops += _pipeline_ops(lib, rng, q, n, sub)
    return ops, []


WORKLOADS = {
    "sweep": Workload((2, 3, 4), prepare_sweep),
    "classify": Workload((2, 3, 4, 5, 8, 9), prepare_classify),
    "longcode": Workload((2, 3, 4, 5, 9, 512), prepare_longcode),
}
