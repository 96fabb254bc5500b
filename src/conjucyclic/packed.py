"""numpy's one module: packed digit vectors, c bits a base-p digit in uint64
words, for the tower tables above field.PURE_TABLE_SIZE and the weight sweep,
which packs rows that weights has already shortened and counts."""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import NoPrimitivePolynomialError

_CHUNK_WORDS = 1 << 16  # sums per block of work; a thread takes whole blocks
# A histogram call takes about _STEPS steps of _BLOCK_WORDS to _CHUNK_WORDS
# sums: small steps keep a small sweep's buffers below malloc's 128 KiB mmap
# threshold, whose fresh pages would fault on every call, and large ones keep
# a large sweep's per-step overhead down.
_BLOCK_WORDS = 1 << 13
_STEPS = 16


def packed_add(p: int, c: int, fields: int):
    """add(a, b, out, tmp): digitwise a + b mod p on words of `fields` c-bit digits.

    Writes the sum to out (which may be a) and overwrites tmp; callers
    preallocate both, as fresh temporaries cost page faults.  The digits
    add by XOR for p = 2; for odd p they add as integers without carrying
    into each other, and p is subtracted from every digit that reached p.
    """
    if p == 2:
        return lambda a, b, out, tmp: np.bitwise_xor(a, b, out=out)
    ones = sum(1 << (i * c) for i in range(fields))
    bias, shift = np.uint64(((1 << (c - 1)) - p) * ones), np.uint64(c - 1)
    ones, p = np.uint64(ones), np.uint64(p)

    def add(a, b, out, tmp):
        # a field's top bit after adding 2^(c-1) - p is set iff its sum is >= p
        np.add(a, b, out=out)
        np.add(out, bias, out=tmp)
        tmp >>= shift
        tmp &= ones
        tmp *= p
        out -= tmp

    return add


def packed_neg(add, p: int, c: int, fields: int, words):
    """Digitwise -v mod p of words of `fields` c-bit digits, canonical as
    add = packed_add(p, c, fields) leaves them: p - d in every field, then
    adding the zero word takes each p back to 0.  For p = 2 negation is the
    identity."""
    if p == 2:
        return words
    out = np.uint64(p * sum(1 << (i * c) for i in range(fields))) - words
    add(out, np.uint64(0), out, np.empty_like(out))
    return out


def packed_span(add, multiples, nw):
    """All sums picking one column of each (nw, k_i) array: (nw, prod k_i)
    packed words, the first array's pick varying slowest; no arrays give
    the zero word alone."""
    if not multiples:
        return np.zeros((nw, 1), dtype=np.uint64)
    acc = multiples[0]
    for mult in multiples[1:]:
        shape = (nw, acc.shape[1], mult.shape[1])
        out, tmp = np.empty(shape, dtype=np.uint64), np.empty(shape, dtype=np.uint64)
        add(acc[:, :, None], mult[:, None, :], out, tmp)
        acc = out.reshape(nw, -1)
    return acc


def doubling_tables(p, d, modulus):
    """FieldTower's exp and log lists by doubling, as the field docstring
    says; the log list reuses the exp list's int objects."""
    n, c = p ** d - 1, _layout(p, d)[0]
    per = max(1, 8 // c)  # digits per lookup group: 8 bits' worth, or one digit
    groups, width, digit = -(-d // per), per * c, (1 << c) - 1
    add, mask = packed_add(p, c, d), (1 << width) - 1
    shifts = np.arange(d, dtype=np.uint64) * c

    def times_x(v):  # reduce by x^d = -modulus[:d]
        return [(a - v[-1] * f) % p for a, f in zip([0] + v[:-1], modulus)]

    # exp[:size] holds beta^0 .. beta^(size-1) packed, and power is beta^size;
    # each pass doubles size by one GF(p)-linear map, multiplication by beta^size
    exp = np.empty(n, dtype=np.uint64)
    exp[0], size, power = 1, 1, times_x([1] + [0] * (d - 1))
    tmp = np.empty(n // 2 + 1, dtype=np.uint64)
    while size < n:
        basis = np.zeros((groups * per, d), dtype=np.uint64)  # row j: beta^(size + j)
        for j in range(d):
            basis[j], power = power, times_x(power)
        scalars = np.arange(digit + 1, dtype=np.uint64)[:, None, None]
        mults = (scalars * basis % p << shifts).sum(axis=2).T.reshape(groups, per, -1)
        # tables[t][v]: beta^size times the element whose group-t digits are v
        tables = packed_span(add, [mults[:, k] for k in reversed(range(per))], groups)
        block = exp[: min(size, n - size)]
        out, size = exp[size : size + len(block)], size + len(block)
        np.take(tables[0], block & mask, out=out)
        for t in range(1, groups):
            add(out, tables[t][block >> t * width & mask], out, tmp[: len(out)])
        power = times_x([int(exp[size - 1]) >> (j * c) & digit for j in range(d)])
    del tmp, block, out  # block and out are views that would keep exp alive
    if p > 2:
        exp = sum((exp >> s & digit) * p ** j for j, s in enumerate(shifts))
    log = np.full(n + 1, -1, dtype=np.int64)
    log[exp] = np.arange(n)
    if (log[1:] < 0).any() or power != [1] + [0] * (d - 1):
        raise NoPrimitivePolynomialError(f"modulus {modulus} over GF({p}) is not primitive")
    exp = exp.tolist()
    log = log[log]
    # value v >= 1 is exp[log[v]]; codes 0 (no log) and 1 (log 0) are set by hand
    log = np.array(exp, dtype=object)[log].tolist()
    log[:2] = [-1, 0]
    return exp, log


def _layout(p, d):
    """(c, width, per) for coordinates of d base-p digits: bits per digit (1
    for p = 2, else room for a sum of two), per coordinate, coordinates per word."""
    c = 1 if p == 2 else (2 * p - 2).bit_length()
    return c, d * c, 64 // (d * c)


def _pack(tower, rows, n):
    """Rows of GF(q^2)^n as an (nw, len(rows)) uint64 array, packed as weights says."""
    p = tower.p
    c, width, per = _layout(p, tower.ext_degree)
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


def _multiples(tower, rows, n):
    """(nw, r, q) packed words: [:, j, i] is tower.subfield[i] times row j.

    tower.subfield is sorted, so column 0 is the zero word and column 1 the
    row itself.  Each product is one table lookup on the sum of the logs.
    """
    scales, scaled = tower.logs(tower.subfield[1:]), []
    for row in rows:
        logs = tower.logs(row)
        scaled.append([0] * len(row))
        scaled.extend(tower.codes(logs, lk) for lk in scales)
    packed = _pack(tower, scaled, n)
    return packed.reshape(len(packed), len(rows), tower.q)


def _block(outer_words, inner, words):
    """Outer words per block of about `words` sums."""
    return max(1, min(outer_words, words // inner.size))


def _histogram(outer, inner, ones, marks, n):
    """Weight histograms of every sum outer word - inner word: row 0 over
    the inner columns before `ones`, row 1 over the rest.

    A coordinate of the difference is zero exactly where the two words'
    canonical digits agree, so its weight is that of outer XOR inner: one
    mark bit per nonzero coordinate, found with the masks marks = (low, top).
    The longer of an outer block and the inner words runs innermost.
    """
    low, top = marks
    counts = np.zeros(2 * (n + 1), dtype=np.int64)
    words = min(_CHUNK_WORDS, max(_BLOCK_WORDS, outer.shape[1] * inner.size // _STEPS))
    step, cols = _block(outer.shape[1], inner, words), inner.shape[1]
    later = (np.arange(cols) >= ones) * (n + 1)
    flip = step > cols
    shape = (len(inner),) + ((cols, step) if flip else (step, cols))
    x, y = np.empty(shape, dtype=np.uint64), np.empty(shape, dtype=np.uint64)
    weights = np.empty(shape[1:], dtype=np.intp)
    if flip:
        later = later[:, None]
    for lo in range(0, outer.shape[1], step):
        block = outer[:, lo : lo + step]
        u, v = (inner, block) if flip else (block, inner)
        m, k = u.shape[1], v.shape[1]
        xs, ys, ws = x[:, :m, :k], y[:, :m, :k], weights[:m, :k]
        np.bitwise_xor(u[:, :, None], v[:, None, :], out=xs)
        # mark the top bit of each coordinate iff any of its bits is set
        np.bitwise_and(xs, low, out=ys)
        ys += low
        ys |= xs
        ys &= top
        if len(ys) == 1:
            np.bitwise_count(ys[0], out=ws)
        else:
            np.sum(np.bitwise_count(ys), axis=0, out=ws)
        if ones < cols:
            ws += later
        counts += np.bincount(ws.ravel(), minlength=2 * (n + 1))
    return counts.reshape(2, n + 1)


def _cores():
    """The CPUs this process may run on: its affinity mask where there is one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep(tower, factors, n, workers):
    """Exact Hamming weight histogram over the words x + y, x in the
    GF(q)-span of the first factor's rows and y in the second's.

    factors holds one or two lists of rows, each GF(q)-independent and
    packed by _multiples.  Two factors must meet only in 0 at every
    coordinate (weights puts one in GF(q) and the other in beta GF(q)), so
    that x + y weighs |supp x cup supp y| and x, y scale apart.  Call X
    the larger factor, of a rows, and Y the other, of b.  The outer words
    are one representative per GF(q)-projective point of the span of X's
    last a - i rows, the messages whose first nonzero digit is 1.  The
    inner words are the span of X's first i rows plus 0 or one
    representative of each projective point of Y; the first q^i inner
    columns hold the zero y and count once, the rest q - 1 times.  Z takes
    the zero word as the outer word, and A = (q - 1) H + Z as in the
    weights docstring.  i = (a - b) // 2 balances the outer and inner
    words; Y = 0 splits X in halves.  The inner words are negated once
    (packed_neg), so _histogram finds the zero coordinates of each sum by
    one XOR.
    No more threads start than the histogram has whole blocks of
    _CHUNK_WORDS sums, so a sweep of less than two starts no pool.
    """
    q = tower.q
    big, small = sorted(factors, key=len, reverse=True) + [[]] * (2 - len(factors))
    a, b = len(big), len(small)
    if not a:
        return [1] + [0] * n
    multiples = _multiples(tower, big + small, n)
    nw = len(multiples)
    c, width, per = _layout(tower.p, tower.ext_degree)
    fields = per * tower.ext_degree
    add = packed_add(tower.p, c, fields)
    top = np.uint64(sum(1 << (i * width + width - 1) for i in range(per)))
    cols = [multiples[:, j] for j in range(a + b)]

    def representatives(picks):
        # a representative leads in the first h picks, by a column [q^j, 2 q^j)
        # of their span (packed_span's first pick varies slowest, and column 1
        # of a multiples array is the row itself) plus any word of the rest's
        # span, or it leads in the rest
        h = len(picks) - len(picks) // 2
        head, tail = packed_span(add, picks[:h], nw), packed_span(add, picks[h:], nw)
        lead = np.concatenate([head[:, q ** j : 2 * q ** j] for j in range(h)], axis=1)
        shape = (nw, lead.shape[1], tail.shape[1])
        out, tmp = np.empty(shape, dtype=np.uint64), np.empty(shape, dtype=np.uint64)
        add(lead[:, :, None], tail[:, None, :], out, tmp)
        rest = [tail[:, q ** j : 2 * q ** j] for j in range(len(picks) - h)]
        return np.concatenate([out.reshape(nw, -1)] + rest, axis=1)

    i = (a - b) // 2
    zero = np.zeros((nw, 1), dtype=np.uint64)
    ys = [np.concatenate([zero, representatives(cols[a:])], axis=1)] if b else []
    inner = packed_neg(add, tower.p, c, fields, packed_span(add, ys + cols[:i], nw))
    outer = representatives(cols[i:a])
    blocks = outer.shape[1] // _block(outer.shape[1], inner, _CHUNK_WORDS)
    workers = min(max(1, int(workers)), _cores(), blocks)
    args = inner, q ** i, (~top, top), n
    if workers == 1:
        total = _histogram(outer, *args)
    else:
        parts = np.array_split(outer, workers, axis=1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            total = sum(pool.map(lambda o: _histogram(o, *args), parts))
    z = _histogram(np.zeros((len(outer), 1), dtype=np.uint64), *args)  # the zero outer word
    counts = [int(v) for v in (q - 1) * (total[0] + (q - 1) * total[1]) + z[0] + (q - 1) * z[1]]
    assert sum(counts) == q ** (a + b), "histogram does not cover the span"
    return counts
