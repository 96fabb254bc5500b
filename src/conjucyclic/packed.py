"""numpy's one module: packed digit vectors, c bits a base-p digit in uint64
words, for the tower tables above field.PURE_TABLE_SIZE and the weight sweep,
which gathers the GF(q) multiples of the mirror log rows that weights has
shortened from two tables of q - 1 entries per tower, and counts."""

from __future__ import annotations

import contextvars
import functools
import os
import threading
import weakref
from array import array
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import NoPrimitivePolynomialError

_CHUNK_WORDS = 1 << 16  # sums per block of work; a thread takes whole blocks
# A histogram call takes about _STEPS steps, each marking at least
# _BLOCK_WORDS words (a layout with a carry bit marks in place, the others
# in a second buffer and take half as many) and at most _CHUNK_WORDS: small
# calls keep their buffers small, and large ones take few steps, as every
# step costs a few GIL handoffs and a pass over the joint histogram.
_BLOCK_WORDS = 1 << 15
_STEPS = 16
# numpy copies a broadcast ufunc through buffers when its inner row has at
# most a third of the buffer size (8192 by default), at about 3x the cost of
# a plain pass.  The pair XOR's inner rows are a few hundred words, so it
# runs with this buffer size, in a context kept with the scratch buffers,
# which leaves the caller's numpy settings alone.  The other passes keep the
# default, as a broadcast uint8 add is slower unbuffered, and smaller sizes
# slow the XOR of rows of a few dozen words.
_BUFSIZE = 256
_scratch = threading.local()  # a thread's buffers; _sweep's pool threads end with it
#: _subfield_tables per tower, held weakly, so a dropped tower's tables go too
_SUBFIELD_TABLES = weakref.WeakKeyDictionary()


@functools.cache
def packed_add(p: int, c: int, fields: int):
    """add(a, b, out, tmp): digitwise a + b mod p on words of `fields` c-bit digits.

    Writes the sum to out (which may be a) and overwrites tmp (which may
    be b); callers preallocate both, as fresh temporaries cost page
    faults.  The digits add by XOR for p = 2; for odd p they add as
    integers without carrying into each other, and p is subtracted from
    every digit that reached p.
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


def coset_tables(p, d, modulus, gamma, leaders):
    """FieldTower's exp and log, array('i') tables written through numpy
    views: row j of exp is gamma^j times the leaders beta^0 .. beta^q (digit
    lists), gamma times the row before, by field._gamma_tables and by code
    tables, each indexed by the packed low or high half of an entry.  A log
    left at -1 means that beta is not primitive."""
    q, c = len(leaders) - 1, _digit_bits(p)
    w, add = c * (d // 2), packed_add(p, c, d)
    exp, log = array("i", [0]) * (q * q - 1), array("i", [-1]) * (q * q)
    exps, logs = np.frombuffer(exp, np.int32), np.frombuffer(log, np.int32)
    halves = _pack(np.arange(q, dtype=np.uint64), p, c, d // 2)
    codes = [np.zeros(1 << w, np.int32) for _ in range(2)]  # zero pages stay unmapped
    codes[0][halves], codes[1][halves] = np.arange(q), np.arange(0, q * q, q)
    steps = [np.zeros(1 << w, np.uint64) for _ in range(2)]
    for step, table in zip(steps, gamma):
        step[halves] = _pack(np.array(table, np.uint64), p, c, d)
    v = np.array(leaders, np.uint64) @ (np.uint64(1) << np.arange(0, d * c, c, dtype=np.uint64))
    tmp, cols = np.empty_like(v), np.arange(q + 1, dtype=np.int32)
    for row in exps.reshape(q - 1, q + 1):
        lo, hi = (ix := v.view(np.intp)) & (1 << w) - 1, ix >> w  # intp gathers run 2-3x faster
        np.add(codes[0][lo], codes[1][hi], out=row)
        logs[row] = cols
        cols += q + 1
        add(steps[0][lo], steps[1][hi], v, tmp)
    if (logs[1:] < 0).any():
        raise NoPrimitivePolynomialError(f"modulus {modulus} over GF({p}) is not primitive")
    return exp, log


def _digit_bits(p):
    """Bits per base-p digit: 1 for p = 2, else room for a sum of two digits."""
    return 1 if p == 2 else (2 * p - 2).bit_length()


def _pack(codes, p, c, digits):
    """uint64 codes of `digits` base-p digits to c-bit fields, in place:
    digit k is t_k - p t_(k+1), t_k = code // p^k, so the fields read
    code + (2^c - p) sum_(k >= 1) t_k 2^((k-1) c)."""
    if p > 2:
        codes += sum(codes // p ** k << (k - 1) * c for k in range(1, digits)) * ((1 << c) - p)
    return codes


@functools.cache
def _layout(p, d, n):
    """(c, width, per, place, top) for n coordinates of d base-p digits:
    bits per digit (_digit_bits), per coordinate, coordinates per word,
    their place values 2^(j width) in a word (read-only), and the mark
    mask of their top bits.  For p = 2 a coordinate takes a spare top bit,
    width d + 1, wherever that adds no word to the n coordinates, so that
    its top bit, like an odd-p coordinate's, is a carry bit, clear in
    canonical words; width > d tells the layouts whose top bit is one."""
    c = _digit_bits(p)
    width = d * c
    if p == 2 and -(-n // (64 // (d + 1))) == -(-n // (64 // d)):
        width += 1
    per = 64 // width
    place = np.uint64(1) << np.arange(0, per * width, width, dtype=np.uint64)
    place.flags.writeable = False
    return c, width, per, place, np.uint64(int(place.sum()) << width - 1)


def _subfield_tables(tower):
    """(tables, scales), once per tower: tables[0][k] and tables[1][k] are
    gamma^k and beta gamma^k, packed as one coordinate's 2m c-bit digit
    fields, and scales holds the logs of tower.subfield[1:] as a column.
    gamma^k's digits come from the codes of tower.zech; beta v shifts v's
    digits up one place and reduces x^2m by the modulus, a GF(p)-linear map
    of the digits (the companion matrix)."""
    if (tables := _SUBFIELD_TABLES.get(tower)) is None:
        p, d, z, c = tower.p, tower.ext_degree, tower.zech, _digit_bits(tower.p)
        gamma = np.array(z.code[:-1], np.int64)[:, None] // p ** np.arange(d) % p
        # row j of times_beta is x^(j + 1) mod the modulus: x^2m = -modulus[:2m]
        times_beta = np.vstack([np.eye(d - 1, d, 1, np.int64), np.negative(tower.modulus[:d]) % p])
        fields = np.uint64(1) << np.arange(0, d * c, c, dtype=np.uint64)
        tables = np.stack([gamma, gamma @ times_beta % p]).astype(np.uint64) @ fields
        scales = np.array([z.log[x] for x in tower.subfield[1:]])[:, None]
        tables = _SUBFIELD_TABLES[tower] = tables, scales
    return tables


def _multiples(tower, factors, n):
    """(nw, r, q) packed words: [:, j, i] is tower.subfield[i] times row j of
    the factors' rows, in order.

    A row is a log list of tower.zech over the mirror, any negative log a
    zero entry (ZechLogs leaves logs unreduced).  Rows of length 2n pack
    coordinate i as v_i + beta v_(n+i), which is zero exactly where both
    are; rows of length n pack v_i in the first factor and beta v_i in the
    second.  tower.subfield is sorted, so column 0 is the zero word and
    column 1 the row itself.  The products are gathers from
    _subfield_tables at the summed logs mod q - 1 (take's wrap), one per
    nonzero half, 0 where the row's entry is; a word sums its coordinates
    times their place values.
    """
    p, q, d = tower.p, tower.q, tower.ext_degree
    c, _, per, place, _ = _layout(p, d, n)
    tables, scales = _subfield_tables(tower)
    logs = np.array([row for rows in factors for row in rows])[:, None, :]
    r, k = len(logs), len(factors[0])
    codes = np.zeros((r, q, -(-n // per) * per), np.uint64)  # column 0 stays the zero word

    def gather(half, logs):  # 0 where a log is negative
        return np.where(logs < 0, 0, np.take(tables[half], logs + scales, mode="wrap"))

    if logs.shape[2] == n:
        codes[:k, 1:, :n], codes[k:, 1:, :n] = gather(0, logs[:k]), gather(1, logs[k:])
    else:  # y, consumed by the sum, doubles as its scratch array
        x, y = gather(0, logs[..., :n]), gather(1, logs[..., n:])
        packed_add(p, c, d)(x, y, codes[:, 1:, :n], y)
    words = codes.reshape(r, q, -1, per) @ place
    return np.ascontiguousarray(words.transpose(2, 0, 1))


def _block(outer_words, inner, words):
    """Outer words per block of about `words` sums."""
    return max(1, min(outer_words, words // inner.size))


def _histogram(outer, inner, ones, top, n, carry, zero):
    """Weight histograms of every sum outer word - inner word, (H, Z): row
    0 over the inner columns before `ones` and, if any are left, row 1 over
    the rest; Z counts outer column 0 alone when `zero` is set, else None.

    A coordinate of the difference is zero exactly where the two words'
    canonical digits agree, so its weight is that of x = outer XOR inner:
    one mark bit per nonzero coordinate in the masks top and low = ~top.
    Where `carry` is set, a coordinate's top bit is a carry bit (an odd-p
    digit's, or the spare bit of a p = 2 layout that has one), 0 in
    canonical words and in x, so x <= low fieldwise and (x + low) & top
    marks it in place; else every bit is a digit, and ((x & low) + low |
    x) & top marks it in a second buffer.  The longer of an outer block
    and the inner words runs innermost, and the XOR runs unbuffered (see
    _BUFSIZE).  Scratch buffers are per thread (see _scratch).  A
    weight in row 1 is stored plus n + 1; where that fits in a byte (at
    most 256 bins: 2n + 1 <= 255 with row 1, n <= 255 without), weights
    are written as bytes and np.bincount reads them as uint16 pairs, at
    lo + 256 hi, half as many elements; the joint histogram is folded into
    both marginals once at the end (a padding byte of 0 evens an odd block
    and is taken off again).  Else the weights are counted as intp.
    """
    nw, cols = inner.shape
    rows = 2 if ones < cols else 1
    bins = rows * (n + 1)
    paired = bins <= 256
    words = max(_BLOCK_WORDS if carry else _BLOCK_WORDS // 2, outer.shape[1] * inner.size // _STEPS)
    step = _block(outer.shape[1], inner, min(_CHUNK_WORDS, words))
    flip = step > cols
    size = nw * step * cols
    need = 2 * size + (step * cols + 8) // (8 if paired else 1)
    buf = getattr(_scratch, "buf", None)
    if buf is None:  # one size, so a thread's buffer is never freed and remade
        buf = _scratch.buf = np.empty(3 * _BLOCK_WORDS + 8, dtype=np.uint64)
        _scratch.unbuffered = contextvars.Context()  # for the XOR; see _BUFSIZE
        _scratch.unbuffered.run(np.setbufsize, _BUFSIZE)
    unbuffered = _scratch.unbuffered
    if len(buf) < need:
        buf = np.empty(need, dtype=np.uint64)
    x, y = buf[:size], buf[size : 2 * size]
    wbuf = buf[2 * size :].view(np.uint8 if paired else np.intp)
    if rows == 2:
        later = np.zeros((cols, 1) if flip else cols, dtype=wbuf.dtype)
        later[ones:] = n + 1
    low, z, pad = ~top, None, 0
    for lo in range(0, outer.shape[1], step):
        block = outer[:, lo : lo + step]
        u, v = (inner, block) if flip else (block, inner)
        m, k = u.shape[1], v.shape[1]
        xs = x[: nw * m * k].reshape(nw, m, k)
        unbuffered.run(np.bitwise_xor, u[:, :, None], v[:, None, :], out=xs)
        if carry:
            xs += low
            xs &= top
            marks, free = xs, y
        else:
            marks, free = y[: nw * m * k].reshape(nw, m, k), x
            np.bitwise_and(xs, low, out=marks)
            marks += low
            marks |= xs
            marks &= top
        ws = wbuf[: m * k].reshape(m, k)
        if nw == 1:
            np.bitwise_count(marks[0], out=ws)
        else:
            bits = free.view(np.uint8)[: nw * m * k].reshape(nw, m, k)
            np.bitwise_count(marks, out=bits)
            np.sum(bits, axis=0, dtype=ws.dtype, out=ws)
        if rows == 2:
            ws += later
        if zero and lo == 0:
            z = np.bincount(ws[:, 0] if flip else ws[0], minlength=bins)
        if paired:
            if m * k % 2:
                wbuf[m * k], pad = 0, pad + 1
            c = np.bincount(wbuf[: m * k + m * k % 2].view(np.uint16), minlength=256 * bins)
        else:
            c = np.bincount(ws.ravel(), minlength=bins)
        if lo:
            counts += c
        else:
            counts = c
    if paired:
        joint = counts.reshape(bins, 256)[:, :bins]
        counts = joint.sum(axis=0) + joint.sum(axis=1)
        counts[0] -= pad
    return counts.reshape(rows, n + 1), None if z is None else z.reshape(rows, n + 1)


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
    coordinate (rows of length n do: the first factor's pack into GF(q),
    the second's into beta GF(q)), so that x + y weighs |supp x cup supp y|
    and x, y scale apart.  Call X the larger factor, of a rows, and Y the
    other, of b.  The outer words are one representative per
    GF(q)-projective point of the span of X's last a - i rows, the
    messages whose first nonzero digit is 1.  The
    inner words are the span of X's first i rows plus 0 or one
    representative of each projective point of Y; the first q^i inner
    columns hold the zero y and count once, the rest q - 1 times.  Outer
    column 0 is the zero word, so one _histogram call per thread counts H
    over all outer words and Z over that column alone; the zero word
    stands for itself, not for q - 1 words, so A = (q - 1) H - (q - 2) Z,
    the weights docstring's (q - 1) H + Z with H taken over the
    representatives only.  i = (a - b) // 2 balances the outer and inner
    words; Y = 0 splits X in halves.  The inner words are negated once
    (packed_neg), so _histogram finds the zero coordinates of each sum by
    one XOR.
    No more threads start than the histogram has whole blocks of
    _CHUNK_WORDS sums, so a sweep of less than two starts no pool.
    """
    q = tower.q
    if not any(factors):
        return [1] + [0] * n
    multiples = _multiples(tower, factors, n)
    nw = len(multiples)
    cols = [multiples[:, j] for j in range(multiples.shape[1])]
    big, small = sorted((cols[: len(factors[0])], cols[len(factors[0]) :]), key=len, reverse=True)
    c, width, per, _, top = _layout(tower.p, tower.ext_degree, n)
    fields = per * tower.ext_degree
    add = packed_add(tower.p, c, fields)

    def representatives(picks):
        # the zero word, then the representatives: one leads in the first h
        # picks, by a column [q^j, 2 q^j) of their span (packed_span's first
        # pick varies slowest, and column 1 of a multiples array is the row
        # itself) plus any word of the rest's span, or it leads in the rest
        h = len(picks) - len(picks) // 2
        head, tail = packed_span(add, picks[:h], nw), packed_span(add, picks[h:], nw)
        lead = np.concatenate([head[:, q ** j : 2 * q ** j] for j in range(h)], axis=1)
        shape = (nw, lead.shape[1], tail.shape[1])
        out, tmp = np.empty(shape, dtype=np.uint64), np.empty(shape, dtype=np.uint64)
        add(lead[:, :, None], tail[:, None, :], out, tmp)
        rest = [tail[:, q ** j : 2 * q ** j] for j in range(len(picks) - h)]
        return np.concatenate([tail[:, :1], out.reshape(nw, -1)] + rest, axis=1)

    i = (len(big) - len(small)) // 2
    ys = [representatives(small)] if small else []
    inner = packed_neg(add, tower.p, c, fields, packed_span(add, ys + big[:i], nw))
    outer = representatives(big[i:])
    blocks = outer.shape[1] // _block(outer.shape[1], inner, _CHUNK_WORDS)
    workers = min(max(1, int(workers)), _cores(), blocks)
    args = inner, q ** i, top, n, width > tower.ext_degree
    if workers == 1:
        h, z = _histogram(outer, *args, q > 2)
    else:
        parts = np.array_split(outer, workers, axis=1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            runs = pool.map(lambda j: _histogram(parts[j], *args, j == 0 and q > 2), range(workers))
            results = list(runs)
        h, z = sum(r[0] for r in results), results[0][1]
    scale = (q - 1) ** np.arange(len(h))  # row 1 counts q - 1 times
    total = (q - 1) * (scale @ h)
    if z is not None:  # the zero outer word stands for itself, not q - 1 words
        total -= (q - 2) * (scale @ z)
    counts = [int(v) for v in total]
    assert sum(counts) == q ** len(cols), "histogram does not cover the span"
    return counts