"""CSV text of float64 arrays: every number exactly as format(v, ".17g").

Seventeen significant digits read back bit for bit.  Python formats one
value in about 0.6 us, which made writing profiles.csv most of a fine-mesh
run, so write_block formats a block of values at once with numpy and
hands Python only the values it cannot decide.  A finite |v| with decimal
exponent X (10^X <= |v| < 10^(X+1)) has the 17-digit significand
N = round(|v| 10^k), k = 16 - X, 10^16 <= N < 10^17:

1. |v| 10^k is |v| times hi + lo = 10^k (each correctly rounded, so their
   sum is 10^k to 2^-106 relative).  p = |v| hi is a float holding an
   integer in [10^16, 10^17), and Dekker's exact two-product (Dekker, "A
   floating-point technique for extending the available precision",
   Numer. Math. 18, 1971) gives its error e, so that |v| 10^k is
   floor(p) + (frac(p) + e + |v| lo).  Its integer part I and fraction f
   are off by less than 1e-14 in all.
2. N is I, or I + 1 for f > 1/2.  A fraction within TIE_BAND of 1/2 is
   left undecided: it may be an exact tie, which "%.17g" rounds half to
   even (1000000000000000.25 is written 1000000000000000.2).
3. The digits of N are looked up four at a time.
4. GATHER_VALUES values at a time, each field is gathered from a row of
   its digit characters, its exponent digits, the characters .-e+ and its
   separator by the template of its layout: "%g"'s fixed form for
   -4 <= X < 17, else d.ddde[+-]XX, with trailing zeros stripped, a sign
   for negative values (-0 included) and 2 or 3 exponent digits.
   Templates are padded with zero bytes, which are deleted from each
   stretch's text as it is written.
5. Non-finite values, |v| outside the tabulated 10^k (below 1e-284, or
   above about 1.3e300, where Dekker's split of |v| overflows), the
   undecided near-ties, values whose X log10 misjudges by one next to a
   power of ten (I outside [10^16, 10^17): 999.9999999999999, -1e-06)
   and values whose N rounds up to 10^17 (1e-14 and 1e+98, just below
   the power they print as) take format(v, ".17g"), once per distinct
   value of a stretch, and their fields are written over the gathered
   ones.

A writer allocates the buffers of all this once (_Buffers) and reuses
them for all its blocks, in ufunc calls whose operands are contiguous
and of one dtype, which take no iterator buffer; a block allocates only
each stretch's text and its fallback's texts, freed before the next,
and a few small arrays.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import BinaryIO

import numpy as np

#: float64 values write_csv formats at a time (one row if a row is
#: longer); a block's buffers take BYTES_PER_VALUE bytes per value
WRITE_BLOCK_VALUES = 2**13
#: values whose fields write_block gathers at a time; their buffers take
#: GATHER_BYTES whatever the block, 0.4 MB (2**10 took about 5% less time
#: on fine_mesh's profiles.csv, in twice the memory)
GATHER_VALUES = 2**9
#: bytes write_csv holds per value of a block: the block (8) and its
#: _Buffers, 6 float64, 4 int64, 1 uint32, 2 int16 and 4 bool arrays and
#: the source rows (32); 130.3-130.8 measured with tracemalloc
BYTES_PER_VALUE = 8 + 8 * 6 + 8 * 4 + 4 + 2 * 2 + 4 + 32
#: bytes per value of a stretch that its format() fallback takes at most,
#: freed before the next stretch: np.unique's arrays, the texts and their
#: Python objects (288 measured, for 512 distinct values like -1.5e-300)
FALLBACK_BYTES = 300
#: bytes a writer holds for its gathers: per value of a stretch the gather
#: index and its row offsets (8 * 25 each, intp), the padded fields (25),
#: their text (25) and the fallback (both made anew per stretch), and 16 KiB
#: for the open file's buffer and a block's small arrays (10.2 KB measured)
GATHER_BYTES = GATHER_VALUES * (8 * 25 * 2 + 25 + 25 + FALLBACK_BYTES) + 2**14
#: bytes _tables takes while it is built, 405,691 measured with tracemalloc
TABLE_BYTES = 420_000
#: a fraction this close to 1/2 is left to format(), far above the
#: error of I + f
TIE_BAND = 1e-6
#: exponents k of the tabulated 10^k: |v| 10^k for 1e-284 <= |v| < 1e301
_K_MIN, _K_MAX = -284, 300
#: Dekker's splitter, 2^27 + 1
_SPLIT = 134217729.0
#: bytes of the widest field and its separator, "-1.2345678901234567e-308,"
_WIDTH = 25
#: a value's source row: 20 digit characters (N after three "0"s, so digit
#: i of N is column i + 3 and column 0 is a "0"), 3 exponent digits, the
#: characters .-e+, the separator and zero bytes of padding
_DOT, _MINUS, _E, _PLUS, _SEP, _PAD = range(23, 29)
_ROW = 32
#: source-row bytes 24..31, "-e+," and padding, as two little-endian uint32
_ROW_END = np.frombuffer(b"-e+," + bytes(4), dtype="<u4")
#: layout forms: 21 fixed (X = -4..16), then e-XX, e-XXX, e+XX, e+XXX
_FORMS = 25
#: decimal exponents X the layout table covers, those of every float64
_X_MIN = -324


@functools.cache
def _tables():
    """(powers, quads, last, exponents, templates, codes), built on first use.

    powers[:, k - _K_MIN] is (hi, hi1, hi2, lo) for 10^k: hi and lo
    correctly rounded from exact integers, and hi = hi1 + hi2 split for
    Dekker's product.  quads[g] are the four digit characters of
    g = 0..9999 as a little-endian uint32, last[g] the place of its last
    nonzero digit (-100 for g = 0), and exponents[e] the three digit
    characters of e = 0..324 and the "." after them.  templates[code]
    lists the source-row columns of the field of layout code ((neg *
    _FORMS + form) * 17 + count - 1), count its significant digits,
    separator included and padded with _PAD.  codes[X - _X_MIN] + count is
    the code of a positive value's field.
    """
    powers = []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            hi = float(10**k)
            lo = float(10**k - int(hi))
        else:
            q = 10**-k
            hi = 1 / q  # int / int true division is correctly rounded
            a, b = hi.as_integer_ratio()
            lo = (b - a * q) / (b * q)
        hi1 = _SPLIT * hi - (_SPLIT * hi - hi)
        powers.append((hi, hi1, hi - hi1, lo))
    powers = np.array(powers).T.copy()
    g = np.arange(10000, dtype=np.uint32)
    quads = np.zeros_like(g)
    last = np.full(g.size, -100, dtype=np.int16)
    for place in range(4):
        digit = g // 10 ** (3 - place) % 10
        last[digit != 0] = place
        digit += ord("0")
        quads |= digit << 8 * place
    exponents = np.frombuffer(b"".join(b"%03d." % e for e in range(325)), dtype="<u4")
    # a field of count digits keeps the first used(count) columns of its
    # 17-digit mantissa, then its exponent and separator
    templates = np.full((2, _FORMS, 17, _WIDTH), _PAD, dtype=np.intp)
    count = np.arange(1, 18)[:, None]
    place = np.arange(_WIDTH)
    for form in range(_FORMS):
        if form < 4:  # 0.000ddd, X = form - 4
            head, tail = [0, _DOT] + [0] * (3 - form) + list(range(3, 20)), []
            used = 5 - form + count
        elif form < 21:  # X + 1 = form - 3 digits before the point
            head, tail = [*range(3, form), _DOT, *range(form, 20)], []
            used = np.where(count > form - 3, count + 1, form - 3)
        else:
            head = [3, _DOT, *range(4, 20)]
            tail = [_E, _MINUS if form < 23 else _PLUS]
            tail += [21, 22] if form in (21, 23) else [20, 21, 22]
            used = np.where(count > 1, count + 1, 1)
        row = np.array(head + tail + [_SEP] + [_PAD] * _WIDTH)
        templates[0, form] = row[np.where(place < used, place, len(head) + place - used)]
    templates[1, :, :, 0] = _MINUS
    templates[1, :, :, 1:] = templates[0, :, :, :-1]
    X = np.arange(_X_MIN, -_X_MIN + 1)
    form = np.where((X >= -4) & (X < 17), X + 4, 21 + 2 * (X > 0) + (np.abs(X) >= 100))
    tables = (powers, quads, last, exponents, templates.reshape(-1, _WIDTH),
              form * 17 - 1)
    for table in tables:
        table.flags.writeable = False
    return tables


class _Buffers:
    """Every array write_block needs for blocks of up to size values, so that
    a writer allocates them once.  _scaled takes real[1:6], ints[1:3] and
    masks[1]; write_block holds |v| in real[0], X and then the layout
    codes in ints[0], the fast values in masks[0], those format() writes
    in masks[3] and its scratch mask in masks[2], and takes ints[2:4] for
    the round-up and N's digits."""

    def __init__(self, size: int) -> None:
        self.real = np.empty((6, size))
        self.ints = np.empty((4, size), dtype=np.int64)
        self.char = np.empty(size, dtype=np.uint32)
        self.small = np.empty((2, size), dtype=np.int16)
        self.masks = np.empty((4, size), dtype=bool)
        self.source = np.empty((size, _ROW), dtype=np.uint8)
        # the column count whose row ends source holds
        self.cols = 0
        gather = min(size, GATHER_VALUES)
        self.index = np.empty((gather, _WIDTH), dtype=np.intp)
        # the fields, padded, in memory that bytearray.translate reads
        self.fields = bytearray(gather * _WIDTH)
        self.text = np.frombuffer(self.fields, dtype=np.uint8).reshape(gather, _WIDTH)
        # each field's row offset, in full: a broadcast add takes a buffer
        self.rows = np.repeat(np.arange(0, gather * _ROW, _ROW)[:, None], _WIDTH, axis=1)


def _scaled(a: np.ndarray, X: np.ndarray,
            work: _Buffers) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(I, f, ok): a 10^k = I + f for k = 16 - X, I int64 and 0 <= f < 1,
    where ok is True and the product is finite; ok is False for k outside
    the table, and f is NaN where the product is not finite (Dekker's split
    overflows above about 1.3e300).  Formed in the first a.size values of
    work.real[1:6], work.ints[1:3] and work.masks[1], and views of them."""
    hi, hi1, hi2, lo = _tables()[0]
    n = a.size
    power, p, a1, a2, t = work.real[1:6, :n]
    whole, index = work.ints[1:3, :n]
    ok = work.masks[1, :n]
    np.subtract(16 - _K_MIN, X, out=whole)
    np.minimum(np.maximum(whole, 0, out=index), hi.size - 1, out=index)
    np.equal(whole, index, out=ok)
    # every take clips, which writes into out without a buffer
    np.multiply(a, hi.take(index, out=power, mode="clip"), out=p)
    np.multiply(a, _SPLIT, out=a1)
    np.subtract(a1, a, out=a2)
    a1 -= a2
    np.subtract(a, a1, out=a2)
    # e = ((a1 hi1 - p) + a2 hi1 + a1 hi2) + a2 hi2, then t = e + a lo
    np.multiply(a1, hi1.take(index, out=power, mode="clip"), out=t)
    t -= p
    power *= a2
    t += power
    for part in (a1, a2):
        power = np.multiply(hi2.take(index, out=power, mode="clip"), part, out=power)
        t += power
    power = np.multiply(lo.take(index, out=power, mode="clip"), a, out=power)
    t += power
    # floor(p) and the integer part of frac(p) + t, added as integers
    np.floor(p, out=a1)
    p -= a1
    p += t
    np.floor(p, out=a2)
    np.subtract(p, a2, out=t)
    np.copyto(whole, a1, casting="unsafe")
    np.copyto(index, a2, casting="unsafe")
    whole += index
    return whole, t, ok


def _formatted(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(fields, ends): each of values as format(v, ".17g"), padded with zero
    bytes to _WIDTH, and its length, from one format() per distinct value,
    called in the order they first appear."""
    distinct, first, which = np.unique(values, return_index=True, return_inverse=True)
    texts = [b""] * distinct.size
    for k in np.argsort(first).tolist():
        texts[k] = format(float(distinct[k]), ".17g").encode()
    fields = np.frombuffer(b"".join(t.ljust(_WIDTH, b"\0") for t in texts),
                           dtype=np.uint8).reshape(-1, _WIDTH)
    return fields[which], np.array([len(t) for t in texts])[which]


def write_block(f: BinaryIO, values: np.ndarray, work: _Buffers) -> None:
    """Write to f the CSV text of a C-contiguous 2-D float64 block: each
    value as format(v, ".17g"), the fields of a row joined by ',' and each
    row ended by a newline.  work holds buffers for at least values.size
    values."""
    cols = values.shape[1]
    v = values.reshape(-1)
    n = v.size
    _, quads, last, exponents, templates, codes = _tables()
    a = work.real[0, :n]
    X = work.ints[0, :n]
    fast, _, mask, slow = work.masks[:, :n]
    with np.errstate(all="ignore"):
        np.abs(v, out=a)
        np.less(a, np.inf, out=fast)
        np.greater(a, 0.0, out=mask)
        fast &= mask
        np.logical_not(fast, out=slow)
        np.copyto(a, 1.0, where=slow)
        np.floor(np.log10(a, out=work.real[1, :n]), out=work.real[1, :n])
        np.copyto(X, work.real[1, :n], casting="unsafe")
        whole, frac, ok = _scaled(a, X, work)
        # not fast outside the table, where log10 took X one too high next to
        # a power of ten (I < 10^16), near a tie, or where the product is not
        # finite, whose NaN fraction fails the tie test
        fast &= ok
        np.greater_equal(whole, 10**16, out=mask)
        fast &= mask
        np.subtract(frac, 0.5, out=work.real[1, :n])
        np.greater_equal(np.abs(work.real[1, :n], out=work.real[1, :n]), TIE_BAND, out=mask)
        fast &= mask
    # N = I, or I + 1 above one half; not fast where it reaches 10^17 (X one
    # too low, or N rounded up to the next power), and 0 where not fast
    N, scratch = whole, work.ints[2, :n]
    np.copyto(scratch, np.greater(frac, 0.5, out=mask))
    N += scratch
    fast &= np.less(N, 10**17, out=mask)
    np.logical_not(fast, out=slow)
    np.copyto(N, 0, where=slow)
    np.copyto(X, 0, where=slow)
    # format() writes the values not fast but 0 and -0, which N = X = 0 writes
    slow &= np.not_equal(v, 0.0, out=mask)
    any_slow = slow.any()
    source = work.source[:n]
    chars = source.view("<u4")
    if work.cols != cols:
        # the row ends of every block of cols columns
        work.source.view("<u4")[:, 6:] = _ROW_END
        work.source[cols - 1::cols, _SEP] = ord("\n")
        work.cols = cols
    # the exponent's digits, and the layout code of a one-digit field
    char = work.char[:n]
    chars[:, 5] = exponents.take(np.abs(X, out=scratch), out=char, mode="clip")
    code = codes.take(np.add(X, -_X_MIN, out=scratch), out=X, mode="clip")
    np.add(code, _FORMS * 17, out=code, where=np.signbit(v, out=mask))
    # N's digits four at a time, from the last group up; count is the place
    # of its last nonzero digit, plus one
    x, head, tail = N, scratch, work.ints[3, :n]
    count, held = work.small[:, :n]
    count.fill(1)
    for j in (4, 3, 2, 1, 0):
        if j:
            np.floor_divide(x, 10000, out=head)
            x -= np.multiply(head, 10000, out=tail)
        chars[:, j] = quads.take(x, out=char, mode="clip")
        np.add(last.take(x, out=held, mode="clip"), 4 * j - 2, out=held)
        np.maximum(count, held, out=count)
        x, head = head, x
    np.copyto(tail, count)
    code += tail
    # each field from its source row, a stretch of GATHER_VALUES at a time
    gather = work.index.shape[0]
    for lo in range(0, n, gather):
        hi = min(lo + gather, n)
        index, text = work.index[:hi - lo], work.text[:hi - lo]
        templates.take(code[lo:hi], axis=0, out=index, mode="clip")
        index += work.rows[:hi - lo]
        source[lo:hi].reshape(-1).take(index, out=text, mode="clip")
        work.text[hi - lo:] = 0
        at = np.flatnonzero(slow[lo:hi]) if any_slow else ()
        if len(at):
            fields, ends = _formatted(v[lo:hi][at])
            text[at] = fields
            text[at, ends] = source[lo:hi][at, _SEP]
        f.write(work.fields.translate(None, b"\0"))


def write_csv(path: Path, header: str, parts) -> None:
    """Write header, then one row of write_block text per index of the
    columns of parts, in order: a 1-D part is one column and a 2-D part
    one column per row, all of one length.  Streamed in blocks of about
    WRITE_BLOCK_VALUES values, each part sliced once per block, through
    one set of buffers."""
    parts = [np.atleast_2d(p) for p in parts]
    count = parts[0].shape[1]
    width = sum(p.shape[0] for p in parts)
    step = max(1, WRITE_BLOCK_VALUES // width)
    block = np.empty((min(step, count), width))
    work = _Buffers(block.size)
    with open(path, "wb") as f:
        f.write(header.encode() + b"\n")
        for lo in range(0, count, step):
            hi = min(lo + step, count)
            # C order, which write_block ravels without a copy
            np.concatenate([p[:, lo:hi].T for p in parts], axis=1, out=block[:hi - lo])
            write_block(f, block[:hi - lo], work)
