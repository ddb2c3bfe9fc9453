"""CSV text of float64 arrays: every number exactly as format(v, ".17g").

Seventeen significant digits read back bit for bit.  Python formats one
value in about 0.6 us, which made writing profiles.csv most of a fine-mesh
run, so format_block formats a block of values at once with numpy and
hands Python only the values it cannot decide.  A finite |v| with decimal
exponent X (10^X <= |v| < 10^(X+1)) has the 17-digit significand
N = round(|v| 10^k), k = 16 - X, 10^16 <= N < 10^17:

1. |v| 10^k is formed as a double-double, |v| times a pair hi + lo = 10^k
   (each correctly rounded, so their sum is 10^k to 2^-106 relative), with
   Dekker's exact two-product (Dekker, "A floating-point technique for
   extending the available precision", Numer. Math. 18, 1971).  Its
   integer part I and fraction f are then off by less than 1e-14 in all.
2. N is I, or I + 1 for f > 1/2.  A fraction within TIE_BAND of 1/2 is
   left undecided: it may be an exact tie, which "%.17g" rounds half to
   even (1000000000000000.25 is written 1000000000000000.2).  An X taken
   one off from log10 puts I outside [10^16, 10^17) and is corrected, and
   N = 10^17 after rounding carries into X.
3. The digits of N are looked up four at a time.
4. Each field is gathered from a row of its digit characters, its
   exponent digits, the characters .-e+ and its separator by the template
   of its layout: "%g"'s fixed form for -4 <= X < 17, else d.ddde[+-]XX,
   with trailing zeros stripped, a sign for negative values (-0 included)
   and 2 or 3 exponent digits.  Templates are padded with zero bytes,
   which are deleted from the block's text at the end.
5. Non-finite values, |v| outside the tabulated 10^k (below 1e-284, or
   above about 1.3e300, where Dekker's split of |v| overflows) and the
   undecided near-ties take format(v, ".17g").
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

#: float64 values write_csv formats at a time (one row if a row is
#: longer); a block's buffers take BYTES_PER_VALUE bytes per value
WRITE_BLOCK_VALUES = 2**13
#: bytes write_csv holds per value of a block: the block (8) and in
#: format_block the source row (32), the gather index (8 * 25, intp), the
#: fields (25), their bytes with and without padding (2 * 25) and a dozen
#: float64/int64 temporaries (8 * 12); 380 measured with tracemalloc
BYTES_PER_VALUE = 8 + 32 + 8 * 25 + 25 + 2 * 25 + 8 * 12
#: bytes _tables takes while it is built, 782,540 measured with tracemalloc
TABLE_BYTES = 800_000
#: a fraction this close to 1/2 is left to format(), far above the
#: double-double's error
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
#: layout forms: 21 fixed (X = -4..16), then e-XX, e-XXX, e+XX, e+XXX
_FORMS = 25


@functools.cache
def _tables():
    """(powers, quads, last, exponents, templates), built on first use.

    powers[:, k - _K_MIN] is (hi, hi1, hi2, lo) for 10^k: hi and lo
    correctly rounded from exact integers, and hi = hi1 + hi2 split for
    Dekker's product.  quads[g] are the four digit characters of
    g = 0..9999 as a little-endian uint32, last[g] the place of its last
    nonzero digit (-100 for g = 0), and exponents[e] the three digit
    characters of e = 0..324.  templates[code] lists the source-row
    columns of the field of layout code ((neg * _FORMS + form) * 17 +
    count - 1), count its significant digits, separator included and
    padded with _PAD.
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
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    quads = (digits + ord("0")).astype(np.uint8).view("<u4")[:, 0]
    last = np.where(digits.any(axis=1), 3 - np.argmax(digits[:, ::-1] != 0, axis=1), -100)
    exponents = np.frombuffer(b"".join(b"%03d" % e for e in range(325)),
                              dtype=np.uint8).reshape(-1, 3)
    templates = np.full((2 * _FORMS * 17, _WIDTH), _PAD, dtype=np.intp)
    for code in range(templates.shape[0]):
        neg, rest = divmod(code, _FORMS * 17)
        form, count = divmod(rest, 17)
        count += 1
        cols = [_MINUS] if neg else []
        if 4 <= form < 21:  # X = form - 4 >= 0: X + 1 digits before the point
            cols += range(3, form)
            if count > form - 3:
                cols += [_DOT, *range(form, count + 3)]
        elif form < 4:  # 0.000ddd
            cols += [0, _DOT] + [0] * (3 - form) + list(range(3, count + 3))
        else:
            cols.append(3)
            if count > 1:
                cols += [_DOT, *range(4, count + 3)]
            cols += [_E, _MINUS if form < 23 else _PLUS]
            cols += [21, 22] if form in (21, 23) else [20, 21, 22]
        cols.append(_SEP)
        templates[code, :len(cols)] = cols
    tables = (np.array(powers).T.copy(), quads.copy(), last, exponents.copy(),
              templates)
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(I, f, ok): a 10^k = I + f, I int64 and 0 <= f < 1, where ok; ok is
    False for k outside the table and where the product is not finite."""
    powers = _tables()[0]
    index = k - _K_MIN
    ok = (index >= 0) & (index < powers.shape[1])
    hi, hi1, hi2, lo = powers.take(np.where(ok, index, 0), axis=1)
    p = a * hi
    c = _SPLIT * a
    a1 = c - (c - a)
    a2 = a - a1
    t = (((a1 * hi1 - p) + a1 * hi2 + a2 * hi1) + a2 * hi2) + a * lo
    s = p + t
    r = t - (s - p)
    ok &= np.isfinite(s) & np.isfinite(r)
    if not ok.all():
        s[~ok] = r[~ok] = 0.0
    whole = np.floor(s)
    f = (s - whole) + r
    carry = np.floor(f)
    f -= carry
    return whole.astype(np.int64) + carry.astype(np.int64), f, ok


def format_block(values: np.ndarray, index: np.ndarray | None = None) -> bytes:
    """The CSV text of a 2-D float64 block: each value as format(v, ".17g"),
    the fields of a row joined by ',' and each row ended by a newline;
    index, intp (values.size, _WIDTH), takes the gather index if given."""
    cols = values.shape[1]
    v = values.ravel()
    _, quads, last, exponents, templates = _tables()
    with np.errstate(all="ignore"):
        a = np.abs(v)
        zero = a == 0.0
        fast = np.isfinite(a) & ~zero
        if not fast.all():
            a[~fast] = 1.0
        X = np.floor(np.log10(a)).astype(np.int64)
        whole, f, ok = _scaled(a, 16 - X)
        # log10 can be one off next to a power of ten
        off = np.flatnonzero(ok & ((whole < 10**16) | (whole >= 10**17)))
        if off.size:
            X[off] += np.where(whole[off] >= 10**17, 1, -1)
            whole[off], f[off], ok[off] = _scaled(a[off], 16 - X[off])
            ok &= (whole >= 10**16) & (whole < 10**17)
        fast &= ok & (np.abs(f - 0.5) >= TIE_BAND)
    N = np.where(fast, whole + (f > 0.5), 0)
    carry = N == 10**17
    N[carry] = 10**16
    X = np.where(fast, X + carry, 0)
    source = np.empty((v.size, _ROW), dtype=np.uint8)
    source[:] = np.frombuffer(b"0" * 23 + b".-e+," + bytes(4), dtype=np.uint8)
    source[cols - 1::cols, _SEP] = ord("\n")
    # N's digits four at a time, the last two groups from its low 8 digits;
    # count is the place of its last nonzero digit, plus one
    chars = source.view("<u4")
    count = np.ones(v.size, dtype=np.int64)
    high = N // 10**8
    for x, slots in (((N - high * 10**8).astype(np.uint32), (4, 3)),
                     (high.astype(np.uint32), (2, 1, 0))):
        for j in slots:
            q = x // 10000
            x -= q * 10000
            chars[:, j] = quads.take(x)
            np.maximum(count, last.take(x) + (4 * j - 2), out=count)
            x = q
    source[:, 20:23] = exponents.take(np.abs(X), axis=0)
    form = np.where((X >= -4) & (X < 17), X + 4,
                    21 + 2 * (X > 0) + (np.abs(X) >= 100))
    # a writer reuses one index, not mapping fresh memory per block; "clip" fills it in place
    index = templates.take((np.signbit(v) * _FORMS + form) * 17 + count - 1,
                           axis=0, out=index, mode="clip")
    index += np.arange(0, v.size * _ROW, _ROW)[:, None]
    text = source.ravel().take(index)
    for i in np.flatnonzero(~fast & ~zero).tolist():
        field = format(float(v[i]), ".17g").encode() + source[i, _SEP].tobytes()
        text[i] = 0
        text[i, :len(field)] = np.frombuffer(field, dtype=np.uint8)
    return text.tobytes().translate(None, b"\0")


def write_csv(path: Path, header: str, parts) -> None:
    """Write header, then one row of format_block text per index of the
    columns of parts, in order: a 1-D part is one column and a 2-D part
    one column per row, all of one length.  Streamed in blocks of about
    WRITE_BLOCK_VALUES values, each part sliced once per block."""
    parts = [np.atleast_2d(p) for p in parts]
    count = parts[0].shape[1]
    width = sum(p.shape[0] for p in parts)
    step = max(1, WRITE_BLOCK_VALUES // width)
    index = np.empty((step * width, _WIDTH), dtype=np.intp)
    with open(path, "wb") as f:
        f.write(header.encode() + b"\n")
        for lo in range(0, count, step):
            hi = min(lo + step, count)
            # C order, which format_block ravels without a copy
            block = np.concatenate([p[:, lo:hi].T for p in parts], axis=1,
                                   out=np.empty((hi - lo, width)))
            f.write(format_block(block, index[:block.size]))
