"""CSV text: the one place that formats or parses a row.

Writing.  Rows are an integer index column or two followed by float
columns printed with a fixed number of decimal places, exactly as
`format(v, f".{d}f")` prints them, so runs with identical flags are
byte-identical.

Rows are formatted CHUNK_ROWS at a time by one numpy formatter: each
chunk becomes a fixed-width `uint8` matrix, one row per CSV line, written
as a single string.  A float v in [0, 1) at d <= 15 decimal places is
rounded exactly: Dekker's two-product (T. J. Dekker, Numer. Math. 18,
1971) gives v * 10^d = p + err with both parts doubles, and because
p < 2^50 the fraction t = (p - floor(p)) - 0.5 is exact (for p >= 1/4;
a smaller p rounds down whatever t's last bits), so the product rounds
up iff t > -err, and half to even when t == -err.  Integers
(non-negative) are written zero-padded to the chunk's widest value and the
pad bytes are then squeezed out.

A chunk the formatter does not cover falls back to `str.format` row by
row: d >= 16 (10^d * v no longer fits below 2^53), or a float that is not
in [0, 1), is NaN or infinite, or is -0.0 (which `format` prints with its
sign), or a negative integer.

Reading.  `read_floats` takes the rows after a header in blocks of at most
READ_BLOCK characters, each cut at its last newline, and parses a block
with numpy only when all of it keeps to this grammar: rows ending in a
newline (the last one optional) of exactly `columns` comma-separated
fields, each `[0-9]{1,8}[.][0-9]+([eE][+-]?[0-9]{1,3})?` with at most 24
mantissa digits.  That covers `repr` of a float in [0, 1) and the
fixed-point text the writer prints at up to 23 decimal places.  In a field
the dot is dropped and the mantissa D read from three 8-digit words, each
a uint64 of eight ASCII digits combined in three multiply-shift steps; the
value is V = D * 10^q, q the exponent less the number of fraction digits.
D is split as hi + lo with hi = RN(D), 10^q is a table pair hi + lo built
from exact int / int ratios (which Python rounds correctly), and one
Dekker product of the two pairs gives V to within 2^-100 * |V|.  Rounded
once, to r, the product is RN(V) unless V may lie within that bound of a
point halfway between r and a neighbouring double.  So a field whose r
may sit that near a midpoint, or is a power of two (whose neighbours are
not equally far), or whose D >= 2^63, or whose q is outside the table, is
read by `float()` on its own text instead; `float()` rounds correctly, as
numpy's `loadtxt` does.  The first block outside the grammar (a leading
sign, a space, CR, `#`, `nan`, a ragged or blank row, a header alone,
non-ASCII text, a row longer than a block) sends the stream back to the
first row and the whole of it to `np.loadtxt`, as does a stream that
cannot seek.  Every route gives the double nearest each field's decimal
value, so the result is the array `np.loadtxt` returns.
"""

from __future__ import annotations

import warnings

import numpy as np

from mbonacci.spectral import veltkamp_split

# rows formatted and written per `stream.write` call
CHUNK_ROWS = 1 << 14

# most decimal places the numpy formatter rounds exactly
_MAX_FAST_DIGITS = 15

# the four ASCII digits of 0..9999, one uint32 per entry; built from uint8
# digit grids, whose temporaries are 40 kB where int64 arithmetic takes 1 MB
_QUADS = np.stack(np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4,
                              indexing="ij"), axis=-1).view(np.uint32).ravel()


def _write_digits(out: np.ndarray, n: np.ndarray) -> None:
    """Write the non-negative int64 `n` as zero-padded decimals filling
    the columns of the uint8 matrix `out`, four digits per table lookup."""
    width = out.shape[1]
    groups = -(-width // 4)
    quads = np.empty((len(n), groups), dtype=np.uint32)
    for j in range(groups - 1, -1, -1):
        high = n // 10_000
        quads[:, j] = _QUADS[n - high * 10_000]
        n = high
    out[...] = quads.view(np.uint8)[:, 4 * groups - width:]


def _rounded_scaled(v: np.ndarray, digits: int) -> np.ndarray:
    """round(v * 10^digits) as int64, ties to even, exactly as `format`
    rounds the decimal expansion of each double v in [0, 1)."""
    scale = 10.0 ** digits
    scale_hi, scale_lo = veltkamp_split(scale)
    v_hi, v_lo = veltkamp_split(v)
    p = v * scale
    err = ((v_hi * scale_hi - p) + v_hi * scale_lo + v_lo * scale_hi) + v_lo * scale_lo
    q = np.floor(p)
    t = (p - q) - 0.5
    n = q.astype(np.int64)
    return n + ((t > -err) | ((t == -err) & (n & 1 == 1)))


def _widths(n: np.ndarray) -> np.ndarray:
    """Decimal digit count of each non-negative int64."""
    width = np.ones(n.shape, dtype=np.int64)
    bound = 10
    while bound <= n.max():
        width += n >= bound
        bound *= 10
    return width


def _formatted(ints: list[np.ndarray], floats: list[np.ndarray], digits: int) -> str:
    """The CSV lines of one chunk, built in a fixed-width uint8 matrix."""
    rows = len(ints[0]) if ints else len(floats[0])
    int_widths = [_widths(c) for c in ints]
    fields = [int(w.max()) for w in int_widths] + [digits + 2] * len(floats)
    out = np.empty((rows, sum(fields) + len(fields)), dtype=np.uint8)
    keep = None
    start = 0
    for i, width in enumerate(fields):
        cell = out[:, start:start + width]
        if i < len(ints):
            _write_digits(cell, ints[i])
            pad = np.arange(width) < (width - int_widths[i])[:, None]
            if pad.any():
                if keep is None:
                    keep = np.ones(out.shape, dtype=bool)
                keep[:, start:start + width] = ~pad
        else:
            n = _rounded_scaled(floats[i - len(ints)], digits)
            carry = n >= 10 ** digits  # rounds to 1.000...
            cell[:, 0] = ord("0") + carry
            cell[:, 1] = ord(".")
            _write_digits(cell[:, 2:], n - carry * 10 ** digits)
        out[:, start + width] = ord(",")
        start += width + 1
    out[:, -1] = ord("\n")
    return (out.tobytes() if keep is None else out[keep].tobytes()).decode("ascii")


def _formattable(ints: list[np.ndarray], floats: list[np.ndarray], digits: int) -> bool:
    """Whether `_formatted` prints this chunk exactly as `format` does."""
    if digits > _MAX_FAST_DIGITS:
        return False
    # NaN fails both comparisons
    if any(not ((c >= 0) & (c < 1)).all() or np.signbit(c).any() for c in floats):
        return False
    return all(c.min() >= 0 for c in ints)


def _format_rows(ints: list[np.ndarray], floats: list[np.ndarray], digits: int) -> str:
    row = ",".join(["{}"] * len(ints) + [f"{{:.{digits}f}}"] * len(floats)) + "\n"
    return "".join(map(row.format, *(c.tolist() for c in ints + floats)))


def _chunk(col, start: int, dtype) -> np.ndarray:
    part = col[start:start + CHUNK_ROWS]
    if isinstance(part, range):
        return np.arange(part.start, part.stop, part.step, dtype=dtype)
    return np.asarray(part, dtype=dtype)


def write_csv(stream, header, int_cols, float_cols, digits: int) -> None:
    """Write the `header` names and one row per index of the columns.

    `int_cols` and `float_cols` are equal-length 1-D sequences (numpy
    arrays or ranges); integers print as `str(int)`, floats with `digits`
    fixed decimal places.  Rows are formatted and written in chunks of
    CHUNK_ROWS, so the text of the whole output is never held at once.
    """
    stream.write(",".join(header) + "\n")
    cols = list(int_cols) + list(float_cols)
    for start in range(0, len(cols[0]), CHUNK_ROWS):
        ints = [_chunk(c, start, np.int64) for c in int_cols]
        floats = [_chunk(c, start, np.float64) for c in float_cols]
        fast = _formattable(ints, floats, digits)
        stream.write((_formatted if fast else _format_rows)(ints, floats, digits))


# characters read per block of `read_floats`, each cut at its last newline
READ_BLOCK = 1 << 16

# mantissa digits in all of a field and before its dot
_MAX_DIGITS = 24
_MAX_WHOLE = 8

# decimal exponents q of the power table; 10^22 is the largest exact power
_MIN_POWER, _MAX_POWER = -60, 22

# a field's 32-byte window ends at its mantissa's last digit, behind _PAD
# zero bytes so that the first field's window starts inside the buffer
_PAD = bytes(32)

# _KEEP[k, c] keeps the bytes of word k of a 24-byte window that hold its
# last c digits; the digits are right-aligned, so the first 24 - c go
_KEEP = np.array([[(2 ** 64 - 1) << 8 * min(max(24 - c - 8 * k, 0), 8) & (2 ** 64 - 1)
                   for c in range(_MAX_DIGITS + 1)] for k in range(3)], dtype=np.uint64)
_ZEROS = np.uint64(0x3030303030303030)
# (multiplier, shift, mask) turning each 2j-digit lane into a j-digit value
_PAIRS = tuple((np.uint64(10 ** j), np.uint64(8 * j), np.uint64(mask)) for j, mask in (
    (1, 0x00FF00FF00FF00FF), (2, 0x0000FFFF0000FFFF), (4, 0x00000000FFFFFFFF)))
_E8, _E16 = np.uint64(10 ** 8), np.uint64(10 ** 16)
_U8, _U32, _U56 = np.uint64(8), np.uint64(32), np.uint64(56)
_LOW32 = np.uint64(2 ** 32 - 1)
# a first word of at most 922 keeps D = w0 * 10^16 + w1 * 10^8 + w2 below
# 2^64, exact in uint64, so its top bit then tells whether D >= 2^63
_MAX_TOP_WORD = np.uint64(922)
_EXPONENT_BITS = np.uint64(0x7FF0000000000000)
_FRACTION_BITS = np.uint64(0x000FFFFFFFFFFFFF)
# for r in (2^e, 2^(e+1)), |miss| < 2^e * _NEAR puts V within 2^(e-53),
# half an ulp, of r: the error bound 2^-100 * |V| is below 2^(e-99)
_NEAR = 2.0 ** -53 - 2.0 ** -99


def _powers_of_ten() -> np.ndarray:
    """Columns hi, hi1, hi2, lo for q = _MIN_POWER.._MAX_POWER: hi = RN(10^q),
    hi1 + hi2 its Veltkamp split, lo = RN(10^q - hi).  About 0.1 ms of
    big-int division, so each read builds it rather than every import."""
    hi = [1 / 10 ** k for k in range(-_MIN_POWER, 0, -1)]
    lo = []
    for k, h in zip(range(-_MIN_POWER, 0, -1), hi):
        num, den = h.as_integer_ratio()
        lo.append((den - num * 10 ** k) / (den * 10 ** k))
    hi += [float(10 ** q) for q in range(_MAX_POWER + 1)]
    lo += [0.0] * (_MAX_POWER + 1)
    hi = np.array(hi)
    return np.stack([hi, *veltkamp_split(hi), np.array(lo)], axis=1)


def _exponents(b, at, tok, first, extra, ends):
    """The exponent of each field, 0 where it has none, and where each
    mantissa ends; None when an exponent is outside the grammar."""
    field = np.flatnonzero(extra)
    e_tok = first[field] + 1
    e_at = at[e_tok]
    signed = extra[field] == 2
    sign = tok[e_tok + 1]  # or the separator, when unsigned
    unsigned = (sign != ord("+")) & (sign != ord("-"))
    if ((extra[field] > 2).any() or ((tok[e_tok] | np.uint8(0x20)) != ord("e")).any()
            or (signed & (unsigned | (at[e_tok + signed] != e_at + 1))).any()):
        return None
    stop = ends[field]
    width = stop - e_at - 1 - signed
    if (width < 1).any() or (width > 3).any():
        return None
    place = np.arange(1, 4)[:, None]
    digit = (b[stop - place] - np.uint8(ord("0"))).astype(np.int64)
    digit[place > width] = 0
    value = digit[0] + 10 * digit[1] + 100 * digit[2]
    exponent = np.zeros(ends.size, dtype=np.int64)
    exponent[field] = np.where(signed & (sign == ord("-")), -value, value)
    mantissa_end = ends.copy()
    mantissa_end[field] = e_at
    return exponent, mantissa_end


def _mantissas(padded, mantissa_end, frac, count):
    """The mantissa D of each field as uint64, and where D >= 2^63."""
    # words a[k] end 24 - 8k bytes before the mantissa's end; shifted[k]
    # ends one byte earlier, so it holds the digits before the dot where
    # they stand once the dot is dropped
    windows = np.ndarray((padded.size - 31,), dtype="V32", buffer=padded, strides=(1,))
    a = windows[mantissa_end].view("<u8").reshape(-1, 4).T.copy()
    shifted = (a[1:] << _U8) | (a[:-1] >> _U56)
    w = ((a[1:] ^ shifted) & _KEEP.take(frac, axis=1)) ^ shifted
    w = (w ^ _ZEROS) & _KEEP.take(count, axis=1)
    for mul, shift, mask in _PAIRS:
        w = (w * mul + (w >> shift)) & mask
    d = w[0] * _E16 + w[1] * _E8 + w[2]
    too_long = (w[0] > _MAX_TOP_WORD) | (d.view(np.int64) < 0)
    return d, too_long


def _parse_rows(text: str, columns: int, powers: np.ndarray) -> np.ndarray | None:
    """The fields of `text`, whole rows each ending in a newline, as one
    flat float64 array; None when any of it is outside the grammar."""
    if not text.isascii():
        return None
    padded = np.frombuffer(_PAD + text.encode("ascii"), dtype=np.uint8)
    b = padded[len(_PAD):]
    # every byte but a digit is a token: per field a dot, optionally an e
    # and a sign, and the field's separator
    at = np.flatnonzero(b - np.uint8(ord("0")) > 9)
    tok = b[at]
    last = np.flatnonzero((tok == ord(",")) | (tok == ord("\n")))
    n = last.size
    if n == 0 or n % columns:
        return None
    newline = tok[last] == ord("\n")
    if not newline[columns - 1::columns].all() or np.count_nonzero(newline) != n // columns:
        return None
    first = np.empty_like(last)
    first[0] = 0
    first[1:] = last[:-1] + 1
    if not (tok[first] == ord(".")).all():
        return None
    ends = at[last]
    dots = at[first]
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    extra = last - first - 1
    exponent, mantissa_end = 0, ends
    if extra.any():
        parsed = _exponents(b, at, tok, first, extra, ends)
        if parsed is None:
            return None
        exponent, mantissa_end = parsed
    whole = dots - starts
    frac = mantissa_end - dots - 1
    count = whole + frac
    if ((whole < 1).any() or (whole > _MAX_WHOLE).any() or (frac < 1).any()
            or (count > _MAX_DIGITS).any()):
        return None
    d, too_long = _mantissas(padded, mantissa_end, frac, count)
    # D = d_hi + d_lo with d_hi = RN(D), by a fast two-sum of its halves
    top = (d >> _U32).astype(np.float64) * 2.0 ** 32
    bottom = (d & _LOW32).astype(np.float64)
    d_hi = top + bottom
    d_lo = (top - d_hi) + bottom
    q = exponent - frac - _MIN_POWER
    outside = (q < 0) | (q >= len(powers))
    p_hi, p_hi1, p_hi2, p_lo = powers.take(q, axis=0, mode="clip").T
    # d_hi * p_hi = p + err exactly; c gathers the terms of order 2^-53 * V
    h1, h2 = veltkamp_split(d_hi)
    p = d_hi * p_hi
    err = ((h1 * p_hi1 - p) + h1 * p_hi2 + h2 * p_hi1) + h2 * p_hi2
    c = err + (d_hi * p_lo + d_lo * p_hi)
    r = p + c
    miss = (p - r) + c  # p - r is exact
    bits = r.view(np.uint64)
    scale = (bits & _EXPONENT_BITS).view(np.float64)
    power_of_two = (bits & _FRACTION_BITS) == np.uint64(0)
    slow = too_long | outside | power_of_two | ~(np.abs(miss) < scale * _NEAR)
    for i in np.flatnonzero(slow).tolist():
        r[i] = float(text[starts[i]:ends[i]])
    return r


def _read_rows(stream, columns: int) -> np.ndarray | None:
    """The rows left in `stream`, parsed block by block into one array
    grown in place; None at the first block outside the grammar."""
    powers = _powers_of_ten()
    out = np.empty(0)
    size = 0
    rest = ""
    while True:
        chunk = stream.read(READ_BLOCK - len(rest))
        if not (chunk or rest):
            break
        text = rest + (chunk or "\n")  # the last newline is optional
        cut = text.rfind("\n") + 1
        values = _parse_rows(text[:cut], columns, powers) if cut else None
        if values is None:
            return None
        rest = text[cut:]
        if size + values.size > out.size:
            out.resize(max(size + values.size, out.size + out.size // 4), refcheck=False)
        out[size:size + values.size] = values
        size += values.size
    if not size:  # a header alone
        return None
    out.resize(size, refcheck=False)
    return out.reshape(-1, columns)


def read_floats(stream, columns: int) -> np.ndarray:
    """The float rows of a text stream, read from its current position, as
    a (rows, columns) float64 array: the array `np.loadtxt(stream,
    delimiter=",", ndmin=2, comments=None)` returns, and from that call
    when any of the text is outside the reader's grammar or the stream
    cannot seek back to its start (see the module docstring).  The reader
    holds one block's text at a time."""
    if stream.seekable():
        start = stream.tell()
        rows = _read_rows(stream, columns)
        if rows is not None:
            return rows
        stream.seek(start)
    with warnings.catch_warnings():
        # a header-only file is refused by the caller, without numpy's empty-input warning
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(stream, delimiter=",", ndmin=2, comments=None)
