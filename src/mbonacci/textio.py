"""CSV text output: the one place that formats a row.

Rows are an integer index column or two followed by float columns printed
with a fixed number of decimal places, exactly as `format(v, f".{d}f")`
prints them, so runs with identical flags are byte-identical.

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
"""

from __future__ import annotations

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
