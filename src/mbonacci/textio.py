"""CSV text output: the one place that formats a row.

Rows are an integer index column or two followed by float columns printed
with a fixed number of decimal places, exactly as `format(v, f".{d}f")`
prints them, so runs with identical flags are byte-identical.
"""

from __future__ import annotations

import numpy as np

# rows formatted and written per `stream.write` call
CHUNK_ROWS = 1 << 16


def write_csv(stream, header, int_cols, float_cols, digits: int) -> None:
    """Write the `header` names and one row per index of the columns.

    `int_cols` and `float_cols` are equal-length 1-D sequences (numpy
    arrays or ranges); integers print as `str(int)`, floats with `digits`
    fixed decimal places.  Rows are formatted and written in chunks of
    CHUNK_ROWS, so the text of the whole output is never held at once.
    """
    stream.write(",".join(header) + "\n")
    cols = list(int_cols) + list(float_cols)
    row = ",".join(["{}"] * len(int_cols) + [f"{{:.{digits}f}}"] * len(float_cols)) + "\n"
    for start in range(0, len(cols[0]), CHUNK_ROWS):
        chunk = [c[start:start + CHUNK_ROWS] for c in cols]
        chunk = [c.tolist() if isinstance(c, np.ndarray) else c for c in chunk]
        stream.write("".join(map(row.format, *chunk)))
