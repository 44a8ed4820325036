"""Correctness checks for the outputs of the benchmarked commands.

Each kind of output has two functions:

- `expect_<kind>(params, seed)` computes what the output must hold from the
  computations in `reference.py`, never from mbonacci.  The result is plain
  JSON so the benchmark computes it once per run and hands it to every
  round.
- `check_<kind>(outputs, params, expected)` reads the outputs one command
  wrote and returns a list of problems; an empty list means the output
  passed.

Printed decimals are compared with the reference within half a unit in the
last printed place plus ROW_ULPS float64 ulps.  Discrepancies are compared
within DISC_TOL absolute, which is far above the float64 rounding the two
computations differ by (a few 1e-16) and below a change in any of the
first eight significant digits of the values these workloads report.
"""

from __future__ import annotations

import json
import math
import random

import mpmath
import numpy as np

import reference as ref

ROWS_PER_FILE = 100
ROW_ULPS = 4
DISC_TOL = 1e-14
SLOPE_TOL = 1e-9
DIM_WINDOW = (0.94, 1.25)  # m = 3 boundary dimension 1.0933..., acceptance window
PPM_SIZE = 512


def sample_rows(count: int, seed: int) -> list[int]:
    """Seeded sample of row indices, always with the first two and the last."""
    rng = random.Random(seed)
    picks = set(rng.sample(range(count), min(ROWS_PER_FILE, count)))
    picks.update(n for n in (0, 1, count - 1) if 0 <= n < count)
    return sorted(picks)


def _digits(value: str) -> int:
    return len(value.split(".", 1)[1]) if "." in value else 0


def _row_tolerance(digits: int) -> mpmath.mpf:
    return mpmath.mpf(10) ** -digits / 2 + ROW_ULPS * mpmath.mpf(2) ** -53


def _compare_decimal(printed: str, expected: str, circular: bool) -> bool:
    with mpmath.workprec(ref.ROOT_BITS):
        d = abs(mpmath.mpf(printed) - mpmath.mpf(expected))
        if circular:
            d = min(d, 1 - d)
        return d <= _row_tolerance(_digits(printed))


def _check_rows(text: str, header: str, nrows: int, expected_rows: dict,
                circular: bool = False) -> list[str]:
    """Header, row count and the sampled rows of an `n,...` CSV.

    `expected_rows` maps n to the expected fields after n: integers must
    match exactly, decimal strings within the row tolerance.
    """
    lines = text.split("\n")
    problems = []
    if lines[-1] != "":
        problems.append("output does not end with a newline")
    lines = lines[:-1]
    if not lines or lines[0] != header:
        return problems + [f"header {lines[0] if lines else ''!r}, expected {header!r}"]
    if len(lines) != nrows + 1:
        return problems + [f"{len(lines) - 1} rows, expected {nrows}"]
    for key, fields in expected_rows.items():
        n = int(key)
        row = lines[n + 1].split(",")
        if row[0] != str(n):
            problems.append(f"row {n}: index field {row[0]!r}")
            continue
        if len(row) != len(fields) + 1:
            problems.append(f"row {n}: {len(row)} fields, expected {len(fields) + 1}")
            continue
        for got, want in zip(row[1:], fields):
            if isinstance(want, int):
                ok = got == str(want)
            else:
                ok = _digits(got) == 15 and _compare_decimal(got, want, circular)
            if not ok:
                problems.append(f"row {n}: {got} vs reference {want}")
    return problems


def _close(report: dict, key: str, want: float, tol: float) -> list[str]:
    got = report.get(key)
    if not isinstance(got, (int, float)) or not abs(got - want) <= tol:
        return [f"{key} = {got!r}, reference {want!r}"]
    return []


def _fields(report: dict, **want) -> list[str]:
    return [f"{k} = {report.get(k)!r}, expected {v!r}" for k, v in want.items()
            if report.get(k) != v]


def _mp(x) -> str:
    return mpmath.nstr(x, 40, strip_zeros=False)


# ---------------------------------------------------------------------------
# seq vdc / seq halton / fractal CSV rows and the PPM render
# ---------------------------------------------------------------------------

def expect_vdc_csv(params: dict, seed: int) -> dict:
    m, count = params["m"], params["count"]
    terms = ref.basis_upto(m, count)
    return {"rows": {n: [_mp(ref.vdc_exact(m, terms, n))] for n in sample_rows(count, seed)}}


def check_vdc_csv(outputs: dict, params: dict, expected: dict) -> list[str]:
    return _check_rows(outputs["csv"].decode(), "n,value", params["count"], expected["rows"])


def expect_halton_csv(params: dict, seed: int) -> dict:
    ms, count = params["ms"], params["count"]
    terms = {m: ref.basis_upto(m, count) for m in ms}
    return {"rows": {n: [_mp(ref.vdc_exact(m, terms[m], n)) for m in ms]
                     for n in sample_rows(count, seed)}}


def check_halton_csv(outputs: dict, params: dict, expected: dict) -> list[str]:
    header = "n," + ",".join(f"v{i + 1}" for i in range(len(params["ms"])))
    return _check_rows(outputs["csv"].decode(), header, params["count"], expected["rows"])


def expect_cloud(params: dict, seed: int) -> dict:
    m, depth = params["m"], params["depth"]
    word = ref.fixed_point_word(m, depth + 1)
    rows = sample_rows(depth + 1, seed)
    counts = [0] * (m + 1)
    out = {}
    pos = 0
    for n in rows:
        for letter in word[pos:n]:
            counts[letter] += 1
        pos = n
        coords = ref.fractal_point(m, n, counts[2:])
        out[n] = [word[n]] + [_mp(c) for c in coords]
    return {"rows": out}


def check_cloud(outputs: dict, params: dict, expected: dict) -> list[str]:
    m = params["m"]
    header = "n,label," + ",".join(f"c{i}" for i in range(1, m))
    problems = _check_rows(outputs["csv"].decode(), header, params["depth"] + 1,
                           expected["rows"], circular=True)
    return problems + _check_ppm(outputs["ppm"], PPM_SIZE)


def _check_ppm(data: bytes, size: int) -> list[str]:
    header = f"P6\n{size} {size}\n255\n".encode()
    problems = []
    if not data.startswith(header):
        problems.append(f"PPM header {data[:len(header)]!r}, expected {header!r}")
    if len(data) != len(header) + 3 * size * size:
        problems.append(f"PPM is {len(data)} bytes, expected {len(header) + 3 * size * size}")
    return problems


# ---------------------------------------------------------------------------
# discrepancy reports
# ---------------------------------------------------------------------------

def _report(outputs: dict) -> dict:
    return json.loads(outputs["json"])


def expect_disc_file(params: dict, seed: int) -> dict:
    from workloads import file_points

    return {"value": ref.star_disc_sorted(file_points(params["points"], seed))}


def check_disc_file(outputs: dict, params: dict, expected: dict) -> list[str]:
    r = _report(outputs)
    return (_fields(r, method="exact1d", N=params["points"], s=1)
            + _close(r, "value", expected["value"], DISC_TOL))


def expect_disc_1d(params: dict, seed: int) -> dict:
    return {"value": ref.star_disc_sorted(ref.vdc_table(params["m"], params["count"]))}


def check_disc_1d(outputs: dict, params: dict, expected: dict) -> list[str]:
    r = _report(outputs)
    return (_fields(r, method="exact1d", N=params["count"], s=1)
            + _close(r, "value", expected["value"], DISC_TOL))


def expect_local_disc(params: dict, seed: int) -> dict:
    return {"delta": ref.local_discrepancy(params["m"], params["k"], params["count"])}


def check_local_disc(outputs: dict, params: dict, expected: dict) -> list[str]:
    r = _report(outputs)
    return (_fields(r, k=params["k"], N=params["count"])
            + _close(r, "delta", expected["delta"], DISC_TOL))


def expect_dim(params: dict, seed: int) -> dict:
    return {}


def check_dim(outputs: dict, params: dict, expected: dict) -> list[str]:
    """Properties the box-counting estimate must have: the counts grow with
    the level, the slope is their least-squares slope in log2, and it lies
    in the window the acceptance gate uses for m = 3."""
    r = _report(outputs)
    problems = _fields(r, method="box_dim_boundary/both", N=params["depth"] + 1,
                       s=params["m"] - 1, levels=params["levels"])
    counts = r.get("counts")
    if not isinstance(counts, list) or len(counts) != len(params["levels"]):
        return problems + [f"counts {counts!r}"]
    if any(b <= a for a, b in zip(counts, counts[1:])) or counts[0] < 1:
        problems.append(f"counts {counts} do not grow with the level")
        return problems
    slope, _ = ref.ls_slope(params["levels"], [math.log2(c) for c in counts])
    problems += _close(r, "value", slope, SLOPE_TOL)
    if not DIM_WINDOW[0] <= slope <= DIM_WINDOW[1]:
        problems.append(f"slope {slope} outside {DIM_WINDOW}")
    return problems


def _halton(ms, count):
    return np.stack([ref.vdc_table(m, count) for m in ms], axis=1)


def expect_disc_multi(params: dict, seed: int) -> dict:
    return {"value": ref.star_disc_rank_grid(_halton(params["ms"], params["count"]))}


def check_disc_multi(outputs: dict, params: dict, expected: dict) -> list[str]:
    s = len(params["ms"])
    method = "exact_corner_sweep" if s == 2 else "exact_corner_grid"
    r = _report(outputs)
    return (_fields(r, method=method, N=params["count"], s=s)
            + _close(r, "value", expected["value"], DISC_TOL))


def expect_disc_fit(params: dict, seed: int) -> dict:
    sizes = [2 ** e for e in range(params["min_exp"], params["max_exp"] + 1)]
    pts = _halton(params["ms"], sizes[-1])
    values = [ref.star_disc_rank_grid(pts[:n]) for n in sizes]
    slope, r2 = ref.ls_slope([math.log(n) for n in sizes], [math.log(d) for d in values])
    return {"N": sizes[-1], "value": values[-1], "exponent": slope, "r2": r2}


def check_disc_fit(outputs: dict, params: dict, expected: dict) -> list[str]:
    r = _report(outputs)
    problems = (_fields(r, method="decay_fit", N=expected["N"], s=len(params["ms"]))
                + _close(r, "value", expected["value"], DISC_TOL)
                + _close(r, "exponent", expected["exponent"], SLOPE_TOL)
                + _close(r, "r2", expected["r2"], SLOPE_TOL))
    if not expected["exponent"] < 0:
        problems.append(f"reference exponent {expected['exponent']} is not negative")
    return problems
