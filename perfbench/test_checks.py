"""Self-tests of the benchmark's correctness checks.

    python3 -m pytest perfbench/test_checks.py

Each check must pass the program's real output (made here at small sizes)
and reject the same output with one digit perturbed: the digit d becomes
(d + 5) mod 10, so the printed value moves by five units in that place.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import re
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import reference as ref  # noqa: E402
from workloads import file_points  # noqa: E402

from mbonacci import cli  # noqa: E402

SEED = 7


def run_cli(*argv: str) -> bytes:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue().encode()


def bump(text: str, start: int) -> str:
    """Perturb the first digit at or after offset `start`."""
    i = start
    while not text[i].isdigit():
        i += 1
    return text[:i] + str((int(text[i]) + 5) % 10) + text[i + 1:]


def bump_row(text: str, n: int, field: int, digit: int) -> str:
    """Perturb decimal `digit` (0 = first after the point) of a CSV field;
    digit None perturbs the field's first character."""
    lines = text.split("\n")
    fields = lines[n + 1].split(",")
    value = fields[field]
    pos = 0 if digit is None else value.index(".") + 1 + digit
    fields[field] = bump(value, pos)
    lines[n + 1] = ",".join(fields)
    return "\n".join(lines)


def bump_json(text: str, key: str, significant: int = 0) -> str:
    """Perturb a significant digit (0 = leading) of a JSON number field."""
    match = re.search(rf'"{key}": ([-0-9.e]+)', text)
    value = match.group(1)
    digits = [i for i, c in enumerate(value) if c.isdigit()]
    lead = next(i for i in digits if value[i] != "0")
    pos = [i for i in digits if i >= lead][significant]
    start = match.start(1)
    return text[:start] + bump(value, pos) + text[match.end(1):]


def rows_case(argv, kind, params):
    out = run_cli(*argv)
    expected = json.loads(json.dumps(getattr(checks, f"expect_{kind}")(params, SEED)))
    check = getattr(checks, f"check_{kind}")
    return out.decode(), expected, check


@pytest.mark.parametrize("digit", [None, 0, 7, 14])
def test_vdc_rows(digit):
    params = {"m": 3, "count": 3000}
    text, expected, check = rows_case(["seq", "vdc", "--m", "3", "--count", "3000"],
                                      "vdc_csv", params)
    assert check({"csv": text.encode()}, params, expected) == []
    n = checks.sample_rows(3000, SEED)[5]
    bad = bump_row(text, n, 0 if digit is None else 1, None if digit is None else digit)
    assert check({"csv": bad.encode()}, params, expected)


@pytest.mark.parametrize("field,digit", [(1, 14), (2, 0), (3, 9)])
def test_halton_rows(field, digit):
    params = {"ms": [2, 3, 5], "count": 2000}
    text, expected, check = rows_case(["seq", "halton", "--ms", "2,3,5", "--count", "2000"],
                                      "halton_csv", params)
    assert check({"csv": text.encode()}, params, expected) == []
    n = checks.sample_rows(2000, SEED)[-2]
    assert check({"csv": bump_row(text, n, field, digit).encode()}, params, expected)


@pytest.fixture(scope="module")
def cloud_outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("cloud")
    csv, ppm = d / "c.csv", d / "c.ppm"
    run_cli("fractal", "--m", "3", "--depth", "3000", "-o", str(csv), "--ppm", str(ppm))
    params = {"m": 3, "depth": 3000}
    expected = json.loads(json.dumps(checks.expect_cloud(params, SEED)))
    return {"csv": csv.read_bytes(), "ppm": ppm.read_bytes()}, params, expected


@pytest.mark.parametrize("field,digit", [(1, None), (2, 3), (3, 14)])
def test_cloud_rows(cloud_outputs, field, digit):
    outputs, params, expected = cloud_outputs
    assert checks.check_cloud(outputs, params, expected) == []
    n = checks.sample_rows(3001, SEED)[10]
    bad = dict(outputs, csv=bump_row(outputs["csv"].decode(), n, field, digit).encode())
    assert checks.check_cloud(bad, params, expected)


def test_ppm_header_and_length(cloud_outputs):
    outputs, params, expected = cloud_outputs
    ppm = outputs["ppm"]
    bad_header = dict(outputs, ppm=bump(ppm[:20].decode("latin-1"), 3).encode("latin-1") + ppm[20:])
    assert checks.check_cloud(bad_header, params, expected)
    assert checks.check_cloud(dict(outputs, ppm=ppm[:-1]), params, expected)


def json_case(kind, params, argv, key, significant):
    text = run_cli(*argv).decode()
    expected = json.loads(json.dumps(getattr(checks, f"expect_{kind}")(params, SEED)))
    check = getattr(checks, f"check_{kind}")
    assert check({"json": text.encode()}, params, expected) == []
    bad = bump_json(text, key, significant)
    assert json.loads(bad)[key] != json.loads(text)[key]
    assert check({"json": bad.encode()}, params, expected)


@pytest.mark.parametrize("significant", [0, 7])
def test_disc_file(tmp_path, significant):
    path = tmp_path / "points.csv"
    path.write_text("x1\n" + "".join(f"{x!r}\n" for x in file_points(1000, SEED)))
    json_case("disc_file", {"points": 1000}, ["disc", "file", "--input", str(path)],
              "value", significant)


@pytest.mark.parametrize("significant", [0, 7])
def test_disc_1d(significant):
    json_case("disc_1d", {"m": 2, "count": 20000},
              ["disc", "1d", "--m", "2", "--count", "20000"], "value", significant)


@pytest.mark.parametrize("significant", [0, 7])
def test_local_disc(significant):
    json_case("local_disc", {"m": 3, "k": 5, "count": 20000},
              ["local-disc", "--m", "3", "--k", "5", "--count", "20000"], "delta", significant)


@pytest.mark.parametrize("ms,count", [([2, 3], 512), ([2, 3, 5], 64)])
@pytest.mark.parametrize("significant", [0, 7])
def test_disc_multi(ms, count, significant):
    json_case("disc_multi", {"ms": ms, "count": count},
              ["disc", "multi", "--ms", ",".join(map(str, ms)), "--count", str(count)],
              "value", significant)


@pytest.mark.parametrize("key", ["exponent", "value", "r2"])
def test_disc_fit(key):
    json_case("disc_fit", {"ms": [2, 3], "min_exp": 6, "max_exp": 9},
              ["disc", "fit", "--ms", "2,3", "--min-exp", "6", "--max-exp", "9"], key, 5)


def test_dim():
    params = {"m": 3, "depth": 1000000, "levels": [4, 5, 6, 7, 8, 9]}
    text = run_cli("dim", "--m", "3", "--depth", "1000000").decode()
    assert checks.check_dim({"json": text.encode()}, params, {}) == []
    for bad in (bump_json(text, "value", 3), bump(text, text.index('"counts": [') + 11)):
        assert checks.check_dim({"json": bad.encode()}, params, {})


def test_rank_grid_matches_corner_enumeration():
    rng = np.random.default_rng(SEED)
    for s, n in [(2, 1), (2, 9), (2, 30), (3, 12)]:
        pts = rng.integers(0, 8, size=(n, s)) / 8.0  # many ties
        cands = [sorted(set(pts[:, j]) | {0.0, 1.0}) for j in range(s)]
        best = 0.0
        for corner in itertools.product(*cands):
            vol = float(np.prod(corner))
            open_ = int(np.all(pts < corner, axis=1).sum())
            closed = int(np.all(pts <= corner, axis=1).sum())
            best = max(best, vol - open_ / n, closed / n - vol)
        assert ref.star_disc_rank_grid(pts, block_cells=7) == pytest.approx(best, abs=1e-15)


def test_prefix_doubling_matches_greedy_digits():
    for m in (2, 3, 5):
        terms = ref.basis_upto(m, 5000)
        values = ref.vdc_table(m, 5000)
        bits = ref.digit_bits_table(m, 5000)
        for n in range(0, 5000, 37):
            positions = ref.greedy_positions(terms, n)
            assert bits[n] == sum(1 << j for j in positions)
            assert abs(values[n] - float(ref.vdc_exact(m, terms, n))) <= 1e-15
