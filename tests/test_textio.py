"""The CSV writer against Python's own formatter.

`textio.write_csv` formats floats in [0, 1) at up to 15 decimal places
with numpy and everything else with `str.format`; both must print exactly
what `format(v, f".{d}f")` prints.
"""

import hashlib
import io

import numpy as np
import pytest
from helpers import assert_same_lines

from mbonacci import cli, textio

FAST_DIGITS = range(1, 16)


def _write(int_cols, float_cols, digits):
    header = [f"i{j}" for j in range(len(int_cols))] + [f"x{j}" for j in range(len(float_cols))]
    buf = io.StringIO()
    textio.write_csv(buf, header, int_cols, float_cols, digits)
    head, _, body = buf.getvalue().partition("\n")
    assert head == ",".join(header)
    return body


def _assert_formats_like_python(values, digits):
    assert_same_lines(_write([], [values], digits),
                       "".join(f"{v:.{digits}f}\n" for v in values.tolist()))


def _neighbours(values):
    """The values and their 1-ulp neighbours that stay in [0, 1)."""
    near = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, 1.0)])
    return near[(near >= 0.0) & (near < 1.0)]


@pytest.fixture
def fast_path_only(monkeypatch):
    def refuse(ints, floats, digits):
        raise AssertionError("chunk fell back to str.format")

    monkeypatch.setattr(textio, "_format_rows", refuse)


@pytest.mark.parametrize("digits", FAST_DIGITS)
def test_floats_match_format(fast_path_only, digits):
    rng = np.random.default_rng(1000 + digits)
    n = 100_000
    uniform = rng.random(n)
    # small values down to 2^-70, so every leading-zero count occurs
    scaled = rng.random(n) * np.exp2(-rng.integers(0, 70, n).astype(np.float64))
    j = np.arange(10 ** digits) if digits <= 4 else rng.integers(0, 10 ** digits, 20_000)
    ties = (j + 0.5) / 10.0 ** digits
    edges = np.array([0.0, 5e-324, np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0)])
    grid = np.arange(4096) / 4096
    values = np.concatenate([uniform, scaled, _neighbours(ties), edges, _neighbours(grid)])
    _assert_formats_like_python(values, digits)


def test_integer_columns_match_str(fast_path_only):
    ints = np.array([0, 9, 10, 99, 100, 2 ** 26 - 1, 7, 0])
    labels = np.array([1, 2, 3, 1, 10, 255, 0, 9], dtype=np.uint8)
    values = np.linspace(0.0, 0.875, len(ints))
    body = _write([ints, labels], [values], 6)
    assert body == "".join(f"{a},{b},{v:.6f}\n" for a, b, v in zip(ints, labels, values))
    # a range is an integer column too, and columns may be all-width-1
    assert _write([range(3)], [values[:3]], 2) == "0,0.00\n1,0.12\n2,0.25\n"
    assert _write([range(10 ** 6, 10 ** 6 + 2)], [], 3) == "1000000\n1000001\n"


@pytest.mark.parametrize("trigger, digits", [
    (-0.0, 6), (1.0, 6), (float("nan"), 6), (float("inf"), 6), (-0.25, 6),
    (0.5, 16), (0.5, 30),
])
def test_fallback_triggers_format_rows(monkeypatch, trigger, digits):
    calls = []
    format_rows = textio._format_rows

    def spy(ints, floats, digits):
        calls.append(len(floats[0]))
        return format_rows(ints, floats, digits)

    monkeypatch.setattr(textio, "_format_rows", spy)
    values = np.full(textio.CHUNK_ROWS + 3, 0.3)
    values[-2] = trigger
    assert_same_lines(_write([range(len(values))], [values], digits),
                       "".join(f"{n},{v:.{digits}f}\n" for n, v in enumerate(values.tolist())))
    # only the chunk holding the trigger falls back, unless d itself does
    assert calls == ([textio.CHUNK_ROWS, 3] if digits > 15 else [3])


def test_negative_integer_falls_back():
    assert _write([np.array([-3, 12])], [np.array([0.5, 0.25])], 2) == "-3,0.50\n12,0.25\n"


# SHA-256 of the CLI's CSV output with ROWS as --count or --depth, taken
# with the code of commit d38af0a, the parent of the numpy formatter, whose
# writer printed every row with `str.format` in 2^16-row chunks
ROWS = 16387
FROZEN_SHA256 = {
    ("seq", "vdc", "--m", "3", "--count"): {
        1: "1228879f53781e2ec1f45eca161e196d42d8475011cb91268ebee558bccc92bd",
        6: "ead158b7bd905fd56bf6eb08496b8d9f086a082f1dfc77ceb082beb98512ab32",
        15: "b0e61dd97d6b9a9523f8660aabc80ce1eac65fbcaf89e57196b8e657b5c0032c",
        16: "befe02120ca220617659fa593bbb664a7aeaccd8e63b5ded033e18eb6b730395",
        30: "01c65bf7cba2909fcc0b08fe679064a84892d975091a02d730283e712cd9b1dd",
    },
    ("seq", "halton", "--ms", "2,3,5", "--count"): {
        1: "467e87808bc1ff6124d1d47fb15b670beee9b1e57cfe7914df32f7deb5060f5c",
        6: "f3df6554ed4c72b948eb35f3ec06cae1c311dd6b5cec823146fd41ddbc92b00d",
        15: "1539883d0a93e394f5dc7664e8f58c22d7f9ece8f4d2778390e8239a58c1f03f",
        16: "45efe19c1cd6914d74c80585bb51d3482a2d16ef20dcf8207a25f6199c7dad50",
        30: "671378a755b3529db78feb00ea13a0f1681ea0d612d8e3c212ea7f34560dc678",
    },
    ("fractal", "--m", "3", "--depth"): {
        1: "99929cccebf0b2e2e09fcb6680505cc2cbe2629ea4889c94a5b21c1da4a62b6a",
        6: "38e9f9f5537f8920d8c3cf10b9b3cf2cb4604a981f8c40128793bdf561d729f9",
        15: "05f8aee49e263303369361ea11219d66abf200ae5294384acaaf0d7aec8016e6",
        16: "df15218ef9f9c3541fc3c9a02251bc75f15857618052a652240fe8bfe622e45e",
        30: "de1e9e885b6172d7e07b3366aa481b9209f19353e4fc4497d9428a63cf68cab4",
    },
}


@pytest.mark.parametrize("digits", [1, 6, 15, 16, 30])
def test_cli_output_matches_frozen_sha256(tmp_path, capsys, digits):
    assert ROWS == textio.CHUNK_ROWS + 3  # so the output crosses a chunk boundary
    for argv, hashes in FROZEN_SHA256.items():
        full = list(argv) + [str(ROWS), "--digits", str(digits)]
        path = tmp_path / "out.csv"
        assert cli.main(full + ["-o", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == hashes[digits], full
        assert cli.main(full) == 0
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == hashes[digits], full
