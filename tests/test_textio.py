"""The CSV writer against Python's own formatter, and the CSV reader
against `float()` and `np.loadtxt`.

`textio.write_csv` formats floats in [0, 1) at up to 15 decimal places
with numpy and everything else with `str.format`; both must print exactly
what `format(v, f".{d}f")` prints.  `textio.read_floats` parses text in
its grammar with numpy, rounding each field as `float()` does, and hands
all other text to `np.loadtxt`; both must give `np.loadtxt`'s array.
"""

import hashlib
import io
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from helpers import assert_same_lines

from mbonacci import cli, textio

FAST_DIGITS = range(1, 16)


def _write(int_cols, float_cols, digits):
    header = [f"i{j}" for j in range(len(int_cols))] + [f"x{j}" for j in range(len(float_cols))]
    buf = io.BytesIO()
    textio.write_csv(buf, header, int_cols, float_cols, digits)
    head, _, body = buf.getvalue().decode("ascii").partition("\n")
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


def test_pieces_cut_where_an_integer_width_changes(fast_path_only, monkeypatch):
    pieces = []
    write_piece = textio._write_piece

    def spy(stream, buf, ints, floats, digits):
        pieces.append(len(floats[0]))
        write_piece(stream, buf, ints, floats, digits)

    monkeypatch.setattr(textio, "_write_piece", spy)
    rows = textio.CHUNK_ROWS
    values = np.arange(rows) / rows
    # a range index that crosses 10^4 inside one chunk
    index = range(10 ** 4 - 5, 10 ** 4 - 5 + rows)
    assert_same_lines(_write([index], [values], 3),
                      "".join(f"{n},{v:.3f}\n" for n, v in zip(index, values.tolist())))
    assert pieces == [5, rows - 5]
    # a label column that crosses 9 -> 10, and back
    pieces.clear()
    labels = np.array([8, 9, 9, 10, 10, 9, 11])
    assert _write([range(7), labels], [values[:7]], 2) == "".join(
        f"{n},{b},{v:.2f}\n" for n, (b, v) in enumerate(zip(labels.tolist(), values.tolist())))
    assert pieces == [3, 2, 1, 1]
    # a column whose width changes on every row, through all 19 int64 widths
    pieces.clear()
    ints = np.array([10 ** (j % 19) for j in range(40)])
    assert _write([ints], [values[:40]], 4) == "".join(
        f"{a},{v:.4f}\n" for a, v in zip(ints.tolist(), values.tolist()))
    assert pieces == [1] * 40


class _Discard:
    def write(self, data):
        pass


def test_write_csv_memory():
    # the peak is one row buffer of CHUNK_ROWS rows and one chunk's
    # temporaries: a chunk's text is never copied
    rows = 100_000
    floats = list(np.random.default_rng(6).random((3, rows)))
    tracemalloc.start()
    try:
        textio.write_csv(_Discard(), ["n", "a", "b", "c"], [range(rows)], floats, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20


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
    assert ROWS > textio.CHUNK_ROWS  # so the output crosses a chunk boundary
    for argv, hashes in FROZEN_SHA256.items():
        full = list(argv) + [str(ROWS), "--digits", str(digits)]
        path = tmp_path / "out.csv"
        assert cli.main(full + ["-o", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == hashes[digits], full
        assert cli.main(full) == 0
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == hashes[digits], full


# the reader: numpy parse of its grammar, float() per field, np.loadtxt

def _fast_read(lines, columns=1):
    """Parse the lines in the reader's grammar; every block must be taken
    by the numpy parse, not handed to np.loadtxt."""
    rows = textio._read_rows(io.StringIO("".join(f"{line}\n" for line in lines)), columns)
    assert rows is not None, "text fell back to np.loadtxt"
    return rows


def _assert_reads_like_float(strings):
    got = _fast_read(strings).ravel()
    want = np.array([float(s) for s in strings])
    wrong = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert wrong.size == 0, [strings[i] for i in wrong[:5]]


def _must_route(text: str) -> bool:
    """Whether the reader's rules send this field to float(): D >= 2^63,
    q outside the power table, or a value of 0 or a power of two."""
    mantissa, _, exp = text.lower().partition("e")
    whole, _, frac = mantissa.partition(".")
    q = int(exp or 0) - len(frac)
    value = float(text)
    return (int(whole + frac) >= 2 ** 63 or not textio._MIN_POWER <= q <= textio._MAX_POWER
            or value == 0.0 or np.frexp(value)[0] == 0.5)


def _near_midpoint(text: str) -> bool:
    """Whether the decimal value lies within 2^-97 of itself of a point
    halfway between adjacent doubles."""
    exact, x = Fraction(text), float(text)
    return any(abs(exact - (Fraction(x) + Fraction(float(np.nextafter(x, to)))) / 2)
               <= exact * Fraction(2) ** -97 for to in (-np.inf, np.inf))


def _assert_routes(strings, float_calls):
    """float() read exactly the fields the rules route and those whose
    value lies near a rounding midpoint."""
    routed = set(float_calls)
    must = {s for s in strings if _must_route(s)}
    assert must <= routed
    assert all(_near_midpoint(s) for s in routed - must)


@pytest.fixture
def float_calls(monkeypatch):
    """The fields the reader sends to float() on their own text."""
    calls = []

    def counting_float(x):
        if isinstance(x, str):  # not the power table's ints
            calls.append(x)
        return float(x)

    monkeypatch.setattr(textio, "float", counting_float, raising=False)
    return calls


def _midpoint_digits(x: float, k: int) -> tuple[int, int]:
    """The first k significant digits of the point halfway between x > 0
    and the next double up, cut (not rounded), and its decimal exponent."""
    mid = (Fraction(x) + Fraction(float(np.nextafter(x, np.inf)))) / 2
    exp = len(str(mid.numerator // mid.denominator)) - 1 if mid >= 1 else -1
    while mid < Fraction(10) ** exp:
        exp -= 1
    return int(mid * Fraction(10) ** (k - 1 - exp)), exp


N_ORACLE = 100_000
ORACLE_FAMILIES = {
    "repr": lambda r: repr(r.random()),
    "repr_scaled": lambda r: repr(r.random() * 10 ** -r.randint(0, 40)),
    "fraction": lambda r: "0." + str(r.randrange(10 ** 22)).zfill(22)[:r.randint(1, 22)],
    "exponent": lambda r: (f"{r.randrange(10)}.{r.randrange(1000):03d}{r.choice('eE')}"
                           f"{r.choice(['', '+', '-'])}{r.randrange(100):02d}"),
}


@pytest.mark.parametrize("family", ORACLE_FAMILIES)
def test_read_matches_float(float_calls, family):
    r = random.Random(family)
    strings = [ORACLE_FAMILIES[family](r) for _ in range(N_ORACLE)]
    _assert_reads_like_float(strings)
    _assert_routes(strings, float_calls)


def test_read_near_midpoints(float_calls):
    # the point halfway between adjacent doubles, cut to 17-21 significant
    # digits: just below it (rounds down) and, last digit raised, above it
    r = random.Random(2)
    strings = []
    for _ in range(N_ORACLE // 2):
        x = r.random() * 10.0 ** -r.randint(0, 12)
        digits, exp = _midpoint_digits(x, r.randint(17, 21))
        for d in (str(digits), str(digits + 1)):
            strings.append(f"{d[0]}.{d[1:]}e{exp + len(d) - len(str(digits))}")
    _assert_reads_like_float(strings)
    _assert_routes(strings, float_calls)


@pytest.mark.parametrize("text, routed", [
    ("0.1234567890123456789", False),  # a 19-digit D, below 2^63
    ("0.9223372036854775807", False),  # D = 2^63 - 1
    ("0.9223372036854775808", True),  # D = 2^63
    ("0.12345678901234567890123", True),  # 23 digits
    ("0.9007199254740993", False),  # D = 2^53 + 1
    ("0.9007199254740992", False),  # D = 2^53
    ("0.0", True), ("0.000", True), ("0.5", True), ("1.0", True),  # zero and powers of two
    ("12345678.9", False),  # eight digits before the dot
    ("1.5e-59", False), ("1.5e-60", True),  # q = -60, the table's first, and q = -61
    ("1.5e23", False), ("1.5e24", True),  # q = 22, the table's last, and q = 23
    ("1.0e23", True),  # exactly halfway between two doubles
    ("9.5e-999", True), ("1.0e999", True),  # far outside: 0.0 and inf
    ("0.00000000000000000000009", False),  # 24 digits, D = 9
    ("8.988465674311579e307", True),  # near 2^1023
])
def test_read_single_fields(float_calls, text, routed):
    _assert_reads_like_float([text])
    assert float_calls == ([text] if routed else [])


def test_read_with_every_field_through_float(monkeypatch, float_calls):
    # no field may pass as far from a midpoint, so all go to float()
    monkeypatch.setattr(textio, "_NEAR", -1.0)
    r = random.Random(3)
    strings = [repr(r.random() * 10 ** -r.randint(0, 20)) for _ in range(20_000)]
    _assert_reads_like_float(strings)
    assert float_calls == strings


def test_power_table_is_correctly_rounded():
    powers = textio._powers_of_ten()
    qs = range(textio._MIN_POWER, textio._MAX_POWER + 1)
    assert powers.shape == (len(qs), 4)
    for q, (hi, hi1, hi2, lo) in zip(qs, powers.tolist()):
        exact = Fraction(10) ** q
        assert hi == float(exact), q
        assert lo == float(exact - Fraction(hi)), q
        # a Veltkamp split: the halves sum to hi, each of at most 26 bits
        assert hi1 + hi2 == hi
        for half in (hi1, hi2):
            odd = abs(Fraction(half).numerator)
            assert (odd // (odd & -odd) if odd else 0).bit_length() <= 26, q


def test_read_rows_and_columns():
    # several columns, e-forms and fixed-point text as `seq` writes it
    lines = ["0.5,1.25e-3,0.000000000000001", "0.999999999999999,9.5E+00,0.1"]
    assert _fast_read(lines, 3).tolist() == [[0.5, 1.25e-3, 1e-15], [0.999999999999999, 9.5, 0.1]]
    # the final newline is optional
    assert textio._read_rows(io.StringIO("0.25\n0.75"), 1).tolist() == [[0.25], [0.75]]


def test_benchmark_points_read_like_loadtxt():
    # the `disc file` input of the benchmark: repr of random.Random(1) floats
    r = random.Random(1)
    text = "".join(f"{r.random()!r}\n" for _ in range(200_000))
    rows = textio._read_rows(io.StringIO(text), 1)
    assert np.array_equal(rows.view(np.int64), _loadtxt(text).view(np.int64))


def _loadtxt(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2, comments=None)


def _assert_reads_like_loadtxt(text, columns):
    try:
        want = _loadtxt(text)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            textio.read_floats(io.StringIO(text), columns)
        assert str(got.value) == str(exc)
        return
    got = textio.read_floats(io.StringIO(text), columns)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("text, columns", [
    ("0.5\r\n0.25\r\n", 1), (" 0.5\n0.25\n", 1), ("0.5 \n0.25\n", 1), ("0.5, 0.25\n", 2),
    ("+0.5\n", 1), (".5\n", 1), ("1.\n", 1), ("5E-1\n", 1), ("0.5e\n", 1), ("0.5e+\n", 1),
    ("0.5e1234\n", 1), ("0.5e+-1\n", 1), ("0.5E1e1\n", 1), ("1.5.5\n", 1), ("123456789.5\n", 1),
    ("nan\n", 1), ("inf\n", 1), ("-0.0\n", 1), ("1_0\n", 1), ("1_0.5\n", 1),
    ("0.5,0.25\n0.5\n", 2), ("0.5\n0.25,0.5\n", 1), ("0.5,0.25\n", 1), ("0.5\n\n0.25\n", 1),
    ("# note\n0.5\n", 1), ("0.5\n#\n", 1), ("", 1), ("\n", 1), ("0.5\n0.25", 1),
    ("0.5\n0.2é\n", 1), ("٠.5\n", 1), ("0.5\n0.7\n", 2),
])
def test_fallback_matches_loadtxt(text, columns):
    _assert_reads_like_loadtxt(text, columns)


@pytest.mark.parametrize("odd", ["nan", "0.5,", "-0.25", "0.5 "])
def test_fallback_after_the_first_block(monkeypatch, tmp_path, odd):
    # the odd field lies past the first block, so blocks already parsed
    # are dropped and the stream is rewound to the first row
    parsed = []
    parse_rows = textio._parse_rows

    def spy(text, columns, powers):
        values = parse_rows(text, columns, powers)
        parsed.append(values is not None)
        return values

    monkeypatch.setattr(textio, "_parse_rows", spy)
    rows = [repr(v) for v in np.random.default_rng(4).random(10_000).tolist()]
    text = "\n".join(rows + [odd] + rows[:10]) + "\n"
    assert text.index(odd + "\n") > textio.READ_BLOCK
    _assert_reads_like_loadtxt(text, 1)
    assert parsed[0] is True and parsed[-1] is False
    # and from a file, after its header, as `load_points_csv` reads it
    path = tmp_path / "pts.csv"
    path.write_text("x1\n" + text)
    parsed.clear()
    with open(path) as fh:
        fh.readline()
        try:
            want = _loadtxt(text)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                textio.read_floats(fh, 1)
        else:
            assert np.array_equal(textio.read_floats(fh, 1).view(np.int64), want.view(np.int64))
    assert parsed[0] is True and parsed[-1] is False


def test_unseekable_stream_goes_to_loadtxt(monkeypatch):
    class Pipe(io.StringIO):
        def seekable(self):
            return False

    monkeypatch.setattr(textio, "_read_rows", None)  # never called
    assert textio.read_floats(Pipe("0.5\n0.25\n"), 1).tolist() == [[0.5], [0.25]]
