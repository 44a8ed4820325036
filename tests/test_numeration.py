import numpy as np
import pytest

from helpers import brute_force_expansions, count_admissible_bruteforce, naive_star_disc
from mbonacci import discrepancy, numeration, rauzy, rotation
from mbonacci.numeration import (
    decode,
    digit_codes,
    digit_matrix,
    encode,
    is_admissible,
    make_system,
)
from mbonacci.rotation import subtile_of


def test_basis_prefix_fibonacci_like():
    assert numeration.basis_prefix(2, 8) == [1, 2, 3, 5, 8, 13, 21, 34]
    assert numeration.basis_prefix(3, 7) == [1, 2, 4, 7, 13, 24, 44]


def test_basis_prefix_cap():
    assert len(numeration.basis_prefix(2, 512)) == 512
    with pytest.raises(ValueError, match="^basis of 513 terms exceeds the cap of 512$"):
        numeration.basis_prefix(2, 513)


def test_basis_starts_with_powers_of_two():
    for m in range(2, 7):
        terms = numeration.basis_prefix(m, m + 3)
        assert terms[:m] == [1 << k for k in range(m)]
        for k in range(m, len(terms)):
            assert terms[k] == sum(terms[k - m:k])


def test_make_system_covers_max_n():
    sys2 = make_system(2, 25)
    assert sys2.basis[:8] == (1, 2, 3, 5, 8, 13, 21, 34)
    assert sys2.basis[-1] > 25
    tiny = make_system(2, 1)
    assert tiny.basis[:2] == (1, 2)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_make_system_basis_ends_m_plus_2_terms_past_max_n(m):
    # one system per m covers every index below 2^26; a smaller max_n
    # changes nothing, down to the last bit of the root powers
    default = make_system(m)
    first_above = next(i for i, f in enumerate(default.basis) if f > 2 ** 26)
    assert default.basis == tuple(numeration.basis_prefix(m, first_above + m + 3))
    assert default.neg_power_parts.shape == (len(default.basis), 2)
    for max_n in (0, 1, 10, 10 ** 6, 2 ** 26):
        sys = make_system(m, max_n)
        assert sys.basis == default.basis
        assert sys.neg_power_parts.tobytes() == default.neg_power_parts.tobytes()
    # a larger max_n widens the basis to m + 2 terms past it
    basis = make_system(m, 10 ** 100).basis
    first_above = next(i for i, f in enumerate(basis) if f > 10 ** 100)
    assert basis == tuple(numeration.basis_prefix(m, first_above + m + 3))
    # terms past the 512-term cap are refused, not built
    with pytest.raises(ValueError, match=f"basis overflow: n = {10 ** 200} needs more basis "
                                         "terms than the cap of 512"):
        make_system(m, 10 ** 200)


def test_make_system_rejects_bad_input():
    with pytest.raises(ValueError, match="m must be >= 2, got 1"):
        make_system(1, 10)
    with pytest.raises(ValueError, match="m must be >= 2, got 1"):
        make_system(1)
    with pytest.raises(ValueError, match="^m must be >= 2, got 1$"):
        numeration.basis_prefix(1, 3)
    with pytest.raises(ValueError, match="^count must be >= 1$"):
        numeration.basis_prefix(2, 0)
    with pytest.raises(ValueError, match=r"^power 0 beyond the cached range 1\.\.\d+$"):
        make_system(3).neg_power(0)
    # max_n = 0 is valid: it asks for no more than the default coverage
    assert make_system(3, 0).basis == make_system(3).basis


def test_encode_examples(sys2, sys3):
    assert encode(sys2, 4) == 0b101
    assert encode(sys3, 0) == 0


def test_encode_n12_matches_brute_force(sys3):
    got = encode(sys3, 12)
    candidates = brute_force_expansions(sys3.basis, 3, 12, max_len=8)
    assert len(candidates) == 1
    assert got == candidates[0]
    assert got == 0b1101  # 12 = 7 + 4 + 1


def test_encode_uniqueness_small(sys2, sys3):
    for sys in (sys2, sys3):
        for n in range(0, 150):
            candidates = brute_force_expansions(sys.basis, sys.m, n, max_len=12)
            assert len(candidates) == 1
            assert candidates[0] == encode(sys, n)


def test_encode_out_of_range(sys2):
    with pytest.raises(ValueError):
        encode(sys2, sys2.basis[-1])
    with pytest.raises(ValueError):
        encode(sys2, -1)


def test_decode_examples(sys2, sys3):
    assert decode(sys2, 0b101) == 4
    assert decode(sys3, 0) == 0
    # 0b110 sums to 2+3=5 but holds a forbidden ones-run for m=2;
    # the admissible form of 5 is 0b1000
    assert decode(sys2, 0b1000) == 5
    assert decode(sys3, 0b110) == 6


def test_decode_rejects_inadmissible(sys2):
    # the code prints most significant bit first
    with pytest.raises(ValueError, match="^inadmissible digit code for m=2: 11$"):
        decode(sys2, 0b11)
    with pytest.raises(ValueError, match="^inadmissible digit code for m=2: 110$"):
        decode(sys2, 0b110)


def test_decode_rejects_negative_and_wide_codes(sys2):
    with pytest.raises(ValueError, match="^negative digit code -1$"):
        decode(sys2, -1)
    width = len(sys2.basis)
    assert decode(sys2, 1 << (width - 1)) == sys2.basis[-1]
    with pytest.raises(ValueError, match=f"^digit code 1{'0' * width} wider than the "
                                         f"{width}-term basis$"):
        decode(sys2, 1 << width)


def test_is_admissible_examples():
    assert is_admissible(2, 0b11) is False
    assert is_admissible(3, 0b11011) is True
    assert is_admissible(3, 0b111) is False
    assert is_admissible(2, 0) is True
    codes = np.array([0b101, 0b110, 0b1001], dtype=np.int64)
    assert is_admissible(2, codes).tolist() == [True, False, True]


def test_trailing_ones_examples(sys2, sys3):
    # the run of ones just below position k is SubtileAddress.trailing_ones;
    # for m = 3, 20 = F_3 + F_4 = 7 + 13 has ones at positions 3 and 4
    assert encode(sys3, 20) == 0b11000
    assert [subtile_of(sys3, 20, k).trailing_ones for k in (5, 4, 3, 0)] == [2, 1, 0, 0]
    assert subtile_of(sys3, 0, 7).trailing_ones == 0
    assert subtile_of(sys2, 1, 1).trailing_ones == 1
    with pytest.raises(ValueError, match="k must be >= 0"):
        subtile_of(sys3, 20, -1)


def test_ones_run_from(sys3):
    # the letter is one plus the run of ones from position k: 10 = 1 + 2 + 7
    assert encode(sys3, 10) == 0b1011
    assert [subtile_of(sys3, 10, k).letter for k in (0, 2, 3, 9)] == [3, 1, 2, 1]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_roundtrip_sampled(m):
    sys = make_system(m, 10 ** 6)
    rng = np.random.default_rng(m * 1000 + 1)
    ns = np.concatenate(([0, 1, 2], rng.integers(0, 10 ** 6, size=400)))
    for n in ns:
        code = encode(sys, int(n))
        assert is_admissible(m, code)
        assert decode(sys, code) == n


@pytest.mark.parametrize("m", [2, 3, 5])
def test_bulk_digits_match_scalar(m):
    count = 10 ** 5
    sys = make_system(m, count)
    codes = digit_codes(sys, count)
    digits = digit_matrix(sys, count)
    assert digits.dtype == np.uint8 and digits.shape == (count, encode(sys, count - 1).bit_length())
    rng = np.random.default_rng(7)
    for n in rng.integers(0, count, size=200):
        code = encode(sys, int(n))
        assert int(codes[n]) == code
        assert digits[n].tolist() == [code >> j & 1 for j in range(digits.shape[1])]


def test_bulk_roundtrip_range(sys3):
    # each code read bit by bit is admissible and sums to its index, so by
    # uniqueness it is the greedy expansion
    for n, code in enumerate(digit_codes(sys3, 5000).tolist()):
        assert is_admissible(3, code)
        assert sum(f for j, f in enumerate(sys3.basis) if code >> j & 1) == n
        assert code >> len(sys3.basis) == 0


def test_digit_codes_validation():
    sys = make_system(2)
    assert digit_codes(sys, 0).shape == (0,) and digit_matrix(sys, 0).shape == (0, 0)
    with pytest.raises(ValueError, match="count must be >= 0, got -1"):
        digit_codes(sys, -1)
    with pytest.raises(ValueError, match="above the limit 2\\^26"):
        digit_codes(sys, 2 ** 26 + 1)


def test_prefix_ranges_cover_the_count():
    sys = make_system(3)
    assert numeration.prefix_ranges(sys, 0) == numeration.prefix_ranges(sys, 1) == []
    assert numeration.prefix_ranges(sys, 10) == [(0, 1, 2), (1, 2, 4), (2, 4, 7), (3, 7, 10)]
    # the counts up to 2000 cross the basis terms F_1 .. F_12
    for count in (*range(2, 2000), 2 ** 26):
        # n = 0 has no digits; the ranges tile 1..count-1
        ranges = numeration.prefix_ranges(sys, count)
        assert ranges[0][1] == 1 and ranges[-1][2] == count
        assert [stop for _, _, stop in ranges[:-1]] == [start for _, start, _ in ranges[1:]]
        # the range read, [0, stop - F_j), ends at or before the range written
        assert all(stop - start <= start for _, start, stop in ranges)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_admissible_string_count_equals_basis(m):
    basis = numeration.basis_prefix(m, 15)
    for k in range(0, 15):
        assert count_admissible_bruteforce(m, k) == basis[k]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_admissible_string_count_k20(m):
    basis = numeration.basis_prefix(m, 21)
    assert count_admissible_bruteforce(m, 20) == basis[20]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_greedy_maximality(m):
    sys = make_system(m, 10 ** 4)
    rng = np.random.default_rng(m)
    for n in rng.integers(0, 10 ** 4, size=100):
        code = encode(sys, int(n))
        width = code.bit_length()
        for j in range(width):
            if code >> j & 1:
                continue
            flipped = sum(sys.basis[i] for i in range(j + 1, width) if code >> i & 1)
            flipped += sys.basis[j]
            assert flipped > n


def _bulk_results():
    """(name, result) of every blocked path on inputs that cross the block
    seams of small blocks: fills ending just before, at and just after
    basis terms, clouds of 2 to 302 points, their plain and torus letter
    grids, one-dimensional sets that are ascending but for one adjacent
    swap, and Halton point sets of two to four dimensions, the pair large
    enough for the corner search to refine its blocks down to cells."""
    results = []
    for m in (2, 3, 4, 5):
        sys = make_system(m)
        counts = {f + d for f in sys.basis if f < 300 for d in (-1, 0, 1)} | {300}
        results += [(f"vdc m={m} count={c}", rotation.vdc_values(sys, c)) for c in sorted(counts)]
        for depth in (1, 2, 6, 7, 8, 13, 14, 15, 301):
            cloud = rauzy.build_cloud(m, depth)
            results += [(f"cloud m={m} depth={depth}", cloud.unreduced),
                        (f"labels m={m} depth={depth}", cloud.labels)]
        for points, scale, dims in ((cloud.unreduced, 16.0, None),
                                    (cloud.reduced, 4, (4,) * (m - 1))):
            occ, first = rauzy.letter_grid(points, cloud.labels, m, scale, dims)
            results += [(f"grid m={m} dims={dims}", occ),
                        (f"grid first m={m} dims={dims}", np.array(first))]
    # at midpoints the discrepancy is 0.5/n, and any swap read as ascending
    # raises it to 1.5/n
    x = (np.arange(30) + 0.5) / 30
    results.append(("1d ascending", discrepancy.star_disc_1d(x)))
    for i in range(len(x) - 1):
        swapped = x.copy()
        swapped[[i, i + 1]] = x[[i + 1, i]]
        results.append((f"1d swap {i}", discrepancy.star_disc_1d(swapped)))
    shuffled = np.random.default_rng(30).permutation(rotation.vdc_values(make_system(2), 100))
    results.append(("1d shuffled", discrepancy.star_disc_1d(shuffled)))
    for ms, count in (((2, 3), 200), ((2, 3, 5), 20), ((2, 3, 4, 5), 10)):
        pts = rotation.halton_points([make_system(m) for m in ms], count)
        results += [(f"halton {ms}", pts),
                    (f"multi {ms}", discrepancy.star_disc_multi(pts).value)]
    return results


@pytest.fixture(scope="module")
def default_block_results():
    return _bulk_results()


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_one_block_size_reaches_every_bulk_path(monkeypatch, default_block_results, block):
    # patching numeration.BLOCK alone moves the seams of the van der Corput
    # fill, the cloud fill, the letter grid, the 1-D pass and the corner
    # grid's slabs and batches; no result may change by a bit
    monkeypatch.setattr(numeration, "BLOCK", block)
    got = _bulk_results()
    assert [name for name, _ in got] == [name for name, _ in default_block_results]
    for (name, value), (_, want) in zip(got, default_block_results):
        value, want = np.asarray(value), np.asarray(want)
        assert value.dtype == want.dtype and value.shape == want.shape, name
        assert value.tobytes() == want.tobytes(), name
    for name, value in got:
        if name.startswith("halton"):
            pts = value
        elif name.startswith("multi"):
            assert value == naive_star_disc(pts), name
