import hashlib
import io
import tracemalloc

import numpy as np
import pytest

from helpers import root_mpmath
from mbonacci import numeration, rauzy
from mbonacci.numeration import encode
from mbonacci.rauzy import (
    build_cloud,
    fixed_point_prefix,
    render_cloud_ppm,
    set_equation_check,
    substitute,
    tiling_check,
    word_lengths,
)
from mbonacci.rotation import subtile_of
from mbonacci.spectral import (
    lattice_coords,
    precise_multiples_minus,
    reduce_array,
    rotation_point,
    torus_distance,
)


def test_substitute_single_letters():
    assert substitute(3, [1]).tolist() == [1, 2]
    assert substitute(3, [2]).tolist() == [1, 3]
    assert substitute(3, [3]).tolist() == [1]
    assert substitute(2, [1, 2]).tolist() == [1, 2, 1]


def _word(m: int, length: int) -> np.ndarray:
    return fixed_point_prefix(numeration.make_system(m), length)


def test_fixed_point_prefix_examples():
    assert _word(2, 8).tolist() == [1, 2, 1, 1, 2, 1, 2, 1]
    assert _word(3, 7).tolist() == [1, 2, 1, 3, 1, 2, 1]
    for m in range(2, 7):
        assert _word(m, 1).tolist() == [1]


def test_fixed_point_is_fixed():
    for m in (2, 3, 4):
        w = _word(m, 200)
        again = substitute(m, w)[:200]
        assert np.array_equal(w, again)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_fixed_point_prefix_matches_iterated_substitution(m):
    # every length up to 3000 ends inside or at the end of each walk range,
    # including the ranges j < m - 1 whose last letter is j + 2
    word = np.array([1], dtype=np.uint8)
    while word.size < 10 ** 5:
        word = substitute(m, word)
    sys = numeration.make_system(m)
    for length in list(range(1, 3001)) + [10 ** 5]:
        assert np.array_equal(fixed_point_prefix(sys, length), word[:length]), length


def test_word_length_examples():
    assert word_lengths(2, 5)[5] == 13
    assert word_lengths(3, 4)[4] == 13
    assert word_lengths(4, 0) == [1]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_word_lengths_match_basis(m):
    assert word_lengths(m, 12) == numeration.basis_prefix(m, 13)


def test_cloud_first_points():
    cloud = build_cloud(2, 2000)
    assert cloud.labels[0] == 1
    assert np.allclose(cloud.reduced[0], 0.0)
    expect = float(root_mpmath(2) ** -2) % 1.0
    assert abs(cloud.reduced[1][0] - expect) < 1e-12
    assert cloud.labels[1] == 2


@pytest.mark.parametrize("m", [2, 3])
def test_cloud_matches_abelianization_route(m):
    cloud = build_cloud(m, 5000)
    sys = numeration.make_system(m)
    word = cloud.labels
    rng = np.random.default_rng(m)
    for n in rng.integers(0, 5000, size=40):
        counts = np.bincount(word[: int(n)], minlength=m + 1)[1:]
        direct = reduce_array(lattice_coords(sys, counts.tolist()))
        assert torus_distance(direct, cloud.reduced[int(n)]) <= 1e-9


def test_cloud_matches_rotation_orbit(sys3):
    cloud = build_cloud(3, 10 ** 4)
    rng = np.random.default_rng(17)
    for n in np.concatenate(([0, 1], rng.integers(0, 10 ** 4, size=40))):
        assert torus_distance(cloud.reduced[int(n)], rotation_point([sys3], int(n))) <= 1e-12


@pytest.mark.parametrize("m, depth, points, labels", [
    (3, 10 ** 5, "467fefee019c5dd423083c355b9a42924079dc50064da9f1557ffe9734c2c555",
     "2559a1c2bfa24f2a813808780aea25e09e349ab160474697a49348bfcb1f07e9"),
    (5, 2 * 10 ** 5, "79b69a493169543c4c13238cc264a9acb5594af13c1809ce1a080d4f4c010516",
     "de5f60e6168cf9eebc0787e4277c4693ad5e4f3bf61455ea39dd036e7b7e1026"),
])
def test_cloud_frozen_bytes(m, depth, points, labels):
    cloud = build_cloud(m, depth)
    assert cloud.unreduced.shape == (depth + 1, m - 1) and cloud.unreduced.dtype == np.float64
    assert hashlib.sha256(np.ascontiguousarray(cloud.unreduced).tobytes()).hexdigest() == points
    assert hashlib.sha256(cloud.labels.tobytes()).hexdigest() == labels


def _one_shot_cloud(m: int, depth: int) -> np.ndarray:
    """Coordinates from full-length letter counts and one product call per
    coordinate: the reference the blocked fill is held to."""
    sys = numeration.make_system(m)
    word = fixed_point_prefix(sys, depth + 1)
    ns = np.arange(depth + 1, dtype=np.float64)
    coords = np.empty((m - 1, depth + 1))
    for i in range(2, m + 1):
        counts = np.zeros(depth + 1)
        np.cumsum(word[:depth] == i, dtype=np.float64, out=counts[1:])
        hi, lo = sys.neg_power_parts[i - 1]
        precise_multiples_minus(ns, float(hi), float(lo), counts, out=coords[i - 2])
    return coords.T


def _one_shot_grid(points, labels, groups, scale, dims=None):
    """`letter_grid` from one floor over every point at once."""
    cells = np.floor(points * scale).astype(np.int64)
    if dims is None:
        first = cells.min(axis=0) - 1
        dims = tuple((cells.max(axis=0) - first + 2).tolist())
    else:
        first = np.zeros(len(dims), dtype=np.int64)
    key = labels.astype(np.int64) - 1
    for j, size in enumerate(dims):
        key = key * size + (cells[:, j] - first[j])
    occ = np.zeros(groups * int(np.prod(dims)), dtype=bool)
    occ[key] = True
    return occ.reshape((groups, *dims)), tuple(first.tolist())


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_blocked_cloud_and_grid_across_block_seams(m):
    # depth + 1 points end one short of, at, and one past the second block
    # seam, so the letter counts are carried across a seam and the last
    # block is one point short, full, or a single point
    block = numeration.BLOCK
    side = {2: 1024, 3: 64, 4: 16, 5: 8}[m]
    for depth in (2 * block - 2, 2 * block - 1, 2 * block):
        cloud = build_cloud(m, depth)
        assert np.array_equal(cloud.unreduced, _one_shot_cloud(m, depth)), depth
        for points, scale, dims in ((cloud.unreduced, float(side), None),
                                    (cloud.reduced, side, (side,) * (m - 1))):
            got, first = rauzy.letter_grid(points, cloud.labels, m, scale, dims)
            want, want_first = _one_shot_grid(points, cloud.labels, m, scale, dims)
            assert first == want_first and np.array_equal(got, want), (depth, dims)


@pytest.mark.parametrize("block", [None, 64], ids=["BLOCK", "BLOCK=64"])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_grid_from_generated_blocks_equals_grid_from_array(m, block, monkeypatch):
    # the grid grows to each generated block's box plus the margin and ends
    # as the array's one pre-scanned grid; at 64 points a block it grows
    # many times
    grids = []
    empty_grid = rauzy._empty_grid

    def recorded_grid(*args):
        grids.append(args)
        return empty_grid(*args)

    monkeypatch.setattr(rauzy, "_empty_grid", recorded_grid)
    if block:
        monkeypatch.setattr(numeration, "BLOCK", block)
    scale = {2: 4096.0, 3: 256.0, 4: 32.0, 5: 8.0}[m]
    for depth in (2 * numeration.BLOCK + 4, 3 * 10 ** 4 + 7):
        cloud = build_cloud(m, depth)
        grids.clear()
        got, first = rauzy.letter_grid(cloud.unreduced_blocks(), cloud.labels, m, scale)
        grown = len(grids)
        assert "unreduced" not in cloud.__dict__
        want, want_first = rauzy.letter_grid(cloud.unreduced, cloud.labels, m, scale)
        assert len(grids) == grown + 1
        assert first == want_first and np.array_equal(got, want), depth
        # the array is the blocks, written in place
        assert np.array_equal(cloud.unreduced, _one_shot_cloud(m, depth))
        if block and depth > 10 ** 4:
            assert grown > 1


def test_grid_growth_keeps_to_the_cell_limit(monkeypatch):
    # a grid grows with room to spare only within MAX_GRID_CELLS: a box of
    # exactly the limit is allocated as it is, and one cell more is refused
    monkeypatch.setattr(rauzy, "MAX_GRID_CELLS", 1000)
    labels = np.ones(3, dtype=np.uint8)
    chunks = [np.array([[0.0]]), np.array([[5.0], [997.0]])]
    occ, first = rauzy.letter_grid(iter(chunks), labels, 1, 1.0)
    assert first == (-1,) and occ.shape == (1, 1000)
    assert np.flatnonzero(occ[0]).tolist() == [1, 6, 998]
    chunks[1][1] = 998.0
    with pytest.raises(ValueError, match="occupancy grid of 1e\\+03 cells too large"):
        rauzy.letter_grid(iter(chunks), labels, 1, 1.0)


def test_build_cloud_memory():
    # the 16 MB of coordinates, filled on first use, and the 1 MB word,
    # with a few block buffers of 256 KB beside them (17.25 MiB measured);
    # the letter counts, the indices and the products have no array of
    # full length
    tracemalloc.start()
    try:
        build_cloud(3, 10 ** 6).unreduced
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18.5 * 2 ** 20


@pytest.mark.parametrize("m", [2, 3, 4])
def test_label_frequencies(m):
    sys = numeration.make_system(m, 10)
    word = fixed_point_prefix(sys, 10 ** 5)
    freqs = np.bincount(word, minlength=m + 1)[1:] / word.size
    for i in range(m):
        assert abs(freqs[i] - sys.neg_power(i + 1)) < 1e-3


@pytest.mark.parametrize("m", [2, 3])
def test_label_equals_level0_walk_letter(m):
    # the fixed-point letter after prefix n must match the digit rule:
    # one plus the ones-run at the bottom of the expansion of n
    sys = numeration.make_system(m, 3000)
    word = fixed_point_prefix(sys, 3001)
    for n in range(3000):
        assert word[n] == subtile_of(sys, n, 0).letter


@pytest.mark.parametrize("m", [2, 3])
def test_dumont_thomas_walk_lengths(m):
    lengths = word_lengths(m, 30)
    sys = numeration.make_system(m, 10 ** 4)
    rng = np.random.default_rng(23)
    for n in rng.integers(0, 10 ** 4, size=60):
        code = encode(sys, int(n))
        total = sum(lengths[j] for j in range(code.bit_length()) if code >> j & 1)
        assert total == n


def test_subtile_of_examples(sys2, sys3):
    addr = subtile_of(sys2, 0, 3)
    assert addr.key == 0
    assert addr.trailing_ones == 0
    assert addr.letter == 1

    addr = subtile_of(sys3, 13, 5)  # 13 = F_4, digits 00001
    assert addr.key == 0b10000
    assert addr.trailing_ones == 1
    assert 1 <= addr.letter <= 3 - addr.trailing_ones

    nu = sum(sys3.basis[j] for j in range(5) if addr.key >> j & 1)
    assert nu == 13


def test_subtile_letter_in_allowed_set(sys3):
    for n in range(300):
        for k in (0, 2, 5):
            addr = subtile_of(sys3, n, k)
            assert 1 <= addr.letter <= 3 - addr.trailing_ones


def test_set_equation_identity_at_k0(cloud_m2_100k):
    rep = set_equation_check(cloud_m2_100k, 0, 2 ** -8)
    assert rep.max_ratio == 0.0


def test_set_equation_m2(cloud_m2_100k):
    rep = set_equation_check(cloud_m2_100k, 1, 2 ** -8)
    assert rep.max_ratio <= 0.05


def test_set_equation_m3_quick():
    cloud = build_cloud(3, 2 * 10 ** 5)
    rep = set_equation_check(cloud, 1, 2 ** -5)
    assert rep.max_ratio <= 0.05


def test_set_equation_level_two(cloud_m2_100k):
    rep2 = set_equation_check(cloud_m2_100k, 2, 2 ** -8)
    assert rep2.max_ratio <= 0.05
    cloud3 = build_cloud(3, 2 * 10 ** 5)
    rep3 = set_equation_check(cloud3, 2, 2 ** -5)
    assert rep3.max_ratio <= 0.06


def test_tiling_m2(cloud_m2_100k):
    rep = tiling_check(cloud_m2_100k, 2 ** -8)
    assert rep.coverage == 1.0
    assert rep.covered_cells == rep.total_cells == 256


def test_tiling_overlap_vanishes_with_finer_cells():
    # a multi-letter cell keeps its letters inside its parent, so the
    # overlap region is nested upward; its fraction must shrink as the
    # grid refines, consistent with boundaries of measure zero
    cloud = build_cloud(3, 2 * 10 ** 5)
    fine = tiling_check(cloud, 2 ** -5)
    coarse = tiling_check(cloud, 2 ** -4)
    coarser = tiling_check(cloud, 2 ** -3)
    assert fine.coverage == coarse.coverage == coarser.coverage == 1.0
    assert fine.overlap_fraction <= coarse.overlap_fraction <= coarser.overlap_fraction


def test_three_dimensional_torus_geometry_m4():
    # locks the n-dimensional cell bookkeeping: m=4 clouds live on a
    # 3-torus and still tile and satisfy the set equation at coarse grids
    cloud = build_cloud(4, 2 * 10 ** 5)
    rep = tiling_check(cloud, 2 ** -3)
    assert rep.coverage == 1.0
    assert 0.0 < rep.overlap_fraction < 1.0
    se = set_equation_check(cloud, 1, 2 ** -3)
    assert se.max_ratio <= 0.05


@pytest.mark.parametrize("m, depth, resolution", [
    (2, 10 ** 5, 2 ** -8), (2, 10 ** 5, 2 ** -6),
    (3, 2 * 10 ** 5, 2 ** -5), (4, 2 * 10 ** 5, 2 ** -3),
])
def test_tiling_counts_match_sorted_count(m, depth, resolution):
    # the dense letter-count grid against a sort of (cell, letter) keys
    cloud = build_cloud(m, depth)
    side = round(1 / resolution)
    idx = np.minimum((cloud.reduced * side).astype(np.int64), side - 1)
    keys = np.ravel_multi_index(idx.T, (side,) * (m - 1))
    pairs = np.unique(keys * (m + 1) + cloud.labels)
    _, letters = np.unique(pairs // (m + 1), return_counts=True)
    rep = tiling_check(cloud, resolution)
    assert rep.total_cells == side ** (m - 1)
    assert rep.covered_cells == letters.size
    assert rep.overlap_cells == np.count_nonzero(letters >= 2)


@pytest.mark.parametrize("m, depth, k, resolution", [
    (2, 10 ** 5, 1, 2 ** -8), (2, 10 ** 5, 2, 2 ** -8),
    (3, 2 * 10 ** 5, 1, 2 ** -5), (4, 2 * 10 ** 5, 1, 2 ** -3),
])
def test_set_equation_matches_sorted_cells(m, depth, k, resolution):
    # the dense two-set count against sorted cell-key sets of both sides
    from mbonacci.spectral import contraction_matrix

    cloud = build_cloud(m, depth)
    sys = numeration.make_system(m)
    mat = contraction_matrix(sys)
    gamma = np.asarray(lattice_coords(sys, [1] + [0] * (m - 1)))
    sides = {letter: cloud.letter_points(letter) for letter in range(1, m + 1)}
    for _ in range(k):
        sides = {letter: (np.concatenate(list(sides.values())) @ mat.T if letter == 1
                          else sides[letter - 1] @ mat.T + gamma)
                 for letter in range(1, m + 1)}
    rep = set_equation_check(cloud, k, resolution)
    for letter, rhs in sides.items():
        cells = [{tuple(c) for c in np.floor(p / resolution).astype(np.int64).tolist()}
                 for p in (cloud.letter_points(letter), rhs)]
        want = len(cells[0] ^ cells[1]) / len(cells[0] | cells[1])
        assert rep.ratios[letter] == want, (m, k, letter)


def test_density_guards():
    cloud = build_cloud(3, 2000)
    with pytest.raises(ValueError):
        tiling_check(cloud, 2 ** -6)
    with pytest.raises(ValueError):
        set_equation_check(cloud, 1, 2 ** -6)
    with pytest.raises(ValueError, match="^k must be >= 0$"):
        set_equation_check(cloud, -1, 2 ** -4)
    # a resolution outside (0, 1] is refused first, where it would divide by
    # zero, fail inside numpy, or give set_equation_check a passing
    # max_ratio of 0.0
    for resolution in (0.0, -0.5, 2.0, float("inf"), float("nan")):
        message = f"^resolution must lie in \\(0, 1\\], got {resolution}$"
        with pytest.raises(ValueError, match=message):
            tiling_check(cloud, resolution)
        with pytest.raises(ValueError, match=message):
            set_equation_check(cloud, 1, resolution)


def test_build_cloud_validation(monkeypatch):
    with pytest.raises(ValueError):
        build_cloud(3, 0)
    with pytest.raises(ValueError, match="^length must be >= 1$"):
        fixed_point_prefix(numeration.make_system(3), 0)
    monkeypatch.setattr(rauzy, "DEFAULT_MAX_DEPTH", 50)
    with pytest.raises(ValueError, match="depth 100 beyond the memory budget 50"):
        build_cloud(3, 100)


def test_csv_export_format():
    cloud = build_cloud(3, 50)
    buf = io.BytesIO()
    rauzy.export_cloud_csv(cloud, buf, digits=6)
    lines = buf.getvalue().decode("ascii").strip().split("\n")
    assert lines[0] == "n,label,c1,c2"
    assert len(lines) == 52
    n, label, c1, c2 = lines[1].split(",")
    assert (n, label) == ("0", "1")
    assert c1 == "0.000000" and c2 == "0.000000"


def test_ppm_render():
    cloud3 = build_cloud(3, 5000)
    data = render_cloud_ppm(cloud3, size=64)
    assert data.startswith(b"P6\n64 64\n255\n")
    assert len(data) == len(b"P6\n64 64\n255\n") + 64 * 64 * 3
    cloud2 = build_cloud(2, 2000)
    strip = render_cloud_ppm(cloud2, size=64)
    assert strip.startswith(b"P6\n64 8\n255\n")
    # the m = 2 strip of a benchmark-sized cloud, frozen byte for byte
    assert hashlib.sha256(render_cloud_ppm(build_cloud(2, 100000), 333)).hexdigest() == (
        "ae0acf9e9cc179b4cbd19578dd6b619b458c09952c28ea744144b417f59afc0d")
    fake = build_cloud(4, 1000)
    with pytest.raises(ValueError):
        render_cloud_ppm(fake)
    for cloud, size in ((cloud3, 0), (cloud2, 0), (cloud3, -3)):
        with pytest.raises(ValueError, match=f"size must be >= 1, got {size}"):
            render_cloud_ppm(cloud, size=size)
    # images past rauzy.MAX_GRID_CELLS pixels are refused before allocating:
    # 8193^2 and 23174 * 2896 are the first sizes over 2^26 for m = 3 and 2
    for cloud, size in ((cloud3, 8193), (cloud2, 23174), (cloud3, 100000)):
        with pytest.raises(ValueError, match=f"size {size} gives a"):
            render_cloud_ppm(cloud, size=size)


def test_ppm_render_memory():
    # the letter grid (12 MB) and the one header-and-pixels buffer (12 MB),
    # with no copy of the image
    cloud = build_cloud(3, 10 ** 5)
    cloud.reduced
    tracemalloc.start()
    try:
        render_cloud_ppm(cloud, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2 ** 20
