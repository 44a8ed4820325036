import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import naive_star_disc, run_fresh
from mbonacci import discrepancy, numeration, rauzy, rotation
from mbonacci.textio import read_floats
from mbonacci.discrepancy import (
    box_dim_boundary,
    decay_fit,
    load_points_csv,
    star_disc,
    star_disc_1d,
    star_disc_multi,
    theorem_exponent,
)


def test_star_disc_1d_examples():
    assert star_disc_1d([0.0]) == 1.0
    assert star_disc_1d([0.0, 0.5]) == 0.5
    n = 32
    mids = [(2 * i + 1) / (2 * n) for i in range(n)]
    assert abs(star_disc_1d(mids) - 1.0 / (2 * n)) < 1e-15


def test_star_disc_1d_validation():
    with pytest.raises(ValueError):
        star_disc_1d([])
    with pytest.raises(ValueError):
        star_disc_1d([0.2, 1.0])
    with pytest.raises(ValueError):
        star_disc_1d([-0.1])
    with pytest.raises(ValueError):
        star_disc_1d([0.5, np.nan, 0.25])
    for bad in ([0.5, np.inf], [-np.inf, 0.5]):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\)"):
            star_disc_1d(bad)
    for bad in (0.5, [[0.5], [0.25]]):
        with pytest.raises(ValueError, match="one-dimensional"):
            star_disc_1d(bad)
    # -0.0 lies in [0, 1), as it does for the other kernels
    assert star_disc_1d([-0.0, 0.5]) == star_disc_1d([0.0, 0.5]) == 0.5


@pytest.mark.parametrize("seed", range(4))
def test_star_disc_1d_matches_naive_oracle(seed):
    rng = np.random.default_rng(seed)
    x = rng.random(int(rng.integers(1, 400)))
    eighths = np.floor(x * 8) / 8
    signed_zeros = np.where(x < 0.3, 0.0, x)
    signed_zeros[::2] = np.where(x[::2] < 0.3, -0.0, x[::2])
    for pts in (x, eighths, np.concatenate((x, x[: len(x) // 2])), signed_zeros):
        assert star_disc_1d(pts) == naive_star_disc(pts[:, None])


@pytest.mark.parametrize("n", [2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 3 * 2 ** 16 + 5])
def test_star_disc_1d_chunk_seams(n):
    # sorted points on multiples of 1/64, nearly even, with the n/8 points
    # before `seam` piled on the lowest of them and the n/8 after on the
    # highest: the gap puts the maximum of i/n - x_(i) on the last point
    # before the seam and, where the pile after it fits, the maximum of
    # x_(i) - (i - 1)/n on the first point after.  The seam is the first
    # chunk boundary, or the end of the only chunk.  66 corners keep the
    # oracle cheap.
    seam = min(n, discrepancy._CHUNK_POINTS)
    width = n // 8
    x = np.floor(np.arange(n) * 64 / n) / 64
    x[seam - width:seam] = x[seam - width]
    x[seam:seam + width] = x[min(seam + width, n) - 1]
    q = np.arange(n + 1) / n
    assert np.argmax(q[1:] - x) == seam - 1
    assert seam + width > n or np.argmax(x - q[:-1]) == seam
    shuffled = np.random.default_rng(n).permutation(x)
    assert star_disc_1d(shuffled) == naive_star_disc(x[:, None])


def test_star_disc_1d_memory():
    # besides the sorted copy (8 MB), only chunk-sized temporaries
    x = np.random.default_rng(0).random(2 ** 20)
    tracemalloc.start()
    try:
        star_disc_1d(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


def test_load_points_csv_memory(tmp_path):
    # 2^20 repr rows are 20 MB of text, read one 64 KiB block at a time: the
    # reader peaks at the 8 MiB result, grown in place by quarters, plus a
    # block's temporaries (10.5 MiB measured); the range checks' four 1 MiB
    # masks then take load_points_csv to 12.0 MiB, as at np.loadtxt
    x = np.random.default_rng(0).random(2 ** 20)
    path = tmp_path / "pts.csv"
    path.write_text("x1\n" + "\n".join(map(repr, x.tolist())) + "\n")

    def traced_peak(read, skip_header):
        with open(path) as fh:
            if skip_header:
                fh.readline()
            tracemalloc.start()
            try:
                pts = read(fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert np.array_equal(pts[:, 0], x)
        return peak

    assert traced_peak(lambda fh: read_floats(fh, 1), True) < 11 * 2 ** 20
    assert traced_peak(load_points_csv, False) < 12.5 * 2 ** 20


def test_star_disc_multi_examples():
    assert star_disc_multi(np.zeros((1, 2))).value == 1.0
    report = star_disc_multi(np.array([[0.0, 0.0], [0.5, 0.5]]))
    assert abs(report.value - 0.75) < 1e-15
    assert report.N == 2 and report.exact


def test_star_disc_multi_validation():
    with pytest.raises(ValueError):
        star_disc_multi(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        star_disc_multi(np.empty((0, 2)))
    with pytest.raises(ValueError):
        star_disc_multi(np.array([[0.5, 1.0]]))
    with pytest.raises(ValueError):
        star_disc_multi(np.array([[0.1, 0.2], [0.3, np.nan]]))
    with pytest.raises(ValueError):
        star_disc_multi(np.full((2, 3), np.nan))


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_star_disc_answers_every_dimension(s):
    systems = tuple(numeration.make_system(m, 200) for m in (2, 3, 5, 4)[:s])
    pts = rotation.halton_points(systems, 200)
    report = star_disc(pts)
    assert report.N == 200 and report.s == s
    if s == 1:
        assert report.value == star_disc_1d(pts[:, 0])
        assert report.method == "exact1d" and report.exact is True
    else:
        assert report == star_disc_multi(pts)


def test_star_disc_validation():
    for points in (np.full(3, 0.5), np.empty((3, 0)), np.empty((0, 1)), np.empty((0, 2))):
        with pytest.raises(ValueError):
            star_disc(points)


@pytest.mark.parametrize("s", [2, 3])
def test_star_disc_multi_matches_naive_oracle(s):
    rng = np.random.default_rng(100 + s)
    for _ in range(15):
        n = int(rng.integers(1, 65))
        pts = rng.random((n, s))
        assert star_disc_multi(pts).value == naive_star_disc(pts)


def _tie_heavy(rng, n, s):
    """Random points with a duplicate, zero coordinates and a last axis
    quantised to quarters."""
    pts = rng.random((n, s))
    pts[rng.integers(n)] = pts[0]
    pts[rng.random((n, s)) < 0.2] = 0.0
    pts[:, -1] = np.floor(pts[:, -1] * 4) / 4
    return pts


def test_star_disc_multi_with_ties_and_edges():
    pts = np.array([
        [0.25, 0.25],
        [0.25, 0.25],
        [0.0, 0.75],
        [0.75, 0.0],
        [0.25, 0.75],
    ])
    assert star_disc_multi(pts).value == naive_star_disc(pts)
    pts3 = np.array([[0.5, 0.5, 0.5], [0.0, 0.0, 0.0], [0.5, 0.25, 0.75]])
    assert star_disc_multi(pts3).value == naive_star_disc(pts3)
    # duplicate points, zero coordinates and ties on the last axis: the
    # sweep does the oracle's arithmetic, so the values are equal
    rng = np.random.default_rng(2024)
    for trial in range(30):
        s = (2, 3, 4)[trial % 3]
        n = int(rng.integers(2, 30 if s < 4 else 12))
        pts = _tie_heavy(rng, n, s)
        assert star_disc_multi(pts).value == naive_star_disc(pts)


def test_star_disc_multi_adversarial_patterns():
    rng = np.random.default_rng(404)
    # collinear points, heavy coordinate repetition, clusters at 0
    diag = np.linspace(0.0, 0.99, 40)
    cases = [
        np.stack([diag, diag], axis=1),
        np.stack([diag, diag[::-1]], axis=1),
        np.stack([np.repeat(np.arange(5) / 5.0, 8), rng.random(40)], axis=1),
        np.concatenate([np.zeros((6, 2)), rng.random((30, 2))]),
    ]
    for pts in cases:
        assert star_disc_multi(pts).value == naive_star_disc(pts)


def test_star_disc_multi_larger_instance_vs_oracle():
    rng = np.random.default_rng(77)
    pts = rng.random((300, 2))
    assert star_disc_multi(pts).value == naive_star_disc(pts)


def test_star_disc_multi_s4_vs_oracle():
    rng = np.random.default_rng(44)
    for n in (5, 12, 20):
        pts = rng.random((n, 4))
        report = star_disc_multi(pts)
        assert report.method == "exact_corner_grid"
        assert report.value == naive_star_disc(pts)


def test_star_disc_multi_budget_and_fallback(monkeypatch):
    # past the budget the report falls back to a lower bound, the best
    # exact corner value that the last pass within the budget found
    rng = np.random.default_rng(5)
    pts = rng.random((40, 3))
    exact = star_disc_multi(pts)
    monkeypatch.setattr(discrepancy, "DEFAULT_MAX_EXACT_OPS", 1000)
    bounded = star_disc_multi(pts)
    assert not bounded.exact
    assert bounded.method == "corner_block_lower_bound"
    assert 0.0 < bounded.value <= exact.value


@pytest.mark.parametrize("budget", [500, 4000, 1 << 30])
def test_star_disc_multi_exact_or_lower_bound_under_any_budget(monkeypatch, budget):
    # an exact report equals the oracle, an inexact one lies below it
    monkeypatch.setattr(discrepancy, "DEFAULT_MAX_EXACT_OPS", budget)
    rng = np.random.default_rng(1313)
    exact = 0
    for trial in range(300):
        s = (2, 3, 4)[trial % 3]
        n = int(rng.integers(2, (120, 40, 14)[s - 2]))
        pts = _tie_heavy(rng, n, s)
        report = star_disc_multi(pts)
        oracle = naive_star_disc(pts)
        if report.exact:
            exact += 1
            assert report.value == oracle, (trial, budget)
        else:
            assert report.method == "corner_block_lower_bound"
            assert 0.0 <= report.value <= oracle, (trial, budget)
    assert exact == 300 if budget == 1 << 30 else 0 < exact < 300


def test_no_pass_exceeds_the_budget(monkeypatch):
    # each block pass's work, one unit per cell at side 1 and two per
    # bounded block above it, fits the budget, on grids far over it too
    block_pass = discrepancy._block_pass
    passes = []

    def record_pass(ranks, cands, n, side, best, cap, finish=False):
        passes.append((discrepancy._work(cands, side), side, finish))
        return block_pass(ranks, cands, n, side, best, cap, finish)

    monkeypatch.setattr(discrepancy, "_block_pass", record_pass)
    rng = np.random.default_rng(99)
    cases = [_tie_heavy(rng, 100, 2), _tie_heavy(rng, 30, 3), _tie_heavy(rng, 10, 4),
             # a block start that holds fewer than 16 cells, and a sweep over the budget
             np.stack([np.arange(28) / 28, np.full(28, 0.5)], axis=1)]
    for budget in (50, 500, 4000):
        monkeypatch.setattr(discrepancy, "DEFAULT_MAX_EXACT_OPS", budget)
        for pts in cases:
            passes.clear()
            report = star_disc_multi(pts)
            assert passes and all(work <= budget for work, _, _ in passes), (budget, passes)
            # a search that stops short ends in a pass that walked all its blocks
            assert report.exact or passes[-1][2]
    systems = tuple(numeration.make_system(m, 2048) for m in (2, 3, 5))
    monkeypatch.setattr(discrepancy, "DEFAULT_MAX_EXACT_OPS", 1 << 24)
    passes.clear()
    report = star_disc_multi(rotation.halton_points(systems, 2048))
    assert not report.exact and max(work for work, _, _ in passes) <= 1 << 24
    assert passes[-1][1] > 1 and passes[-1][2]


def test_last_pass_keeps_blocks_against_its_final_best(monkeypatch):
    # the last pass within the budget keeps more than its cap of blocks
    # against its running best, but not against the best it ends with;
    # dropping the blocks the running best has overtaken lets it finish
    block_pass = discrepancy._block_pass
    passes = []

    def record_pass(*args, **kwargs):
        passes.append((args, kwargs))
        return block_pass(*args, **kwargs)

    monkeypatch.setattr(discrepancy, "_block_pass", record_pass)
    monkeypatch.setattr(discrepancy, "_CHUNK_CELLS", 1024)
    monkeypatch.setattr(discrepancy, "_MAX_KEPT", 128)
    monkeypatch.setattr(discrepancy, "DEFAULT_MAX_EXACT_OPS", 11552)
    systems = tuple(numeration.make_system(m, 300) for m in (2, 3))
    pts = rotation.halton_points(systems, 300)
    report = star_disc_multi(pts)
    assert report.exact and report.value == naive_star_disc(pts)
    (ranks, cands, n, side, best, cap), kwargs = passes[-1]
    assert kwargs == {"finish": True} and cap == 128
    final, found = block_pass(ranks, cands, n, side, best, 1 << 40)
    bounds = np.concatenate([bound for _, bound, _ in found])
    assert len(bounds) > cap >= np.count_nonzero(bounds > final)


def test_block_search_matches_oracle_when_every_block_is_kept(monkeypatch):
    # keep every block a pass bounds and allow blocks of two cells, so the
    # fine pass sees blocks that the best corner value does not rule out
    # and blocks cut short by the grid's end; small chunks split both
    # passes into many slabs and batches
    block_pass, block_values = discrepancy._block_pass, discrepancy._block_values
    sides, fine = [], []

    def keep_all(ranks, cands, n, side, best, cap, finish=False):
        sides.append(side)
        return block_pass(ranks, cands, n, side, best, 1 << 30, finish)

    def record_values(*args):
        fine.append(len(args[5]))
        return block_values(*args)

    monkeypatch.setattr(discrepancy, "_block_pass", keep_all)
    monkeypatch.setattr(discrepancy, "_block_values", record_values)
    monkeypatch.setattr(discrepancy, "_MIN_BLOCK_CELLS", 2)
    monkeypatch.setattr(discrepancy, "_CHUNK_CELLS", 64)
    rng = np.random.default_rng(1212)
    for trial in range(45):
        s = (2, 3, 4)[trial % 3]
        n = int(rng.integers(8, (120, 40, 14)[s - 2]))
        pts = _tie_heavy(rng, n, s)
        assert star_disc_multi(pts).value == naive_star_disc(pts)
    assert set(sides) >= {2, 4} and len(fine) >= 45


@pytest.mark.parametrize("ms, count, value", [
    ((2, 3), 8192, 0.005104380873610148),
    ((2, 3, 5), 256, 0.07052543571118836),
])
def test_star_disc_multi_frozen_halton_values(ms, count, value):
    # computed by the whole-grid sweep of 9505e60, which evaluated every cell
    systems = tuple(numeration.make_system(m, count) for m in ms)
    report = star_disc_multi(rotation.halton_points(systems, count))
    assert report.exact and report.value == value


def _rank1_lattice(n, g):
    k = np.arange(n)
    return np.stack([k / n, (g * k % n) / n], axis=1)


def test_rank1_lattice_where_blocks_hardly_prune():
    # D = 3.5/N exactly, and almost every block's bound exceeds it, so the
    # search falls back to evaluating every cell
    assert star_disc_multi(_rank1_lattice(4096, 2583)).value == 3.5 / 4096
    small = _rank1_lattice(256, 157)
    assert star_disc_multi(small).value == naive_star_disc(small)


def test_block_search_skips_almost_every_cell(monkeypatch):
    # a return to evaluating the whole grid fails here, not only in timings
    block_pass, block_values = discrepancy._block_pass, discrepancy._block_values
    sides, cells = [], []

    def record_pass(*args, **kwargs):
        sides.append(args[3])
        return block_pass(*args, **kwargs)

    def record_values(*args):
        lo, side = args[5], args[4]
        cells.append(len(lo) * side ** lo.shape[1])
        return block_values(*args)

    monkeypatch.setattr(discrepancy, "_block_pass", record_pass)
    monkeypatch.setattr(discrepancy, "_block_values", record_values)
    systems = tuple(numeration.make_system(m, 4096) for m in (2, 3))
    pts = rotation.halton_points(systems, 4096)
    assert star_disc_multi(pts).value == 0.006073280856525226
    grid = np.prod([len(np.unique(np.concatenate((pts[:, j], [0.0, 1.0])))) for j in range(2)])
    assert 1 not in sides
    assert 0 < sum(cells) <= 0.05 * grid


def test_decay_fit_exact_powers():
    samples = [(n, 1.0 / n) for n in (10, 100, 1000, 10000)]
    slope, intercept, r2 = decay_fit(samples)
    assert abs(slope + 1.0) < 1e-12
    assert abs(intercept) < 1e-10
    assert abs(r2 - 1.0) < 1e-12
    samples = [(n, 3.0 * n ** -0.5) for n in (16, 64, 256, 1024, 4096)]
    slope, _, _ = decay_fit(samples)
    assert abs(slope + 0.5) < 1e-12


def test_decay_fit_validation():
    with pytest.raises(ValueError):
        decay_fit([(10, 0.1), (20, 0.05), (40, 0.02)])
    with pytest.raises(ValueError):
        decay_fit([(10, 0.1), (10, 0.1), (20, 0.1), (40, 0.1)])
    with pytest.raises(ValueError):
        decay_fit([(10, 0.1), (20, 0.1), (40, 0.1), (80, 0.1)])
    with pytest.raises(ValueError):
        decay_fit([(10, 0.1), (20, -0.1), (40, 0.02), (80, 0.01)])


def test_vdc_sequence_decay(sys2):
    values = rotation.vdc_values(sys2, 2 ** 12)
    samples = [(2 ** e, star_disc_1d(values[: 2 ** e])) for e in range(8, 13)]
    slope, _, _ = decay_fit(samples)
    assert slope <= -0.9


def test_box_dim_m2_control(cloud_m2_100k):
    est = box_dim_boundary(cloud_m2_100k, range(4, 10))
    assert est.slope <= 0.15
    assert all(c >= 1 for c in est.counts)
    # every level counts the same cells, so the slope is 0 without rounding
    assert len(set(est.counts)) == 1
    assert est.slope == 0.0 and est.stderr == 0.0


def test_box_dim_counts_grow(cloud_m2_100k):
    cloud = rauzy.build_cloud(3, 250000)
    est = box_dim_boundary(cloud, (4, 5, 6, 7))
    assert est.counts == tuple(sorted(est.counts))
    assert 0.8 <= est.slope <= 1.3


def test_box_dim_modes_and_validation(cloud_m2_100k):
    for mode in ("subtile", "outer", "both"):
        est = box_dim_boundary(cloud_m2_100k, (4, 5, 6), mode=mode)
        assert est.mode == mode
    with pytest.raises(ValueError):
        box_dim_boundary(cloud_m2_100k, (4, 5), mode="bogus")
    with pytest.raises(ValueError):
        box_dim_boundary(cloud_m2_100k, ())
    # one level, or one level twice, gives no slope
    for levels in ((4,), (4, 4)):
        with pytest.raises(ValueError, match="levels must hold at least two distinct"):
            box_dim_boundary(cloud_m2_100k, levels)
    sparse = rauzy.build_cloud(3, 2000)
    with pytest.raises(ValueError, match="too sparse"):
        box_dim_boundary(sparse, (8, 9))


def _sorted_boundary_cells(cloud, level, mode):
    """Boundary cell count by sorting cell keys, as a sparse reference."""
    side = 1 << level
    idx = np.floor(cloud.unreduced * side).astype(np.int64)
    mins = idx.min(axis=0)
    dims = tuple(int(x) for x in idx.max(axis=0) - mins + 3)
    idx = idx - mins + 1
    keys = np.ravel_multi_index(idx.T, dims)
    found = set()
    if mode in ("subtile", "both"):
        pairs = np.unique(keys * (cloud.m + 1) + cloud.labels)
        cells, letters = np.unique(pairs // (cloud.m + 1), return_counts=True)
        found.update(cells[letters >= 2].tolist())
    if mode in ("outer", "both"):
        occupied = np.unique(keys)
        occupied_set = set(occupied.tolist())
        for cell in np.array(np.unravel_index(occupied, dims)).T:
            for axis in range(len(dims)):
                for delta in (-1, 1):
                    nb = cell.copy()
                    nb[axis] = (nb[axis] + delta) % dims[axis]
                    if int(np.ravel_multi_index(nb, dims)) not in occupied_set:
                        found.add(int(np.ravel_multi_index(cell, dims)))
    return len(found)


def _shifted_cloud(m, depth, level, first):
    """build_cloud(m, depth) translated so that its cells at `level` start
    at index `first` on every axis."""
    cloud = rauzy.build_cloud(m, depth)
    side = 1 << level
    pts = cloud.unreduced + (first - np.floor(cloud.unreduced * side).min(axis=0)) / side
    assert np.all(np.floor(pts * side).min(axis=0) == first)
    return rauzy.FractalCloud(m=m, depth=depth, phi=cloud.phi, labels=cloud.labels,
                              unreduced=pts)


@pytest.mark.parametrize("m, depth, levels, first", [
    pytest.param(2, 10 ** 5, (3, 6, 9), None, id="2-100000-levels0"),
    pytest.param(3, 2 * 10 ** 5, (3, 5, 7), None, id="3-200000-levels1"),
    pytest.param(4, 10 ** 5, (2, 3, 4), None, id="4-100000-levels2"),
    pytest.param(3, 10 ** 5, (7, 2, 5), None, id="levels-with-gaps"),
    pytest.param(5, 10 ** 5, (1, 2, 3), None, id="m5"),
    # finest cells from a negative odd index, so the grid's first cell is
    # even, and from a negative even index, so it is odd
    pytest.param(3, 10 ** 5, (3, 4, 6), -77, id="negative-odd-origin"),
    pytest.param(4, 10 ** 5, (2, 3, 4), -6, id="negative-even-origin"),
])
def test_dense_boundary_cells_match_sorted_count(m, depth, levels, first):
    if first is None:
        cloud = rauzy.build_cloud(m, depth)
    else:
        cloud = _shifted_cloud(m, depth, max(levels), first)
    for mode in ("subtile", "outer", "both"):
        got = box_dim_boundary(cloud, levels, mode).counts
        want = tuple(_sorted_boundary_cells(cloud, l, mode) for l in levels)
        assert got == want, (m, mode)
    # box counting reads only the unreduced points
    assert "reduced" not in cloud.__dict__


def test_dense_boundary_grid_guard():
    # dense enough for level 16 on average, but spread over 2000 units of
    # lattice coordinate: 1.3e8 ambient cells, over the 2^26 grid limit
    n = 1 << 16
    line = np.linspace(0.0, 2000.0, n, endpoint=False)[:, None]
    cloud = rauzy.FractalCloud(m=2, depth=n - 1, phi=1.618,
                               labels=np.ones(n, dtype=np.uint8),
                               unreduced=line)
    for mode in ("subtile", "outer", "both"):
        with pytest.raises(ValueError, match="too large"):
            box_dim_boundary(cloud, (15, 16), mode)
    # refused before anything of grid size is allocated: the level-15 grid
    # alone would take 65 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="too large"):
            box_dim_boundary(cloud, (15, 16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    # the guard is one shared check in `rauzy.letter_grid`, so tiling, the set
    # equation and the render refuse such a grid too, before allocating it:
    # on given dims, and on the bounding box of two points
    for points, dims in ((np.zeros((1, 2)), (1 << 13, (1 << 13) + 1)),
                         (np.array([[0.0, 0.0], [8191.0, 8192.0]]), None)):
        labels = np.ones(len(points), dtype=np.uint8)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="too large"):
                rauzy.letter_grid(points, labels, 1, 1.0, dims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def test_box_dim_frozen_counts():
    # the counts `dim --m 3 --depth 1000000` reports
    est = box_dim_boundary(rauzy.build_cloud(3, 10 ** 6), range(4, 10))
    assert est.counts == (97, 203, 433, 911, 1790, 3474)


def test_box_dim_degenerate_full_cover_has_no_boundary():
    # one letter only, so no cell holds two letters: every count is zero
    # and the fit falls back to slope 0
    n = 64
    grid = np.stack(
        np.meshgrid(np.arange(n) / n, np.arange(n) / n, indexing="ij"), -1
    ).reshape(-1, 2)
    cloud = rauzy.FractalCloud(
        m=3, depth=len(grid) - 1, phi=1.839,
        labels=np.ones(len(grid), dtype=np.uint8),
        unreduced=grid.copy(),
    )
    est = box_dim_boundary(cloud, (2, 3, 4, 5), mode="subtile")
    assert est.counts == (0, 0, 0, 0)
    assert est.slope == 0.0


def test_theorem_exponent_reference_values():
    value = theorem_exponent((2, 3), (0.0, 1.09336))
    assert abs(value - (-0.302213)) <= 1e-6
    assert abs(value - (1.09336 - 2.0) / 3.0) < 1e-15
    assert theorem_exponent((2,), (0.0,)) == -1.0


def test_theorem_exponent_is_negative_on_valid_input():
    rng = np.random.default_rng(0)
    for _ in range(20):
        ms = sorted(rng.choice(range(2, 9), size=3, replace=False).tolist())
        dims = [float(rng.random() * (m - 1 - 1e-6)) for m in ms]
        assert theorem_exponent(ms, dims) < 0.0


def test_theorem_exponent_validation():
    with pytest.raises(ValueError):
        theorem_exponent((3, 3), (0.0, 1.0))
    with pytest.raises(ValueError):
        theorem_exponent((2, 3), (0.0,))
    with pytest.raises(ValueError):
        theorem_exponent((2, 3), (0.0, 2.0))
    with pytest.raises(ValueError):
        theorem_exponent((2, 3), (-0.5, 1.0))
    with pytest.raises(ValueError):
        theorem_exponent((1, 3), (0.0, 1.0))
    with pytest.raises(ValueError):
        theorem_exponent((2, 3), (float("nan"), 1.0))


def test_load_points_csv(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("x1,x2\n0.125,0.25\n0.5,0.75\n")
    with open(path) as fh:
        pts = load_points_csv(fh)
    assert pts.tolist() == [[0.125, 0.25], [0.5, 0.75]]
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        with open(bad) as fh:
            load_points_csv(fh)
    bad.write_text("x1,x2\n0.1,0.2\n0.3,nan\n")
    with pytest.raises(ValueError, match="row 2"):
        with open(bad) as fh:
            load_points_csv(fh)
    bad.write_text("x1,x2\n0.1,0.2\n0.3\n")
    with pytest.raises(ValueError):
        with open(bad) as fh:
            load_points_csv(fh)
    bad.write_text("x1,x2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="malformed"):
            with open(bad) as fh:
                load_points_csv(fh)


def test_corner_sweep_reuses_its_buffers():
    # a fresh interpreter, where glibc still maps every block above 128 KB
    # on its own: slab temporaries allocated per slab would fault on every
    # slab (about 75 000 minor faults for this call)
    script = (
        "import resource\n"
        "from mbonacci import discrepancy, numeration, rotation\n"
        "systems = tuple(numeration.make_system(m, 256) for m in (2, 3, 5))\n"
        "pts = rotation.halton_points(systems, 256)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "report = discrepancy.star_disc_multi(pts)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "assert report.exact\n"
        "print(after - before)\n"
    )
    assert int(run_fresh(script)) < 5000


def test_corner_search_leaves_numpy_ma_unimported():
    # np.unique with no optional outputs asks np.ma.is_masked, and the
    # first ask imports numpy.ma in every process that runs the search
    script = (
        "import sys\n"
        "from mbonacci import discrepancy, numeration, rotation\n"
        "systems = tuple(numeration.make_system(m, 256) for m in (2, 3))\n"
        "before = 'numpy.ma' in sys.modules\n"
        "report = discrepancy.star_disc_multi(rotation.halton_points(systems, 256))\n"
        "assert report.exact\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    before, after = run_fresh(script).split()
    if before == "True":
        pytest.skip("numpy < 2 imports numpy.ma with numpy itself")
    assert after == "False"


def test_report_method_recorded():
    report = star_disc_multi(np.array([[0.1, 0.2], [0.3, 0.4]]))
    assert report.method == "exact_corner_sweep"
