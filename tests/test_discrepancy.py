import inspect
import tracemalloc
import warnings
from math import prod
from types import SimpleNamespace

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
    seam = min(n, numeration.BLOCK)
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


def test_star_disc_1d_reads_ascending_input_in_place():
    # an ascending input is read as it is: only the ascending check's and
    # the chunk buffers' 0.5 MiB beside it (0.50 MiB measured)
    x = np.sort(np.random.default_rng(0).random(2 ** 20))
    tracemalloc.start()
    try:
        value = star_disc_1d(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    shuffled = np.random.default_rng(1).permutation(x)
    assert star_disc_1d(shuffled) == value
    # any other input is sorted into a copy, and the caller's array keeps
    # its order; a NaN among ascending values is not ascending, so it
    # sorts last and is refused
    small = np.random.default_rng(2).random(300)
    kept = small.copy()
    assert star_disc_1d(small) == naive_star_disc(np.sort(small)[:, None])
    assert np.array_equal(small, kept)
    for bad in ([0.1, np.nan, 0.5], [np.nan], [0.1, 0.2, np.nan]):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            star_disc_1d(bad)


def test_load_points_csv_memory(tmp_path):
    # 2^20 repr rows are 20 MB of text, read one 64 KiB block at a time: the
    # reader peaks at the 8 MiB result, grown in place by quarters, plus a
    # block's temporaries (10.2-10.5 MiB measured); the row checks then hold
    # at most two 1 MiB masks at once, so load_points_csv peaks in the read
    # (four masks at once reach 12.0 MiB)
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
    assert traced_peak(load_points_csv, False) < 11 * 2 ** 20


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


def _level_work(level):
    """The `_work` units of a recorded `_refine` call, which refines the
    blocks of `side` at `lo`: two per child of side/2 that starts inside
    the grid, one per cell at side 1."""
    lengths = np.array([len(c) for c in level.cands])
    children = int(np.prod(1 + (level.lo + level.side // 2 < lengths), axis=1).sum())
    return children * (1 if level.side == 2 else 2)


class _SearchLog:
    """The corner search's `_block_pass` and `_refine` calls, in order.

    `passes` and `levels` hold each call's arguments by name, and a pass's
    also its `bufs` dict as the call left it, copied, as `held`.  While
    `keep_all` is set, every pass keeps each block it bounds: it runs with
    a cap of 2^30, and the log holds the cap the search gave it.
    """

    def __init__(self, monkeypatch):
        self.passes, self.levels, self.keep_all = [], [], False
        for name, calls in (("_block_pass", self.passes), ("_refine", self.levels)):
            monkeypatch.setattr(discrepancy, name, self._spy(getattr(discrepancy, name), calls))

    def _spy(self, func, calls):
        signature = inspect.signature(func)

        def spy(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            call = SimpleNamespace(**bound.arguments)
            if self.keep_all and "cap" in bound.arguments:
                bound.arguments["cap"] = 1 << 30
            result = func(*bound.args, **bound.kwargs)
            if "bufs" in bound.arguments:
                call.held = dict(call.bufs)
            calls.append(call)
            return result

        return spy

    def clear(self):
        self.passes.clear()
        self.levels.clear()


@pytest.fixture
def search_log(monkeypatch):
    return _SearchLog(monkeypatch)


def test_a_grid_within_the_budget_is_exact(monkeypatch, search_log):
    # with the budget set to each grid's cell count, every pass and level
    # fits, so the report is exact, for the search as it is and with every
    # block of its first pass kept to refine
    rng = np.random.default_rng(3434)
    cases = [_tie_heavy(rng, int(rng.integers(2, (120, 40, 14)[t % 3])), 2 + t % 3)
             for t in range(60)]
    for ms, count in (((2, 3), 512), ((2, 3, 5), 128)):
        cases.append(rotation.halton_points(
            tuple(numeration.make_system(m, count) for m in ms), count))
    for n, g in ((233, 144), (377, 233)):
        cases.append(_rank1_lattice(n, g))
    for pts in cases:
        oracle = naive_star_disc(pts)
        cells = prod(len(c) for c in discrepancy._corner_candidates(pts))
        monkeypatch.setattr(discrepancy, "DEFAULT_MAX_EXACT_OPS", cells)
        for keep_all in (False, True):
            search_log.keep_all = keep_all
            search_log.clear()
            report = star_disc_multi(pts)
            assert report.exact and report.value == oracle, (len(pts), pts.shape[1], keep_all)


def test_no_pass_exceeds_the_budget(monkeypatch, search_log):
    # each block pass's work, one unit per cell at side 1 and two per
    # bounded block above it, fits the budget, on grids far over it too;
    # so does each refinement level's, in the same units
    def recorded(pts):
        search_log.clear()
        report = star_disc_multi(pts)
        passes = [(discrepancy._work(p.cands, p.side), p.side, p.finish)
                  for p in search_log.passes]
        return report, passes, [_level_work(level) for level in search_log.levels]

    rng = np.random.default_rng(99)
    cases = [_tie_heavy(rng, 100, 2), _tie_heavy(rng, 30, 3), _tie_heavy(rng, 10, 4),
             # a block start that holds fewer than 16 cells, and a sweep over the budget
             np.stack([np.arange(28) / 28, np.full(28, 0.5)], axis=1)]
    for budget in (50, 500, 4000):
        monkeypatch.setattr(discrepancy, "DEFAULT_MAX_EXACT_OPS", budget)
        for pts in cases:
            report, passes, levels = recorded(pts)
            assert passes and all(work <= budget for work, _, _ in passes), (budget, passes)
            assert all(work <= budget for work in levels), (budget, levels)
            # a search that stops short ends in a pass that walked all its blocks
            assert report.exact or passes[-1][2]
    systems = tuple(numeration.make_system(m, 2048) for m in (2, 3, 5))
    monkeypatch.setattr(discrepancy, "DEFAULT_MAX_EXACT_OPS", 1 << 24)
    report, passes, levels = recorded(rotation.halton_points(systems, 2048))
    assert not report.exact and max(work for work, _, _ in passes) <= 1 << 24
    assert passes[-1][1] > 1 and passes[-1][2]
    assert all(work <= 1 << 24 for work in levels)
    # the last pass within 2^20 keeps few enough blocks to refine them
    systems = tuple(numeration.make_system(m, 4096) for m in (2, 3))
    monkeypatch.setattr(discrepancy, "DEFAULT_MAX_EXACT_OPS", 1 << 20)
    report, passes, levels = recorded(rotation.halton_points(systems, 4096))
    assert report.exact
    assert passes[-1][2] and levels and all(work <= 1 << 20 for work in levels)


def test_refinement_level_over_the_budget_gives_a_lower_bound(monkeypatch, search_log):
    # little prunes on the Fibonacci lattice (k/233, 144 k mod 233 / 233).
    # Made to keep every block, the side-8 pass (1 800 units) and its
    # refinement level (6 728) fit a budget of 10 000, but the level at
    # side 4 (22 360) does not, so the search stops before it
    def levels():
        return [(level.side, _level_work(level)) for level in search_log.levels]

    search_log.keep_all = True
    k = np.arange(233)
    pts = np.stack([k / 233, 144 * k % 233 / 233], axis=1)
    oracle = naive_star_disc(pts)
    assert star_disc_multi(pts).value == oracle
    assert levels() == [(8, 6728), (4, 22360), (2, 9400)]
    search_log.clear()
    monkeypatch.setattr(discrepancy, "DEFAULT_MAX_EXACT_OPS", 10_000)
    report = star_disc_multi(pts)
    assert not report.exact and levels() == [(8, 6728)]
    assert 0.0 < report.value <= oracle


def test_last_pass_keeps_blocks_against_its_final_best(monkeypatch, search_log):
    # the last pass within the budget keeps more than its cap of blocks
    # against its running best, but not against the best it ends with;
    # dropping the blocks the running best has overtaken lets it finish
    monkeypatch.setattr(numeration, "BLOCK", 1024)
    monkeypatch.setattr(discrepancy, "_MAX_KEPT", 128)
    monkeypatch.setattr(discrepancy, "DEFAULT_MAX_EXACT_OPS", 11552)
    systems = tuple(numeration.make_system(m, 300) for m in (2, 3))
    pts = rotation.halton_points(systems, 300)
    report = star_disc_multi(pts)
    assert report.exact and report.value == naive_star_disc(pts)
    last = search_log.passes[-1]
    assert last.finish is True and last.cap == 128
    final, found = discrepancy._block_pass(
        last.ranks, last.cands, last.n, last.side, last.best, 1 << 40, last.bufs)
    bounds = np.concatenate([bound for _, bound, _ in found])
    assert len(bounds) > last.cap >= np.count_nonzero(bounds > final)


def test_passes_of_one_search_share_their_buffers(search_log):
    # Halton (2, 3, 5) at N = 256 runs passes at sides 16, 8 and 4; the
    # side-4 pass needs no more than the side-8 one, so it reuses its
    # buffers, and the search releases them before refining
    systems = tuple(numeration.make_system(m, 256) for m in (2, 3, 5))
    assert star_disc_multi(rotation.halton_points(systems, 256)).exact
    passes = [(p.side, p.bufs, p.held) for p in search_log.passes]
    assert [side for side, _, _ in passes] == [16, 8, 4]
    assert all(bufs is passes[0][1] for _, bufs, _ in passes) and not passes[0][1]
    (_, _, middle), (_, _, last) = passes[1:]
    assert middle.keys() == last.keys() and all(last[k] is middle[k] for k in middle)


def test_count_plane_fits_the_grid(monkeypatch):
    # a pass over a small grid touches only what it uses: its count plane
    # has at most one row more than the grid has blocks on axis 0
    count_blocks = discrepancy._count_blocks
    planes = []

    def record_counts(ranks, shape, rows, buf):
        planes.append((rows + 1, shape[0] + 1, buf.size, prod(size + 1 for size in shape)))
        return count_blocks(ranks, shape, rows, buf)

    monkeypatch.setattr(discrepancy, "_count_blocks", record_counts)
    systems = tuple(numeration.make_system(m, 256) for m in (2, 3))
    assert star_disc_multi(rotation.halton_points(systems, 256)).exact
    assert len(planes) == 3
    assert all(rows <= limit and size <= cells for rows, limit, size, cells in planes), planes


def test_block_search_matches_oracle_when_every_block_is_kept(monkeypatch, search_log):
    # keep every block a pass bounds and allow blocks of two cells, so the
    # refinement down to cells sees blocks that the best corner value does
    # not rule out and blocks cut short by the grid's end; small chunks
    # split the pass and each level into many slabs and batches
    search_log.keep_all = True
    monkeypatch.setattr(discrepancy, "_MIN_BLOCK_CELLS", 2)
    monkeypatch.setattr(numeration, "BLOCK", 64)
    rng = np.random.default_rng(1212)
    for trial in range(45):
        s = (2, 3, 4)[trial % 3]
        n = int(rng.integers(8, (120, 40, 14)[s - 2]))
        pts = _tie_heavy(rng, n, s)
        assert star_disc_multi(pts).value == naive_star_disc(pts)
    sides = [p.side for p in search_log.passes]
    cells = [len(level.lo) for level in search_log.levels if level.side == 2]
    assert set(sides) >= {2, 4} and len(cells) >= 45


@pytest.mark.parametrize("min_cells", [1, 2])
def test_refinement_matches_oracle_at_every_level(monkeypatch, search_log, min_cells):
    # every first pass keeps its blocks, so the search refines them level by
    # level down to single cells.  Odd grid lengths leave blocks with no
    # upper half, whose children past the grid's end are dropped, and small
    # chunks split each level into many batches.  Under the small budget
    # some searches stop, with a lower bound, before a refinement level
    # that does not fit
    split = halved = 0
    search_log.keep_all = True
    monkeypatch.setattr(discrepancy, "_MIN_BLOCK_CELLS", min_cells)
    monkeypatch.setattr(numeration, "BLOCK", 64)
    rng = np.random.default_rng(3300 + min_cells)
    exact = []
    for trial in range(60):
        s = (2, 3, 4)[trial % 3]
        # an odd count of distinct coordinates gives an odd grid length, n + 2
        n = 2 * int(rng.integers(4, (60, 20, 7)[s - 2])) + 1
        pts = _tie_heavy(rng, n, s) if trial % 2 else rng.random((n, s))
        budget = 1 << 30 if trial < 45 else 1200
        monkeypatch.setattr(discrepancy, "DEFAULT_MAX_EXACT_OPS", budget)
        search_log.clear()
        report = star_disc_multi(pts)
        oracle = naive_star_disc(pts)
        exact.append(report.exact)
        passes = [p.side for p in search_log.passes]
        levels = [level.side for level in search_log.levels]
        for level in search_log.levels:
            lengths = np.array([len(c) for c in level.cands])
            split += len(level.lo) > numeration.BLOCK // (len(level.cands) * level.side)
            halved += np.any(level.lo + level.side // 2 >= lengths, axis=1).sum()
        # one whole-grid pass, then each level down to single cells
        assert len(passes) == 1, (trial, passes)
        assert levels == [passes[0] >> k for k in range(len(levels))], (trial, levels)
        if not report.exact:
            # every pass keeps its blocks, so only a level over the budget stops
            assert 0.0 < report.value <= oracle and passes[0] >> len(levels) > 1, trial
            continue
        assert report.value == oracle, trial
        assert passes[0] >> len(levels) == 1, (trial, passes, levels)
    assert all(exact[:45]) and not all(exact[45:])
    assert split and halved


@pytest.mark.parametrize("side", [4, 8, 16])
def test_half_counts_match_local_counts(monkeypatch, side):
    # refining every block of grids whose last block on axis 1 holds 1 to
    # side/2 - 1 rows, the s = 2 half-slab counts equal `_local_counts`':
    # a middle corner past such a block's top would run into the next
    # half-slab's keys
    half_counts = discrepancy._half_counts
    half = side // 2
    short = []

    def compare(slabs, lengths, lo, hi, below, half):
        counts = half_counts(slabs, lengths, lo, hi, below, half)
        expected = discrepancy._local_counts(ranks, index, lo, hi, below, half)
        np.testing.assert_array_equal(counts, expected)
        short.append(np.sum(lo[:, 1] + half - 1 > hi[:, 1]))
        return counts

    monkeypatch.setattr(discrepancy, "_half_counts", compare)
    monkeypatch.setattr(numeration, "BLOCK", 256)
    rng = np.random.default_rng(side)
    for trial in range(40):
        # n distinct coordinates and the ends make n + 2 rows; ties fewer
        n = side * int(rng.integers(2, 8)) + int(rng.integers(1, half)) - 2
        pts = _tie_heavy(rng, n, 2)[:, ::-1] if trial % 2 else rng.random((n, 2))
        cands = discrepancy._corner_candidates(pts)
        lengths = [len(c) for c in cands]
        if not 1 <= lengths[1] % side < half:
            continue
        ranks = np.stack([np.searchsorted(c, pts[:, j]) for j, c in enumerate(cands)], axis=1)
        index = discrepancy._rank_index(ranks, cands)
        lo = np.stack(np.meshgrid(*(np.arange(0, size, side) for size in lengths),
                                  indexing="ij"), axis=-1).reshape(-1, 2)
        below = np.array([np.all(ranks < corner, axis=1).sum() for corner in lo])
        discrepancy._refine(ranks, cands, n, side, 0.0, lo, below)
    assert sum(short) >= 20, short


def test_refinement_next_to_a_short_last_block_matches_oracle(search_log):
    # 219 points at x < 0.1 and 4 in (0.4, 0.5), one of them lowest on y.
    # The grid's 225 rows leave a last block of one row, y = 1.0, at sides
    # 16 and 8, and the search refines from side 8 or 16 down to cells.  A
    # count of that row's children that ran on into the next half-slab's
    # keys would take in the low point of the 4 and raise the value at the
    # corner (largest x below 0.1, 1.0) above the maximum
    rng = np.random.default_rng(33)
    for _ in range(5):
        x = np.concatenate((rng.random(219) * 0.1, 0.4 + rng.random(4) * 0.1))
        y = 0.1 + 0.9 * rng.random(223)
        y[219 + rng.integers(4)] = 0.01 * rng.random()
        pts = np.stack((x, y), axis=1)
        search_log.clear()
        report = star_disc_multi(pts)
        levels = [level.side for level in search_log.levels]
        assert report.exact and report.value == naive_star_disc(pts)
        assert levels in ([8, 4, 2], [16, 8, 4, 2]), levels


@pytest.mark.parametrize("ms, count, value", [
    # computed by the whole-grid sweep of 9505e60, which evaluated every cell
    ((2, 3), 8192, 0.005104380873610148),
    ((2, 3, 5), 256, 0.07052543571118836),
    # computed by the block search of 08c76f3: at N = 128 a pass at side 2
    # keeps its blocks, and at N = 256 a pass at side 4 does
    ((2, 3, 5, 4), 128, 0.1041383040186914),
    ((2, 3, 5, 4), 256, 0.0817229160464778),
])
def test_star_disc_multi_frozen_halton_values(ms, count, value):
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


def test_block_search_skips_almost_every_cell(search_log):
    # a return to evaluating the whole grid fails here, not only in timings
    systems = tuple(numeration.make_system(m, 4096) for m in (2, 3))
    pts = rotation.halton_points(systems, 4096)
    assert star_disc_multi(pts).value == 0.006073280856525226
    sides = [p.side for p in search_log.passes]
    cells = [_level_work(level) for level in search_log.levels if level.side == 2]
    grid = np.prod([len(np.unique(np.concatenate((pts[:, j], [0.0, 1.0])))) for j in range(2)])
    assert 1 not in sides
    assert 0 < sum(cells) <= 0.05 * grid


def test_refinement_replaces_the_finer_whole_grid_passes(search_log):
    # at N = 8192 the pass at side 16 keeps few enough blocks to refine
    # them, so a return to sweeping the whole grid at side 8 (1.05 M blocks)
    # fails here, not only in timings
    systems = tuple(numeration.make_system(m, 8192) for m in (2, 3))
    report = star_disc_multi(rotation.halton_points(systems, 8192))
    sides = [p.side for p in search_log.passes]
    levels = [level.side for level in search_log.levels]
    assert report.exact and report.value == 0.005104380873610148
    assert min(sides) >= 16 and levels == [16, 8, 4, 2]


def test_star_disc_multi_memory():
    # the passes hold block-sized temporaries, and the refinement holds
    # the children of few kept blocks (2.97 MiB measured, as before the
    # refinement); keeping every block of the first pass to refine it
    # peaks at 4.4 MiB
    systems = tuple(numeration.make_system(m, 8192) for m in (2, 3))
    pts = rotation.halton_points(systems, 8192)
    tracemalloc.start()
    try:
        report = star_disc_multi(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.value == 0.005104380873610148
    assert peak < 3.25 * 2 ** 20


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
    # non-finite samples are refused before the fit, which would return nan
    # or raise LinAlgError on them
    for samples in ([(10, 0.1), (20, float("nan")), (40, 0.02), (80, 0.01)],
                    [(10, 0.1), (20, float("inf")), (40, 0.02), (80, 0.01)],
                    [(10, 0.1), (20, 0.05), (40, 0.02), (float("inf"), 0.01)]):
        with pytest.raises(ValueError, match="must be finite"):
            decay_fit(samples)


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
    return rauzy.FractalCloud(m=m, depth=depth, labels=cloud.labels, unreduced=pts)


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
    cloud = rauzy.FractalCloud(m=2, depth=n - 1, labels=np.ones(n, dtype=np.uint8),
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


def test_box_dim_boundary_memory():
    # the level-9 letter grid (3 MB) and its coarsenings, marked a block of
    # points at a time (4.04 MiB measured): no key or cell array of the
    # cloud's length
    cloud = rauzy.build_cloud(3, 10 ** 6)
    tracemalloc.start()
    try:
        box_dim_boundary(cloud, range(4, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


def test_dim_memory():
    # the whole `dim` computation: the 1 MB word, the level-9 letter grid
    # and the grid it grows from, and the block buffers (5.80 MiB
    # measured), with no array of the cloud's points
    tracemalloc.start()
    try:
        cloud = rauzy.build_cloud(3, 10 ** 6)
        box_dim_boundary(cloud, range(4, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert "unreduced" not in cloud.__dict__


def test_box_dim_frozen_counts():
    # the counts `dim --m 3 --depth 1000000` reports, and its value, their
    # least-squares slope, to 1e-12 (it is LAPACK's)
    est = box_dim_boundary(rauzy.build_cloud(3, 10 ** 6), range(4, 10))
    assert est.counts == (97, 203, 433, 911, 1790, 3474)
    assert abs(est.slope - 1.0373329679025995) <= 1e-12


def test_box_dim_degenerate_full_cover_has_no_boundary():
    # one letter only, so no cell holds two letters: every count is zero
    # and the fit falls back to slope 0
    n = 64
    grid = np.stack(
        np.meshgrid(np.arange(n) / n, np.arange(n) / n, indexing="ij"), -1
    ).reshape(-1, 2)
    cloud = rauzy.FractalCloud(
        m=3, depth=len(grid) - 1,
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
    with pytest.raises(ValueError, match="^need at least one component$"):
        theorem_exponent([], [])
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
