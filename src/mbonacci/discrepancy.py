"""Measurement engine: exact star discrepancy in one and several
dimensions, decay-exponent fitting, box-counting dimension estimation,
and the product-fractal decay exponent.

The multi-dimensional star discrepancy is a supremum over anchored boxes.
On each cell of the grid spanned by the point coordinates the counting
function is constant, so the supremum is attained in the limit at grid
corners: approaching a corner from below compares the box volume against
the strictly-inside count, approaching from above compares the closed
count against the volume.  Enumerating both variants over all corners is
therefore exact.

On that grid the counts are cumulative sums of a histogram of the point
ranks (Dobkin, Eppstein and Mitchell, ACM TOG 1996).  The search splits
the grid into blocks of t^s cells.  A streamed block pass counts the ranks
divided by t; from the counts and volumes at each block's bottom and top
corners it gets two exact corner values and an upper bound on every cell
of the block (the grid case of Thiemard's delta-bracketing covers,
J. Complexity 2001).  Each step of the cell formula is monotone in
float64, so the bound holds for the float values, not only the real ones.
A fine pass then evaluates the cells of the blocks whose bound exceeds the
best corner value, in the oracle's arithmetic and in descending order of
bound, and stops at the first block that cannot raise the maximum.  So
the value equals that of evaluating every cell.  t starts where the grid
has about as many blocks as a block has cells, and halves while a pass
keeps blocks of more cells than it bounded blocks.  Once a block would
hold fewer than 16 cells (t < 4 at s = 2 and 3, t < 2 at s >= 4), the
search runs at t = 1, where each block is one cell and the block pass is
the plain sweep of every cell: where nothing prunes, the search costs
about one plain sweep.  Every pass holds temporaries of at most about
2^15 cells at a time.

DEFAULT_MAX_EXACT_OPS bounds the work of each pass, in cells of the plain
sweep: one per cell at t = 1, two per bounded block above it.  The finest
pass that fits walks all its blocks; if it keeps too many for the fine
pass, its best exact corner value is reported as a lower bound.  A grid
of at most DEFAULT_MAX_EXACT_OPS cells fits every pass, so it is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from mbonacci.rauzy import FractalCloud, letter_grid
from mbonacci.textio import read_floats

DEFAULT_MAX_EXACT_OPS = 1 << 30


@dataclass(frozen=True)
class DiscrepancyReport:
    N: int
    s: int
    value: float
    method: str
    exact: bool = True


# sorted points per step of `star_disc_1d`
_CHUNK_POINTS = 1 << 16


def star_disc_1d(points) -> float:
    """Exact one-dimensional star discrepancy via the sorted formula,
    max_i max(i/n - x_(i), x_(i) - (i - 1)/n).  The range check reads the
    sorted ends, where NaN sorts last.  Both maxima are taken over chunks
    of _CHUNK_POINTS sorted points, so besides the sorted copy the pass
    holds no array of full length; the quotients np.arange(a, b + 1) / n
    of a chunk are those of the whole range, bit for bit."""
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("expected a one-dimensional point set")
    x = np.sort(x)
    n = x.size
    if n == 0:
        raise ValueError("empty point set")
    if not (x[0] >= 0.0 and x[-1] < 1.0):
        raise ValueError("points must lie in [0, 1)")
    best = 0.0
    for a in range(0, n, _CHUNK_POINTS):
        b = min(a + _CHUNK_POINTS, n)
        # q[i] is (a + i)/n, so q[1:] and q[:-1] hold i/n and (i - 1)/n
        q = np.arange(a, b + 1, dtype=np.float64)
        q /= n
        diff = np.subtract(q[1:], x[a:b])
        best = max(best, diff.max(), np.subtract(x[a:b], q[:-1], out=diff).max())
    return float(best)


_CHUNK_CELLS = 1 << 15
# blocks of fewer cells give way to the exact sweep (side 1): a block
# pass bounds a block with about twice the work of evaluating a cell
_MIN_BLOCK_CELLS = 16
# a block pass that would keep blocks of more cells than it has blocks, or
# more than _MAX_KEPT blocks (32 bytes each), gives way to a pass at half
# the side.  So the fine pass evaluates at most a 16th of the grid's cells;
# at 4 to 10 times the cost of a cell of the plain sweep, that costs less
# than the sweep
_MAX_KEPT = 1 << 14


def _count_blocks(ranks, shape, rows):
    """Cumulative counts on a grid of `shape`, ``rows`` axis-0 indices at a time.

    ``ranks[j]`` holds each point's index on axis j, in range(shape[j]).
    Every axis of a yielded block has one leading slot: for the block
    starting at axis-0 index ``a``, ``block[1 + i, 1 + r]`` is the number of
    points whose ranks are at most ``(a + i, r)`` componentwise, ``block[0]``
    is the same plane for index ``a - 1``, and the other leading slots read
    0.  Counts are exact integers held as float64.  The same buffer is
    yielded for every block and is overwritten by the next one.
    """
    plane_shape = tuple(size + 1 for size in shape[1:])
    plane = prod(plane_shape)
    keys = np.sort(np.ravel_multi_index(
        [ranks[0]] + [r + 1 for r in ranks[1:]], (shape[0],) + plane_shape))
    counts = np.zeros((rows + 1,) + plane_shape)
    for a in range(0, shape[0], rows):
        b = min(a + rows, shape[0])
        counts[0] = counts[rows]  # the previous block's last plane, 0 at first
        counts[1:] = 0.0
        lo, hi = np.searchsorted(keys, (a * plane, b * plane))
        np.add.at(counts.reshape(-1), keys[lo:hi] - (a - 1) * plane, 1.0)
        block = counts[:b - a + 1]
        new_rows = block[1:]
        for axis in range(1, len(shape)):
            np.cumsum(new_rows, axis=axis, out=new_rows)
        # few long rows: adding row by row beats cumsum's short strided loops
        for i in range(1, len(block)):
            block[i] += block[i - 1]
        yield block


def _window(slab, shift):
    """The corner cells of a slab that has one extra leading slot on every
    axis: shift 1 reads each corner's own count, shift 0 the count one rank
    lower on every axis."""
    return slab[tuple(slice(shift, shift + size - 1) for size in slab.shape)]


def _view(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A C-contiguous array of `shape` over the front of a flat buffer."""
    return buf[:prod(shape)].reshape(shape)


def _volumes(xs, bufs):
    """Outer product of the 1-D arrays `xs`, multiplied left to right as the
    brute-force oracle does, alternating between the two flat `bufs`."""
    vol = np.multiply(xs[0][:, None], xs[1][None, :],
                      out=_view(bufs[0], (len(xs[0]), len(xs[1]))))
    for j, x in enumerate(xs[2:], 1):
        vol = np.multiply(vol[..., None], x, out=_view(bufs[j % 2], vol.shape + (len(x),)))
    return vol


def _block_shape(cands, side):
    """Blocks of `side` corner indices per axis, the last one cut short by
    the grid's end."""
    return tuple(-(-len(c) // side) for c in cands)


def _block_pass(ranks, cands, n, side, best, cap, finish=False):
    """One streamed pass over the blocks of side**s corner cells.

    Block B spans the corner indices B*side to min((B+1)*side, len) - 1 on
    each axis, from its bottom corner lo to its top corner hi.  The ranks
    divided by `side` count closed(hi), the points in the closed box at hi,
    and open(lo), the points in the open box at lo, which are those in the
    closed box one index lower on every axis.  So closed(hi)/n - vol(hi)
    and vol(lo) - open(lo)/n are exact corner values, and they raise
    `best`.  Every cell c of the block has closed(c) <= closed(hi),
    open(c) >= open(lo) and vol(lo) <= vol(c) <= vol(hi).  The float
    division, the left-to-right volume product and the subtraction are each
    monotone, so the float64 bound max(closed(hi)/n - vol(lo), vol(hi) -
    open(lo)/n) is at least the float value of every cell of the block.

    Returns `best` and a list of (flat block index, bound, open count at
    lo) arrays for the blocks whose bound exceeds it.  When more than `cap`
    blocks are kept, those whose bound no longer exceeds the running
    `best` are dropped; if still more than `cap` remain the list is None,
    and the pass returns at once, or with `finish` walks on through every
    block to raise `best`.  At side 1
    each block is one cell, its bound is its value, and the pass is the
    exact sweep.

    The pass walks axis 0 in rank order in runs of axis-0 indices, keeping
    the cumulative count plane over the other axes, and evaluates each run
    in slabs along axis 1 of at most about _CHUNK_CELLS blocks.  The slab
    temporaries live in buffers allocated once per call, so the slabs reuse
    the same pages.
    """
    shape = _block_shape(cands, side)
    lows = [c[::side] for c in cands]
    highs = [c[np.minimum(np.arange(side - 1, size * side, side), len(c) - 1)]
             for c, size in zip(cands, shape)]
    inner = prod(shape[2:])
    rows = max(1, _CHUNK_CELLS // (inner * shape[1]))
    step = max(1, _CHUNK_CELLS // (rows * inner))
    corner_cells = rows * step * inner
    slab_cells = (rows + 1) * (step + 1) * prod(size + 1 for size in shape[2:])
    # volumes of s axes alternate between two buffers, the product over
    # the first j axes in one and over j + 1 in the other
    vol_bufs = (np.empty(corner_cells), np.empty(corner_cells))
    diff_buf = np.empty(corner_cells)
    bound_buf = np.empty(corner_cells) if side > 1 else None
    slab_buf = np.empty(slab_cells)
    found = []
    kept = 0
    blocks = _count_blocks(list((ranks // side).T), shape, rows)
    for a, counts in zip(range(0, shape[0], rows), blocks):
        b = a + len(counts) - 1
        for lo in range(0, shape[1], step):
            hi = min(lo + step, shape[1])
            slab_counts = counts[:, lo:hi + 1]
            slab = np.divide(slab_counts, n, out=_view(slab_buf, slab_counts.shape))
            above, below = _window(slab, 1), _window(slab, 0)
            vol = _volumes([lows[0][a:b], lows[1][lo:hi]] + lows[2:], vol_bufs)
            diff = _view(diff_buf, vol.shape)
            if side == 1:
                best = max(best, float(np.subtract(above, vol, out=diff).max()),
                           float(np.subtract(vol, below, out=diff).max()))
                continue
            bound = np.subtract(above, vol, out=_view(bound_buf, vol.shape))
            best = max(best, float(np.subtract(vol, below, out=diff).max()))
            vol = _volumes([highs[0][a:b], highs[1][lo:hi]] + highs[2:], vol_bufs)
            np.maximum(bound, np.subtract(vol, below, out=diff), out=bound)
            best = max(best, float(np.subtract(above, vol, out=diff).max()))
            if found is None:
                continue
            hits = np.flatnonzero(bound > best)
            if not hits.size:
                continue
            at = np.unravel_index(hits, vol.shape)
            flat = np.ravel_multi_index((at[0] + a, at[1] + lo) + at[2:], shape)
            found.append((flat, bound.reshape(-1)[hits], slab_counts[at]))
            kept += hits.size
            if kept > cap:
                # drop the blocks kept against a lower best that they no longer beat
                found = [tuple(column[b > best] for column in (f, b, c)) for f, b, c in found]
                kept = sum(len(f) for f, _, _ in found)
                if kept > cap:
                    if not finish:
                        return best, None
                    found = None
    return best, found


def _local_counts(ranks, index, lo, hi, below, side):
    """Cumulative counts over the cells of blocks, one leading slot per axis.

    For block k, ``out[k, 1 + i]`` is the number of points whose ranks are
    at most ``lo[k] + i`` componentwise, and the leading slots count the
    ranks below ``lo[k]``.  ``below[k]`` is the number of points below
    ``lo[k]`` on every axis; the others that count lie in one of the
    block's axis slabs, ``lo[k, j] <= rank_j <= hi[k, j]``, which
    `index` (see `_rank_index`) lists.  A point is taken from the first
    axis whose slab holds it.
    """
    nb, s = lo.shape
    size = side + 1
    keys = []
    for j, (order, starts) in enumerate(index):
        start = starts[lo[:, j]]
        lens = starts[hi[:, j] + 1] - start
        block = np.repeat(np.arange(nb), lens)
        point = order[np.arange(len(block)) + np.repeat(start - np.cumsum(lens) + lens, lens)]
        key = block * size ** s
        keep = np.ones(len(block), dtype=bool)
        for i in range(s):
            rank, first = ranks[point, i], lo[block, i]
            if i < j:
                keep &= rank < first  # local index 0
                continue
            if i > j:
                keep &= rank <= hi[block, i]
            key += np.maximum(rank - first + 1, 0) * size ** (s - 1 - i)
        keys.append(key[keep])
    counts = np.bincount(np.concatenate(keys), minlength=nb * size ** s)
    counts = counts.astype(np.float64).reshape((nb,) + (size,) * s)
    counts[(slice(None),) + (0,) * s] += below
    # few short lines: adding slice by slice beats cumsum's strided loops
    for axis in range(1, s + 1):
        lines = np.moveaxis(counts, axis, 0)
        for i in range(1, size):
            lines[i] += lines[i - 1]
    return counts


def _rank_index(ranks, cands):
    """Per axis j, the points in order of their rank on j, and for each
    rank r the position in that order of the first point of rank >= r."""
    index = []
    for j, c in enumerate(cands):
        order = np.argsort(ranks[:, j])
        index.append((order, np.searchsorted(ranks[order, j], np.arange(len(c) + 1))))
    return index


def _block_values(ranks, index, padded, n, side, lo, hi, below):
    """max over the cells of the blocks with bottom corners `lo` and top
    corners `hi` of max(closed(c)/n - vol(c), vol(c) - open(c)/n), in the
    oracle's arithmetic.  `below` holds the count below each `lo`.  A block
    cut off by the grid's end is evaluated at full side: `padded` repeats
    the last candidate 1.0, so each extra cell repeats the closed value of
    the last cell of its axis and has at most its open value."""
    counts = _local_counts(ranks, index, lo, hi, below, side)
    nb, s = lo.shape
    steps = np.arange(side)
    vol = padded[0][lo[:, :1] + steps]
    for j in range(1, s):
        x = padded[j][lo[:, j:j + 1] + steps]
        vol = vol[..., None] * x.reshape((nb,) + (1,) * j + (side,))
    above = counts[(slice(None),) + (slice(1, None),) * s] / n
    under = counts[(slice(None),) + (slice(None, side),) * s] / n
    return max(float((above - vol).max()), float((vol - under).max()))


def _fine_pass(ranks, cands, n, side, best, found):
    """Raise `best` to the maximum over the cells of the blocks `found` by
    `_block_pass`, visiting them in descending order of their bounds and
    stopping at the first bound that is not above `best`."""
    flat, bound, below = (np.concatenate(column) for column in zip(*found))
    order = np.argsort(-bound, kind="stable")
    shape = _block_shape(cands, side)
    lengths = np.array([len(c) for c in cands])
    padded = [np.concatenate((c, np.full(side, c[-1]))) for c in cands]
    index = _rank_index(ranks, cands)
    batch = max(1, _CHUNK_CELLS // (side + 1) ** len(cands))
    for start in range(0, len(order), batch):
        take = order[start:start + batch]
        take = take[bound[take] > best]
        if not take.size:
            break
        lo = np.stack(np.unravel_index(flat[take], shape), axis=1) * side
        hi = np.minimum(lo + side, lengths) - 1
        best = max(best, _block_values(ranks, index, padded, n, side, lo, hi, below[take]))
    return best


def _work(cands, side):
    """The work of a block pass at `side`, in cells of the plain sweep:
    one per cell at side 1, two per bounded block above it."""
    return prod(_block_shape(cands, side)) * (1 if side == 1 else 2)


def _corner_sweep(points: np.ndarray, cands: list[np.ndarray]) -> tuple[float, bool]:
    """(value, exact): the max over corners c of max(closed(c)/n - vol(c),
    vol(c) - open(c)/n), or when not `exact` a lower bound on it.

    A point's rank on axis j is ``searchsorted(cands[j], x_j)``: it lies in
    the closed box of every corner whose index is at least that rank on
    each axis, and in the open box of every corner whose index exceeds it.

    t starts at the largest power of two that leaves at least t^s blocks,
    or at 1 below _MIN_BLOCK_CELLS cells, and doubles until its pass's
    `_work` fits DEFAULT_MAX_EXACT_OPS.  While a pass keeps too many
    blocks, the search moves on to t/2, or to t = 1 below _MIN_BLOCK_CELLS
    cells, if that pass fits; the last pass that fits walks all its blocks.
    """
    n, s = points.shape
    ranks = np.stack([np.searchsorted(c, points[:, j]) for j, c in enumerate(cands)], axis=1)
    side = 1
    while prod(_block_shape(cands, 2 * side)) >= (2 * side) ** s:
        side *= 2
    if side ** s < _MIN_BLOCK_CELLS:
        side = 1
    while _work(cands, side) > DEFAULT_MAX_EXACT_OPS:
        side *= 2
    best = 0.0
    while side > 1:
        finer = side // 2 if (side // 2) ** s >= _MIN_BLOCK_CELLS else 1
        last = _work(cands, finer) > DEFAULT_MAX_EXACT_OPS
        cap = min(_MAX_KEPT, prod(_block_shape(cands, side)) // side ** s)
        best, found = _block_pass(ranks, cands, n, side, best, cap, finish=last)
        if found is not None:
            return (_fine_pass(ranks, cands, n, side, best, found) if found else best), True
        if last:
            return best, False
        side = finer
    return _block_pass(ranks, cands, n, 1, best, 0)[0], True


def _corner_candidates(pts: np.ndarray) -> list[np.ndarray]:
    """Per axis, the distinct coordinates with the ends 0 and 1, ascending.

    The sorted axis keeps each value that differs from its predecessor:
    `np.unique` would do the same but imports numpy.ma on first use."""
    cands = []
    for j in range(pts.shape[1]):
        c = np.sort(np.concatenate((pts[:, j], [0.0, 1.0])))
        cands.append(c[np.concatenate(([True], c[1:] != c[:-1]))])
    return cands


def star_disc_multi(points) -> DiscrepancyReport:
    """Star discrepancy of an s-dimensional point set, s >= 2.

    The corner grid, prod_j (distinct coordinates on axis j plus the ends
    0 and 1) cells, is searched by blocks of t^s cells (see the module
    docstring): a float64 bound that no cell of a block can exceed lets
    the search skip every block whose bound is at most the best exact
    corner value found, so the value equals (==) the maximum over every
    cell in the brute-force oracle's arithmetic.  When too few blocks
    prune, t falls to 1 and every cell is evaluated.  Each pass's work must
    fit DEFAULT_MAX_EXACT_OPS; when the finest pass that fits keeps too
    many blocks to finish, the report holds the best exact corner value
    found, a lower bound flagged as not exact.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] < 2:
        raise ValueError("expected an (N, s) array with s >= 2")
    n, s = pts.shape
    if n == 0:
        raise ValueError("empty point set")
    if not np.all((pts >= 0.0) & (pts < 1.0)):
        raise ValueError("points must lie in [0, 1)^s")
    value, exact = _corner_sweep(pts, _corner_candidates(pts))
    method = "exact_corner_sweep" if s == 2 else "exact_corner_grid"
    return DiscrepancyReport(N=n, s=s, value=value, exact=exact,
                             method=method if exact else "corner_block_lower_bound")


def star_disc(points) -> DiscrepancyReport:
    """Star discrepancy of an (N, s) point set, s >= 1: `star_disc_1d` at
    s = 1, named "exact1d", and `star_disc_multi` above."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise ValueError("expected an (N, s) array with s >= 1")
    if pts.shape[1] > 1:
        return star_disc_multi(pts)
    return DiscrepancyReport(N=len(pts), s=1, value=star_disc_1d(pts[:, 0]), method="exact1d")


def decay_fit(samples) -> tuple[float, float, float]:
    """Least-squares fit of log D against log N.

    Returns (exponent, intercept, r_squared) for D ~ exp(intercept) * N^exponent.
    """
    samples = sorted(samples)
    if len(samples) < 4:
        raise ValueError("need at least 4 samples")
    ns = np.array([float(n) for n, _ in samples])
    ds = np.array([float(d) for _, d in samples])
    if np.any(ns[1:] <= ns[:-1]):
        raise ValueError("sample sizes must be strictly increasing")
    if np.any(ds <= 0.0):
        raise ValueError("discrepancy values must be positive")
    x = np.log(ns)
    y = np.log(ds)
    if np.allclose(y, y[0]):
        raise ValueError("degenerate samples: constant discrepancy")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot else 1.0
    return float(slope), float(intercept), r2


@dataclass(frozen=True)
class DimensionEstimate:
    levels: tuple[int, ...]
    counts: tuple[int, ...]
    slope: float
    stderr: float
    mode: str


def _boundary_cells(letters: np.ndarray, mode: str) -> int:
    """Boundary cells of a grid that counts the letters in each cell and
    has an empty cell on every side of the occupied ones."""
    boundary = np.zeros(letters.shape, dtype=bool)
    if mode in ("subtile", "both"):
        boundary |= letters >= 2
    if mode in ("outer", "both"):
        holes = letters == 0
        near_hole = np.zeros(letters.shape, dtype=bool)
        for axis in range(letters.ndim):
            # the margin ring is empty, so the wrap-around of roll is harmless
            near_hole |= np.roll(holes, 1, axis=axis)
            near_hole |= np.roll(holes, -1, axis=axis)
        boundary |= near_hole & ~holes
    return int(np.count_nonzero(boundary))


def _coarser(occ: np.ndarray, lo: list[int], hi: list[int]):
    """The letter occupancy on cells of twice the side.

    `occ` has shape (m, *dims) and marks the cells of the box [lo - 1,
    hi + 1] that hold each letter; [lo, hi] spans the occupied cells.  The
    grid is padded with empty cells to the children of the coarse box
    [(lo >> 1) - 1, (hi >> 1) + 1], whose first child is even, and each
    coarse cell ORs its 2^d children, two per axis.  Returns the coarse
    grid and its occupied span.
    """
    clo = [l >> 1 for l in lo]
    chi = [h >> 1 for h in hi]
    occ = np.pad(occ, [(0, 0)] + [(l + 1 - 2 * cl, 2 * ch + 2 - h)
                                  for l, h, cl, ch in zip(lo, hi, clo, chi)])
    for axis in range(1, occ.ndim):
        before = (slice(None),) * axis
        occ = occ[before + (slice(0, None, 2),)] | occ[before + (slice(1, None, 2),)]
    return occ, clo, chi


def box_dim_boundary(cloud: FractalCloud, levels, mode: str = "both") -> DimensionEstimate:
    """Box-counting dimension of the cloud's boundary structure.

    A cell of side 2^-level is a boundary cell when it is occupied but has
    an unoccupied face-neighbour ("outer" rule), or when points of two or
    more letters land in it ("subtile" rule); "both" takes the union.  The
    grid lives in plain lattice coordinates anchored at 0, where the cloud
    is a bounded region with genuine exterior.  (On the reduced torus the
    cloud covers every cell at practical depths, so only the letter rule
    could fire there, and that count is `rauzy.tiling_check`'s
    `overlap_cells`.)

    `rauzy.letter_grid` marks the cell of every point at the finest level,
    per letter, on the cells' bounding box plus one empty cell per side,
    and each coarser level ORs the children of its cells (`_coarser`).  That
    is exact for two reasons.  ``floor(x * 2^L) >> k == floor(x *
    2^(L - k))``, since scaling by a power of two is exact and ``>>``
    floors, so a point's coarse cell is the parent of its fine cell.  And
    the count needs an empty cell on every side of the occupied ones but
    no given width of margin: roll wraps only margin cells, which are
    holes, so padding the grid to an even origin changes nothing.  Only
    the finest grid, the largest, is allocated, and `letter_grid` refuses
    it before allocation when it is too large.
    """
    if mode not in ("subtile", "outer", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    levels = tuple(int(l) for l in levels)
    if not levels or any(l < 1 for l in levels):
        raise ValueError("levels must be positive integers")
    if len(set(levels)) < 2:
        raise ValueError(f"levels must hold at least two distinct values for a slope, "
                         f"got {list(levels)}")
    finest = max(levels)
    if cloud.size < (1 << finest) ** (cloud.m - 1):
        raise ValueError(
            f"cloud of {cloud.size} points too sparse for level {finest} "
            f"(needs at least one point per cell on average)"
        )
    occ, first = letter_grid(cloud.unreduced, cloud.labels, cloud.m, 1 << finest)
    lo = [f + 1 for f in first]
    hi = [f + n - 2 for f, n in zip(first, occ.shape[1:])]
    found = {}
    for level in range(finest, min(levels) - 1, -1):
        if level < finest:
            occ, lo, hi = _coarser(occ, lo, hi)
        if level in levels:
            found[level] = _boundary_cells(occ.sum(axis=0, dtype=np.uint8), mode)
    counts = tuple(found[l] for l in levels)
    xs = np.array([l for l, c in zip(levels, counts) if c > 0], dtype=np.float64)
    ys = np.array([np.log2(c) for c in counts if c > 0])
    # equal counts have slope exactly 0, which the least-squares fit
    # returns only up to rounding
    if xs.size < 2 or np.all(ys == ys[0]):
        return DimensionEstimate(levels=levels, counts=counts, slope=0.0, stderr=0.0, mode=mode)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    denom = float(np.sum((xs - xs.mean()) ** 2))
    dof = max(len(xs) - 2, 1)
    stderr = float(np.sqrt(np.sum(resid ** 2) / dof / denom)) if denom else 0.0
    return DimensionEstimate(levels=levels, counts=counts, slope=float(slope),
                             stderr=stderr, mode=mode)


def theorem_exponent(ms, dims) -> float:
    """Decay exponent max_i(d_i - (m_i - 1)) / sum_i(m_i - 1) for a product
    of fractals with boundary dimensions d_i; strictly negative whenever
    every d_i is below m_i - 1."""
    ms = [int(m) for m in ms]
    dims = [float(d) for d in dims]
    if len(ms) != len(dims):
        raise ValueError("ms and dims must have equal length")
    if not ms:
        raise ValueError("need at least one component")
    if len(set(ms)) != len(ms):
        raise ValueError(f"m values must be pairwise distinct, got {ms}")
    if any(m < 2 for m in ms):
        raise ValueError("all m must be >= 2")
    for m, d in zip(ms, dims):
        if not 0.0 <= d < m - 1:  # also false for NaN
            raise ValueError(f"boundary dimension {d} must lie in [0, m-1={m - 1})")
    return max(d - (m - 1) for m, d in zip(ms, dims)) / sum(m - 1 for m in ms)


def load_points_csv(stream) -> np.ndarray:
    """Read an external point set: header x1,...,xs then one point of
    [0, 1)^s per line; the first row that breaks this is named."""
    header = stream.readline().strip()
    names = [h.strip() for h in header.split(",")]
    if not names or not all(n.startswith("x") for n in names):
        raise ValueError(f"expected header x1,...,xs, got {header!r}")
    pts = read_floats(stream, len(names))
    if len(pts) == 0 or pts.shape[1] != len(names):
        raise ValueError("malformed point rows")
    # the kernels' rule, 0 <= x < 1, so -0.0 passes
    for ok, fault in ((np.isfinite(pts), "has a non-finite value"),
                      ((pts >= 0.0) & (pts < 1.0), "lies outside [0, 1)")):
        rows = ok.all(axis=1)
        if not rows.all():
            i = int(np.argmin(rows))
            row = ",".join(map(repr, pts[i].tolist()))
            raise ValueError(f"point row {i + 1} {fault}: {row!r}")
    return pts
