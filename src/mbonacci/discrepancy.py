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
the value equals that of evaluating every cell.

t starts where the grid has about as many blocks as a block has cells.
The blocks a pass keeps are refined rather than swept again: each splits
into its at most 2^s children of side t/2, whose counts at the bottom and
top corners are the parent's count below it plus counts in its
half-slabs.  Each child's two exact corner values raise the best, the
children whose bound (the block pass's own) exceeds it are split in turn,
level by level, and the last level that holds at least 16 cells per
block goes to the fine pass.  Each kept block is charged 2^s s t, for
its 2^s children and the about s t points of its slabs, so a pass keeps
its blocks only when they number at most blocks(t/2) / (2^s s t): their
refinement then costs less than a pass at t/2.  Else the search moves on
to t/2.  Where a child would hold fewer than 16 cells (t <= 4 at s = 2
and 3, t = 2 at s >= 4), a pass keeps blocks only when they hold at most
as many cells as it bounded blocks, and sends them straight to the fine
pass; once a block itself would hold fewer than 16 cells, the search
runs at t = 1, where each block is one cell and the block pass is the
plain sweep of every cell: where nothing prunes, the search costs about
one plain sweep.  Every pass and every batch of a level holds
temporaries of at most about `numeration.BLOCK` cells or points at a
time.

DEFAULT_MAX_EXACT_OPS bounds the work of each pass, each level and the
fine pass, in cells of the plain sweep: one per cell at t = 1 and in the
fine pass, two per bounded block or child above it.  The finest pass
that fits walks all its blocks.  If it keeps too many blocks to refine
or evaluate, or a refinement level or the fine pass does not fit, the
best exact corner value is reported as a lower bound.
A grid of at most DEFAULT_MAX_EXACT_OPS cells fits every pass, so it is
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from mbonacci import numeration
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


def _ascending(x: np.ndarray) -> bool:
    """Whether x never decreases, read `numeration.BLOCK` pairs at a time.
    A NaN compares false, so an array holding one beside another value is
    not ascending."""
    block = numeration.BLOCK
    for a in range(0, x.size - 1, block):
        b = min(a + block, x.size - 1)
        if not np.all(x[a:b] <= x[a + 1:b + 1]):
            return False
    return True


def star_disc_1d(points) -> float:
    """Exact one-dimensional star discrepancy via the sorted formula,
    max_i max(i/n - x_(i), x_(i) - (i - 1)/n).  An ascending input is read
    as it is, and any other is sorted into a copy, so the caller's array is
    never reordered.  The range check reads the sorted ends, where NaN
    sorts last.  Both maxima are taken over chunks of `numeration.BLOCK`
    sorted points, through an index and a difference buffer of a chunk's
    length, allocated once; so besides a sorted copy the pass holds no
    array of full length.  The quotients i/n of a chunk are those of the
    whole range, bit for bit."""
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("expected a one-dimensional point set")
    n = x.size
    if n == 0:
        raise ValueError("empty point set")
    if not _ascending(x):
        x = np.sort(x)
    if not (x[0] >= 0.0 and x[-1] < 1.0):
        raise ValueError("points must lie in [0, 1)")
    block = numeration.BLOCK
    width = min(block, n)
    # idx[k] is a + k for the chunk that starts at a, an integer below 2^53
    idx = np.arange(width + 1, dtype=np.float64)
    diff = np.empty(width)
    best = 0.0
    for a in range(0, n, block):
        b = min(a + block, n)
        d, xs = diff[:b - a], x[a:b]
        # i/n - x_(i), then x_(i) - (i - 1)/n, for i = a + 1..b
        np.divide(idx[1:b - a + 1], n, out=d)
        best = max(best, np.subtract(d, xs, out=d).max())
        np.divide(idx[:b - a], n, out=d)
        best = max(best, np.subtract(xs, d, out=d).max())
        idx += block
    return float(best)


# blocks of fewer cells give way to the exact sweep (side 1): a block
# pass bounds a block with about twice the work of evaluating a cell
_MIN_BLOCK_CELLS = 16
# a block pass that would keep more than _MAX_KEPT blocks (32 bytes each)
# gives way to a pass at half the side, as does one whose blocks go
# straight to the fine pass and would hold more cells than it has blocks.
# So that fine pass evaluates at most a 16th of the grid's cells; at 4 to
# 10 times the cost of a cell of the plain sweep, that costs less than the
# sweep
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
    in slabs along axis 1 of at most about `numeration.BLOCK` blocks.  The
    slab temporaries live in buffers allocated once per call, so the slabs
    reuse the same pages.
    """
    shape = _block_shape(cands, side)
    lows = [c[::side] for c in cands]
    highs = [c[np.minimum(np.arange(side - 1, size * side, side), len(c) - 1)]
             for c, size in zip(cands, shape)]
    inner = prod(shape[2:])
    rows = max(1, numeration.BLOCK // (inner * shape[1]))
    step = max(1, numeration.BLOCK // (rows * inner))
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


def _local_counts(ranks, index, lo, hi, below, width, size):
    """Cumulative counts over the buckets of blocks, one leading slot per axis.

    Bucket i of an axis holds the ranks from ``lo[k] + i * width`` up to
    the next edge or ``hi[k]``, and there are ``size - 1`` of them.  For
    block k, ``out[k, 1 + i]`` is the number of points whose ranks are at
    most bucket i's last rank componentwise, and the leading slots count
    the ranks below ``lo[k]``.  ``below[k]`` is the number of points below
    ``lo[k]`` on every axis; the others that count lie in one of the
    block's axis slabs, ``lo[k, j] <= rank_j <= hi[k, j]``, which
    `index` (see `_rank_index`) lists.  A point is taken from the first
    axis whose slab holds it.
    """
    nb, s = lo.shape
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
            key += np.maximum((rank - first) // width + 1, 0) * size ** (s - 1 - i)
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
    counts = _local_counts(ranks, index, lo, hi, below, 1, side + 1)
    nb, s = lo.shape
    steps = np.arange(side)
    vol = padded[0][lo[:, :1] + steps]
    for j in range(1, s):
        x = padded[j][lo[:, j:j + 1] + steps]
        vol = vol[..., None] * x.reshape((nb,) + (1,) * j + (side,))
    above = counts[(slice(None),) + (slice(1, None),) * s] / n
    under = counts[(slice(None),) + (slice(None, side),) * s] / n
    return max(float((above - vol).max()), float((vol - under).max()))


def _fine_pass(ranks, cands, n, side, best, lo, bound, below):
    """Raise `best` to the maximum over the cells of the blocks of `side`
    with bottom corners `lo`, bounds `bound` and counts `below` under
    them, visiting them in descending order of their bounds and stopping
    at the first bound that is not above `best`."""
    order = np.argsort(-bound, kind="stable")
    lengths = np.array([len(c) for c in cands])
    padded = [np.concatenate((c, np.full(side, c[-1]))) for c in cands]
    index = _rank_index(ranks, cands)
    batch = max(1, numeration.BLOCK // (side + 1) ** len(cands))
    for start in range(0, len(order), batch):
        take = order[start:start + batch]
        take = take[bound[take] > best]
        if not take.size:
            break
        hi = np.minimum(lo[take] + side, lengths) - 1
        best = max(best, _block_values(ranks, index, padded, n, side, lo[take], hi, below[take]))
    return best


def _half_counts(slabs, lengths, lo, hi, below, half):
    """s = 2: cumulative counts at the corners lo - 1, lo + half - 1 and hi
    on each axis of the blocks from `lo` to `hi`, as a (blocks, 3, 3) array.

    ``slabs[j]`` holds the keys ``(rank_j // half) * lengths[1 - j] +
    rank_(1 - j)`` of the points, sorted, and for each half-slab q of axis
    j where its keys start, so the points of slab q whose other rank is at
    most r are the keys up to ``q * lengths[1 - j] + r`` from there.  A
    count is `below`, plus the points in the block's two axis-0 half-slabs
    up to the corner on axis 1, plus the points under lo on axis 0 in its
    axis-1 half-slabs.  The middle corner on axis 1 is capped at hi, so
    that in a block cut short by the grid's end its search stays inside
    slab q.  The searches run slab by slab, so for blocks in row-major
    order most of them ascend.
    """
    counts = np.empty((len(lo), 3, 3))
    counts[:] = below[:, None, None]
    keys, starts = slabs[0]
    q = lo[:, 0] // half + np.arange(2)[:, None]
    tops = np.stack((lo[:, 1] - 1, lo[:, 1] + half - 1, hi[:, 1]), axis=1)
    np.minimum(tops[:, 1], hi[:, 1], out=tops[:, 1])
    at = np.searchsorted(keys, (q * lengths[1])[..., None] + tops, side="right")
    at -= starts[q][..., None]
    counts[:, 1] += at[0]
    counts[:, 2] += at[0] + at[1]
    keys, starts = slabs[1]
    q = lo[:, 1] // half + np.arange(2)[:, None]
    at = np.searchsorted(keys, q * lengths[0] + lo[:, 0] - 1, side="right") - starts[q]
    counts[:, :, 1] += at[0][:, None]
    counts[:, :, 2] += (at[0] + at[1])[:, None]
    return counts


def _refine(ranks, cands, n, side, best, lo, below):
    """Split the blocks of `side` with bottom corners `lo` and counts
    `below` under them into their children of side/2, at most 2^s each,
    dropping those past the grid's end.

    Per axis the children need the counts at lo - 1, lo + side/2 - 1 and
    hi: from `_half_counts` at s = 2, from `_local_counts` with buckets of
    side/2 ranks above.  Each child's bottom and top corner values raise
    `best`, and its bound is `_block_pass`'s, in the same arithmetic.
    Returns `best` and the bottom corners, bounds and counts under them of
    the children whose bound exceeds it.  Blocks go through in batches of
    ``numeration.BLOCK // (s * side)``, so a batch's temporaries hold
    about `numeration.BLOCK` searches or gathered points.
    """
    s = lo.shape[1]
    half = side // 2
    lengths = np.array([len(c) for c in cands])
    if s == 2:
        slabs = []
        for j in range(2):
            keys = np.sort(ranks[:, j] // half * lengths[1 - j] + ranks[:, 1 - j])
            edges = np.arange(lengths[j] // half + 2) * lengths[1 - j]
            slabs.append((keys, np.searchsorted(keys, edges)))
    else:
        index = _rank_index(ranks, cands)
    # child e of a block starts at lo + e * half; its open count is the
    # one at corners e and its closed count the one at corners e + 1
    bits = np.indices((2,) * s).reshape(s, -1).T
    under = np.ravel_multi_index(bits.T, (3,) * s)
    over = np.ravel_multi_index(bits.T + 1, (3,) * s)
    found = []
    batch = max(1, numeration.BLOCK // (s * side))
    for start in range(0, len(lo), batch):
        parent, count = lo[start:start + batch], below[start:start + batch]
        hi = np.minimum(parent + side, lengths) - 1
        if s == 2:
            counts = _half_counts(slabs, lengths, parent, hi, count, half)
        else:
            counts = _local_counts(ranks, index, parent, hi, count, half, 3)
        counts = counts.reshape(len(parent), -1)
        child = parent[:, None, :] + bits * half
        real = np.all(child < lengths, axis=2)
        child, closed, opened = child[real], counts[:, over][real], counts[:, under][real]
        vol_lo = vol_hi = 1.0
        for j, c in enumerate(cands):
            x_lo, x_hi = c[child[:, j]], c[np.minimum(child[:, j] + half, len(c)) - 1]
            vol_lo, vol_hi = (x_lo, x_hi) if j == 0 else (vol_lo * x_lo, vol_hi * x_hi)
        above, inside = closed / n, opened / n
        best = max(best, float((above - vol_hi).max()), float((vol_lo - inside).max()))
        bound = np.maximum(above - vol_lo, vol_hi - inside)
        keep = bound > best
        found.append((child[keep], bound[keep], opened[keep]))
    child, bound, opened = (np.concatenate(column) for column in zip(*found))
    keep = bound > best
    return best, child[keep], bound[keep], opened[keep]


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
    A pass whose children hold at least _MIN_BLOCK_CELLS cells keeps at
    most blocks(t/2) / (2^s s t) blocks, and `_refine` splits them level
    by level, each level's two units per child within the budget, until
    the next children would hold fewer cells; the blocks left go to
    `_fine_pass` if their cells fit the budget.  Any other pass keeps at
    most blocks(t) / t^s blocks, which go to `_fine_pass` at once.
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
        split = (side // 2) ** s >= _MIN_BLOCK_CELLS
        finer = side // 2 if split else 1
        last = _work(cands, finer) > DEFAULT_MAX_EXACT_OPS
        # blocks kept to refine must cost less than a pass at side/2, and
        # those kept for the fine pass hold at most as many cells as it bounds
        cap = min(_MAX_KEPT, prod(_block_shape(cands, finer)) // (2 ** s * s * side) if split
                  else prod(_block_shape(cands, side)) // side ** s)
        best, found = _block_pass(ranks, cands, n, side, best, cap, finish=last)
        if found is not None:
            break
        if last:
            return best, False
        side = finer
    else:
        return _block_pass(ranks, cands, n, 1, best, 0)[0], True
    if not found:
        return best, True
    flat, bound, below = (np.concatenate(column) for column in zip(*found))
    lo = np.stack(np.unravel_index(flat, _block_shape(cands, side)), axis=1) * side
    lengths = np.array([len(c) for c in cands])
    while len(lo) and (side // 2) ** s >= _MIN_BLOCK_CELLS:
        children = int(np.prod(1 + (lo + side // 2 < lengths), axis=1).sum())
        if 2 * children > DEFAULT_MAX_EXACT_OPS:
            return best, False
        best, lo, bound, below = _refine(ranks, cands, n, side, best, lo, below)
        side //= 2
    # the fine pass's cells inside the grid, so a grid that fits fits it too
    if np.prod(np.minimum(lo + side, lengths) - lo, axis=1).sum() > DEFAULT_MAX_EXACT_OPS:
        return best, False
    return _fine_pass(ranks, cands, n, side, best, lo, bound, below), True


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
    if not (np.isfinite(ns).all() and np.isfinite(ds).all()):
        raise ValueError("sample sizes and discrepancy values must be finite")
    if np.any(ns[1:] <= ns[:-1]):
        raise ValueError("sample sizes must be strictly increasing")
    if np.any(ds <= 0.0):
        raise ValueError("discrepancy values must be positive")
    x = np.log(ns)
    y = np.log(ds)
    if np.allclose(y, y[0]):
        raise ValueError("degenerate samples: constant discrepancy")
    slope, intercept, r2, _ = _line_fit(x, y)
    return slope, intercept, r2


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """Least-squares line y ~ slope * x + intercept: returns (slope,
    intercept, r_squared, stderr of the slope)."""
    slope, intercept = np.polyfit(x, y, 1)
    rss = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - rss / ss_tot if ss_tot else 1.0
    denom = float(np.sum((x - x.mean()) ** 2))
    stderr = float(np.sqrt(rss / max(len(x) - 2, 1) / denom)) if denom else 0.0
    return float(slope), float(intercept), r2, stderr


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


def require_levels(levels, m: int, points: int) -> tuple[int, ...]:
    """The box-counting levels as a tuple of ints, refused unless they are
    positive, hold two distinct values for a slope, and a cloud of `points`
    points in m - 1 dimensions has on average a point per cell of the
    finest level; checked before a cloud is built for them."""
    levels = tuple(int(l) for l in levels)
    if not levels or any(l < 1 for l in levels):
        raise ValueError("levels must be positive integers")
    if len(set(levels)) < 2:
        raise ValueError(f"levels must hold at least two distinct values for a slope, "
                         f"got {list(levels)}")
    finest = max(levels)
    # points < 2^(finest * (m - 1)), without building that power
    if points.bit_length() <= finest * (m - 1):
        raise ValueError(
            f"cloud of {points} points too sparse for level {finest} "
            f"(needs at least one point per cell on average)"
        )
    return levels


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
    levels = require_levels(levels, cloud.m, cloud.size)
    finest = max(levels)
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
    slope, _, _, stderr = _line_fit(xs, ys)
    return DimensionEstimate(levels=levels, counts=counts, slope=slope, stderr=stderr, mode=mode)


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
    _require_rows(pts, np.isfinite(pts), "has a non-finite value")
    # the kernels' rule, 0 <= x < 1, so -0.0 passes; built once the finite
    # mask is freed, and in place, so at most two masks are live at once
    ok = pts >= 0.0
    ok &= pts < 1.0
    _require_rows(pts, ok, "lies outside [0, 1)")
    return pts


def _require_rows(pts: np.ndarray, ok: np.ndarray, fault: str) -> None:
    """Name the first row of `pts` where the mask `ok` is false."""
    rows = ok.all(axis=1)
    if not rows.all():
        i = int(np.argmin(rows))
        row = ",".join(map(repr, pts[i].tolist()))
        raise ValueError(f"point row {i + 1} {fault}: {row!r}")
