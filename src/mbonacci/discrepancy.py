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
ranks (Dobkin, Eppstein and Mitchell, ACM TOG 1996).  One sweep serves
every s >= 2: it walks axis 0 in rank order and carries the cumulative
count plane over the other axes, so it costs O(prod_j len(cands_j)) with
a few vectorised operations per corner cell, holding temporaries of at
most about 2^15 cells at a time.  DEFAULT_MAX_EXACT_OPS bounds that cell
count; past it the same sweep gives a lower bound on a subsampled grid of
half as many cells, because there it counts closed and open boxes in two
passes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import repeat
from math import prod

import numpy as np

from mbonacci.rauzy import FractalCloud, letter_count_grid

DEFAULT_MAX_EXACT_OPS = 1 << 30


@dataclass(frozen=True)
class DiscrepancyReport:
    N: int
    value: float
    method: str
    exact: bool = True


def star_disc_1d(points) -> float:
    """Exact one-dimensional star discrepancy via the sorted formula."""
    x = np.sort(np.asarray(points, dtype=np.float64))
    n = x.size
    if n == 0:
        raise ValueError("empty point set")
    if not np.all((x >= 0.0) & (x < 1.0)):
        raise ValueError("points must lie in [0, 1)")
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(max(np.max(i / n - x), np.max(x - (i - 1) / n)))


_CHUNK_CELLS = 1 << 15


def _count_blocks(points, cands, side, rows):
    """Cumulative counts on the rank grid, ``rows`` axis-0 indices at a time.

    A point's rank on axis j is ``searchsorted(cands[j], x_j, side)``.  With
    side "left" the point lies in the closed box of every corner whose index
    is at least its rank on each axis; with side "right", in the open box.
    Every axis of a yielded block has one leading slot: for the block
    starting at axis-0 index ``a``, ``block[1 + i, 1 + r]`` is the number of
    points whose rank is at most ``(a + i, r)`` componentwise, ``block[0]``
    is the same plane for index ``a - 1``, and the other leading slots read
    0.  The candidates end at 1.0, so every rank is in range.  Counts are
    exact integers held as float64.  The same buffer is yielded for every
    block and is overwritten by the next one.
    """
    plane_shape = tuple(len(c) + 1 for c in cands[1:])
    plane = prod(plane_shape)
    ranks = [np.searchsorted(c, points[:, j], side=side) for j, c in enumerate(cands)]
    keys = np.sort(np.ravel_multi_index(
        [ranks[0]] + [r + 1 for r in ranks[1:]], (len(cands[0]),) + plane_shape))
    counts = np.zeros((rows + 1,) + plane_shape)
    for a in range(0, len(cands[0]), rows):
        b = min(a + rows, len(cands[0]))
        counts[0] = counts[rows]  # the previous block's last plane, 0 at first
        counts[1:] = 0.0
        lo, hi = np.searchsorted(keys, (a * plane, b * plane))
        np.add.at(counts.reshape(-1), keys[lo:hi] - (a - 1) * plane, 1.0)
        block = counts[:b - a + 1]
        new_rows = block[1:]
        for axis in range(1, len(cands)):
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


def _corner_sweep(points: np.ndarray, cands: list[np.ndarray], full_grid: bool) -> float:
    """max over corners c of max(closed(c)/n - vol(c), vol(c) - open(c)/n).

    Walks axis 0 in rank order in blocks of axis-0 indices, keeping the
    cumulative count plane over the other axes, and evaluates each block
    in slabs along axis 1 of at most about _CHUNK_CELLS corners.  The slab
    temporaries live in buffers allocated once per call, so the slabs
    reuse the same pages.  On the full grid, where every coordinate is a
    candidate, the open count at rank (a, b, ...) is the closed count at
    (a-1, b-1, ...); on a subsampled grid it is counted from
    ``side="right"`` ranks.  Volumes are multiplied left to right, as the
    brute-force oracle does.
    """
    n = len(points)
    inner = prod(len(c) for c in cands[2:])
    rows = max(1, _CHUNK_CELLS // (inner * len(cands[1])))
    step = max(1, _CHUNK_CELLS // (rows * inner))
    corner_cells = rows * step * inner
    slab_cells = (rows + 1) * (step + 1) * prod(len(c) + 1 for c in cands[2:])
    # volumes of s axes alternate between two buffers, the product over
    # the first j axes in one and over j + 1 in the other
    vol_bufs = (np.empty(corner_cells), np.empty(corner_cells))
    diff_buf = np.empty(corner_cells)
    closed_buf = np.empty(slab_cells)
    open_buf = closed_buf if full_grid else np.empty(slab_cells)
    closed_blocks = _count_blocks(points, cands, "left", rows)
    open_blocks = repeat(None) if full_grid else _count_blocks(points, cands, "right", rows)
    shift = 0 if full_grid else 1
    best = 0.0
    for a, closed, opened in zip(range(0, len(cands[0]), rows), closed_blocks, open_blocks):
        x = cands[0][a:a + len(closed) - 1]
        for lo in range(0, len(cands[1]), step):
            hi = min(lo + step, len(cands[1]))
            vol = np.multiply(x[:, None], cands[1][None, lo:hi],
                              out=_view(vol_bufs[0], (len(x), hi - lo)))
            for j, c in enumerate(cands[2:], 1):
                vol = np.multiply(vol[..., None], c,
                                  out=_view(vol_bufs[j % 2], vol.shape + (len(c),)))
            counts = closed[:, lo:hi + 1]
            closed_slab = np.divide(counts, n, out=_view(closed_buf, counts.shape))
            if full_grid:
                open_slab = closed_slab
            else:
                counts = opened[:, lo:hi + 1]
                open_slab = np.divide(counts, n, out=_view(open_buf, counts.shape))
            diff = _view(diff_buf, vol.shape)
            best = max(
                best,
                float(np.subtract(_window(closed_slab, 1), vol, out=diff).max()),
                float(np.subtract(vol, _window(open_slab, shift), out=diff).max()),
            )
    return best


def _subsample(cands: np.ndarray, limit: int) -> np.ndarray:
    if len(cands) <= limit:
        return cands
    picks = np.unique(np.linspace(0, len(cands) - 1, limit).astype(np.int64))
    sub = cands[picks]
    return np.unique(np.concatenate((sub, [1.0])))


def star_disc_multi(points, fallback: bool = True) -> DiscrepancyReport:
    """Star discrepancy of an s-dimensional point set, s >= 2.

    Exact while the corner grid, prod_j (distinct coordinates on axis j plus
    the ends 0 and 1) cells, fits the budget DEFAULT_MAX_EXACT_OPS; beyond
    it, either raises or (default) reports a lower bound from a subsampled
    corner grid of at most half that many cells, flagged as not exact.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] < 2:
        raise ValueError("expected an (N, s) array with s >= 2")
    n, s = pts.shape
    if n == 0:
        raise ValueError("empty point set")
    if not np.all((pts >= 0.0) & (pts < 1.0)):
        raise ValueError("points must lie in [0, 1)^s")
    cands = [np.unique(np.concatenate((pts[:, j], [0.0, 1.0]))) for j in range(s)]
    cells = prod(len(c) for c in cands)
    budget = DEFAULT_MAX_EXACT_OPS
    if cells <= budget:
        value = _corner_sweep(pts, cands, full_grid=True)
        method = "exact_corner_sweep" if s == 2 else "exact_corner_grid"
        return DiscrepancyReport(N=n, value=value, method=method)
    if not fallback:
        raise ValueError(
            f"an exact value at N = {n} needs {cells} corner-grid cells, over the "
            f"budget of {budget}; use fewer points (disc fit: lower --max-exp)"
        )
    limit = int((budget / 2) ** (1.0 / s))
    cands = [_subsample(c, limit) for c in cands]
    value = _corner_sweep(pts, cands, full_grid=False)
    return DiscrepancyReport(N=n, value=value, method="corner_subsample_lower_bound",
                             exact=False)


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


def _letter_cells(cloud: FractalCloud, level: int) -> list[np.ndarray]:
    """Integer cells of side 2^-level of the plain lattice coordinates
    holding the points of each letter, one (m - 1, count) int64 array per
    letter.

    Scaling by 2^level is exact, so the cells at a coarser level l are
    these shifted right by level - l.
    """
    side = 1 << level
    return [np.floor(np.ascontiguousarray(cloud.letter_points(letter).T) * side).astype(np.int64)
            for letter in range(1, cloud.m + 1)]


def _boundary_cells(letter_cells: list[np.ndarray], mode: str) -> int:
    """Boundary cells among the occupied cells of each letter, on the
    cells' bounding box plus a one-cell empty margin, where
    `letter_count_grid` counts the letters in each cell."""
    letters = letter_count_grid(letter_cells)
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
    cells = _letter_cells(cloud, finest)
    counts = tuple(_boundary_cells([c >> (finest - l) for c in cells], mode) for l in levels)
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
    """Read an external point set: header x1,...,xs then one point per line."""
    header = stream.readline().strip()
    names = [h.strip() for h in header.split(",")]
    if not names or not all(n.startswith("x") for n in names):
        raise ValueError(f"expected header x1,...,xs, got {header!r}")
    with warnings.catch_warnings():
        # a header-only file is refused below, without numpy's empty-input warning
        warnings.simplefilter("ignore", UserWarning)
        pts = np.loadtxt(stream, delimiter=",", ndmin=2, comments=None)
    if len(pts) == 0 or pts.shape[1] != len(names):
        raise ValueError("malformed point rows")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        row = ",".join(map(repr, pts[i].tolist()))
        raise ValueError(f"point row {i + 1} has a non-finite value: {row!r}")
    return pts
