"""Substitutive geometry: fixed-point words, fractal point clouds with
letter labels, and grid-based tiling and set-equation verification.

Fractal sets are represented as labelled finite point clouds plus grid
rasterisations.  Exact boundary curves are never constructed; every
geometric check is parameterised by a grid resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from mbonacci import numeration
from mbonacci.spectral import (
    contraction_matrix,
    lattice_coords,
    precise_multiples_minus,
    reduce_array,
)
from mbonacci.textio import write_csv

DEFAULT_MAX_DEPTH = 4_000_000


def substitute(m: int, word: np.ndarray) -> np.ndarray:
    """Apply the letter rewriting 1->12, 2->13, ..., m->1 to a word array."""
    word = np.asarray(word, dtype=np.uint8)
    grows = word < m
    lens = np.where(grows, 2, 1).astype(np.uint8)
    starts = np.cumsum(lens, dtype=np.int64) - lens
    out = np.ones(int(starts[-1]) + int(lens[-1]) if word.size else 0, dtype=np.uint8)
    out[starts[grows] + 1] = word[grows] + 1
    return out


def fixed_point_prefix(sys: numeration.MBonacciSystem, length: int) -> np.ndarray:
    """First `length` letters of the word fixed by the substitution.

    The k-fold image s_k of the letter 1 has length F_k, the k-th basis
    term, and is a prefix of s_{k+1}, so the word fills by the
    prefix-doubling walk of `numeration.prefix_ranges` (Dumont and Thomas,
    1989).  For j >= m - 1, s_{j+1} = s_j s_{j-1} ... s_{j+1-m}, and the
    part after s_j is a prefix of s_j: w[F_j:F_{j+1}] = w[:F_{j+1} - F_j].
    For j < m - 1 the basis terms are powers of two and s_{j+1} =
    s_j s_{j-1} ... s_0 (j + 2), so the copy w[:F_j] takes the letter j + 2
    as its last letter.  `substitute` is the definition the word is tested
    against.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    w = np.empty(length, dtype=np.uint8)
    w[0] = 1
    for j, start, end in numeration.prefix_ranges(sys, length):
        w[start:end] = w[:end - start]
        if j < sys.m - 1 and end == sys.basis[j + 1]:
            w[end - 1] = j + 2
    return w


def word_lengths(m: int, k_max: int) -> list[int]:
    """Lengths of the k-fold images of the letter 1, for k = 0..k_max,
    measured on the actual words."""
    w = np.array([1], dtype=np.uint8)
    lengths = [1]
    for _ in range(k_max):
        w = substitute(m, w)
        lengths.append(int(w.size))
    return lengths


@dataclass(frozen=True, eq=False)
class FractalCloud:
    """Labelled point approximation of the fractal and its letter subtiles.

    Point n is the projection of the abelianisation of the first n
    fixed-point letters, stored unreduced (plain lattice coordinates);
    `reduced`, the same points on the torus, is computed on first use.
    Its label is fixed-point letter n+1.
    """

    m: int
    depth: int
    labels: np.ndarray      # uint8, shape (depth+1,)
    unreduced: np.ndarray   # float64, shape (depth+1, m-1)

    @property
    def size(self) -> int:
        return self.depth + 1

    @cached_property
    def reduced(self) -> np.ndarray:
        """The points reduced to the torus, float64 of shape (depth+1, m-1)."""
        return reduce_array(self.unreduced)

    def letter_points(self, letter: int) -> np.ndarray:
        return self.unreduced[self.labels == letter]


# points per pass of `build_cloud` and `letter_grid`; each pass works
# through buffers of this many elements, allocated once per call
_BLOCK = 1 << 15


def build_cloud(m: int, depth: int) -> FractalCloud:
    """Cloud of the first depth+1 projected prefixes.

    Coordinate i-1 of point n is n * phi^-i minus the count of letter i
    among the first n fixed-point letters, evaluated per point from split
    high-precision powers, so there is no accumulated rounding drift.
    Each coordinate is written in place into one (m - 1, depth + 1) array,
    whose transpose is `unreduced`; it and the word are the only arrays of
    full length.  The fill runs _BLOCK points at a time: a block's indices,
    its cumulative letter counts (exact in float64 below 2^53, the last
    count carried into the next block) and the products' temporaries go
    through buffers allocated once.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > DEFAULT_MAX_DEPTH:
        raise ValueError(f"depth {depth} beyond the memory budget {DEFAULT_MAX_DEPTH}")
    sys = numeration.make_system(m)
    size = depth + 1
    word = fixed_point_prefix(sys, size)
    coords = np.empty((m - 1, size))
    width = min(_BLOCK, size)
    # ns[k] is a + k in the block that starts at a
    ns = np.arange(width, dtype=np.float64)
    scratch = np.empty(width)
    counts = np.empty(width + 1)
    # the count of letter i among the letters before the block
    carried = [0.0] * (m - 1)
    for a in range(0, size, _BLOCK):
        b = min(a + _BLOCK, size)
        c = counts[:b - a + 1]
        for i in range(2, m + 1):
            # c[k] is the count of letter i among the first a + k letters
            c[0] = carried[i - 2]
            np.cumsum(word[a:b] == i, dtype=np.float64, out=c[1:])
            c[1:] += c[0]
            carried[i - 2] = c[-1]
            hi, lo = sys.neg_power_parts[i - 1]
            precise_multiples_minus(ns[:b - a], float(hi), float(lo), c[:-1],
                                    out=coords[i - 2, a:b], scratch=scratch[:b - a])
        ns += _BLOCK
    return FractalCloud(m=m, depth=depth, labels=word, unreduced=coords.T)


# ---------------------------------------------------------------------------
# grid rasterisation
# ---------------------------------------------------------------------------

# dense grids above this many cells are refused rather than allocated
MAX_GRID_CELLS = 1 << 26


def letter_grid(points: np.ndarray, labels: np.ndarray, groups: int, scale: float,
                dims: tuple[int, ...] | None = None) -> tuple[np.ndarray, tuple[int, ...]]:
    """Which groups of points land in each cell of a dense grid.

    Row i of the (count, d) array `points` lies in cell floor(points[i] *
    scale) and belongs to group labels[i] - 1 of `groups`.  Given `dims`,
    the grid has that shape with its first cell at index 0, and every cell
    must lie in it, as the torus cells of points in [0, 1) do at an integer
    scale.  Without `dims` it is the bounding box of the cells plus one
    empty cell on every side, so every occupied cell has all its
    face-neighbours in the grid.  A grid of more than MAX_GRID_CELLS cells
    is refused before anything of its size is allocated.  The points are
    marked _BLOCK at a time through a key and a cell buffer allocated
    once, so besides the grid no array of the points' length is allocated.

    Returns the bool occupancy of shape (groups, *dims) and the index of
    the grid's first cell on each axis.
    """
    d = points.shape[1]
    if dims is None:
        # x -> floor(x * scale) is monotone in float64, so the extreme cells
        # are the cells of the extreme coordinates
        first = tuple(int(np.floor(points[:, j].min() * scale)) - 1 for j in range(d))
        dims = tuple(int(np.floor(points[:, j].max() * scale)) - f + 2
                     for j, f in enumerate(first))
    else:
        first = (0,) * d
    if prod(dims) > MAX_GRID_CELLS:
        raise ValueError(f"occupancy grid of {prod(dims):.3g} cells too large for a dense count")
    occ = np.zeros(groups * prod(dims), dtype=bool)
    # flat key of (label - 1, cell - first) on the grid of shape (groups, *dims),
    # _BLOCK points and one axis at a time through two buffers; every value
    # is an integer below 2^53, so the float sums are exact
    count = len(labels)
    key_buf = np.empty(min(_BLOCK, count), dtype=np.int64)
    cell_buf = np.empty(len(key_buf))
    for a in range(0, count, _BLOCK):
        b = min(a + _BLOCK, count)
        key, cell = key_buf[:b - a], cell_buf[:b - a]
        key[...] = labels[a:b]
        key -= 1
        for j, (f, size) in enumerate(zip(first, dims)):
            np.multiply(points[a:b, j], scale, out=cell)
            np.floor(cell, out=cell)
            cell -= f
            key *= size
            np.add(key, cell, out=key, casting="unsafe")
        occ[key] = True
    return occ.reshape((groups, *dims)), first


# points per grid cell that the tiling and set-equation checks require
_MIN_POINTS_PER_CELL = 100.0


def _require_density(npoints: int, m: int, resolution: float) -> None:
    need = _MIN_POINTS_PER_CELL * resolution ** -(m - 1)
    if npoints < need:
        raise ValueError(
            f"cloud of {npoints} points too sparse for resolution {resolution} "
            f"(heuristic needs >= {int(need)})"
        )


@dataclass(frozen=True)
class SetEquationReport:
    m: int
    k: int
    resolution: float
    ratios: dict[int, float]
    max_ratio: float


def set_equation_check(cloud: FractalCloud, k: int, resolution: float) -> SetEquationReport:
    """Grid comparison of each letter subcloud against its decomposition.

    The subtile of letter 1 is the contraction of the whole cloud; the
    subtile of letter i > 1 is the contraction of subtile i-1 translated
    by the projection of e_1.  Iterating k times and rasterising both
    sides on a shared grid gives a symmetric-difference cell ratio.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    m = cloud.m
    _require_density(cloud.size, m, resolution)
    sys = numeration.make_system(m)
    mat = contraction_matrix(sys)
    gamma = lattice_coords(sys, [1] + [0] * (m - 1))

    def approx(letter: int, level: int) -> np.ndarray:
        if level == 0:
            return cloud.letter_points(letter)
        if letter == 1:
            parts = [approx(j, level - 1) for j in range(1, m + 1)]
            return np.concatenate(parts) @ mat.T
        return approx(letter - 1, level - 1) @ mat.T + gamma

    ratios: dict[int, float] = {}
    for letter in range(1, m + 1):
        sides = (cloud.letter_points(letter), approx(letter, k))
        labels = np.repeat(np.array([1, 2], dtype=np.uint8), [len(p) for p in sides])
        (lhs, rhs), _ = letter_grid(np.concatenate(sides), labels, 2, 1 / resolution)
        sym = int(np.count_nonzero(lhs ^ rhs))
        union = int(np.count_nonzero(lhs | rhs))
        ratios[letter] = sym / union if union else 0.0
    return SetEquationReport(m=m, k=k, resolution=resolution, ratios=ratios,
                             max_ratio=max(ratios.values()))


@dataclass(frozen=True)
class TilingReport:
    m: int
    resolution: float
    total_cells: int
    covered_cells: int
    coverage: float
    overlap_cells: int
    overlap_fraction: float


def tiling_check(cloud: FractalCloud, resolution: float) -> TilingReport:
    """Coverage and letter-overlap statistics of the reduced cloud.

    Full coverage of the torus grid witnesses the fundamental-domain
    property at this resolution; the fraction of cells claimed by two or
    more letters bounds how visible the subtile boundaries are.
    """
    m = cloud.m
    _require_density(cloud.size, m, resolution)
    side = round(1.0 / resolution)
    occ, _ = letter_grid(cloud.reduced, cloud.labels, m, side, (side,) * (m - 1))
    letters = occ.sum(axis=0, dtype=np.uint8)
    total = letters.size
    covered = int(np.count_nonzero(letters))
    overlap = int(np.count_nonzero(letters >= 2))
    return TilingReport(
        m=m,
        resolution=resolution,
        total_cells=total,
        covered_cells=covered,
        coverage=covered / total,
        overlap_cells=overlap,
        overlap_fraction=overlap / covered if covered else 0.0,
    )


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

_PALETTE = (
    (31, 119, 180),
    (255, 127, 14),
    (44, 160, 44),
)


def export_cloud_csv(cloud: FractalCloud, stream, digits: int = 15) -> None:
    """Write `n,label,c1,...,c(m-1)` rows with fixed decimal places."""
    header = ["n", "label"] + [f"c{i}" for i in range(1, cloud.m)]
    write_csv(stream, header, [range(cloud.size), cloud.labels], list(cloud.reduced.T), digits)


def render_cloud_ppm(cloud: FractalCloud, size: int = 512) -> bytearray:
    """Binary PPM render of the reduced cloud, one colour per letter.

    Two-dimensional torus coordinates render as a size x size image; the
    one-dimensional case renders as a strip.  Higher dimensions are not
    renderable in this format.  The pixels are painted in place after the
    header, in the one buffer that is returned.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if cloud.m == 3:
        width = height = size
    elif cloud.m == 2:
        width, height = size, max(8, size // 8)
    else:
        raise ValueError("PPM rendering supports m = 2 or 3 only")
    if width * height > MAX_GRID_CELLS:
        raise ValueError(f"size {size} gives a {width} x {height} image, "
                         f"above the limit of {MAX_GRID_CELLS} pixels")
    occ, _ = letter_grid(cloud.reduced, cloud.labels, cloud.m, size, (size,) * (cloud.m - 1))
    header = f"P6\n{width} {height}\n255\n".encode()
    data = bytearray(len(header) + height * width * 3)
    data[:len(header)] = header
    img = np.frombuffer(data, dtype=np.uint8, offset=len(header)).reshape(height, width, 3)
    img.fill(255)
    # one 3-byte element per pixel, so a letter paints its cells in one step
    pixels = img.view("V3")[..., 0]
    colours = np.array(_PALETTE, dtype=np.uint8).view("V3")[:, 0]
    # the grid is indexed by x (and y); image row 0 holds the largest y, and
    # the strip repeats its first row
    cells = pixels.T[:, ::-1] if cloud.m == 3 else pixels[0]
    # later letters paint over earlier ones
    for letter in range(cloud.m):
        cells[occ[letter]] = colours[letter]
    # the grid is freed before the strip's rows are copied
    del occ
    if cloud.m == 2:
        img[1:] = img[0]
    return data


def export_cloud_ppm(cloud: FractalCloud, path: str, size: int = 512) -> None:
    data = render_cloud_ppm(cloud, size)
    with open(path, "wb") as fh:
        fh.write(data)
