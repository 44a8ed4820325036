"""Reference computations made apart from the mbonacci package.

Nothing here imports mbonacci.  The checks compare the program's outputs
with these recomputations, which use other methods than the program:

- the basis and greedy expansions in Python integers;
- the dominant root by plain bisection in mpmath at 200 bits;
- bulk van der Corput values and digit strings by prefix doubling,
  vdc(n) = phi^-(k+1) + vdc(n - F_k) for F_k <= n < F_{k+1};
- the substitution fixed point by direct rewriting of a byte string;
- star discrepancies by the sorted formula in 1-D and by cumulative
  counts on the rank grid in 2-D and 3-D;
- least-squares slopes in closed form.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath
import numpy as np

ROOT_BITS = 200


def basis_upto(m: int, limit: int) -> list[int]:
    """m-bonacci basis terms 1, 2, 4, ... until the first term above `limit`."""
    terms: list[int] = []
    while not terms or terms[-1] <= limit:
        k = len(terms)
        terms.append(1 << k if k < m else sum(terms[k - m:]))
    return terms


@lru_cache(maxsize=None)
def root(m: int) -> mpmath.mpf:
    """Root of x^m = x^(m-1) + ... + 1 in (1, 2), by bisection."""
    with mpmath.workprec(ROOT_BITS + 16):
        lo, hi = mpmath.mpf(1), mpmath.mpf(2)
        for _ in range(ROOT_BITS + 8):
            mid = (lo + hi) / 2
            if mid ** m - sum(mid ** j for j in range(m)) < 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def neg_power(m: int, j: int) -> mpmath.mpf:
    """phi_m^-j at the reference precision."""
    with mpmath.workprec(ROOT_BITS):
        return root(m) ** -j


def greedy_positions(terms: list[int], n: int) -> list[int]:
    """Positions of the ones in the greedy expansion of n."""
    positions = []
    rem = n
    for j in range(len(terms) - 1, -1, -1):
        if terms[j] <= rem:
            positions.append(j)
            rem -= terms[j]
    if rem:
        raise ValueError(f"{n} is beyond the basis")
    return positions


def vdc_exact(m: int, terms: list[int], n: int) -> mpmath.mpf:
    """Van der Corput value of n from its greedy digits, in mpmath."""
    with mpmath.workprec(ROOT_BITS):
        return mpmath.fsum(neg_power(m, j + 1) for j in greedy_positions(terms, n))


def vdc_table(m: int, count: int) -> np.ndarray:
    """vdc(0..count-1) in float64 by prefix doubling."""
    terms = basis_upto(m, count)
    values = np.zeros(count, dtype=np.float64)
    for k in range(len(terms) - 1):
        lo, hi = terms[k], min(terms[k + 1], count)
        if lo >= count:
            break
        values[lo:hi] = float(neg_power(m, k + 1)) + values[0:hi - lo]
    return values


def digit_bits_table(m: int, count: int) -> np.ndarray:
    """Greedy digit strings of 0..count-1 as int64 bit masks (bit j = digit j)."""
    terms = basis_upto(m, count)
    bits = np.zeros(count, dtype=np.int64)
    for k in range(len(terms) - 1):
        lo, hi = terms[k], min(terms[k + 1], count)
        if lo >= count:
            break
        bits[lo:hi] = (1 << k) | bits[0:hi - lo]
    return bits


def fixed_point_word(m: int, length: int) -> bytes:
    """First `length` letters of the fixed point of 1->12, ..., (m-1)->1m, m->1."""
    images = [b""] + [bytes([1, i + 1]) for i in range(1, m)] + [bytes([1])]
    word = bytes([1])
    while len(word) < length:
        word = b"".join(images[c] for c in word)
    return word[:length]


def fractal_point(m: int, n: int, letter_counts: list[int]) -> list[mpmath.mpf]:
    """Torus coordinates frac(n * phi^-i - |w_0..w_{n-1}|_i), i = 2..m."""
    with mpmath.workprec(ROOT_BITS):
        out = []
        for i in range(2, m + 1):
            x = n * neg_power(m, i) - letter_counts[i - 2]
            out.append(x - mpmath.floor(x))
        return out


def star_disc_sorted(x) -> float:
    """One-dimensional star discrepancy: max over the sorted points of
    i/n - x_(i) and x_(i) - (i-1)/n."""
    xs = np.sort(np.asarray(x, dtype=np.float64))
    n = xs.size
    upper = np.arange(1, n + 1, dtype=np.float64) / n
    lower = np.arange(0, n, dtype=np.float64) / n
    return float(max((upper - xs).max(), (xs - lower).max()))


def star_disc_rank_grid(points, block_cells: int = 1 << 20) -> float:
    """Star discrepancy of an (N, s) point set from cumulative rank-grid counts.

    Each axis gets the candidates {0, 1} plus the point coordinates.  For a
    corner with ranks (a, b, ...) the closed count #{p <= corner} is the
    cumulative sum of the rank histogram up to (a, b, ...), and the open
    count #{p < corner} is the closed count at (a-1, b-1, ...).  The first
    axis is walked in blocks of about `block_cells` grid cells.
    """
    pts = np.asarray(points, dtype=np.float64)
    n, s = pts.shape
    cands = [np.unique(np.concatenate((pts[:, j], [0.0, 1.0]))) for j in range(s)]
    ranks = [np.searchsorted(c, pts[:, j]) for j, c in enumerate(cands)]
    rest = tuple(len(c) for c in cands[1:])
    block = max(1, block_cells // int(np.prod(rest)))
    plane_before = np.zeros(rest, dtype=np.int64)
    best = 0.0
    for a0 in range(0, len(cands[0]), block):
        a1 = min(a0 + block, len(cands[0]))
        hist = np.zeros((a1 - a0,) + rest, dtype=np.int64)
        inside = (ranks[0] >= a0) & (ranks[0] < a1)
        np.add.at(hist, (ranks[0][inside] - a0,) + tuple(r[inside] for r in ranks[1:]), 1)
        for axis in range(1, s):
            np.cumsum(hist, axis=axis, out=hist)
        np.cumsum(hist, axis=0, out=hist)
        closed = hist + plane_before
        shifted = np.concatenate((plane_before[None], closed[:-1]), axis=0)
        open_ = np.zeros_like(shifted)
        open_[(slice(None),) + (slice(1, None),) * (s - 1)] = shifted[
            (slice(None),) + (slice(None, -1),) * (s - 1)]
        vol = cands[0][a0:a1]
        for c in cands[1:]:
            vol = vol[..., None] * c
        best = max(best, float((closed / n - vol).max()), float((vol - open_ / n).max()))
        plane_before = closed[-1]
    return best


def ls_slope(xs, ys) -> tuple[float, float]:
    """Least-squares slope and r^2 of ys against xs, in closed form."""
    x = [float(v) for v in xs]
    y = [float(v) for v in ys]
    k = len(x)
    mx, my = sum(x) / k, sum(y) / k
    sxx = sum((a - mx) ** 2 for a in x)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    syy = sum((b - my) ** 2 for b in y)
    slope = sxy / sxx
    r2 = (sxy * sxy) / (sxx * syy) if syy else 1.0
    return slope, r2


def local_discrepancy(m: int, k: int, count: int) -> float:
    """Level-k local discrepancy of the indices 0..count-1.

    Index n belongs to the address (first k digits, letter) where the
    letter is one plus the run of ones starting at digit k.  An address
    with trailing run r below position k admits letters 1..m-r, and has
    measure phi^-(k + letter).
    """
    bits = digit_bits_table(m, count)
    keys = bits & ((1 << k) - 1)
    high = bits >> k
    run = np.zeros(count, dtype=np.int64)
    alive = np.ones(count, dtype=np.int64)
    for i in range(m):
        alive &= (high >> i) & 1
        run += alive
    counts = np.bincount(keys * m + run, minlength=(1 << k) * m)
    delta = 0.0
    for key in range(1 << k):
        digits = [(key >> j) & 1 for j in range(k)]
        longest = cur = 0
        for d in digits:
            cur = cur + 1 if d else 0
            longest = max(longest, cur)
        if longest >= m:
            continue
        r = 0
        while r < k and digits[k - 1 - r]:
            r += 1
        for letter in range(1, m - r + 1):
            lam = float(neg_power(m, k + letter))
            delta = max(delta, abs(int(counts[key * m + letter - 1]) / count - lam))
    return delta
