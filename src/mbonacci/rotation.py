"""Sequence side of the correspondence: van der Corput and Halton values,
the level-k interval partitions, level-k subtile addresses, and local
discrepancies.

Counting never touches geometric boundaries: membership in a level-k
subtile is decided entirely from digit strings, which is exact where a
point-in-fractal test would be boundary-fragile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mbonacci.numeration import MBonacciSystem, digit_codes, encode, prefix_ranges, require_count

DEFAULT_LEVEL_CAP = 10


def _dd_add(a_hi, a_lo, b_hi, b_lo):
    """(a_hi + a_lo) + (b_hi + b_lo) in double-double, as a (hi, lo) pair.

    Knuth's two-sum of the high parts, the low parts added to its error,
    then a fast renormalisation (the sum is positive and dominates its
    error).  Works on floats and on arrays alike.  Adding (0, 0) returns
    a normalised pair unchanged.
    """
    s = a_hi + b_hi
    t = s - a_hi
    t = (a_hi - (s - t)) + (b_hi - t) + (a_lo + b_lo)
    hi = s + t
    return hi, t - (hi - s)


def vdc(sys: MBonacciSystem, n: int) -> float:
    """Digit-mirrored value sum(eps_j * phi^-(j+1)) in [0, 1).

    The powers of the greedy digits are added from the lowest position
    up, as `vdc_values` adds them, so the two agree bit for bit.
    """
    hi = lo = 0.0
    for (p_hi, p_lo), d in zip(sys.neg_power_parts.tolist(), encode(sys, n).digits):
        if d:
            hi, lo = _dd_add(p_hi, p_lo, hi, lo)
    return hi


# elements per double-double pass of the prefix fill; keeps the
# temporaries small
_FILL_BLOCK = 1 << 15


def vdc_values(sys: MBonacciSystem, count: int) -> np.ndarray:
    """Van der Corput values of 0..count-1.

    Each value is a double-double sum of the (hi, lo) root powers rounded
    once to float64, so it is within half an ulp (plus about 2^-100
    relative) of the exact value: correctly rounded except next to a
    rounding tie.

    The values are filled in O(count) by prefix doubling (see
    `numeration.prefix_ranges`): vdc(n) = phi^-(j+1) + vdc(n - F_j) for
    F_j <= n < F_{j+1}.
    """
    ranges = prefix_ranges(sys, count)
    hi = np.zeros(count)
    lo = np.zeros(count)
    for j, start, stop in ranges:
        p_hi, p_lo = sys.neg_power_parts[j]
        for a in range(start, stop, _FILL_BLOCK):
            b = min(a + _FILL_BLOCK, stop)
            hi[a:b], lo[a:b] = _dd_add(p_hi, p_lo, hi[a - start:b - start],
                                       lo[a - start:b - start])
    return hi


def halton_points(systems, count: int) -> np.ndarray:
    """(count, s) array of the first `count` Halton vectors, one column per
    system; the systems' m values must be pairwise distinct."""
    ms = [s.m for s in systems]
    if not ms:
        raise ValueError("at least one system required")
    if len(set(ms)) != len(ms):
        raise ValueError(f"m values must be pairwise distinct, got {ms}")
    require_count(count)
    pts = np.empty((count, len(ms)))
    for i, s in enumerate(systems):
        pts[:, i] = vdc_values(s, count)
    return pts


@dataclass(frozen=True)
class SubtileAddress:
    """Level-k subtile address: the first k digits plus a terminal letter.

    `trailing_ones` is the length r of the all-ones digit run just below
    position k; letters 1..m-r are the admissible terminal letters at this
    digit prefix.
    """

    m: int
    level: int
    digits: tuple[int, ...]
    letter: int
    trailing_ones: int


def subtile_of(sys: MBonacciSystem, n: int, k: int) -> SubtileAddress:
    """Address of the level-k subtile containing the orbit point of n.

    The digit prefix is the first k digits of the greedy expansion, r the
    run of ones at positions k-1, k-2, ..., and the terminal letter one
    plus the run of ones from position k.  Every n has exactly one
    address per level, so these memberships partition the index range.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    e = encode(sys, n)
    digits = (e.digits + (0,) * k)[:k]
    r = 0
    while r < k and digits[k - 1 - r]:
        r += 1
    letter = 1
    while e.digit(k + letter - 1):
        letter += 1
    assert letter <= sys.m - r
    return SubtileAddress(m=sys.m, level=k, digits=digits, letter=letter, trailing_ones=r)


@dataclass(frozen=True)
class CkInterval:
    """Level-k interval assigned to an index n.

    mu is the base-phi value of the reversed top-k digit block; r the
    trailing-ones run just below position k.  The interval is
    [mu, mu + phi^r - sum_{i<r} phi^i) scaled by phi^-k.
    """

    n: int
    k: int
    mu: float
    r: int
    left: float
    right: float

    @property
    def length(self) -> float:
        return self.right - self.left

    def contains(self, x: float, guard: float = 0.0) -> bool:
        return self.left - guard <= x < self.right + guard


def interval_for(sys: MBonacciSystem, n: int, k: int) -> CkInterval:
    addr = subtile_of(sys, n, k)
    phi = sys.phi_float
    pos = [1.0]
    for _ in range(k):
        pos.append(pos[-1] * phi)
    mu = 0.0
    for j in range(k):
        if addr.digits[k - 1 - j]:
            mu += pos[j]
    r = addr.trailing_ones
    width = pos[r] - sum(pos[i] for i in range(r))
    scale = sys.neg_power(k) if k else 1.0
    return CkInterval(n=n, k=k, mu=mu, r=r, left=mu * scale, right=(mu + width) * scale)


def partition_Ck(sys: MBonacciSystem, k: int) -> list[CkInterval]:
    """All F_k level-k intervals, sorted by left endpoint."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k >= len(sys.basis):
        raise ValueError("k beyond cached basis range")
    count = sys.basis[k] if k else 1
    if count - 1 >= sys.basis[-1]:
        raise ValueError("F_k exceeds system coverage; rebuild with larger max_n")
    intervals = [interval_for(sys, n, k) for n in range(count)]
    intervals.sort(key=lambda iv: iv.left)
    return intervals


def level_addresses(m: int, k: int) -> list[SubtileAddress]:
    """All valid level-k addresses: admissible k-digit strings, each with
    terminal letters 1..m-r."""
    if k < 0:
        raise ValueError("k must be >= 0")
    strings: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for _ in range(k):
        nxt: list[tuple[tuple[int, ...], int]] = []
        for s, run in strings:
            nxt.append((s + (0,), 0))
            if run < m - 1:
                nxt.append((s + (1,), run + 1))
        strings = nxt
    out: list[SubtileAddress] = []
    for s, run in strings:
        for letter in range(1, m - run + 1):
            out.append(SubtileAddress(m=m, level=k, digits=s, letter=letter,
                                      trailing_ones=run))
    return out


def _address_keys(sys: MBonacciSystem, k: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Level-k address of every n < N, read off its `digit_codes` code:
    the key sum(d_j << j, j < k) of its low k greedy digits, and its
    letter, one more than the run of ones from position k.

    The letter is the position of the lowest zero bit of code >> k plus
    one, read off as the binary exponent of that power of two.
    """
    code = digit_codes(sys, N)
    top = code >> k
    lowest_zero = (top + 1) & ~top
    letters = np.frexp(lowest_zero.astype(np.float64))[1]  # 2^t has exponent t + 1
    return code & ((1 << k) - 1), letters


def membership_counts(sys: MBonacciSystem, k: int, N: int) -> dict[tuple[tuple[int, ...], int], int]:
    """Counts of n < N per level-k address."""
    m = sys.m
    keys, letters = _address_keys(sys, k, N)
    combined = np.bincount(keys * m + (letters - 1), minlength=(1 << k) * m)
    counts: dict[tuple[tuple[int, ...], int], int] = {}
    for addr in level_addresses(m, k):
        key = sum(d << j for j, d in enumerate(addr.digits))
        counts[(addr.digits, addr.letter)] = int(combined[key * m + addr.letter - 1])
    return counts


def local_discrepancy(sys: MBonacciSystem, k: int, N: int) -> float:
    """Worst deviation, over level-k addresses, of the empirical index
    frequency from the subtile measure phi^-(k + letter)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k > DEFAULT_LEVEL_CAP:
        raise ValueError(f"k={k} above the enumeration cap {DEFAULT_LEVEL_CAP}")
    if N < 1:
        raise ValueError("N must be >= 1")
    counts = membership_counts(sys, k, N)
    delta = 0.0
    for (_, letter), cnt in counts.items():
        lam = sys.neg_power(k + letter)
        delta = max(delta, abs(cnt / N - lam))
    return delta
