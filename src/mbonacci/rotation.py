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


# elements per double-double pass of the prefix fill; each pass writes
# through two scratch buffers of this many doubles, allocated once per call
_FILL_BLOCK = 1 << 15


def vdc_values(sys: MBonacciSystem, count: int) -> np.ndarray:
    """Van der Corput values of 0..count-1.

    Each value is a double-double sum of the (hi, lo) root powers rounded
    once to float64, so it is within half an ulp (plus about 2^-100
    relative) of the exact value: correctly rounded except next to a
    rounding tie.

    The values are filled in O(count) by prefix doubling (see
    `numeration.prefix_ranges`): vdc(n) = phi^-(j+1) + vdc(n - F_j) for
    F_j <= n < F_{j+1}.  Each block adds the power (p_hi, p_lo) to a
    block of earlier values (b_hi, b_lo) in double-double: Knuth's
    two-sum of the high parts, the low parts added to its error, then a
    fast renormalisation (the sum is positive and dominates its error).
    The block's sum and low part go straight into `hi` and `lo`, and the
    other intermediates through two buffers allocated once, so no block
    allocates: in a fresh interpreter glibc maps every temporary above
    128 KB on its own, and each would fault in page by page.
    """
    ranges = prefix_ranges(sys, count)
    hi = np.zeros(count)
    lo = np.zeros(count)
    s_buf = np.empty(min(_FILL_BLOCK, count))
    t_buf = np.empty_like(s_buf)
    for j, start, stop in ranges:
        p_hi, p_lo = sys.neg_power_parts[j]
        for a in range(start, stop, _FILL_BLOCK):
            b = min(a + _FILL_BLOCK, stop)
            # the block read ends before hi[a:b] (see `prefix_ranges`), so
            # out_hi may be written before b_hi is read
            b_hi, b_lo = hi[a - start:b - start], lo[a - start:b - start]
            out_hi, out_lo = hi[a:b], lo[a:b]
            s, t = s_buf[:b - a], t_buf[:b - a]
            np.add(p_hi, b_hi, out=s)
            np.subtract(s, p_hi, out=t)
            np.subtract(s, t, out=out_hi)          # the error of s,
            np.subtract(p_hi, out_hi, out=out_hi)  # (p_hi - (s - t))
            np.subtract(b_hi, t, out=t)            # + (b_hi - t),
            out_hi += t
            np.add(p_lo, b_lo, out=out_lo)         # plus (p_lo + b_lo),
            np.add(out_hi, out_lo, out=t)          # is the new t
            np.add(s, t, out=out_hi)
            np.subtract(out_hi, s, out=out_lo)     # lo = t - (hi - s)
            np.subtract(t, out_lo, out=out_lo)
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

    `key` holds the first k digits, bit j holding digit j, as
    `membership_counts` names addresses.  `trailing_ones` is the length r
    of the all-ones digit run just below position k; letters 1..m-r are
    the admissible terminal letters at this digit prefix.
    """

    key: int
    letter: int
    trailing_ones: int


def subtile_of(sys: MBonacciSystem, n: int, k: int) -> SubtileAddress:
    """Address of the level-k subtile containing the orbit point of n.

    The key is the low k bits of the greedy code, r the run of ones at
    positions k-1, k-2, ..., and the terminal letter one plus the run of
    ones from position k.  Every n has exactly one address per level, so
    these memberships partition the index range.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    code = encode(sys, n)
    key = code & ((1 << k) - 1)
    r = 0
    while r < k and key >> (k - 1 - r) & 1:
        r += 1
    letter = 1
    while code >> (k + letter - 1) & 1:
        letter += 1
    assert letter <= sys.m - r
    return SubtileAddress(key=key, letter=letter, trailing_ones=r)


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
        if addr.key >> (k - 1 - j) & 1:
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
    intervals = [interval_for(sys, n, k) for n in range(count)]
    intervals.sort(key=lambda iv: iv.left)
    return intervals


def _letter_totals(sys: MBonacciSystem, k: int) -> list[int]:
    """Number of level-k addresses with letter i, for i = 1..m.

    A k-digit string whose trailing run of ones has length r < k is an
    admissible (k-r-1)-digit string followed by 0 1^r, so there are
    F_{k-r-1} of them; the all-ones string (r = k) is one more.  Letter i
    is admissible after every run r <= m - i.
    """
    per_run = [sys.basis[k - r - 1] if r < k else 1 for r in range(min(sys.m - 1, k) + 1)]
    return [sum(per_run[:sys.m - i + 1]) for i in range(1, sys.m + 1)]


def membership_counts(sys: MBonacciSystem, k: int,
                      N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The level-k addresses that some n < N visits, as three arrays
    sorted by address: the key sum(d_j << j, j < k) of the low k greedy
    digits of n, the letter, and the count of n.

    The letter is one more than the run of ones from digit k, which is
    shorter than m in an admissible code; so key * m + letter - 1 names an
    address, and one `np.unique` over it counts them all.  Up to level
    len(sys.basis) - m the system holds every basis term and root power
    that `_letter_totals` and the subtile measures read; a deeper level is
    refused before any digit is read.
    """
    limit = len(sys.basis) - sys.m
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k > limit:
        raise ValueError(f"k={k} past {limit}, the deepest level the basis covers")
    code = digit_codes(sys, N)
    top = code >> k
    code &= (1 << k) - 1
    code *= sys.m
    # bit 0 of top is set while the run of ones from digit k goes on
    for _ in range(sys.m - 1):
        code += top & 1
        top &= top >> 1
    del top  # before np.unique sorts a copy of the codes
    combined, counts = np.unique(code, return_counts=True)
    return combined // sys.m, combined % sys.m + 1, counts


def local_discrepancy(sys: MBonacciSystem, k: int, N: int) -> float:
    """Worst deviation, over level-k addresses, of the empirical index
    frequency from the subtile measure phi^-(k + letter).

    A visited address deviates by |c/N - phi^-(k + letter)|, an unvisited
    one by its whole measure; so each letter with fewer visited addresses
    than `_letter_totals` counts adds phi^-(k + letter).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    _, letters, counts = membership_counts(sys, k, N)
    delta = float(np.abs(counts / N - sys.neg_power_parts[k + letters - 1, 0]).max())
    visited = np.bincount(letters, minlength=sys.m + 1)[1:]
    for i, (seen, total) in enumerate(zip(visited.tolist(), _letter_totals(sys, k)), start=1):
        if seen < total:
            delta = max(delta, sys.neg_power(k + i))
    return delta
