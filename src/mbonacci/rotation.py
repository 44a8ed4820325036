"""Sequence side of the correspondence: van der Corput and Halton values,
the level-k intervals of [0, 1) read off the digit codes, level-k subtile
addresses, and local discrepancies.

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
    The block's sum goes straight into `hi`, the only array of full
    length, and its low part into `lo`.  No range reads a low part at or
    past the start F of the last range (see `prefix_ranges`), so `lo`
    holds F values and the last range's low parts go to a third block
    buffer.  The other intermediates go through two more such buffers;
    all three are allocated once, so no block allocates: in a fresh
    interpreter glibc maps every temporary above 128 KB on its own, and
    each would fault in page by page.
    """
    ranges = prefix_ranges(sys, count)
    last = ranges[-1][1] if ranges else 0
    hi = np.zeros(count)
    lo = np.zeros(last)
    s_buf = np.empty(min(_FILL_BLOCK, count))
    t_buf = np.empty_like(s_buf)
    u_buf = np.empty_like(s_buf)
    for j, start, stop in ranges:
        p_hi, p_lo = sys.neg_power_parts[j]
        for a in range(start, stop, _FILL_BLOCK):
            b = min(a + _FILL_BLOCK, stop)
            # the block read ends before hi[a:b] (see `prefix_ranges`), so
            # out_hi may be written before b_hi is read
            b_hi, b_lo = hi[a - start:b - start], lo[a - start:b - start]
            out_hi = hi[a:b]
            out_lo = lo[a:b] if start < last else u_buf[:b - a]
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


def _require_level(sys: MBonacciSystem, k: int) -> None:
    """Refuse a level past len(sys.basis) - m, the deepest one whose basis
    term F_k and root powers phi^-(k + i), i <= m, the system holds."""
    limit = len(sys.basis) - sys.m
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k > limit:
        raise ValueError(f"k={k} past {limit}, the deepest level the basis covers")


def level_intervals(sys: MBonacciSystem, k: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The level-k interval of each n < N, as two int64 arrays: the index
    n_k < F_k whose code is the low k digits of n's, and the run r of ones
    at digits k-1, k-2, ....  The interval holds the van der Corput values
    with those low digits: it starts at vdc(n_k), so the F_k intervals
    start at `vdc_values(sys, F_k)`, and has length sum(phi^-(k+i),
    i <= m - r).  Codes increase with n, and below F_k a code is its own
    low k digits, so n_k is the rank of the masked code among them.
    """
    _require_level(sys, k)
    code = digit_codes(sys, N)
    code &= (1 << k) - 1
    r = np.zeros(N, dtype=np.int64)
    alive = np.ones(N, dtype=bool)
    for i in range(1, min(k, sys.m - 1) + 1):
        alive &= ((code >> (k - i)) & 1) == 1
        r += alive
    return np.searchsorted(code[:sys.basis[k]], code), r


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
    _require_level(sys, k)
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
