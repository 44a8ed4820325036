"""Sequence side of the correspondence: van der Corput and Halton values,
the level-k intervals of [0, 1) read off the digit codes, level-k subtile
addresses, and the star and local discrepancies of the van der Corput
sequence.

Counting never touches geometric boundaries: membership in a level-k
subtile is decided entirely from digit strings, which is exact where a
point-in-fractal test would be boundary-fragile.  Greedy codes keep the
order of n, so the count of n < N in each address, and below each x,
follows from the code of N alone (`letter_counts`, `star_discrepancy`).
The bulk routes read every n and check them: the counts of
`membership_counts`, and `vdc_values` sorted by `discrepancy.star_disc_1d`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mbonacci import numeration
from mbonacci.discrepancy import DiscrepancyReport
from mbonacci.numeration import (
    MBonacciSystem,
    decode,
    digit_codes,
    encode,
    prefix_ranges,
    require_count,
)
from mbonacci.spectral import ROOT_BITS, neg_powers


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
    The blocks are `numeration.BLOCK` values long.  A block's sum goes
    straight into `hi`, the only array of full length, and its low part
    into `lo`.  Range j reads low parts only below stop - F_j (see
    `prefix_ranges`), so `lo` holds the read horizon, the longest range's
    length, and a low part at or past it goes to a third block buffer;
    the one block that straddles the horizon is copied back into `lo`.
    The other intermediates go through two more such buffers, all three
    allocated once per call.
    """
    block = numeration.BLOCK
    ranges = prefix_ranges(sys, count)
    horizon = max((stop - start for _, start, stop in ranges), default=0)
    hi = np.zeros(count)
    lo = np.zeros(horizon)
    s_buf = np.empty(min(block, count))
    t_buf = np.empty_like(s_buf)
    u_buf = np.empty_like(s_buf)
    for j, start, stop in ranges:
        p_hi, p_lo = sys.neg_power_parts[j]
        for a in range(start, stop, block):
            b = min(a + block, stop)
            # the block read ends before hi[a:b] (see `prefix_ranges`), so
            # out_hi may be written before b_hi is read
            b_hi, b_lo = hi[a - start:b - start], lo[a - start:b - start]
            out_hi = hi[a:b]
            out_lo = lo[a:b] if b <= horizon else u_buf[:b - a]
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
            if a < horizon < b:
                lo[a:] = out_lo[:horizon - a]
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


def letter_totals(sys: MBonacciSystem, k: int) -> list[int]:
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
    address, and one `np.unique` over it counts them all.  This is the
    bulk route: it reads the code of every n < N, in O(N) time and
    memory, where `letter_counts` reads the code of N alone.  A level past
    len(sys.basis) - m is refused before any digit is read.
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


def letter_counts(sys: MBonacciSystem, k: int, N: int) -> list[tuple[int, int]]:
    """Per letter l = 1..m, the pair (Q_l, A_l): each of the
    `letter_totals` letter-l addresses at level k holds Q_l or Q_l + 1 of
    the n < N, and A_l of them hold Q_l + 1.

    Greedy codes keep the order of n (Parry, 1960), so n < N exactly when
    code(n) < C = code(N).  The address (key, l) fixes the low k + l
    digits to P = key + (2^(l-1) - 1) 2^k, whose top digit k + l - 1 is
    0, so any admissible high part H may sit above P.  Its count is the
    number of H below C >> (k + l), Q_l = decode(C >> (k + l)), plus
    [P < L] for L = C mod 2^(k+l).  That holds for every key when digit
    k + l - 1 of C is 1.  When it is 0 and digits k..k+l-2 are ones, it
    holds for the keys below the low k digits of C, whose decode counts
    them: none has a longer run of ones than C's, so all take letter l.
    Otherwise it holds for no key.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    _require_level(sys, k)
    require_count(N)
    code = encode(sys, N)
    below = decode(sys, code & ((1 << k) - 1))
    pairs = []
    for l, total in enumerate(letter_totals(sys, k), start=1):
        digits = code >> k & ((1 << l) - 1)
        if digits >> (l - 1):
            above = total
        elif digits == (1 << (l - 1)) - 1:
            above = below
        else:
            above = 0
        pairs.append((decode(sys, code >> (k + l)), above))
    return pairs


def star_discrepancy(sys: MBonacciSystem, N: int) -> DiscrepancyReport:
    """Star discrepancy D*_N of the first N van der Corput values, read off
    C = code(N) alone and correctly rounded.

    Greedy codes keep the order of n, and the values follow their digit
    strings read from digit 0.  So [0, x) is the disjoint union, over the
    ones j of x, of the intervals of measure phi^-(j+1) whose strings agree
    with x below j and hold 0 at j.  As in `letter_counts`, the one at j
    holds decode(C >> (j+1)) + [x mod 2^j < C mod 2^(j+1)] of the n < N, so
    A([0, x)) - N x is a sum over the ones of x of those counts less N
    phi^-(j+1).  A walk over the digit positions keeps its max and min per
    state (the run of ones below j, shorter than m, and the flag [x mod 2^j
    < C mod 2^j]): 2m states per digit.  The max side adds 1 at the end
    when the flag holds, as x is then the value of some n < N and the sup
    is the limit from its right.  The weights are integers at
    ROOT_BITS + len(basis) fraction bits, and the one division by N 2^bits
    rounds correctly.  Nothing of size N is built.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    require_count(N)
    code = encode(sys, N)
    bits = ROOT_BITS + len(sys.basis)
    one = 1 << bits
    # (run of ones, flag) -> (max, min) over the strings x mod 2^j in that state
    states = {(0, 0): (0, 0)}
    for j, power in enumerate(neg_powers(sys.phi, len(sys.basis), bits)):
        digit = code >> j & 1
        weight = decode(sys, code >> (j + 1)) * one - N * power
        after: dict[tuple[int, int], tuple[int, int]] = {}
        for (run, below), (hi, lo) in states.items():
            moves = [((0, below | digit), 0)]
            if run + 1 < sys.m:
                moves.append(((run + 1, below & digit), weight + (below | digit) * one))
            for key, w in moves:
                a_hi, a_lo = after.get(key, (hi + w, lo + w))
                after[key] = max(a_hi, hi + w), min(a_lo, lo + w)
        states = after
    top = max(hi + below * one for (_, below), (hi, _) in states.items())
    bottom = min(lo for _, lo in states.values())
    return DiscrepancyReport(N=N, s=1, value=max(top, -bottom) / (N * one), method="exact1d")


def local_discrepancy(sys: MBonacciSystem, k: int, N: int) -> float:
    """Worst deviation, over level-k addresses, of the empirical index
    frequency from the subtile measure phi^-(k + letter).

    An address that holds c of the n < N deviates by |c/N - phi^-(k +
    letter)|, and per letter only the two counts of `letter_counts` occur,
    so the cost does not grow with N.
    """
    delta = 0.0
    pairs = zip(letter_counts(sys, k, N), letter_totals(sys, k))
    for l, ((q, above), total) in enumerate(pairs, start=1):
        measure = sys.neg_power(k + l)
        if above < total:
            delta = max(delta, abs(q / N - measure))
        if above:
            delta = max(delta, abs((q + 1) / N - measure))
    return delta
