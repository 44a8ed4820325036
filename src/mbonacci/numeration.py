"""Exact integer arithmetic for the m-bonacci number system.

The basis starts with powers of two (F_0 .. F_{m-1} = 1, 2, ..., 2^{m-1})
and continues with sums of the previous m terms.  Every natural number has
a unique greedy expansion over this basis whose binary digit string never
contains m consecutive ones.  Both the scalar and the bulk paths hold it as
one integer code, bit j holding digit j.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice

import numpy as np

from mbonacci.spectral import MAX_PRECISE_INDEX, ROOT_BITS, dominant_root, neg_powers

# Hard cap on basis length; loud failure beats a runaway allocation.
_MAX_BASIS_TERMS = 512


def _basis_terms(m: int):
    """The basis terms in order, without end, as exact integers."""
    terms: list[int] = []
    while True:
        k = len(terms)
        terms.append(1 << k if k < m else sum(terms[k - m:]))
        yield terms[k]


def basis_prefix(m: int, count: int) -> list[int]:
    """First `count` basis terms as exact integers."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > _MAX_BASIS_TERMS:
        raise ValueError(f"basis of {count} terms exceeds the cap of {_MAX_BASIS_TERMS}")
    return list(islice(_basis_terms(m), count))


@dataclass(frozen=True, eq=False)
class MBonacciSystem:
    """Numeration context: basis terms, dominant root, cached root powers.

    Immutable after construction; all operations on it are pure functions.
    `phi` is the root in fixed point, the integer floor(phi * 2^ROOT_BITS),
    and `phi_float` its float64 rounding.  `neg_power_parts[j]` holds the
    correctly rounded (hi, lo) float64 pair of phi**-(j+1): hi is the
    nearest float to it and lo the nearest float to the rest.  The
    vectorised fractional-part helpers use these pairs.
    """

    m: int
    basis: tuple[int, ...]
    phi: int
    phi_float: float
    neg_power_parts: np.ndarray

    def neg_power(self, j: int) -> float:
        """phi**-j as float64 (j >= 1)."""
        if not 1 <= j <= len(self.neg_power_parts):
            raise ValueError(f"power {j} beyond the cached range 1..{len(self.neg_power_parts)}")
        return float(self.neg_power_parts[j - 1, 0])


def make_system(m: int, max_n: int = MAX_PRECISE_INDEX) -> MBonacciSystem:
    """Numeration context for m: the basis runs m + 2 terms past the first
    term above max(max_n, MAX_PRECISE_INDEX), past every index `require_count`
    admits, so root powers exist beyond the digit range."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    top = max(max_n, MAX_PRECISE_INDEX)
    terms: list[int] = []
    for term in _basis_terms(m):
        terms.append(term)
        if len(terms) > m + 2 and terms[-m - 3] > top:
            break
        if len(terms) == _MAX_BASIS_TERMS:
            # only `expand` asks past the default coverage, for its n
            need = f"n = {max_n}" if max_n > MAX_PRECISE_INDEX else f"m = {m}"
            raise ValueError(f"basis overflow: {need} needs more basis terms than the "
                             f"cap of {_MAX_BASIS_TERMS}")

    phi = dominant_root(m)
    # phi^-j >= 2^-j, so every power keeps ROOT_BITS significant bits
    bits = ROOT_BITS + len(terms)
    one = 1 << bits
    parts = np.empty((len(terms), 2), dtype=np.float64)
    for j, p in enumerate(neg_powers(phi, len(terms), bits)):
        # int / int rounds correctly, and hi * 2^bits is an exact integer
        hi = p / one
        parts[j] = hi, (p - int(hi * one)) / one
    parts.setflags(write=False)
    return MBonacciSystem(
        m=m,
        basis=tuple(terms),
        phi=phi,
        phi_float=phi / (1 << ROOT_BITS),
        neg_power_parts=parts,
    )


def encode(sys: MBonacciSystem, n: int) -> int:
    """Greedy digit code of n, bit j holding digit j, as in `digit_codes`:
    repeatedly subtract the largest basis term."""
    if n < 0:
        raise ValueError("n must be a natural number")
    if n >= sys.basis[-1]:
        raise ValueError(f"n={n} exceeds basis coverage (largest term {sys.basis[-1]})")
    code = 0
    rem = n
    for j in range(bisect_right(sys.basis, n) - 1, -1, -1):
        if sys.basis[j] <= rem:
            code |= 1 << j
            rem -= sys.basis[j]
    assert rem == 0
    return code


def decode(sys: MBonacciSystem, code: int) -> int:
    """Value of an admissible digit code: the sum of the basis terms at its
    set bits."""
    if code < 0:
        raise ValueError(f"negative digit code {code}")
    if code.bit_length() > len(sys.basis):
        raise ValueError(f"digit code {code:b} wider than the {len(sys.basis)}-term basis")
    if not is_admissible(sys.m, code):
        raise ValueError(f"inadmissible digit code for m={sys.m}: {code:b}")
    return sum(f for j, f in enumerate(sys.basis) if code >> j & 1)


def is_admissible(m: int, code):
    """True iff the code has no run of m consecutive one bits; on an int64
    array of codes, the same test per element."""
    run = code
    for i in range(1, m):
        run = run & (code >> i)
    return run == 0


# ---------------------------------------------------------------------------
# bulk paths (vectorised; used by measurement runs over large n ranges)
# ---------------------------------------------------------------------------

def require_count(count: int) -> None:
    """Refuse a count past the exact-index range before allocating for it."""
    if count > MAX_PRECISE_INDEX:
        raise ValueError(f"count {count} above the limit 2^26 = {MAX_PRECISE_INDEX}")


def prefix_ranges(sys: MBonacciSystem, count: int) -> list[tuple[int, int, int]]:
    """The prefix-doubling walk over 0..count-1: (j, F_j, min(F_{j+1}, count))
    for every digit position j with F_j < count.

    For F_j <= n < F_{j+1} the greedy expansion of n is the digit at j
    plus the expansion of n - F_j < F_j, so a bulk fill sets position j
    on n and copies the rest from n - F_j.  As F_{j+1} <= 2 F_j, the
    range read, [0, stop - F_j), never overlaps the range written.
    """
    require_count(count)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return [(j, start, min(stop, count))
            for j, (start, stop) in enumerate(zip(sys.basis, sys.basis[1:]))
            if start < count]


def digit_codes(sys: MBonacciSystem, count: int) -> np.ndarray:
    """Greedy digits of 0..count-1 as int64 codes, bit j holding digit j.

    Below the 2^26 count cap the top digit is bit 37 (m = 2), so one int64
    holds every digit.
    """
    ranges = prefix_ranges(sys, count)
    code = np.zeros(count, dtype=np.int64)
    for j, start, stop in ranges:
        np.bitwise_or(code[:stop - start], 1 << j, out=code[start:stop])
    return code


def digit_matrix(sys: MBonacciSystem, count: int) -> np.ndarray:
    """The codes of `digit_codes` unpacked into a uint8 matrix: row n holds
    the little-endian digits of n, zero past its expansion."""
    width = bisect_right(sys.basis, count - 1)
    octets = digit_codes(sys, count).astype("<i8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=width, bitorder="little")
