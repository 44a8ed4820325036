"""Linear-algebraic backbone: dominant root, incidence matrix, the
projection along the expanding eigenvector, and the lattice-coordinate
form of the contracting projection.

All geometry downstream lives in coordinates with respect to the lattice
basis pi(e_1 - e_2), ..., pi(e_1 - e_m) of the contracting hyperplane,
where pi projects R^m along the expanding eigenvector.  In these
coordinates the lattice is Z^{m-1}, so reduction mod the lattice is an
ordinary fractional part and the digit-to-rotation correspondence becomes
the rotation by (phi^-2, ..., phi^-m) on the standard torus.
"""

from __future__ import annotations

import numpy as np

# fraction bits of the fixed-point root and of its powers
ROOT_BITS = 256

# exact integer-times-float products in the helpers below need n < 2^26
MAX_PRECISE_INDEX = 1 << 26


def dominant_root(m: int) -> int:
    """floor(phi * 2^ROOT_BITS) for the root phi of x^m = x^{m-1} + ... + x + 1
    in (1, 2), by bisection on integers.

    Horner's rule gives the sign of x^m - x^{m-1} - ... - 1 at
    x = mid / 2^ROOT_BITS exactly; it is negative on [1, phi) and positive
    on (phi, 2].  As phi is irrational, the lower end of the last bracket
    is the floor.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    lo, hi = 1 << ROOT_BITS, 2 << ROOT_BITS
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        value = 1
        for i in range(1, m + 1):
            value = value * mid - (1 << (ROOT_BITS * i))
        if value < 0:
            lo = mid
        else:
            hi = mid
    return lo


def neg_powers(root: int, count: int, bits: int) -> list[int]:
    """floor(phi^-j * 2^bits) for j = 1..count, from the fixed-point root.

    Each is off by a relative error of about j * 2^-ROOT_BITS, plus j
    units of the last bit: with bits >= ROOT_BITS + count, over 100 bits
    below the last bit of a double-double phi^-j.
    """
    inv = (1 << (ROOT_BITS + bits)) // root
    out = [inv]
    for _ in range(count - 1):
        out.append((out[-1] * inv) >> bits)
    return out


def substitution_images(m: int) -> tuple[tuple[int, ...], ...]:
    """Images of letters 1..m: i -> (1, i+1) for i < m, m -> (1,)."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    return tuple((1, i + 1) if i < m else (1,) for i in range(1, m + 1))


def incidence_matrix(m: int) -> np.ndarray:
    """Letter-count matrix: entry (i, j) counts letter i+1 in the image of j+1."""
    images = substitution_images(m)
    mat = np.zeros((m, m), dtype=np.int64)
    for j, word in enumerate(images):
        for letter in word:
            mat[letter - 1, j] += 1
    return mat


def ambient_projection(sys) -> np.ndarray:
    """Matrix of the projection of R^m along the expanding eigenvector
    onto the contracting hyperplane: P = I - u v^T / (v . u).

    u is the right eigenvector phi^-1, ..., phi^-m, read from the
    system's root powers; v is the left eigenvector 1, phi - 1, ...,
    built in the fixed point of the root.
    """
    m = sys.m
    u = sys.neg_power_parts[:m, 0]
    one = 1 << ROOT_BITS
    left = [one]
    for _ in range(m - 1):
        left.append((sys.phi * left[-1] >> ROOT_BITS) - one)
    v = np.array([x / one for x in left])
    return np.eye(m) - np.outer(u, v) / float(v @ u)


def reduce_array(coords: np.ndarray) -> np.ndarray:
    """Torus reduction of a coordinate array of any shape: the fractional
    part, with a value landing exactly on 1.0 mapped to 0.0."""
    frac = coords - np.floor(coords)
    frac[frac >= 1.0] = 0.0
    return frac


def torus_distance(a, b) -> float:
    """Max-metric distance on the torus (coordinates wrapped mod 1)."""
    d = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)) % 1.0
    return float(np.max(np.minimum(d, 1.0 - d))) if d.size else 0.0


def lattice_coords(m: int, phi: float, x) -> np.ndarray:
    """Coordinates of the projected integer vector x in the lattice basis.

    Writing pi for the projection along the expanding eigenvector and
    b_{i-1} = pi(e_1 - e_i), the identity pi(e_1) = sum_i phi^-i b_{i-1}
    (i = 2..m) combines with pi(e_i) = pi(e_1) - b_{i-1} and linearity to
    give coordinate i-1 of pi(x) as (sum_j x_j) phi^-i - x_i.  No linear
    system is solved per point.
    """
    x = list(x)
    if len(x) != m:
        raise ValueError(f"x must have length m={m}")
    total = sum(x)
    phi = float(phi)
    powers = np.array([phi ** -i for i in range(2, m + 1)])
    return total * powers - np.array(x[1:], dtype=np.float64)


def contraction_matrix(m: int, phi: float) -> np.ndarray:
    """Action of the incidence matrix on the contracting hyperplane,
    written in lattice-basis coordinates.

    The incidence matrix sends b_{i-1} = pi(e_1 - e_i) to pi(e_2 - e_{i+1})
    = b_i - b_1 for i < m, and b_{m-1} to pi(e_2) = pi(e_1) - b_1, with
    pi(e_1) expanded via lattice_coords.  The result contracts by phi^-1
    up to a bounded change of basis.
    """
    mat = np.zeros((m - 1, m - 1))
    for i in range(2, m):
        mat[0, i - 2] = -1.0
        mat[i - 1, i - 2] = 1.0
    e1 = lattice_coords(m, phi, [1] + [0] * (m - 1))
    mat[:, m - 2] = e1
    mat[0, m - 2] -= 1.0
    return mat


def rotation_point(systems, n: int) -> np.ndarray:
    """Concatenated rotation orbit point: frac(n * (phi^-2..phi^-m)) per
    system, each block evaluated from n directly in the fixed point of the
    root."""
    if n < 0:
        raise ValueError("n must be a natural number")
    one = 1 << ROOT_BITS
    out: list[float] = []
    for sys_i in systems:
        out.extend((n * p) % one / one for p in neg_powers(sys_i.phi, sys_i.m, ROOT_BITS)[1:])
    return reduce_array(np.array(out))


# ---------------------------------------------------------------------------
# split arithmetic for bulk orbits: n * alpha - integer, accurate to a
# few float64 ulps for n < 2^26
# ---------------------------------------------------------------------------

def veltkamp_split(x):
    """x as hi + lo exactly, each half of at most 26 significant bits, so
    products of halves are exact (Veltkamp's split by 2^27 + 1, for
    Dekker's products); x may be a float or an array."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def precise_multiples_minus(ns: np.ndarray, hi: float, lo: float, subtract: np.ndarray,
                            out: np.ndarray | None = None) -> np.ndarray:
    """n * (hi + lo) - subtract, with the dominant product kept exact;
    written into `out` when it is given."""
    if ns.size and int(ns.max()) >= MAX_PRECISE_INDEX:
        raise ValueError("index too large for the exact-product fast path")
    hi1, hi2 = veltkamp_split(hi)
    nf = np.asarray(ns, dtype=np.float64)
    out = np.multiply(nf, hi1, out=out)
    out -= subtract
    out += nf * hi2
    out += nf * lo
    return out
