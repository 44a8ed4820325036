"""Independent oracles used across the test modules, and a runner for
measurements that need a fresh interpreter.

Everything here recomputes expectations by brute force or enumeration so
the tests never trust the code path they are checking.
"""

import os
import subprocess
import sys

import mpmath
import numpy as np

import mbonacci
from mbonacci.rotation import subtile_of
from mbonacci.verify import naive_star_disc  # noqa: F401  (shared brute-force oracle)


def run_fresh(script: str) -> str:
    """Standard output of `script` run in a fresh interpreter on this
    mbonacci with one BLAS thread.  Page faults and first imports are
    measured there: the test process has long since grown its heap and
    loaded every module."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mbonacci.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True).stdout


def brute_force_expansions(basis, m, total, max_len):
    """All admissible digit codes of at most `max_len` digits, bit j
    holding digit j, whose set bits pick basis terms summing to `total`."""
    found = []

    def rec(pos, remaining, code, run):
        if pos == max_len:
            if remaining == 0:
                found.append(code)
            return
        rec(pos + 1, remaining, code, 0)
        if run < m - 1 and basis[pos] <= remaining:
            rec(pos + 1, remaining - basis[pos], code | 1 << pos, run + 1)

    rec(0, total, 0, 0)
    return found


def count_admissible_bruteforce(m: int, k: int) -> int:
    """Number of binary strings of length k without m consecutive ones,
    counted by enumerating all 2^k strings."""
    if k == 0:
        return 1
    values = np.arange(1 << k, dtype=np.uint32)
    bits = (values[:, None] >> np.arange(k)[None, :]) & 1
    run = np.zeros(len(values), dtype=np.int32)
    worst = np.zeros(len(values), dtype=np.int32)
    for j in range(k):
        run = (run + 1) * bits[:, j].astype(np.int32)
        np.maximum(worst, run, out=worst)
    return int(np.count_nonzero(worst < m))


def level_addresses(m: int, k: int) -> list[tuple[int, int]]:
    """Every level-k address as a (key, letter) pair: each admissible
    k-digit string as a key, bit j holding digit j, with the terminal
    letters 1..m-r after its trailing run r of ones."""
    strings = [(0, 0)]
    for j in range(k):
        nxt = []
        for key, run in strings:
            nxt.append((key, 0))
            if run < m - 1:
                nxt.append((key | 1 << j, run + 1))
        strings = nxt
    return [(key, letter) for key, run in strings for letter in range(1, m - run + 1)]


def local_discrepancy(sys, k: int, N: int) -> float:
    """Level-k local discrepancy by enumeration: every address, visited or
    not, against the count of n < N that `subtile_of` puts there."""
    counts = dict.fromkeys(level_addresses(sys.m, k), 0)
    for n in range(N):
        a = subtile_of(sys, n, k)
        counts[a.key, a.letter] += 1
    return max(abs(c / N - sys.neg_power(k + letter)) for (_, letter), c in counts.items())


def root_mpmath(m: int, bits: int = 200):
    """The dominant root to `bits` bits, by plain bisection on mpf values
    at `bits` + 16 bits of working precision."""
    with mpmath.workprec(bits + 16):
        lo, hi = mpmath.mpf(1), mpmath.mpf(2)
        for _ in range(bits + 8):
            mid = (lo + hi) / 2
            if mid ** m < sum(mid ** j for j in range(m)):
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def vdc_mpmath(m: int, basis, ns, bits: int = 200):
    """Exact-to-`bits` van der Corput values: the dominant root by
    bisection, the greedy digits by integer subtraction over `basis`."""
    phi = root_mpmath(m, bits)
    with mpmath.workprec(bits + 16):
        inv = 1 / phi
        powers = [inv ** (j + 1) for j in range(len(basis))]
        out = []
        for n in ns:
            rem, terms = int(n), []
            for j in range(len(basis) - 1, -1, -1):
                if basis[j] <= rem:
                    rem -= basis[j]
                    terms.append(powers[j])
            assert rem == 0
            out.append(mpmath.fsum(terms))
        return out


def ulp_error(got: float, exact) -> float:
    """|got - exact| in units of the float64 ulp at `exact`."""
    if exact == 0:
        return 0.0 if got == 0.0 else float("inf")
    _, exp = mpmath.frexp(exact)  # exact = mantissa * 2^exp, mantissa in [0.5, 1)
    return float(abs(mpmath.mpf(got) - exact) / mpmath.ldexp(1, exp - 53))


def assert_same_lines(got: str, want: str) -> None:
    """`got == want` for long texts, reporting the first differing line
    (pytest's own diff of two texts of 10^4 lines takes minutes)."""
    if got != want:
        got, want = got.split("\n"), want.split("\n")
        i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                 min(len(got), len(want)))
        raise AssertionError(f"line {i}: {got[i:i + 1]} != {want[i:i + 1]}")
