"""The paper's identities as one registry of checks, run by the `verify`
CLI command and by the acceptance gate (`tests/test_acceptance.py`);
`reproduce-example` runs criteria 10 and 11.

`CHECKS` holds one entry per acceptance criterion.  A check asserts its
identity at quick scale (seconds) or full scale (the gate) and returns a
detail line.  A failed assertion or an error fails the check, and so does,
at full scale, a run over the check's time budget.  The checks recompute
expectations through independent routes (direct counting, scalar lattice
arithmetic, eigen-solvers, a naive discrepancy oracle, frozen values)
rather than calling back into the code path under test.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mbonacci import discrepancy, numeration, rauzy, rotation, spectral

MS = (2, 3, 4, 5, 6)


@dataclass(frozen=True)
class Check:
    number: int
    name: str
    run: Callable[[bool], str]  # full -> detail line; raises AssertionError on failure
    budget: float | None = None  # seconds allowed at full scale


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def naive_star_disc(points) -> float:
    """O(corners * N) brute-force corner enumeration of the star
    discrepancy: the oracle that `verify` and the tests hold the fast
    kernels to, kept independent of them."""
    pts = np.asarray(points, dtype=np.float64)
    n, s = pts.shape
    cands = [np.unique(np.concatenate((pts[:, j], [0.0, 1.0]))) for j in range(s)]
    grids = np.meshgrid(*cands, indexing="ij")
    corners = np.stack([g.ravel() for g in grids], axis=1)
    best = 0.0
    for chunk in np.array_split(corners, max(1, len(corners) // 20000)):
        lt = np.ones((len(chunk), n), dtype=bool)
        le = np.ones((len(chunk), n), dtype=bool)
        for j in range(s):
            lt &= pts[None, :, j] < chunk[:, None, j]
            le &= pts[None, :, j] <= chunk[:, None, j]
        vol = chunk.prod(1)
        best = max(best, float(np.max(vol - lt.sum(1) / n)),
                   float(np.max(le.sum(1) / n - vol)))
    return best


def _roundtrip(full: bool) -> str:
    # an admissible digit string that sums to n is n's greedy expansion
    # (it is unique), so these checks certify every code the bulk fill makes
    limit = 10 ** 6 if full else 10 ** 5
    for m in MS:
        sys = numeration.make_system(m)
        codes = numeration.digit_codes(sys, limit)
        total = np.zeros(limit, dtype=np.int64)
        rest = codes.copy()
        for f in sys.basis:
            total += (rest & 1) * f
            rest >>= 1
        assert not rest.any() and np.array_equal(total, np.arange(limit)), \
            f"roundtrip broken for m={m}"
        assert numeration.is_admissible(m, codes).all(), f"admissibility violated for m={m}"
        rng = np.random.default_rng(m)
        for n in rng.integers(0, limit, size=50):
            code = numeration.encode(sys, int(n))
            assert numeration.decode(sys, code) == n, f"decode(encode({n})) != {n} for m={m}"
            assert int(codes[n]) == code, f"encode({n}) differs from its digit code for m={m}"
    return f"decode(encode(n)) = n for n < {limit:.0e}, m in 2..6"


def _word_lengths(full: bool) -> str:
    kmax = 25 if full else 15
    for m in MS:
        assert rauzy.word_lengths(m, kmax) == numeration.basis_prefix(m, kmax + 1), \
            f"word lengths differ from basis terms at m={m}"
    return f"|image^k(1)| = F_k exactly, k <= {kmax}, m in 2..6"


def _characteristic(full: bool) -> str:
    worst = 0.0
    for m in MS:
        sys = numeration.make_system(m)
        worst = max(worst, abs(sum(sys.neg_power(i) for i in range(1, m + 1)) - 1.0))
    assert worst <= 1e-12, f"max |sum phi^-i - 1| = {worst:.2e}"
    return f"max |sum phi^-i - 1| = {worst:.2e}"


def _lattice_point(sys, n: int) -> np.ndarray:
    return spectral.reduce_array(
        spectral.lattice_coords(sys, [n] + [0] * (sys.m - 1)))


def _conjugacy(full: bool) -> str:
    n_max = 10 ** 4 if full else 2000
    worst = ambient = 0.0
    for m in MS:
        sys = numeration.make_system(m)
        orbit = rauzy.build_cloud(m, n_max).reduced
        for n in range(n_max + 1):
            worst = max(worst, spectral.torus_distance(_lattice_point(sys, n), orbit[n]))
        rng = np.random.default_rng(m + 40)
        for n in rng.integers(0, n_max, size=100):
            worst = max(worst, spectral.torus_distance(
                _lattice_point(sys, int(n)), spectral.rotation_point([sys], int(n))))
        proj = spectral.ambient_projection(sys)
        e = np.eye(m)
        rhs = sum(sys.neg_power(i) * (proj @ (e[0] - e[i - 1])) for i in range(2, m + 1))
        ambient = max(ambient, float(np.max(np.abs(proj @ e[0] - rhs))))
    assert worst <= 1e-9, f"torus gap {worst:.2e}"
    assert ambient <= 1e-10, f"ambient projection residual {ambient:.2e}"
    return f"torus gap {worst:.2e} (n <= {n_max}), ambient residual {ambient:.2e}"


def _interval_lengths(sys, k: int) -> np.ndarray:
    """Level-k interval lengths sum(phi^-(k+i), i <= m - r) by run r < m."""
    return np.array([sum(sys.neg_power(k + i) for i in range(1, sys.m - r + 1))
                     for r in range(sys.m)])


def _partitions(full: bool) -> str:
    # left ends from the value fill, lengths from the root powers
    kmax = 12 if full else 9
    worst = 0.0
    for m in (2, 3, 4):
        sys = numeration.make_system(m)
        for k in range(1, kmax + 1):
            count = sys.basis[k]
            n_k, r = rotation.level_intervals(sys, k, count)
            where = f"m={m}, k={k}"
            starts = np.unique(n_k).size
            assert starts == count, f"{starts} intervals, not F_k, at {where}"
            left = rotation.vdc_values(sys, count)[n_k]
            length = _interval_lengths(sys, k)[r]
            order = np.argsort(left)
            left, length = left[order], length[order]
            assert left[0] <= 1e-10, f"first interval starts late at {where}"
            assert abs(left[-1] + length[-1] - 1.0) <= 1e-10, \
                f"last interval ends off 1 at {where}"
            gap = float(np.abs(left[1:] - left[:-1] - length[:-1]).max())
            assert gap <= 1e-10, f"length off its gap by {gap:.2e} at {where}"
            assert abs(length.sum() - 1.0) <= 1e-10, f"lengths off 1 at {where}"
            worst = max(worst, gap)
    return (f"F_k intervals from the digit codes tile [0,1), m in (2,3,4), k <= {kmax}; "
            f"worst gap {worst:.2e}")


def _interval_membership(full: bool) -> str:
    exponent = 6 if full else 5
    N = 10 ** exponent
    worst = 0.0
    for m in (2, 3, 4):
        sys = numeration.make_system(m)
        values = rotation.vdc_values(sys, N)
        for k in range(13):
            n_k, r = rotation.level_intervals(sys, k, N)
            where = f"m={m}, k={k}"
            assert (n_k < sys.basis[k]).all(), f"a left-end index past F_k at {where}"
            offset = values - values[n_k]
            length = _interval_lengths(sys, k)[r]
            inside = (offset >= 0.0) & (offset < length)
            assert inside.all(), f"vdc({np.argmin(inside)}) escaped its interval ({where})"
            worst = max(worst, float((offset / length).max()))
    return (f"every n < 10^{exponent}, k <= 12, m in (2,3,4): vdc(n) in its interval; "
            f"max (vdc(n) - left) / length = {worst:.6f}")


def _tiling(full: bool) -> str:
    cloud2 = rauzy.build_cloud(2, 10 ** 5)
    cloud3 = rauzy.build_cloud(3, 10 ** 6 if full else 2 * 10 ** 5)
    rep2 = rauzy.tiling_check(cloud2, 2 ** -8)
    rep3 = rauzy.tiling_check(cloud3, 2 ** -5)
    assert rep2.coverage == 1.0, f"m=2 coverage {rep2.coverage}"
    assert rep3.coverage == 1.0, f"m=3 coverage {rep3.coverage}"
    se2 = rauzy.set_equation_check(cloud2, 1, 2 ** -8)
    se3 = rauzy.set_equation_check(cloud3, 1, 2 ** -6 if full else 2 ** -5)
    assert se2.max_ratio <= 0.05, f"m=2 set-equation ratio {se2.max_ratio:.4f}"
    assert se3.max_ratio <= 0.05, f"m=3 set-equation ratio {se3.max_ratio:.4f}"
    return f"full coverage; set-equation ratios {se2.max_ratio:.4f} / {se3.max_ratio:.4f}"


def _letter_frequencies(full: bool) -> str:
    worst = 0.0
    for m in MS:
        sys = numeration.make_system(m)
        word = rauzy.fixed_point_prefix(sys, 10 ** 5)
        freqs = np.bincount(word, minlength=m + 1)[1:] / word.size
        for i in range(m):
            worst = max(worst, abs(freqs[i] - sys.neg_power(i + 1)))
    assert worst <= 1e-3, f"worst gap to root powers {worst:.2e}"
    return f"worst gap to root powers {worst:.2e}"


def _vdc_discrepancy(full: bool) -> str:
    sizes = (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5) if full else (10 ** 2, 10 ** 3, 10 ** 4)
    # the bulk route's sorted formula, and the closed form from the code of N
    worst = worst_closed = gap = 0.0
    for m in (2, 3):
        sys_m = numeration.make_system(m)
        values = rotation.vdc_values(sys_m, sizes[-1])
        for n in sizes:
            bulk = discrepancy.star_disc_1d(values[:n])
            closed = rotation.star_discrepancy(sys_m, n).value
            worst = max(worst, n * bulk / np.log(n))
            worst_closed = max(worst_closed, n * closed / np.log(n))
            gap = max(gap, abs(bulk - closed))
    assert worst <= 3.0, f"max N*D_N/log N = {worst:.3f}"
    assert worst_closed <= 3.0, f"closed form: max N*D_N/log N = {worst_closed:.3f}"
    assert gap <= 2.0 ** -52, f"closed form {gap:.2e} from the sorted formula"
    return (f"max N*D_N/log N = {worst:.3f}, closed form {worst_closed:.3f}, {gap:.1e} apart "
            f"(m in 2,3, N <= {sizes[-1]:.0e})")


def _boundary_dimensions(full: bool) -> str:
    exponent = discrepancy.theorem_exponent((2, 3), (0.0, 1.09336))
    assert abs(exponent - (-0.302213)) <= 1e-6, f"reference exponent {exponent:.6f}"
    levels = (4, 5, 6, 7, 8, 9) if full else (4, 5, 6, 7)
    est3 = discrepancy.box_dim_boundary(
        rauzy.build_cloud(3, 10 ** 6 if full else 250000), levels)
    assert 0.94 <= est3.slope <= 1.25, f"m=3 estimate {est3.slope} outside window"
    est2 = discrepancy.box_dim_boundary(rauzy.build_cloud(2, 10 ** 5), levels)
    assert est2.slope <= 0.15, f"m=2 control {est2.slope} too steep"
    return (f"exponent {exponent:.6f}; m=3 slope {est3.slope:.4f}; "
            f"m=2 control {est2.slope:.4f}")


def _halton_decay(full: bool) -> str:
    top = 13 if full else 11
    systems = (numeration.make_system(2), numeration.make_system(3))
    pts = rotation.halton_points(systems, 2 ** top)
    samples = []
    for e in range(8, top + 1):
        report = discrepancy.star_disc_multi(pts[: 2 ** e])
        assert report.exact, f"D at N=2^{e} is only a lower bound"
        samples.append((2 ** e, report.value))
    slope, _, r2 = discrepancy.decay_fit(samples)
    assert slope <= -0.30, f"halton exponent {slope:.4f}"
    orbit = rauzy.build_cloud(2, 2 ** top - 1).reduced[:, 0]
    rot_slope, _, _ = discrepancy.decay_fit(
        [(2 ** e, discrepancy.star_disc_1d(orbit[: 2 ** e])) for e in range(8, top + 1)])
    assert rot_slope <= -0.5, f"rotation exponent {rot_slope:.3f}"
    return (f"fitted exponent {slope:.4f} (r2={r2:.3f}) over N=2^8..2^{top}; "
            f"m=2 rotation {rot_slope:.3f}")


def _multi_discrepancy_oracle(full: bool) -> str:
    trials = 200 if full else 20
    rng = np.random.default_rng(1212)
    worst = 0.0
    for trial in range(trials):
        s = 2 if trial % 2 == 0 else 3
        n = int(rng.integers(1, 65))
        pts = rng.random((n, s))
        if trial % 9 == 0 and n >= 3:
            pts[1] = pts[0]
            pts[2, 0] = 0.0
        worst = max(worst, abs(discrepancy.star_disc_multi(pts).value - naive_star_disc(pts)))
    assert worst == 0.0, f"worst |fast - naive| = {worst:.2e}"
    return f"{trials} instances, worst |fast - naive| = {worst:.2e}"


def bulk_local_discrepancy(sys, k: int, N: int, letters, counts) -> float:
    """The level-k local discrepancy from the letters and counts of
    `rotation.membership_counts`: a visited address deviates by
    |c/N - phi^-(k + letter)|, and each letter with fewer visited
    addresses than `rotation.letter_totals` counts adds its whole measure."""
    delta = float(np.abs(counts / N - sys.neg_power_parts[k + letters - 1, 0]).max())
    visited = np.bincount(letters, minlength=sys.m + 1)[1:]
    for i, (seen, total) in enumerate(zip(visited.tolist(), rotation.letter_totals(sys, k)),
                                      start=1):
        if seen < total:
            delta = max(delta, sys.neg_power(k + i))
    return delta


def bulk_letter_histograms(sys, k: int, letters, counts) -> list[Counter]:
    """Per letter, how many level-k addresses hold each count, from the
    letters and counts of `rotation.membership_counts`; an address it does
    not list holds 0."""
    histograms = []
    for i, total in enumerate(rotation.letter_totals(sys, k), start=1):
        held, addresses = np.unique(counts[letters == i], return_counts=True)
        histogram = Counter(dict(zip(held.tolist(), addresses.tolist())))
        histogram[0] = total - histogram.total()
        histograms.append(histogram)
    return histograms


def closed_form_histograms(sys, k: int, N: int) -> list[Counter]:
    """Per letter, how many level-k addresses hold each count by the
    closed form of `rotation.letter_counts`: A_l of them hold Q_l + 1 and
    the others Q_l."""
    return [Counter({q: total - above, q + 1: above}) for (q, above), total
            in zip(rotation.letter_counts(sys, k, N), rotation.letter_totals(sys, k))]


# frozen on first computation: local discrepancies for m=2 at N = F_22
_FROZEN_DELTA_M2_F22 = {
    0: 2.0800716704627575e-10,
    1: 4.160143063369759e-10,
    2: 6.240214733832516e-10,
    3: 1.0400357658424397e-09,
    4: 1.6640572253479036e-09,
    5: 2.7040929911903433e-09,
    6: 4.368150216538247e-09,
}


def _local_discrepancies(full: bool) -> str:
    # the bulk counts of membership_counts against the scalar subtile_of and
    # against the closed form of letter_counts, which reads only code(count)
    count, kmax = (5000, 8) if full else (2000, 6)
    sys2 = numeration.make_system(2)
    for sys in (sys2, numeration.make_system(3)):
        for k in range(kmax + 1):
            keys, letters, counts = rotation.membership_counts(sys, k, count)
            assert counts.sum() == count, f"level-{k} memberships do not partition"
            if k in (0, kmax // 2, kmax):
                addrs = (rotation.subtile_of(sys, n, k) for n in range(count))
                scalar = Counter((a.key, a.letter) for a in addrs)
                bulk = zip(zip(keys.tolist(), letters.tolist()), counts.tolist())
                assert sorted(scalar.items()) == list(bulk), \
                    f"level-{k} counts of subtile_of and membership_counts differ (m={sys.m})"
            closed = closed_form_histograms(sys, k, count)
            assert closed == bulk_letter_histograms(sys, k, letters, counts), \
                f"level-{k} counts of letter_counts and membership_counts differ (m={sys.m})"
            delta = rotation.local_discrepancy(sys, k, count)
            assert delta == bulk_local_discrepancy(sys, k, count, letters, counts), \
                f"level-{k} delta of local_discrepancy and membership_counts differ (m={sys.m})"
    n_f22 = sys2.basis[22]
    assert n_f22 == 46368, f"F_22 = {n_f22}"
    for k in range(7):
        delta = rotation.local_discrepancy(sys2, k, n_f22)
        assert 0.0 <= delta <= 1.0, f"delta_{k} = {delta} out of range"
        assert delta <= 50.0 / n_f22, f"delta_{k} = {delta} above 50/N"
        assert abs(delta - _FROZEN_DELTA_M2_F22[k]) <= 1e-12, f"delta_{k} = {delta!r} moved"
    return (f"partitions exact (k <= {kmax}), subtile_of agrees at k = 0, {kmax // 2}, {kmax}; "
            f"delta_k at N=F_22 within 50/N and frozen values")


CHECKS = (
    Check(1, "roundtrip identity", _roundtrip, budget=30.0),
    Check(2, "word lengths", _word_lengths),
    Check(3, "characteristic identity", _characteristic),
    Check(4, "rotation conjugacy", _conjugacy),
    Check(5, "interval partitions", _partitions),
    Check(6, "interval membership", _interval_membership),
    Check(7, "tiling and set equation", _tiling, budget=180.0),
    Check(8, "letter frequencies", _letter_frequencies),
    Check(9, "vdc discrepancy constant", _vdc_discrepancy, budget=60.0),
    Check(10, "boundary dimensions", _boundary_dimensions, budget=300.0),
    Check(11, "halton decay", _halton_decay, budget=600.0),
    Check(12, "multi discrepancy oracle", _multi_discrepancy_oracle),
    Check(13, "local discrepancies", _local_discrepancies),
)


def run_check(check: Check, full: bool) -> CheckResult:
    start = time.perf_counter()
    try:
        if not __debug__:
            raise AssertionError("assertions are disabled (python -O), so nothing is checked")
        passed, detail = True, check.run(full)
    except AssertionError as exc:
        passed, detail = False, str(exc) or "assertion failed"
    except Exception as exc:  # a crashed check is a failed check
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if passed and full and check.budget is not None and seconds > check.budget:
        passed, detail = False, f"{detail}; took {seconds:.1f}s, over its {check.budget:g}s budget"
    return CheckResult(check.name, passed, detail, seconds)


def run_checks(full: bool = False) -> list[CheckResult]:
    return [run_check(check, full) for check in CHECKS]
