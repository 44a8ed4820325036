"""Self-check suite behind the `verify` CLI command.

Each check re-runs one of the library's defining identities at either
quick (sub-minute) or full scale and reports pass/fail with a detail
string.  The checks intentionally recompute expectations through
independent routes (direct counting, eigen-solvers, a naive discrepancy
oracle) rather than calling back into the code path under test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from mbonacci import discrepancy, numeration, rauzy, rotation, spectral


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
        lt = (pts[None, :, :] < chunk[:, None, :]).all(-1).sum(1)
        le = (pts[None, :, :] <= chunk[:, None, :]).all(-1).sum(1)
        vol = chunk.prod(1)
        best = max(best, float(np.max(vol - lt / n)), float(np.max(le / n - vol)))
    return best


def _check_roundtrip(full: bool):
    limit = 10 ** 6 if full else 10 ** 5
    worst_m = None
    for m in range(2, 7):
        sys = numeration.make_system(m, limit)
        digits = numeration.digit_matrix(sys, limit)
        values = numeration.decode_matrix(sys, digits)
        runs = numeration.longest_one_run(digits)
        if not (np.array_equal(values, np.arange(limit)) and int(runs.max()) < m):
            worst_m = m
            break
    return worst_m is None, f"n < {limit}, m in 2..6" + (f" FAILED at m={worst_m}" if worst_m else "")


def _check_word_lengths(full: bool):
    kmax = 25 if full else 15
    for m in range(2, 7):
        lengths = rauzy.word_lengths(m, kmax)
        basis = numeration.basis_prefix(m, kmax + 1)
        if lengths != basis[: kmax + 1]:
            return False, f"length mismatch at m={m}"
    return True, f"k <= {kmax}, m in 2..6"


def _check_characteristic(full: bool):
    worst = 0.0
    for m in range(2, 7):
        sys = numeration.make_system(m, 10)
        worst = max(worst, abs(sum(sys.phi_neg_powers[:m]) - 1.0))
    return worst <= 1e-12, f"max |sum phi^-i - 1| = {worst:.2e}"


def _check_conjugacy(full: bool):
    n_max = 10 ** 4 if full else 2000
    worst = 0.0
    for m in range(2, 7):
        sys = numeration.make_system(m, n_max)
        orbit = spectral.rotation_orbit(sys, n_max + 1)
        ns = np.arange(n_max + 1, dtype=np.float64)
        direct = np.stack(
            [ns * sys.neg_power(i) for i in range(2, m + 1)], axis=1
        )
        direct = spectral.reduce_array(direct)
        d = np.abs(direct - orbit)
        worst = max(worst, float(np.max(np.minimum(d, 1.0 - d))))
    return worst <= 1e-9, f"n <= {n_max}, worst torus distance {worst:.2e}"


def _check_ambient_identity(full: bool):
    worst = 0.0
    for m in range(2, 7):
        proj = spectral.ambient_projection(m)
        sys = numeration.make_system(m, 10)
        e = np.eye(m)
        lhs = proj @ e[0]
        rhs = sum(sys.neg_power(i) * (proj @ (e[0] - e[i - 1])) for i in range(2, m + 1))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst <= 1e-10, f"ambient projection residual {worst:.2e}"


def _check_partitions(full: bool):
    kmax = 12 if full else 9
    for m in (2, 3, 4):
        sys = numeration.make_system(m, numeration.basis_prefix(m, kmax + 1)[kmax] + 1)
        for k in range(1, kmax + 1):
            ivs = rotation.partition_Ck(sys, k)
            if len(ivs) != sys.basis[k]:
                return False, f"count mismatch m={m} k={k}"
            gaps = max(
                abs(b.left - a.right) for a, b in zip(ivs[:-1], ivs[1:])
            )
            total = sum(iv.length for iv in ivs)
            if gaps > 1e-10 or abs(total - 1.0) > 1e-10 or ivs[0].left > 1e-10:
                return False, f"geometry off at m={m} k={k}"
    return True, f"m in (2,3,4), k <= {kmax}"


def _check_interval_membership(full: bool):
    samples = 10 ** 4 if full else 1000
    rng = np.random.default_rng(20240601)
    worst = 0.0
    for m in (2, 3, 4):
        sys = numeration.make_system(m, 10 ** 6)
        ns = rng.integers(0, 10 ** 6, size=samples // 3)
        for n in ns:
            x = rotation.vdc(sys, int(n))
            for k in (1, 5, 12):
                iv = rotation.interval_for(sys, int(n), k)
                if not iv.contains(x, guard=1e-12):
                    return False, f"vdc({n}) outside its level-{k} interval (m={m})"
                lam = sys.neg_power(k) * sum(
                    sys.neg_power(i) for i in range(1, m - iv.r + 1)
                )
                worst = max(worst, abs(iv.length - lam))
    return worst <= 1e-10, f"{samples} samples, worst measure gap {worst:.2e}"


def _check_tiling(full: bool):
    cloud2 = rauzy.build_cloud(2, 10 ** 5)
    rep2 = rauzy.tiling_check(2, cloud2, 2 ** -8)
    depth3 = 10 ** 6 if full else 2 * 10 ** 5
    cloud3 = rauzy.build_cloud(3, depth3)
    rep3 = rauzy.tiling_check(3, cloud3, 2 ** -5)
    se2 = rauzy.set_equation_check(2, cloud2, 1, 2 ** -8)
    res3 = 2 ** -6 if full else 2 ** -5
    se3 = rauzy.set_equation_check(3, cloud3, 1, res3)
    ok = (
        rep2.coverage == 1.0
        and rep3.coverage == 1.0
        and se2.max_ratio <= 0.05
        and se3.max_ratio <= 0.05
    )
    return ok, (
        f"coverage m2={rep2.coverage:.3f} m3={rep3.coverage:.3f}, "
        f"set-eq ratios {se2.max_ratio:.4f}/{se3.max_ratio:.4f}"
    )


def _check_letter_frequencies(full: bool):
    worst = 0.0
    for m in range(2, 7):
        word = rauzy.fixed_point_prefix(m, 10 ** 5)
        sys = numeration.make_system(m, 10)
        freqs = np.bincount(word, minlength=m + 1)[1:] / word.size
        expect = np.array([sys.neg_power(i) for i in range(1, m + 1)])
        worst = max(worst, float(np.max(np.abs(freqs - expect))))
    return worst <= 1e-3, f"worst frequency error {worst:.2e}"


def _check_vdc_discrepancy(full: bool):
    sizes = (100, 1000, 10 ** 4, 10 ** 5) if full else (100, 1000, 10 ** 4)
    worst = 0.0
    for m in (2, 3):
        sys = numeration.make_system(m, sizes[-1])
        values = rotation.vdc_values(sys, sizes[-1])
        for n in sizes:
            d = discrepancy.star_disc_1d(values[:n])
            worst = max(worst, n * d / np.log(n))
    return worst <= 3.0, f"max N*D/log N = {worst:.3f}"


def _check_multi_disc(full: bool):
    trials = 200 if full else 20
    rng = np.random.default_rng(987654321)
    worst = 0.0
    for t in range(trials):
        s = 2 if t % 2 == 0 else 3
        n = int(rng.integers(1, 65))
        pts = rng.random((n, s))
        got = discrepancy.star_disc_multi(pts).value
        ref = naive_star_disc(pts)
        worst = max(worst, abs(got - ref))
    return worst <= 1e-12, f"{trials} instances, worst |fast - naive| = {worst:.2e}"


def _check_example_exponent(full: bool):
    value = discrepancy.theorem_exponent((2, 3), (0.0, 1.09336))
    return abs(value - (-0.302213)) <= 1e-6, f"exponent {value:.6f}"


def _check_delta(full: bool):
    n_count = 10 ** 4 if full else 2000
    kmax = 8 if full else 6
    sys = numeration.make_system(2, n_count + 10)
    for k in range(kmax + 1):
        counts = rotation.membership_counts(sys, k, n_count)
        if sum(counts.values()) != n_count:
            return False, f"memberships do not partition at k={k}"
        d = rotation.local_discrepancy(sys, k, n_count)
        if not (0.0 <= d <= 1.0):
            return False, f"delta out of range at k={k}"
    return True, f"k <= {kmax}, N = {n_count}"


def _check_halton_decay(full: bool):
    top = 13 if full else 11
    s2 = numeration.make_system(2, 2 ** top)
    s3 = numeration.make_system(3, 2 ** top)
    pts = rotation.halton_points(rotation.HaltonConfig(systems=(s2, s3)), 2 ** top)
    samples = [
        (2 ** e, discrepancy.star_disc_multi(pts[: 2 ** e]).value)
        for e in range(8, top + 1)
    ]
    slope, _, r2 = discrepancy.decay_fit(samples)
    return slope <= -0.30, f"fitted exponent {slope:.3f} (r2={r2:.2f})"


def _check_box_dim(full: bool):
    depth3 = 10 ** 6 if full else 250000
    levels = (4, 5, 6, 7, 8, 9) if full else (4, 5, 6, 7)
    cloud3 = rauzy.build_cloud(3, depth3)
    est3 = discrepancy.box_dim_boundary(cloud3, levels)
    cloud2 = rauzy.build_cloud(2, 10 ** 5)
    est2 = discrepancy.box_dim_boundary(cloud2, levels)
    ok = 0.94 <= est3.slope <= 1.25 and est2.slope <= 0.15
    return ok, f"m=3 slope {est3.slope:.4f}, m=2 control {est2.slope:.4f}"


def _check_rotation_decay(full: bool):
    top = 13 if full else 11
    sys = numeration.make_system(2, 2 ** top)
    orbit = spectral.rotation_orbit(sys, 2 ** top)[:, 0]
    samples = [
        (2 ** e, discrepancy.star_disc_1d(orbit[: 2 ** e]))
        for e in range(8, top + 1)
    ]
    slope, _, _ = discrepancy.decay_fit(samples)
    return slope <= -0.5, f"fitted exponent {slope:.3f}"


_CHECKS = (
    ("numeration roundtrip", _check_roundtrip),
    ("word lengths match basis", _check_word_lengths),
    ("characteristic identity", _check_characteristic),
    ("rotation conjugacy", _check_conjugacy),
    ("ambient projection identity", _check_ambient_identity),
    ("interval partitions", _check_partitions),
    ("interval membership + measures", _check_interval_membership),
    ("tiling + set equation", _check_tiling),
    ("letter frequencies", _check_letter_frequencies),
    ("vdc discrepancy constant", _check_vdc_discrepancy),
    ("multi-d discrepancy vs oracle", _check_multi_disc),
    ("reference exponent", _check_example_exponent),
    ("local discrepancy partition", _check_delta),
    ("halton decay", _check_halton_decay),
    ("boundary box dimension", _check_box_dim),
    ("rotation decay", _check_rotation_decay),
)


def run_checks(full: bool = False) -> list[CheckResult]:
    results = []
    for name, fn in _CHECKS:
        start = time.perf_counter()
        try:
            passed, detail = fn(full)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results
