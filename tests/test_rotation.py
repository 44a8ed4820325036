import hashlib
import tracemalloc
from bisect import bisect_right
from collections import Counter

import mpmath
import numpy as np
import pytest

import helpers
from helpers import run_fresh, ulp_error, vdc_mpmath
from mbonacci import rotation
from mbonacci.discrepancy import star_disc_1d
from mbonacci.numeration import decode, digit_codes, encode, make_system
from mbonacci.rauzy import build_cloud, fixed_point_prefix
from mbonacci.rotation import (
    halton_points,
    letter_counts,
    level_intervals,
    local_discrepancy,
    membership_counts,
    star_discrepancy,
    subtile_of,
    vdc_values,
)
from mbonacci.spectral import reduce_array
from mbonacci.verify import bulk_letter_histograms, bulk_local_discrepancy, closed_form_histograms


def test_vdc_examples(sys2):
    values = vdc_values(sys2, 5)
    assert values[0] == 0.0
    assert abs(values[1] - 0.61803399) < 1e-8
    assert abs(values[4] - 0.85410197) < 1e-8
    assert abs(values[4] - (sys2.neg_power(1) + sys2.neg_power(3))) < 1e-15


def test_vdc_values_in_unit_interval(sys2, sys3):
    for sys in (sys2, sys3):
        vals = vdc_values(sys, 20000)
        assert vals.min() >= 0.0 and vals.max() < 1.0
        assert len(np.unique(vals)) == 20000


@pytest.mark.parametrize("m", [2, 3, 5])
def test_vdc_values_correctly_rounded(m):
    count = 10 ** 6
    sys = make_system(m, count)
    rng = np.random.default_rng(40 + m)
    ns = rng.integers(0, count, size=3000)
    got = vdc_values(sys, count)[ns]
    exact = vdc_mpmath(m, sys.basis, ns)
    worst = max(ulp_error(float(g), e) for g, e in zip(got, exact))
    assert worst <= 0.51, f"m={m}: {worst:.4f} ulp"


@pytest.mark.parametrize("m", [2, 3, 5])
def test_vdc_forms_agree_bit_for_bit(m):
    sys = make_system(m, 10 ** 6)
    table = vdc_values(sys, 200000)
    assert np.array_equal(vdc_values(sys, 1000), table[:1000])


@pytest.mark.parametrize("m", range(2, 7))
def test_vdc_values_at_and_past_basis_terms(m):
    # a count of F_j ends on a whole range, F_j - 1 one short of it, and
    # F_j + 1 leaves a last range of one value; each moves the read horizon,
    # the longest range, past which low parts go to a block buffer and not
    # to `lo`.  Every value is the one a longer fill makes, where the
    # horizon lies elsewhere, and within half an ulp of the exact value
    sys = make_system(m, 10 ** 6)
    table = vdc_values(sys, 10 ** 6)
    terms = [f for f in sys.basis if 2 <= f < 4 * 10 ** 5]
    for count in [c for f in terms for c in (f - 1, f, f + 1)]:
        values = vdc_values(sys, count)
        assert np.array_equal(values, table[:count]), count
    ends = [c - 1 for f in terms for c in (f, f + 1)]
    exact = vdc_mpmath(m, sys.basis, ends)
    assert max(ulp_error(float(table[n]), e) for n, e in zip(ends, exact)) <= 0.51


def test_vdc_values_memory():
    # the 16 MB of values, and low parts only below the read horizon, the
    # longest range 2 000 000 - 1 346 269 = 653 731: 5.0 MiB (21.00 MiB
    # measured in all; 26.28 MiB with low parts up to 1 346 269)
    sys = make_system(2, 2 * 10 ** 6)
    tracemalloc.start()
    try:
        vdc_values(sys, 2 * 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 22 * 2 ** 20


_VDC_SHA256 = {
    2: "4c6a7a26f6705819a9bd813b69f7a932f9c908d56f561657ed21cdf742eaae1b",
    3: "71cccdcc251a75e65715321d14a1096f79fddf78fa67186efbcc75397b115b47",
    4: "1a3c637b41115293d5a5acbd7870df6b292a1f5669a7cc0ba66709f8adc4570d",
    5: "603429188cb3d6d27a3a7d5e76585505ddf4ae8bce3ed0ec96e86c9ba7f4cc6a",
    6: "a8ff62a3c86ea08c4547d43e0a476b3850bb3b5748cd77a543e538f3bc15f5cf",
}


@pytest.mark.parametrize("m", range(2, 7))
def test_vdc_values_frozen(m):
    # every value of a prefix past 2^20, bit for bit; a partial last block
    values = vdc_values(make_system(m), 2 ** 20 + 3)
    assert hashlib.sha256(values.tobytes()).hexdigest() == _VDC_SHA256[m]


def test_vdc_fill_reuses_its_buffers():
    # a fresh interpreter, where glibc still maps every block above 128 KB
    # on its own: temporaries allocated per block of the fill would fault
    # on every block (about 6 000 minor faults past the result's pages)
    script = (
        "import resource\n"
        "from mbonacci import numeration, rotation\n"
        "sys = numeration.make_system(2)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "values = rotation.vdc_values(sys, 2 ** 20)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "print(after - before)\n"
    )
    # the hi array of 2^20 doubles and the shorter lo array take at most
    # 4096 pages of 4 KB
    assert int(run_fresh(script)) - 4096 < 1000


def test_vdc_values_validation():
    sys = make_system(2)
    assert vdc_values(sys, 0).shape == (0,)
    with pytest.raises(ValueError, match="count must be >= 0, got -1"):
        vdc_values(sys, -1)
    with pytest.raises(ValueError, match="above the limit 2\\^26"):
        vdc_values(sys, 2 ** 26 + 1)


def test_halton_examples(sys2, sys3):
    pts = halton_points((sys2, sys3), 2)
    assert np.allclose(pts[0], [0.0, 0.0])
    assert abs(pts[1, 0] - 0.61803) < 1e-5
    assert abs(pts[1, 1] - 0.54369) < 1e-5
    single = halton_points((sys2,), 8)
    assert single.shape == (8, 1)
    assert single[7, 0] == vdc_values(sys2, 8)[7]


def test_halton_points_match_vdc_values(sys2, sys3):
    pts = halton_points((sys2, sys3), 50)
    for i, s in enumerate((sys2, sys3)):
        assert np.array_equal(pts[:, i], vdc_values(s, 50))


def test_halton_points_validation(sys2, sys3):
    with pytest.raises(ValueError, match="m values must be pairwise distinct"):
        halton_points((sys2, sys2), 4)
    with pytest.raises(ValueError, match="at least one system required"):
        halton_points((), 4)


def _lengths(sys, k):
    """Length of a level-k interval by its run r < m of ones below digit k."""
    return np.array([sum(sys.neg_power(k + i) for i in range(1, sys.m - r + 1))
                     for r in range(sys.m)])


def _partition(sys, k):
    """Left ends and lengths of the F_k level-k intervals, sorted by left end."""
    count = sys.basis[k]
    n_k, r = level_intervals(sys, k, count)
    left = vdc_values(sys, count)[n_k]
    length = _lengths(sys, k)[r]
    order = np.argsort(left)
    return left[order], length[order]


@pytest.mark.parametrize("m", range(2, 7))
def test_level_intervals_match_scalar(m):
    # the left-end index decodes the low k digits of n's code, and the run
    # is the one the scalar subtile address reads
    N = 5000
    sys = make_system(m)
    codes = [encode(sys, n) for n in range(N)]
    for k in (0, 1, 4, 9, 12):
        n_k, r = level_intervals(sys, k, N)
        assert n_k.dtype == r.dtype == np.int64
        assert r.tolist() == [subtile_of(sys, n, k).trailing_ones for n in range(N)]
        assert n_k.tolist() == [decode(sys, code & ((1 << k) - 1)) for code in codes]


def test_level_intervals_refuse_deep_levels(sys2):
    # the level limit of membership_counts, met before any digit is read:
    # a count past 2^26 would be refused with another message
    limit = len(sys2.basis) - 2
    refusals = ((limit + 1, f"k={limit + 1} past {limit}, the deepest level"),
                (-1, "k must be >= 0, got -1"))
    for k, message in refusals:
        for read_level in (level_intervals, membership_counts):
            with pytest.raises(ValueError, match=message):
                read_level(sys2, k, 2 ** 27)
    n_k, r = level_intervals(sys2, limit, 3)
    assert n_k.tolist() == [0, 1, 2] and r.tolist() == [0, 0, 0]


def test_interval_for_zero(sys2):
    for k in (0, 1, 5):
        n_k, r = level_intervals(sys2, k, 1)
        assert n_k[0] == 0 and r[0] == 0
        assert vdc_values(sys2, 1)[n_k[0]] == 0.0
        assert abs(_lengths(sys2, k)[0] - float(helpers.root_mpmath(2)) ** -k) < 1e-12


def test_interval_example_m2_n4_k3(sys2):
    # 4 = 3 + 1 has code 101: its own low three digits, with run 1
    phi = float(helpers.root_mpmath(2))
    n_k, r = level_intervals(sys2, 3, 5)
    assert n_k[4] == 4 and r[4] == 1
    left = vdc_values(sys2, 5)[n_k[4]]
    right = left + _lengths(sys2, 3)[r[4]]
    assert abs(left * phi ** 3 - (phi ** 2 + 1)) < 1e-12
    assert abs(left - (phi ** 2 + 1) / phi ** 3) < 1e-12
    assert abs(right - (phi ** 2 + 1 + phi - 1) / phi ** 3) < 1e-12
    assert left <= vdc_values(sys2, 5)[4] < right


@pytest.mark.parametrize("m", [2, 3, 4])
def test_vdc_lands_in_its_interval(m):
    N = 10 ** 5
    sys = make_system(m, N)
    values = vdc_values(sys, N)
    for k in range(13):
        n_k, r = level_intervals(sys, k, N)
        offset = values - values[n_k]
        length = _lengths(sys, k)[r]
        assert (offset >= 0.0).all() and (offset < length).all()


@pytest.mark.parametrize("m", [2, 3, 4])
def test_interval_length_equals_subtile_measure(m):
    # the subtile measure sum(phi^-(k+i), i <= m - r) is the power product
    # phi^-k (phi^r - sum(phi^i, i < r)) of the interval's digit geometry
    sys = make_system(m, 10 ** 5)
    phi = float(helpers.root_mpmath(m))
    rng = np.random.default_rng(m * 13)
    ns = rng.integers(0, 10 ** 5, size=100)
    for k in (1, 4, 9):
        _, r = level_intervals(sys, k, 10 ** 5)
        lengths = _lengths(sys, k)
        for run in r[ns].tolist():
            width = phi ** -k * (phi ** run - sum(phi ** i for i in range(run)))
            assert abs(width - lengths[run]) <= 1e-10


def test_partition_counts_and_examples(sys2, sys3):
    left, length = _partition(sys2, 1)
    assert len(left) == 2
    inv_phi = 1.0 / float(helpers.root_mpmath(2))
    assert abs(left[0] + length[0] - inv_phi) < 1e-12 and abs(left[1] - inv_phi) < 1e-12
    assert abs(left[1] + length[1] - 1.0) < 1e-12
    assert len(_partition(sys2, 3)[0]) == 5
    left, length = _partition(sys3, 4)
    assert len(left) == 13
    assert abs(length.sum() - 1.0) < 1e-10


@pytest.mark.parametrize("m", [2, 3, 4])
def test_partition_geometry(m):
    sys = make_system(m, 10 ** 4)
    for k in range(1, 10):
        left, length = _partition(sys, k)
        assert len(left) == sys.basis[k]
        assert left[0] <= 1e-12
        assert abs(left[-1] + length[-1] - 1.0) <= 1e-10
        assert np.abs(left[1:] - (left[:-1] + length[:-1])).max() <= 1e-10


@pytest.mark.parametrize("m", [2, 3])
def test_partition_refines(m):
    sys = make_system(m, 10 ** 4)
    for k in range(1, 8):
        p_left, p_length = _partition(sys, k)
        p_right = p_left + p_length
        for left, length in zip(*_partition(sys, k + 1)):
            holders = (p_left - 1e-10 <= left) & (left + length <= p_right + 1e-10)
            assert holders.sum() == 1


def test_shifted_rotation_matches_digit_membership_m2(sys2, cloud_m2_100k):
    # a small interior offset keeps every shifted orbit point inside the
    # interior of its level-1 cell, so geometric membership (arc test
    # against the transformed subcloud hull) must agree with the digit rule
    from mbonacci.spectral import contraction_matrix, lattice_coords

    k, N = 1, 50
    mat = contraction_matrix(sys2)
    # the offset: a fixed label-1 point from the middle of a depth-2048
    # cloud, contracted M = max(k, L) times, with L the level covering N - 1
    ref = build_cloud(2, 2048)
    i = 1024 + int(np.argmax(ref.labels[1024:] == 1))
    M = max(k, bisect_right(sys2.basis, N - 1))
    offset = reduce_array(np.linalg.matrix_power(mat, M) @ ref.unreduced[i])
    gamma = np.asarray(lattice_coords(sys2, [1, 0]))
    cell1 = (cloud_m2_100k.letter_points(1) @ mat.T + gamma) % 1.0
    lo, hi = float(cell1.min()), float(cell1.max())
    assert hi - lo < 0.5  # the digit-one cell is a single arc, no wrap
    assert abs((hi - lo) - sys2.neg_power(2)) < 1e-3
    shifted = (cloud_m2_100k.reduced[:N] + offset) % 1.0
    for n in range(N):
        geometric = lo <= shifted[n, 0] <= hi
        digit = encode(sys2, n) & 1 == 1
        assert geometric == digit, f"membership mismatch at n={n}"


def test_membership_oracle_examples(sys2):
    # n = 4 = 1 + 3 has digit 1 at position 2, so it leaves the level-3 subtile of 0
    addr0 = subtile_of(sys2, 0, 3)
    assert addr0.key == 0
    assert subtile_of(sys2, 4, 3).key == 0b101
    assert subtile_of(sys2, 4, 3) != addr0


@pytest.mark.parametrize("m", [2, 3])
def test_memberships_partition_indices(m):
    sys = make_system(m, 700)
    for k in (0, 1, 4, 8):
        addrs = helpers.level_addresses(m, k)
        for n in range(0, 600, 7):
            own = subtile_of(sys, n, k)
            assert addrs.count((own.key, own.letter)) == 1


@pytest.mark.parametrize("m", [2, 3, 4])
def test_level_addresses_counts_and_measures(m):
    # the per-letter address totals read off the basis are the enumerated
    # ones, and the subtile measures they weight sum to one
    sys = make_system(m, 10 ** 3)
    for k in range(0, 12):
        addrs = helpers.level_addresses(m, k)
        assert len({key for key, _ in addrs}) == sys.basis[k]
        totals = rotation.letter_totals(sys, k)
        assert totals == [sum(1 for _, letter in addrs if letter == i) for i in range(1, m + 1)]
        measure = sum(t * sys.neg_power(k + i) for i, t in enumerate(totals, start=1))
        assert abs(measure - 1.0) < 1e-12


def _address_rows(keys, letters, counts):
    return list(zip(zip(keys.tolist(), letters.tolist()), counts.tolist()))


def test_membership_counts_match_scalar(sys2):
    keys, letters, counts = membership_counts(sys2, 3, 400)
    assert counts.sum() == 400
    scalar = Counter()
    for n in range(400):
        a = subtile_of(sys2, n, 3)
        scalar[a.key, a.letter] += 1
    assert _address_rows(keys, letters, counts) == sorted(scalar.items())


@pytest.mark.parametrize("m", [2, 3, 4])
def test_address_keys_match_encode(m):
    # the key holds the low k digits and the letter is the first position
    # from k whose digit is zero, counted from 1
    N = 30000
    sys = make_system(m, N)
    codes = [encode(sys, n) for n in range(N)]
    for k in (0, 3, 8):
        want = Counter((code & ((1 << k) - 1),
                        next(i for i in range(1, m + 1) if not code >> (k + i - 1) & 1))
                       for code in codes)
        assert _address_rows(*membership_counts(sys, k, N)) == sorted(want.items())


@pytest.mark.parametrize("m", range(2, 7))
def test_word_letter_is_one_plus_the_run_of_ones(m):
    # letter n of the fixed point is read off the greedy expansion of n
    # (Dumont and Thomas, 1989), so level 0 counts the word's letters
    N = 10 ** 5
    sys = make_system(m)
    code = digit_codes(sys, N)
    word = fixed_point_prefix(sys, N)
    alive = np.ones(N, dtype=bool)
    run = np.zeros(N, dtype=np.int64)
    for j in range(m):
        alive &= ((code >> j) & 1) == 1
        run += alive
    assert np.array_equal(word, run + 1)
    keys, letters, counts = membership_counts(sys, 0, N)
    assert not keys.any()
    frequencies = np.bincount(word)
    assert letters.tolist() == np.flatnonzero(frequencies).tolist()
    assert counts.tolist() == frequencies[letters].tolist()


@pytest.mark.parametrize("m", range(2, 7))
def test_vdc_order_is_the_reversed_digit_order(m):
    # greedy expansions compare like their digit strings read from the top
    # (Parry, 1960), so sorting the codes with their bits reversed sorts
    # the van der Corput values, and no two values coincide
    N = 1 << 20
    sys = make_system(m)
    code = digit_codes(sys, N)
    width = 48
    assert int(code.max()) < 1 << width
    reversed_code = np.zeros(N, dtype=np.int64)
    for j in range(width):
        reversed_code |= ((code >> j) & 1) << (width - 1 - j)
    values = vdc_values(sys, N)
    order = np.argsort(reversed_code)
    assert np.array_equal(order, np.argsort(values))
    assert (np.diff(values[order]) > 0).all()


def test_local_discrepancy_k0_matches_direct_count(sys3):
    N = 2000
    letters = [subtile_of(sys3, n, 0).letter for n in range(N)]
    direct = max(
        abs(letters.count(i) / N - sys3.neg_power(i)) for i in (1, 2, 3)
    )
    assert abs(local_discrepancy(sys3, 0, N) - direct) < 1e-15


def test_local_discrepancy_bounds_and_cap(sys2):
    # the only cap on k is the basis: len(basis) - m
    limit = len(sys2.basis) - 2
    for k in (*range(0, 7), 11, limit):
        d = local_discrepancy(sys2, k, 1500)
        assert 0.0 <= d <= 1.0
    with pytest.raises(ValueError, match=f"k={limit + 1} past {limit}"):
        local_discrepancy(sys2, limit + 1, 100)
    with pytest.raises(ValueError):
        local_discrepancy(sys2, 2, 0)


@pytest.mark.parametrize("m, levels", [(2, range(11, 21)), (3, range(11, 15)),
                                       (4, range(11, 15))])
def test_local_discrepancy_matches_enumeration(m, levels):
    sys = make_system(m, 10 ** 4)
    for k in levels:
        # at N = F_k - 1 one address of letter 1 is still unvisited
        for N in (1, 300, 2000, sys.basis[k] - 1):
            assert local_discrepancy(sys, k, N) == helpers.local_discrepancy(sys, k, N), (k, N)


def test_local_discrepancy_small_at_basis_sizes(sys2):
    N = sys2.basis[16]
    for k in range(0, 5):
        assert local_discrepancy(sys2, k, N) <= 50.0 / N


def _closed_form_cases(sys):
    """(k, N) over k in {0, 1, 2, 3, 5, 8, 11, len(basis) - m} and N = 1..39,
    F_j - 1, F_j and F_j + 1 for j <= 25, and 12 seeded random N < 3·10^5.
    Basis terms past 2^20 are left out: at F_25 = 28 261 168 (m = 6) the
    bulk route's codes and sort alone take about 700 MB."""
    rng = np.random.default_rng(310 + sys.m)
    terms = {f + d for f in sys.basis[:26] for d in (-1, 0, 1)}
    sizes = (set(range(1, 40)) | {N for N in terms if 1 <= N <= 2 ** 20}
             | set(rng.integers(1, 3 * 10 ** 5, size=12).tolist()))
    levels = (0, 1, 2, 3, 5, 8, 11, len(sys.basis) - sys.m)
    return [(k, N) for k in levels for N in sorted(sizes)]


@pytest.mark.parametrize("m", range(2, 7))
def test_closed_form_matches_the_bulk_counts(m):
    # the closed form reads the code of N alone; membership_counts counts the
    # code of every n < N, with each unvisited address holding 0
    sys = make_system(m)
    cases = _closed_form_cases(sys) + ([(8, 2 ** 22)] if m == 3 else [])
    for k, N in cases:
        _, letters, counts = membership_counts(sys, k, N)
        assert closed_form_histograms(sys, k, N) == bulk_letter_histograms(
            sys, k, letters, counts), (k, N)
        assert local_discrepancy(sys, k, N) == bulk_local_discrepancy(
            sys, k, N, letters, counts), (k, N)


def test_letter_counts_examples(sys2):
    # m = 2, k = 1, N = 4 = 1 + 3 (code 101): n = 0..3 have codes 0, 1, 10
    # and 100, so the addresses (0, 1), (1, 1) and (0, 2) hold 2, 1 and 1
    assert rotation.letter_totals(sys2, 1) == [2, 1]
    assert letter_counts(sys2, 1, 4) == [(1, 1), (0, 1)]
    assert closed_form_histograms(sys2, 1, 4) == [Counter({1: 1, 2: 1}), Counter({1: 1})]
    # below F_k every code is a k-digit key with digit k zero, so at N = F_k
    # each letter-1 address holds one n and every other address none
    for k in (0, 5, 12):
        totals = rotation.letter_totals(sys2, k)
        assert letter_counts(sys2, k, sys2.basis[k]) == [(0, totals[0]), (0, 0)], k


def test_local_discrepancy_reads_nothing_of_size_N():
    # the count limit 2^26 at m = 5, where the bulk route's codes and sort
    # take about 1.5 GB
    sys = make_system(5)
    tracemalloc.start()
    try:
        delta = local_discrepancy(sys, 12, 2 ** 26)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert delta == 1.4726104532623505e-08
    assert peak < 64 * 2 ** 10


def _sorted_formula_mpmath(values, N: int) -> float:
    """D*_N of the first N of the mpmath `values` by the sorted formula,
    max_i max(i/N - x_(i), x_(i) - (i - 1)/N), rounded once to float."""
    with mpmath.workprec(216):
        return float(max(max((i + 1) / mpmath.mpf(N) - x, x - i / mpmath.mpf(N))
                         for i, x in enumerate(sorted(values[:N]))))


@pytest.mark.parametrize("m", range(2, 7))
def test_star_discrepancy_correctly_rounded(m):
    # every N <= 64, and around each basis term up to 1000, where the code
    # of N is a single one, the largest code below it, or ones at both ends
    sys = make_system(m)
    values = vdc_mpmath(m, sys.basis, range(1001))
    ns = set(range(1, 65)) | {f + d for f in sys.basis if f <= 1000 for d in (-1, 0, 1)}
    for N in sorted(ns - {0}):
        report = star_discrepancy(sys, N)
        assert report.value == _sorted_formula_mpmath(values, N), N
        assert (report.N, report.s, report.method, report.exact) == (N, 1, "exact1d", True)


@pytest.mark.parametrize("m", range(2, 7))
def test_star_discrepancy_near_the_bulk_route(m):
    # the bulk route evaluates the sorted formula in floats on rounded
    # values, so it is off by less than 2^-52 but seldom equal
    sys = make_system(m)
    values = vdc_values(sys, 2 ** 22)
    ns = ({2 ** k + d for k in range(0, 23, 2) for d in (-1, 0, 1) if 0 < 2 ** k + d <= 2 ** 22}
          | {f + d for f in sys.basis[::3] if f < 2 ** 22 for d in (0, 1)})
    for N in sorted(ns):
        assert abs(star_discrepancy(sys, N).value - star_disc_1d(values[:N])) <= 2 ** -52, N


def test_star_discrepancy_reads_nothing_of_size_N():
    # the count limit 2^26 at m = 5, where the bulk route holds 512 MiB of
    # values
    sys = make_system(5)
    tracemalloc.start()
    try:
        value = star_discrepancy(sys, 2 ** 26).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 9.343861083704089e-08
    assert peak < 64 * 2 ** 10


def test_star_discrepancy_validation(sys2):
    with pytest.raises(ValueError, match="N must be >= 1"):
        star_discrepancy(sys2, 0)
    with pytest.raises(ValueError, match="count 134217728 above the limit 2\\^26"):
        star_discrepancy(sys2, 2 ** 27)


def test_local_discrepancy_refusal_order(sys2):
    # N, then the level, then the count limit, whichever else is wrong
    limit = len(sys2.basis) - 2
    for k, N, message in ((limit + 1, 0, "N must be >= 1"),
                          (-1, 0, "N must be >= 1"),
                          (limit + 1, 2 ** 27, f"k={limit + 1} past {limit}"),
                          (-1, 2 ** 27, "k must be >= 0, got -1"),
                          (3, 2 ** 27, "count 134217728 above the limit 2\\^26")):
        for read in (local_discrepancy, letter_counts):
            with pytest.raises(ValueError, match=message):
                read(sys2, k, N)
