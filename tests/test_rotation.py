import hashlib
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest

import helpers
from helpers import run_fresh, ulp_error, vdc_mpmath
from mbonacci import rotation
from mbonacci.numeration import digit_codes, encode, make_system
from mbonacci.rauzy import build_cloud, fixed_point_prefix
from mbonacci.rotation import (
    halton_points,
    interval_for,
    local_discrepancy,
    membership_counts,
    partition_Ck,
    subtile_of,
    vdc_values,
)
from mbonacci.spectral import reduce_array


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
    # the hi and lo arrays of 2^20 doubles take 4096 pages of 4 KB
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


def test_interval_for_zero(sys2):
    for k in (0, 1, 5):
        iv = interval_for(sys2, 0, k)
        assert iv.left == 0.0
        assert abs(iv.right - sys2.phi_float ** -k) < 1e-12


def test_interval_example_m2_n4_k3(sys2):
    phi = sys2.phi_float
    iv = interval_for(sys2, 4, 3)
    assert abs(iv.mu - (phi ** 2 + 1)) < 1e-12
    assert iv.r == 1
    assert abs(iv.left - (phi ** 2 + 1) / phi ** 3) < 1e-12
    assert abs(iv.right - (phi ** 2 + 1 + phi - 1) / phi ** 3) < 1e-12
    assert iv.contains(vdc_values(sys2, 5)[4], guard=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_vdc_lands_in_its_interval(m):
    sys = make_system(m, 10 ** 6)
    values = vdc_values(sys, 10 ** 6)
    rng = np.random.default_rng(m * 7)
    for n in rng.integers(0, 10 ** 6, size=300):
        x = values[n]
        for k in range(13):
            assert interval_for(sys, int(n), k).contains(x, guard=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_interval_length_equals_subtile_measure(m):
    sys = make_system(m, 10 ** 5)
    rng = np.random.default_rng(m * 13)
    for n in rng.integers(0, 10 ** 5, size=100):
        for k in (1, 4, 9):
            iv = interval_for(sys, int(n), k)
            lam = sys.neg_power(k) * sum(sys.neg_power(i) for i in range(1, m - iv.r + 1))
            assert abs(iv.length - lam) <= 1e-10


def test_partition_counts_and_examples(sys2, sys3):
    ivs = partition_Ck(sys2, 1)
    assert len(ivs) == 2
    inv_phi = 1.0 / sys2.phi_float
    assert abs(ivs[0].right - inv_phi) < 1e-12 and abs(ivs[1].left - inv_phi) < 1e-12
    assert abs(ivs[1].right - 1.0) < 1e-12
    assert len(partition_Ck(sys2, 3)) == 5
    ivs = partition_Ck(sys3, 4)
    assert len(ivs) == 13
    assert abs(sum(iv.length for iv in ivs) - 1.0) < 1e-10


@pytest.mark.parametrize("m", [2, 3, 4])
def test_partition_geometry(m):
    sys = make_system(m, 10 ** 4)
    for k in range(1, 10):
        ivs = partition_Ck(sys, k)
        assert len(ivs) == sys.basis[k]
        assert ivs[0].left <= 1e-12
        assert abs(ivs[-1].right - 1.0) <= 1e-10
        for a, b in zip(ivs[:-1], ivs[1:]):
            assert abs(b.left - a.right) <= 1e-10


@pytest.mark.parametrize("m", [2, 3])
def test_partition_refines(m):
    sys = make_system(m, 10 ** 4)
    for k in range(1, 8):
        parents = partition_Ck(sys, k)
        children = partition_Ck(sys, k + 1)
        for child in children:
            holders = [
                p for p in parents
                if p.left - 1e-10 <= child.left and child.right <= p.right + 1e-10
            ]
            assert len(holders) == 1


def test_shifted_rotation_matches_digit_membership_m2(sys2, cloud_m2_100k):
    # a small interior offset keeps every shifted orbit point inside the
    # interior of its level-1 cell, so geometric membership (arc test
    # against the transformed subcloud hull) must agree with the digit rule
    from mbonacci.spectral import contraction_matrix, lattice_coords

    k, N = 1, 50
    mat = contraction_matrix(2, cloud_m2_100k.phi)
    # the offset: a fixed label-1 point from the middle of a depth-2048
    # cloud, contracted M = max(k, L) times, with L the level covering N - 1
    ref = build_cloud(2, 2048)
    i = 1024 + int(np.argmax(ref.labels[1024:] == 1))
    M = max(k, bisect_right(sys2.basis, N - 1))
    offset = reduce_array(np.linalg.matrix_power(mat, M) @ ref.unreduced[i])
    gamma = np.asarray(lattice_coords(2, cloud_m2_100k.phi, [1, 0]))
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
        totals = rotation._letter_totals(sys, k)
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
    word = fixed_point_prefix(m, N)
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
