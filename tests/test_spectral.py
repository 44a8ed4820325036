import os
import pkgutil
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from helpers import root_mpmath
import mbonacci
from mbonacci import numeration, rauzy, spectral
from mbonacci.spectral import (
    ROOT_BITS,
    ambient_projection,
    contraction_matrix,
    dominant_root,
    incidence_matrix,
    lattice_coords,
    precise_multiples_minus,
    reduce_array,
    rotation_point,
    substitution_images,
    torus_distance,
)


def _bisect_root(m: int, tol: float = 1e-13) -> float:
    def f(x):
        return x ** m - sum(x ** j for j in range(m))

    lo, hi = 1.0, 2.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _root_float(m: int) -> float:
    return dominant_root(m) / 2 ** ROOT_BITS


def test_dominant_root_golden_ratio():
    assert abs(_root_float(2) - 1.61803398874989) < 1e-12
    # floor(phi * 2^ROOT_BITS) by the closed form phi = (1 + sqrt 5) / 2
    twice = 2 * dominant_root(2) - (1 << ROOT_BITS)
    assert twice ** 2 < 5 << (2 * ROOT_BITS) < (twice + 2) ** 2


def test_dominant_root_vs_bisection_oracle():
    for m in (3, 4, 5, 6):
        assert abs(_root_float(m) - _bisect_root(m)) < 1e-12
    assert abs(_root_float(3) - 1.83928675521416) < 1e-12


def test_characteristic_identity():
    for m in range(2, 7):
        phi = root_mpmath(m, 120)
        with mpmath.workprec(120):
            total = sum(phi ** -i for i in range(1, m + 1))
            assert abs(total - 1) < 1e-12


def _correctly_rounded_pair(x) -> tuple[float, float]:
    # the nearest float to x, and the nearest float to the rest
    man, exp = x.man_exp
    exact = Fraction(man) * Fraction(2) ** exp
    hi = float(exact)
    return hi, float(exact - Fraction(hi))


def test_root_and_power_pairs_vs_mpmath_oracle():
    # the systems of every command, and the wide basis `expand` asks for
    systems = [numeration.make_system(m) for m in range(2, 7)]
    for sys in systems + [numeration.make_system(2, 10 ** 100)]:
        m = sys.m
        phi = root_mpmath(m, 440)
        with mpmath.workprec(440):
            assert sys.phi == dominant_root(m) == int(mpmath.floor(phi * 2 ** ROOT_BITS))
            assert sys.phi_float == _correctly_rounded_pair(phi)[0]
            inv, power = 1 / phi, mpmath.mpf(1)
            for j, pair in enumerate(sys.neg_power_parts.tolist(), start=1):
                power *= inv
                assert tuple(pair) == _correctly_rounded_pair(power), (m, j)


def test_dominant_root_rejects_bad_m():
    with pytest.raises(ValueError):
        dominant_root(1)


def test_substitution_images():
    assert substitution_images(2) == ((1, 2), (1,))
    assert substitution_images(3) == ((1, 2), (1, 3), (1,))


def test_incidence_examples():
    assert incidence_matrix(2).tolist() == [[1, 1], [1, 0]]
    assert incidence_matrix(3).tolist() == [[1, 1, 1], [1, 0, 0], [0, 1, 0]]


def test_incidence_column_sums_are_image_lengths():
    for m in range(2, 7):
        sums = incidence_matrix(m).sum(axis=0)
        assert sums.tolist() == [2] * (m - 1) + [1]


def test_incidence_characteristic_polynomial():
    for m in range(2, 7):
        coeffs = np.poly(incidence_matrix(m).astype(np.float64))
        expect = np.array([1.0] + [-1.0] * m)
        assert np.max(np.abs(coeffs - expect)) < 1e-9


def test_eigen_residuals_closed_form():
    for m in range(2, 7):
        sys = numeration.make_system(m, 10)
        right = sys.neg_power_parts[:m, 0]
        mat = incidence_matrix(m).astype(np.float64)
        assert np.max(np.abs(mat @ right - sys.phi_float * right)) <= 1e-10
        assert abs(right.sum() - 1.0) <= 1e-12
        assert np.all(right > 0)
        # P commutes with the incidence matrix iff its v is the left eigenvector
        proj = ambient_projection(sys)
        assert np.max(np.abs(proj @ right)) <= 1e-12
        assert np.max(np.abs(proj @ proj - proj)) <= 1e-12
        assert np.max(np.abs(proj @ mat - mat @ proj)) <= 1e-10


def test_right_eigenvector_is_root_powers():
    # independent route: numpy's eigensolver, rescaled to unit sum
    for m in range(2, 7):
        sys = numeration.make_system(m, 10)
        vals, vecs = np.linalg.eig(incidence_matrix(m).astype(np.float64))
        i = int(np.argmax(vals.real))
        u = np.abs(vecs[:, i].real)
        u /= u.sum()
        assert np.max(np.abs(u - sys.neg_power_parts[:m, 0])) < 1e-10


def test_lattice_coords_examples():
    phi3 = _root_float(3)
    got = lattice_coords(3, phi3, [1, 0, 0])
    assert np.allclose(got, [phi3 ** -2, phi3 ** -3], atol=1e-14)
    for m in (2, 3, 5):
        phi = _root_float(m)
        basis_vec = [1, -1] + [0] * (m - 2)
        got = lattice_coords(m, phi, basis_vec)
        assert np.allclose(got, [1.0] + [0.0] * (m - 2), atol=1e-14)
    got = lattice_coords(3, phi3, [0, 1, 0])
    assert np.allclose(got, [phi3 ** -2 - 1.0, phi3 ** -3], atol=1e-14)


def test_lattice_coords_matches_ambient_projection():
    rng = np.random.default_rng(5)
    for m in range(2, 7):
        sys = numeration.make_system(m, 10)
        proj = ambient_projection(sys)
        phi = sys.phi_float
        basis_vectors = [proj @ (np.eye(m)[0] - np.eye(m)[i]) for i in range(1, m)]
        for _ in range(10):
            x = rng.integers(-50, 50, size=m)
            coords = lattice_coords(m, phi, x.tolist())
            recon = sum(c * b for c, b in zip(coords, basis_vectors))
            assert np.max(np.abs(proj @ x - recon)) < 1e-10


def test_projected_e1_expansion_in_ambient_space():
    for m in range(2, 7):
        sys = numeration.make_system(m, 10)
        proj = ambient_projection(sys)
        phi = sys.phi_float
        e = np.eye(m)
        lhs = proj @ e[0]
        rhs = sum(phi ** -i * (proj @ (e[0] - e[i - 1])) for i in range(2, m + 1))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_torus_reduce_examples():
    assert reduce_array(np.array([1.25, -0.5])).tolist() == [0.25, 0.5]
    assert reduce_array(np.array([3.0, -2.0])).tolist() == [0.0, 0.0]
    # -1e-20 - floor(-1e-20) rounds to 1.0, which maps to 0.0
    assert reduce_array(np.array([-1e-20])).tolist() == [0.0]
    out = reduce_array(np.array([[-1e-20, 1.0 - 2 ** -53], [7.5, -3.25]]))
    assert out.tolist() == [[0.0, 1.0 - 2 ** -53], [0.5, 0.75]]
    assert np.all((0.0 <= out) & (out < 1.0))


def test_torus_distance_wraps():
    assert abs(torus_distance((0.95,), (0.05,)) - 0.1) < 1e-15
    assert torus_distance((0.25, 0.5), (0.25, 0.5)) == 0.0


def test_rotation_point_examples(sys2):
    assert rotation_point([sys2], 0).tolist() == [0.0]
    got = rotation_point([sys2], 1)[0]
    assert abs(got - 0.38196601) < 1e-8
    assert abs(got - (2.0 - sys2.phi_float)) < 1e-12


def test_rotation_point_concatenates_systems(sys2, sys3):
    pt = rotation_point([sys2, sys3], 5)
    assert pt.tolist() == rotation_point([sys2], 5).tolist() + rotation_point([sys3], 5).tolist()


def test_conjugacy_lattice_route_vs_rotation(sys2, sys3):
    rng = np.random.default_rng(11)
    for sys in (sys2, sys3):
        for n in np.concatenate(([0, 1, 2], rng.integers(0, 10 ** 4, size=50))):
            direct = reduce_array(lattice_coords(sys.m, sys.phi_float,
                                                 [int(n)] + [0] * (sys.m - 1)))
            rotated = rotation_point([sys], int(n))
            assert torus_distance(direct, rotated) <= 1e-9


def test_precise_frac_multiples_vs_mpmath():
    # the bulk orbit is the reduced cloud: n * phi^-i minus integer letter counts
    cloud = rauzy.build_cloud(3, 10 ** 6)
    rng = np.random.default_rng(3)
    phi = root_mpmath(3, 150)
    with mpmath.workprec(150):
        for n in rng.integers(0, 10 ** 6, size=100):
            exact = [float(mpmath.frac(int(n) * phi ** -i)) for i in (2, 3)]
            assert torus_distance(exact, cloud.reduced[n]) < 1e-13


def test_precise_helpers_reject_huge_indices(sys2):
    hi, lo = sys2.neg_power_parts[1]
    ns = np.array([1 << 27], dtype=np.int64)
    with pytest.raises(ValueError):
        precise_multiples_minus(ns, float(hi), float(lo), np.zeros(1, dtype=np.int64))


def test_rotation_orbit_matches_scalar(sys3):
    # the bulk orbit is the reduced cloud; it agrees with the scalar rotation point
    orbit = rauzy.build_cloud(3, 500).reduced
    for n in (0, 1, 17, 499):
        assert torus_distance(orbit[n], rotation_point([sys3], n)) < 1e-12


def test_contraction_matrix_m2(sys2):
    mat = contraction_matrix(2, sys2.phi_float)
    assert mat.shape == (1, 1)
    assert abs(mat[0, 0] + 1.0 / sys2.phi_float) < 1e-12


def test_contraction_matrix_intertwines_incidence_action():
    rng = np.random.default_rng(9)
    for m in range(2, 7):
        phi = _root_float(m)
        mat = contraction_matrix(m, phi)
        inc = incidence_matrix(m)
        for _ in range(8):
            x = rng.integers(-20, 20, size=m)
            lhs = mat @ np.asarray(lattice_coords(m, phi, x.tolist()))
            rhs = np.asarray(lattice_coords(m, phi, (inc @ x).tolist()))
            assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_spectral_is_a_leaf_module():
    # each module imports on its own, and spectral pulls in no sibling
    src = os.path.dirname(os.path.dirname(os.path.abspath(mbonacci.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    names = [info.name for info in pkgutil.iter_modules(mbonacci.__path__)
             if info.name != "__main__"]
    assert "spectral" in names and "numeration" in names
    for name in names:
        subprocess.run([sys.executable, "-c", f"import mbonacci.{name}"], env=env, check=True)
    script = ("import sys, mbonacci.spectral\n"
              "print(sorted(m for m in sys.modules if m.startswith('mbonacci.')))\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "['mbonacci.spectral']"
