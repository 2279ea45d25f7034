"""Canonical form, the quarter-turn generator, the closed-form exponential
(``spiral_arc``), line coordinates."""

import math

import numpy as np
import pytest

from planarcontrol.errors import NotComplexSpectrum, OffLine, ZeroVector
from planarcontrol.planar import (
    QUARTER_TURN,
    canonicalize,
    line_coordinate,
    spiral_arc,
)

from conftest import random_complex_matrix, series_expm


def matrix_exp(a, t: float) -> np.ndarray:
    """exp(t a) from the kernel: spiral_arc with w = I and nw = N."""
    cf = canonicalize(a)
    return spiral_arc(cf.lam, t, np.eye(2), cf.generator)


def rotation(tau: float) -> np.ndarray:
    """Rotation by tau: the kernel for eigenvalue i in the canonical frame."""
    return spiral_arc(1j, tau, np.eye(2), QUARTER_TURN)


def test_canonicalize_already_canonical():
    cf = canonicalize([[-1.0, -1.0], [1.0, -1.0]])
    assert cf.eig_real == -1.0
    assert cf.eig_imag == 1.0
    assert np.linalg.det(cf.basis) > 0
    np.testing.assert_allclose(cf.basis, np.eye(2), atol=0)


def test_canonicalize_conjugation_identity():
    a = np.array([[-1.0, 4.0], [-1.0, -1.0]])
    cf = canonicalize(a)
    assert cf.eig_real == pytest.approx(-1.0, abs=1e-14)
    assert cf.eig_imag == pytest.approx(2.0, abs=1e-14)
    target = np.array([[-1.0, -2.0], [2.0, -1.0]])
    np.testing.assert_allclose(cf.basis_inv @ a @ cf.basis, target, atol=1e-12)


def test_canonicalize_clockwise_uses_axis_flip():
    lam, mu = -0.7, 1.3
    a = np.array([[lam, mu], [-mu, lam]])  # clockwise rotation-scaling
    cf = canonicalize(a)
    assert np.linalg.det(cf.basis) < 0
    np.testing.assert_allclose(cf.basis, np.diag([1.0, -1.0]), atol=1e-15)
    np.testing.assert_allclose(
        cf.basis_inv @ a @ cf.basis, [[lam, -mu], [mu, lam]], atol=1e-15
    )


def test_canonicalize_rejects_real_spectrum():
    with pytest.raises(NotComplexSpectrum):
        canonicalize(np.eye(2))
    with pytest.raises(NotComplexSpectrum):
        canonicalize([[1.0, 2.0], [3.0, 4.0]])


def test_canonicalize_is_exact_under_power_of_two_scaling():
    # The discriminant of 2^±600 A over- or underflows when formed directly.
    a = np.array([[-0.7, -1.3], [0.9, -0.2]])
    cf = canonicalize(a)
    for e in (-600, 600):
        scaled = canonicalize(a * 2.0**e)
        assert scaled.eig_real == cf.eig_real * 2.0**e
        assert scaled.eig_imag == cf.eig_imag * 2.0**e
        assert np.array_equal(scaled.basis, cf.basis)
    # tr A overflows, tr A / 2 does not.
    big = canonicalize([[-1e308, -1e308], [1e308, -1e308]])
    assert big.eig_real == -1e308 and np.isfinite(big.basis).all()


def test_reconstruction_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        a = random_complex_matrix(rng)
        cf = canonicalize(a)
        normal = [[cf.eig_real, -cf.eig_imag], [cf.eig_imag, cf.eig_real]]
        recon = cf.basis @ normal @ cf.basis_inv
        assert np.abs(recon - a).max() < 1e-9
        assert cf.eig_imag > 0.0


def test_canonical_maps_match_matmul():
    # Elementwise multiply-adds agree with the matrix product on single
    # points, batches and stacked batches, to one rounding per entry.
    rng = np.random.default_rng(19)
    eps = np.finfo(float).eps
    for _ in range(20):
        cf = canonicalize(random_complex_matrix(rng))
        for shape in ((2,), (9, 2), (5, 7, 2)):
            pts = rng.normal(0.0, 1.0, shape)
            got, m = cf.to_canonical(pts), cf.basis_inv
            assert got.shape == shape
            bound = 2.0 * eps * (np.abs(pts) @ np.abs(m).T)
            assert np.all(np.abs(got - pts @ m.T) <= bound)


def test_rotation_and_perp_examples():
    np.testing.assert_allclose(QUARTER_TURN @ [1.0, 0.0], [0.0, 1.0], atol=0)
    np.testing.assert_allclose(rotation(math.pi) @ [1.0, 0.0], [-1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(
        rotation(math.pi / 2) @ rotation(math.pi / 2), rotation(math.pi), atol=1e-15
    )
    # The canonical frame's generator is exactly the quarter turn.
    cf = canonicalize([[0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(cf.generator, QUARTER_TURN)


def test_perp_is_isometric_quarter_turn():
    rng = np.random.default_rng(3)
    for _ in range(100):
        v = rng.normal(0, 2, 2)
        w = QUARTER_TURN @ v
        # Scalar products cancel exactly; numpy's dot may use FMA and not.
        assert float(v[0]) * float(w[0]) + float(v[1]) * float(w[1]) == 0.0
        assert math.hypot(w[0], w[1]) == pytest.approx(
            math.hypot(v[0], v[1]), rel=1e-15
        )
    # Every generator N is the quarter turn seen through the basis Q.
    for _ in range(100):
        cf = canonicalize(random_complex_matrix(rng))
        n = cf.generator
        assert np.abs(n @ n + np.eye(2)).max() < 1e-9 * max(1.0, np.abs(n).max()) ** 2
        np.testing.assert_allclose(
            cf.basis_inv @ n @ cf.basis, QUARTER_TURN, atol=1e-9 * np.abs(n).max()
        )


def test_matrix_exp_at_zero_is_identity():
    a = [[-1.0, -1.0], [1.0, -1.0]]
    np.testing.assert_allclose(matrix_exp(a, 0.0), np.eye(2), atol=0)


def test_matrix_exp_half_turn_against_series():
    a = np.array([[-1.0, -1.0], [1.0, -1.0]])
    got = matrix_exp(a, math.pi)
    expect = -math.exp(-math.pi) * np.eye(2)
    assert np.abs(got - expect).max() < 1e-12
    assert np.abs(got - series_expm(a, math.pi)).max() < 1e-12


def test_matrix_exp_matches_series_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = random_complex_matrix(rng)
        t = rng.uniform(-2.0, 2.0)
        got = matrix_exp(a, t)
        ref = series_expm(a, t)
        assert np.abs(got - ref).max() < 1e-9 * max(1.0, np.abs(ref).max())


def test_matrix_exp_isometry_on_canonical():
    lam, mu = -0.4, 1.7
    a = np.array([[lam, -mu], [mu, lam]])
    rng = np.random.default_rng(9)
    for _ in range(50):
        v = rng.normal(0, 3, 2)
        t = rng.uniform(-3, 3)
        assert np.linalg.norm(matrix_exp(a, t) @ v) == pytest.approx(
            math.exp(t * lam) * np.linalg.norm(v), rel=1e-12
        )


def test_matrix_exp_semigroup_and_determinant():
    rng = np.random.default_rng(13)
    for _ in range(200):
        a = random_complex_matrix(rng)
        s, t = rng.uniform(-5.0, 5.0, 2)
        left = matrix_exp(a, s + t)
        right = matrix_exp(a, s) @ matrix_exp(a, t)
        scale = max(1.0, np.abs(left).max())
        assert np.abs(left - right).max() < 1e-9 * scale
        tr = a[0, 0] + a[1, 1]
        det = np.linalg.det(matrix_exp(a, t))
        assert det == pytest.approx(math.exp(t * tr), rel=1e-9)


def test_line_coordinate_examples():
    d = np.array([3.0, 4.0])
    assert line_coordinate(d, d) == pytest.approx(5.0, rel=1e-15)
    assert line_coordinate([0.0, 0.0], d) == 0.0
    unit = d / 5.0
    assert line_coordinate(-2.0 * unit, unit) == pytest.approx(-2.0, rel=1e-14)


def test_line_coordinate_rejects_off_line_and_zero():
    for size in (1.0, 1e-12):  # the allowance scales with the point
        with pytest.raises(OffLine):
            line_coordinate([size, size], [1.0, 0.0])
    with pytest.raises(ZeroVector):
        line_coordinate([1.0, 1.0], [0.0, 0.0])
