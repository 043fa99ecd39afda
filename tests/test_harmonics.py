import math

import numpy as np
import pytest
from conftest import oversampled_grid
from numpy.polynomial import polynomial as npoly

from harmonode import harmonics
from harmonode.harmonics import (
    HarmonicExpansion,
    SphericalSamples,
    build_grid,
    degree_energies,
    expand,
    reconstruct_on_grid,
    truncation_error,
)


def basis(l, m, theta, phi):
    """The real harmonic of degree l, order m at broadcast (theta, phi)."""
    return harmonics._harmonics(l, theta, phi)[..., l * l + l + m]


def series(expansion, theta, phi):
    """The truncated series sum_l sum_m a_lm Y_lm at broadcast (theta, phi)."""
    return harmonics._harmonics(expansion.l_max, theta, phi) @ expansion.coefficients


def oracle_real_sph_harm(l, m, theta, phi):
    """Recurrence-free oracle built from polynomial differentiation.

    P_l comes from differentiating (x^2 - 1)^l l times; the associated
    function from m further derivatives, the Condon-Shortley sign, and the
    exact-factorial orthonormality constant.
    """
    poly = np.array([1.0])
    for _ in range(l):
        poly = npoly.polymul(poly, np.array([-1.0, 0.0, 1.0]))
    for _ in range(l):
        poly = npoly.polyder(poly)
    poly = poly / (2.0**l * math.factorial(l))
    mm = abs(m)
    for _ in range(mm):
        poly = npoly.polyder(poly)
    x = math.cos(theta)
    value = (-1.0) ** mm * (1.0 - x * x) ** (mm / 2.0) * npoly.polyval(x, poly)
    norm = math.sqrt(
        (2 * l + 1) / (4 * math.pi) * math.factorial(l - mm) / math.factorial(l + mm)
    )
    base = norm * value
    if m == 0:
        return base
    if m > 0:
        return math.sqrt(2.0) * base * math.cos(m * phi)
    return math.sqrt(2.0) * base * math.sin(mm * phi)


class TestRealSphHarm:
    def test_constant_mode(self):
        expected = 0.2820947917738781
        for theta, phi in ((0.0, 0.0), (1.2, 3.0), (math.pi, -2.0)):
            assert basis(0, 0, theta, phi) == pytest.approx(expected, abs=1e-12)

    def test_degree_one_pole_value(self):
        assert basis(1, 0, 0.0, 0.0) == pytest.approx(0.4886025119029199, abs=1e-12)
        assert basis(1, 0, math.pi / 2, 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_matches_polynomial_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            l = int(rng.integers(0, 17))
            m = int(rng.integers(-l, l + 1))
            theta = float(rng.uniform(0.0, math.pi))
            phi = float(rng.uniform(0.0, 2 * math.pi))
            assert basis(l, m, theta, phi) == pytest.approx(
                oracle_real_sph_harm(l, m, theta, phi), abs=1e-10
            )

    def test_array_broadcast(self):
        theta = np.linspace(0.1, 3.0, 7)
        values = basis(4, -2, theta, 0.5)
        assert values.shape == (7,)
        assert values[3] == pytest.approx(basis(4, -2, float(theta[3]), 0.5))
        coeffs = np.random.default_rng(3).normal(size=36)
        expansion = HarmonicExpansion(l_max=5, coefficients=coeffs)
        values = series(expansion, theta, 0.5)
        assert values.shape == (7,)
        point = series(expansion, float(theta[3]), 0.5)
        assert isinstance(point, float)
        assert values[3] == pytest.approx(point)


class TestHarmonicExpansion:
    def test_rows_follow_storage_order(self):
        l_max = 4
        coeffs = np.random.default_rng(5).normal(size=(l_max + 1) ** 2)
        expansion = HarmonicExpansion(l_max=l_max, coefficients=coeffs)
        rows = list(expansion.rows())
        assert [(l, m) for l, m, _ in rows] == [(l, m) for l in range(l_max + 1) for m in range(-l, l + 1)]
        for l, m, a in rows:
            assert type(l) is int and type(m) is int and type(a) is float
            assert a == expansion.coefficients[l * l + l + m]


class TestBuildGrid:
    def test_minimal_rule(self):
        for l_max in (0, 3, 16, 24):
            grid = build_grid(l_max)
            assert grid.n_theta >= 2 * (l_max + 1)
            assert grid.n_phi == 2 * grid.n_theta

    def test_default_oversample(self):
        grid = build_grid(16)
        assert grid.n_theta == 64
        assert grid.n_phi == 128

    @pytest.mark.parametrize("l_max", [0, 3, 16, 24])
    def test_weights_sum_to_two(self, l_max):
        grid = build_grid(l_max)
        assert grid.weights.sum() == pytest.approx(2.0, abs=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_grid(-1)


class TestExpand:
    def test_constant_function(self):
        grid = build_grid(16)
        samples = SphericalSamples(grid, np.ones((grid.n_theta, grid.n_phi)))
        expansion = expand(samples, 16)
        assert expansion.coefficients[0] == pytest.approx(math.sqrt(4 * math.pi), abs=1e-10)
        rest = expansion.coefficients.copy()
        rest[0] = 0.0
        assert np.abs(rest).max() <= 1e-10

    def test_pure_mode_round_trip(self):
        grid = build_grid(16)
        theta, phi = np.meshgrid(grid.theta, grid.phi, indexing="ij")
        samples = SphericalSamples(grid, basis(3, 2, theta, phi))
        expansion = expand(samples, 16)
        assert expansion.coefficients[3 * 3 + 3 + 2] == pytest.approx(1.0, abs=1e-10)
        rest = expansion.coefficients.copy()
        rest[3 * 3 + 3 + 2] = 0.0
        assert np.abs(rest).max() <= 1e-10

    def test_grid_too_coarse_rejected(self):
        grid = oversampled_grid(4, 1.0)  # n_theta = 10
        samples = SphericalSamples(grid, np.ones((grid.n_theta, grid.n_phi)))
        with pytest.raises(ValueError, match="too coarse"):
            expand(samples, 8)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        grid = build_grid(8)
        f = rng.normal(size=(grid.n_theta, grid.n_phi))
        g = rng.normal(size=(grid.n_theta, grid.n_phi))
        alpha, beta = 2.5, -1.25
        combined = expand(SphericalSamples(grid, alpha * f + beta * g), 8)
        separate = alpha * expand(SphericalSamples(grid, f), 8).coefficients + beta * expand(
            SphericalSamples(grid, g), 8
        ).coefficients
        assert np.abs(combined.coefficients - separate).max() <= 1e-10


class TestReconstruct:
    def test_constant_round_trip(self):
        grid = build_grid(8)
        expansion = expand(SphericalSamples(grid, np.ones((grid.n_theta, grid.n_phi))), 8)
        for theta, phi in ((0.3, 0.1), (2.0, 4.0), (1.5707, 3.1)):
            assert series(expansion, theta, phi) == pytest.approx(1.0, abs=1e-10)

    def test_basis_round_trip(self):
        grid = build_grid(8)
        theta, phi = np.meshgrid(grid.theta, grid.phi, indexing="ij")
        expansion = expand(SphericalSamples(grid, basis(5, -4, theta, phi)), 8)
        rng = np.random.default_rng(11)
        for _ in range(20):
            t, p = float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))
            assert series(expansion, t, p) == pytest.approx(
                basis(5, -4, t, p), abs=1e-10
            )

    def test_grid_synthesis_matches_pointwise(self):
        grid = build_grid(6)
        rng = np.random.default_rng(13)
        samples = SphericalSamples(grid, rng.normal(size=(grid.n_theta, grid.n_phi)))
        expansion = expand(samples, 6)
        synth = reconstruct_on_grid(expansion, grid)
        theta, phi = np.meshgrid(grid.theta, grid.phi, indexing="ij")
        direct = series(expansion, theta, phi)
        assert np.abs(synth - direct).max() <= 1e-10

    def test_truncated_gaussian_pointwise_error_tracks_global(self):
        # dense off-grid comparison: pointwise residual RMS of a truncated
        # bump-sum stays near the quadrature-norm residual
        grid = build_grid(16)
        theta, phi = np.meshgrid(grid.theta, grid.phi, indexing="ij")
        centers = [(1.2, 0.5), (1.8, 2.5), (0.9, 4.4)]
        values = np.zeros_like(theta)
        for tc, pc in centers:
            values += np.exp(-20.0 * ((theta - tc) ** 2 + (phi - pc) ** 2))
        samples = SphericalSamples(grid, values)
        expansion = expand(samples, 16)
        global_error = truncation_error(samples, expansion)

        rng = np.random.default_rng(17)
        t = rng.uniform(0.05, math.pi - 0.05, size=2000)
        p = rng.uniform(0.0, 2 * math.pi, size=2000)
        direct = np.zeros_like(t)
        for tc, pc in centers:
            direct += np.exp(-20.0 * ((t - tc) ** 2 + (p - pc) ** 2))
        residual_rms = np.sqrt(np.mean((series(expansion, t, p) - direct) ** 2))
        f_rms = np.sqrt(np.mean(direct**2))
        assert residual_rms / f_rms <= 2.0 * global_error


class TestTruncationError:
    def test_band_limited_is_exact(self):
        grid = build_grid(10)
        theta, phi = np.meshgrid(grid.theta, grid.phi, indexing="ij")
        values = 2.0 * basis(4, 1, theta, phi) - basis(7, -3, theta, phi)
        samples = SphericalSamples(grid, values)
        assert truncation_error(samples, expand(samples, 10)) <= 1e-9

    def test_refinement_reduces_error(self):
        grid = build_grid(16)
        theta, phi = np.meshgrid(grid.theta, grid.phi, indexing="ij")
        values = np.exp(-20.0 * ((theta - 1.3) ** 2 + (phi - 2.0) ** 2))
        samples = SphericalSamples(grid, values)
        errors = [truncation_error(samples, expand(samples, l)) for l in (0, 4, 8, 16)]
        assert errors[0] > errors[-1]
        assert all(errors[i + 1] <= errors[i] + 1e-12 for i in range(len(errors) - 1))

    def test_zero_function_rejected(self):
        grid = build_grid(4)
        samples = SphericalSamples(grid, np.zeros((grid.n_theta, grid.n_phi)))
        with pytest.raises(ValueError, match="zero"):
            truncation_error(samples, expand(samples, 4))


class TestFrequencyEnergies:
    def test_constant_concentrates_at_zero(self):
        grid = build_grid(8)
        c = -3.5
        expansion = expand(SphericalSamples(grid, np.full((grid.n_theta, grid.n_phi), c)), 8)
        energies = degree_energies(expansion.coefficients, expansion.l_max)[0]
        assert energies[0] == pytest.approx(abs(c) * math.sqrt(4 * math.pi), rel=1e-10)
        assert np.abs(energies[1:]).max() <= 1e-9

    def test_pure_mode_energy(self):
        grid = build_grid(8)
        theta, phi = np.meshgrid(grid.theta, grid.phi, indexing="ij")
        expansion = expand(SphericalSamples(grid, basis(2, 1, theta, phi)), 8)
        energies = degree_energies(expansion.coefficients, expansion.l_max)[0]
        assert energies[2] == pytest.approx(1.0, abs=1e-10)
        others = energies.copy()
        others[2] = 0.0
        assert np.abs(others).max() <= 1e-10

    def test_matches_coefficient_arithmetic(self):
        rng = np.random.default_rng(19)
        l_max = 6
        coeffs = rng.normal(size=(l_max + 1) ** 2)
        energies = degree_energies(coeffs, l_max)[0]
        for l in range(l_max + 1):
            block = coeffs[l * l : (l + 1) * (l + 1)]
            assert energies[l] == pytest.approx(math.sqrt(np.sum(block * block)), rel=1e-12)


def per_row_energies(coefficients, l_max):
    """The energy rule one row and one degree at a time: sqrt(block @ block)."""
    blocks = [[row[l * l : (l + 1) * (l + 1)] for l in range(l_max + 1)] for row in coefficients]
    return np.array([[math.sqrt(float(b @ b)) for b in row] for row in blocks])


@pytest.mark.parametrize("l_max", range(21))
def test_degree_energies_bit_equal_to_per_row_products(l_max):
    rng = np.random.default_rng(l_max)
    rows = rng.normal(size=(40, (l_max + 1) ** 2)) * 10.0 ** rng.uniform(-5, 5, size=(40, 1))
    rows[::7] = 0.0
    rows[3, ::2] = 0.0
    energies = degree_energies(rows, l_max)
    assert energies.shape == (40, l_max + 1)
    assert np.array_equal(energies, per_row_energies(rows, l_max))
    single = degree_energies(rows[1].copy(), l_max)[0]
    assert np.array_equal(single, energies[1])


def test_degree_energies_of_no_rows():
    assert degree_energies(np.empty((0, 25)), 4).shape == (0, 5)


class TestInvariants:
    def test_parseval_on_band_limited_input(self):
        rng = np.random.default_rng(23)
        l_max = 10
        grid = build_grid(l_max)
        coeffs = rng.normal(size=(l_max + 1) ** 2)
        expansion = HarmonicExpansion(l_max=l_max, coefficients=coeffs)
        values = reconstruct_on_grid(expansion, grid)
        norm2 = grid.integrate(values * values)
        assert norm2 == pytest.approx(float(coeffs @ coeffs), rel=1e-8)

    def test_energies_invariant_under_rotation_of_band_limited_function(self):
        from conftest import grid_unit_vectors, random_rotation

        rng = np.random.default_rng(29)
        l_max = 5
        grid = oversampled_grid(l_max, 2.0)
        coeffs = rng.normal(size=(l_max + 1) ** 2)
        base = HarmonicExpansion(l_max=l_max, coefficients=coeffs)
        reference = degree_energies(base.coefficients, base.l_max)[0]

        rotation = random_rotation(rng)
        mesh = grid_unit_vectors(grid)
        rotated_mesh = mesh @ rotation  # evaluate f at R^T x == compose with rotation
        theta_r = np.arccos(np.clip(rotated_mesh[..., 2], -1, 1))
        phi_r = np.arctan2(rotated_mesh[..., 1], rotated_mesh[..., 0])
        rotated_values = series(base, theta_r, phi_r)
        rotated = expand(SphericalSamples(grid, rotated_values), l_max)
        energies = degree_energies(rotated.coefficients, l_max)[0]
        assert np.allclose(energies, reference, rtol=1e-6, atol=1e-9)

    def test_discrete_orthonormality_spot_checks(self):
        grid = build_grid(16)
        theta, phi = np.meshgrid(grid.theta, grid.phi, indexing="ij")
        weight = grid.weights[:, None] * grid.delta_phi
        pairs = [((0, 0), (0, 0)), ((3, 2), (3, 2)), ((3, 2), (5, 2)), ((7, -4), (7, 4)), ((16, 9), (16, 9))]
        for (l1, m1), (l2, m2) in pairs:
            inner = float(
                (basis(l1, m1, theta, phi) * basis(l2, m2, theta, phi) * weight).sum()
            )
            expected = 1.0 if (l1, m1) == (l2, m2) else 0.0
            assert inner == pytest.approx(expected, abs=1e-10)
