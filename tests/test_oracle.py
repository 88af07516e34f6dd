import re

import numpy as np
import pytest

import mfkl as m
from mfkl import (
    ConfigurationError,
    GridDensity,
    GridSpec,
    InvariantViolationError,
    NonConvergenceError,
    NumericalDomainError,
)


class TestGridDensity:
    def test_normalization_enforced(self):
        grid = GridSpec(-1.0, 1.0, 100)
        with pytest.raises(InvariantViolationError):
            GridDensity(grid, np.full(100, 0.7))
        density = GridDensity.from_unnormalized(grid, np.full(100, 0.7))
        assert np.sum(density.values) * density.dx == pytest.approx(1.0, abs=1e-12)

    def test_negative_values_rejected(self):
        grid = GridSpec(-1.0, 1.0, 10)
        values = np.full(10, 0.5)
        values[3] = -0.1
        with pytest.raises(NumericalDomainError):
            GridDensity(grid, values)

    def test_zero_density_cannot_normalize(self):
        grid = GridSpec(-1.0, 1.0, 10)
        with pytest.raises(NumericalDomainError):
            GridDensity.from_unnormalized(grid, np.zeros(10))


class TestFixedPoint:
    def test_no_interaction_converges_immediately(self, quad_plain):
        grid = m.default_grid_for_quadratic(1.0)
        result = m.self_consistent_fixed_point(quad_plain, grid, tol=1e-10)
        assert result.iterations == 1
        assert result.density.variance() == pytest.approx(1.0, abs=1e-3)

    def test_interacting_variance_closed_form(self, quad_oracle_density):
        # symmetric self-consistent Gaussian has variance 1/(r + 2 s)
        assert quad_oracle_density.variance() == pytest.approx(2.0 / 3.0, abs=1e-3)

    def test_residual_contract(self, quad_interacting):
        grid = m.default_grid_for_quadratic(1.0)
        result = m.self_consistent_fixed_point(quad_interacting, grid, tol=1e-10)
        assert result.residual < 1e-9

    def test_even_symmetry_preserved(self):
        model = m.gauss_attract_repel_model(1.0, 0.01, 1.0)
        grid = m.default_grid_for_quadratic(1.0)
        density = m.self_consistent_fixed_point(model, grid, tol=1e-12).density
        flipped = density.values[::-1]
        assert np.max(np.abs(density.values - flipped)) <= 1e-8

    def test_non_convergence_reports_residual(self, quad_interacting):
        grid = m.default_grid_for_quadratic(1.0)
        with pytest.raises(NonConvergenceError) as err:
            m.self_consistent_fixed_point(quad_interacting, grid, tol=1e-14, max_iter=2)
        assert err.value.residual is not None

    def test_torus_fixed_point(self, torus_model):
        grid = GridSpec(0.0, 1.0, 512)
        result = m.self_consistent_fixed_point(torus_model, grid, tol=1e-10)
        total = np.sum(result.density.values) * result.density.dx
        assert total == pytest.approx(1.0, abs=1e-12)
        # cosine potential concentrates mass at the antipode of its maximum
        assert result.density.values[256] > result.density.values[0]

    def test_grid_refinement_stability(self, quad_interacting):
        coarse = m.self_consistent_fixed_point(
            quad_interacting, GridSpec(-8.0, 8.0, 2001), tol=1e-12
        ).density
        fine = m.self_consistent_fixed_point(
            quad_interacting, GridSpec(-8.0, 8.0, 4002), tol=1e-12
        ).density
        f = lambda x: x * x
        assert abs(
            m.reference_expectation(coarse, f) - m.reference_expectation(fine, f)
        ) < 1e-4


class TestReferenceExpectation:
    def test_constant(self, quad_oracle_density):
        assert m.reference_expectation(quad_oracle_density, lambda x: 3.5) == pytest.approx(3.5)

    def test_odd_function_on_even_density(self, quad_oracle_density):
        assert m.reference_expectation(quad_oracle_density, lambda x: x) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_second_moment(self, quad_oracle_density):
        assert m.reference_expectation(quad_oracle_density, lambda x: x * x) == pytest.approx(
            2.0 / 3.0, abs=1e-3
        )


class TestSmallNGibbs:
    def test_single_particle_gaussian(self, quad_plain):
        tables = m.small_n_gibbs(quad_plain, 1, GridSpec(-8.0, 8.0, 2001))
        assert tables.one_marginal.variance() == pytest.approx(1.0, abs=1e-3)
        assert tables.two_marginal is None

    def test_pair_marginal_matches_gaussian_linear_algebra(self, quad_interacting):
        # exact covariance of the two-particle Gibbs law by matrix inversion
        r, s = 1.0, 0.25
        precision = np.array([[r + s, -s], [-s, r + s]])
        exact_var = np.linalg.inv(precision)[0, 0]
        tables = m.small_n_gibbs(quad_interacting, 2, GridSpec(-8.0, 8.0, 801))
        assert tables.one_marginal.variance() == pytest.approx(exact_var, abs=1e-3)

    def test_joint_exchangeable_bitwise(self, quad_interacting):
        tables = m.small_n_gibbs(quad_interacting, 2, GridSpec(-6.0, 6.0, 301))
        assert np.array_equal(tables.joint, tables.joint.T)

    def test_three_particles_exchangeable(self, quad_interacting):
        tables = m.small_n_gibbs(quad_interacting, 3, GridSpec(-6.0, 6.0, 101))
        joint = tables.joint
        assert np.allclose(joint, np.transpose(joint, (1, 0, 2)))
        assert np.allclose(joint, np.transpose(joint, (2, 1, 0)))

    def test_marginal_approaches_fixed_point_without_interaction(self, quad_plain):
        grid = GridSpec(-8.0, 8.0, 2001)
        tables = m.small_n_gibbs(quad_plain, 2, grid)
        fp = m.self_consistent_fixed_point(quad_plain, grid, tol=1e-12).density
        assert m.density_total_variation(tables.one_marginal, fp) < 1e-3

    def test_cell_budget(self, quad_interacting):
        with pytest.raises(ConfigurationError, match="budget"):
            m.small_n_gibbs(quad_interacting, 3, GridSpec(-8.0, 8.0, 2001))

    def test_n_out_of_range(self, quad_interacting):
        with pytest.raises(ConfigurationError):
            m.small_n_gibbs(quad_interacting, 4, GridSpec(-8.0, 8.0, 51))


class TestStationaryCovariance:
    def test_matches_fixed_point_iteration(self):
        # independent check: iterate the one-step covariance recursion
        r, gamma, h = 1.0, 1.0, 0.1
        sigma = m.stationary_covariance_quadratic(r, gamma, h)
        eta = 1.0 - gamma * h
        a = 1.0 - 0.5 * r * h * h
        mat = np.array([[a, h * eta], [-0.5 * h * r * (1 + a), a * eta]])
        noise = (1 - eta * eta) * np.array([[h * h, h * a], [h * a, a * a]])
        cov = np.zeros((2, 2))
        for _ in range(20_000):
            cov = mat @ cov @ mat.T + noise
        assert np.allclose(sigma, cov, atol=1e-12)

    def test_small_step_recovers_target_variance(self):
        sigma = m.stationary_covariance_quadratic(2.0, 1.0, 1e-4)
        assert sigma[0, 0] == pytest.approx(0.5, abs=1e-6)
        assert sigma[1, 1] == pytest.approx(1.0, abs=1e-6)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            m.stationary_covariance_quadratic(1.0, 1.0, 1.5)
        with pytest.raises(NumericalDomainError):
            m.stationary_covariance_quadratic(4000.0, 1.0, 0.05)


_QUAD = m.quadratic_model(1.0, 0.25)
_QUAD_2D = m.MeanFieldModel(space=m.Space("euclidean", 2), force=_QUAD.force,
                            linear_derivative=_QUAD.linear_derivative, energy=_QUAD.energy)
_NO_ENERGY = m.MeanFieldModel(space=_QUAD.space, force=_QUAD.force)
_GRID = GridSpec(-1.0, 1.0, 4)
_UNIFORM = GridDensity(_GRID, np.full(4, 0.5))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: GridSpec(0.0, 1.0, 1), ConfigurationError,
                 "grid needs at least two cells", id="one cell"),
    pytest.param(lambda: GridSpec(-np.inf, 0.0, 4), ConfigurationError,
                 "grid needs finite lo, hi and hi - lo", id="lo=-inf"),
    pytest.param(lambda: GridSpec(0.0, np.inf, 4), ConfigurationError,
                 "grid needs finite lo, hi and hi - lo", id="hi=inf"),
    pytest.param(lambda: GridSpec(-1e308, 1e308, 4), ConfigurationError,
                 "grid needs finite lo, hi and hi - lo", id="width overflows"),
    pytest.param(lambda: GridDensity(_GRID, np.ones(3)), ConfigurationError,
                 "values must have one entry per grid cell", id="density shape"),
    pytest.param(lambda: GridDensity.from_unnormalized(_GRID, [1.0, np.nan, 1.0, 1.0]),
                 NumericalDomainError, "1 of 4 unnormalized density values are not finite",
                 id="unnormalized nan"),
    pytest.param(lambda: GridDensity.from_unnormalized(_GRID, [1.0, np.inf, 1.0, -np.inf]),
                 NumericalDomainError, "2 of 4 unnormalized density values are not finite",
                 id="unnormalized inf"),
    pytest.param(lambda: m.density_total_variation(
        _UNIFORM, GridDensity(GridSpec(-1.0, 1.0, 2), np.full(2, 0.5))),
        ConfigurationError, "densities live on different grids", id="TV across grids"),
    pytest.param(lambda: m.self_consistent_fixed_point(_QUAD_2D, _GRID), m.CapabilityError,
                 "the fixed-point oracle is one-dimensional", id="fixed point d=2"),
    pytest.param(lambda: m.self_consistent_fixed_point(_QUAD, _GRID, damping=0.0),
                 ConfigurationError, "damping must lie in (0, 1]", id="damping=0"),
    pytest.param(lambda: m.small_n_gibbs(_NO_ENERGY, 2, _GRID), m.CapabilityError,
                 "Gibbs tables need a model with an energy", id="Gibbs without energy"),
    pytest.param(lambda: m.small_n_gibbs(_QUAD_2D, 2, _GRID), m.CapabilityError,
                 "Gibbs tables are one-dimensional", id="Gibbs d=2"),
    pytest.param(  # damping 0.05: the last change is under tol, the residual 20x it
        lambda: m.self_consistent_fixed_point(
            _QUAD, m.default_grid_for_quadratic(1.0), damping=0.05, tol=1e-8),
        NonConvergenceError,
        re.compile(r"fixed point residual \d\.\d{3}e-\d\d exceeds 10 tol"), id="residual"),
])
def test_raise_sites(raises_exactly, call, error, message):
    raises_exactly(call, error, message)
