"""Independent reference answers for the sampler's targets.

Three oracles live here: the one-dimensional stationary law obtained by
damped fixed-point iteration of the self-consistency relation
``mu ∝ exp(-U_mu)``; exact small-N Gibbs tables of the N-particle measure
on tensor grids; and the exact stationary covariance of the scalar
Gaussian chain, obtained from the fixed point of the one-step linear
recursion.  None of them runs the sampler.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapabilityError,
    ConfigurationError,
    InvariantViolationError,
    NonConvergenceError,
    NumericalDomainError,
    _require_integer,
)

_NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """A uniform 1-d grid: cells of width (hi-lo)/n_cells, midpoint nodes."""

    lo: float
    hi: float
    n_cells: int

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ConfigurationError("grid needs hi > lo")
        if not math.isfinite(self.hi - self.lo):  # an infinite bound, or an overflow
            raise ConfigurationError("grid needs finite lo, hi and hi - lo")
        _require_integer("n_cells", self.n_cells)
        if self.n_cells < 2:
            raise ConfigurationError("grid needs at least two cells")

    @property
    def dx(self):
        return (self.hi - self.lo) / self.n_cells

    @property
    def centers(self):
        return self.lo + (np.arange(self.n_cells) + 0.5) * self.dx


def default_grid_for_quadratic(r):
    """2001 cells spanning +-8 standard deviations of the non-interacting Gaussian."""
    half = 8.0 / math.sqrt(r)
    return GridSpec(-half, half, 2001)


TORUS_GRID = GridSpec(0.0, 1.0, 1024)


class GridDensity:
    """A probability density tabulated at the midpoints of a uniform grid."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_cells,):
            raise ConfigurationError("values must have one entry per grid cell")
        if not np.isfinite(values).all() or (values < 0.0).any():
            raise NumericalDomainError("density values must be finite and nonnegative")
        total = float(np.sum(values) * grid.dx)
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise InvariantViolationError(
                f"density integrates to {total!r}, not 1 (midpoint rule)"
            )
        self.grid = grid
        self.values = values

    @classmethod
    def from_unnormalized(cls, grid, raw):
        raw = np.asarray(raw, dtype=float)
        non_finite = int(np.count_nonzero(~np.isfinite(raw)))
        if non_finite:
            raise NumericalDomainError(
                f"{non_finite} of {raw.size} unnormalized density values are not finite")
        total = float(np.sum(raw) * grid.dx)
        if not total > 0.0:
            raise NumericalDomainError("cannot normalize an identically-zero density")
        return cls(grid, raw / total)

    @property
    def centers(self):
        return self.grid.centers

    @property
    def dx(self):
        return self.grid.dx

    @property
    def lo(self):
        return self.grid.lo

    @property
    def hi(self):
        return self.grid.hi

    def expectation(self, f):
        return reference_expectation(self, f)

    def mean(self):
        return self.expectation(lambda x: x)

    def variance(self):
        m = self.mean()
        return self.expectation(lambda x: (x - m) ** 2)


def reference_expectation(density, f):
    """Midpoint-rule integral of ``f`` against the density."""
    fx = np.asarray(f(density.centers), dtype=float)
    if fx.ndim == 0:
        fx = np.full(density.grid.n_cells, float(fx))
    return float(np.sum(fx * density.values) * density.dx)


def density_total_variation(a, b):
    """Total variation distance between densities on the same grid."""
    if a.grid != b.grid:
        raise ConfigurationError("densities live on different grids")
    return 0.5 * float(np.sum(np.abs(a.values - b.values)) * a.dx)


def _require_fixed_point_model(model):
    """The fixed-point oracle's capability checks, which read only the model."""
    if model.linear_derivative is None:
        raise CapabilityError("model does not expose a 1-d linear derivative")
    if model.space.d != 1:
        raise CapabilityError("the fixed-point oracle is one-dimensional")


def self_consistent_fixed_point(model, grid, damping=0.5, tol=1e-10, max_iter=500):
    """Damped Picard iteration for the stationary self-consistent density.

    Iterates ``mu <- (1-beta) mu + beta normalize(exp(-U_mu))`` starting from
    ``normalize(exp(-V))`` until the L1 change per sweep drops below ``tol``.
    Returns a :class:`FixedPointResult`; non-convergence raises (it typically
    signals interactions strong enough for non-uniqueness).
    """
    _require_fixed_point_model(model)
    if not 0.0 < damping <= 1.0:
        raise ConfigurationError("damping must lie in (0, 1]")
    centers = grid.centers

    if model.external_potential is not None:
        v = np.asarray(model.external_potential(centers[:, None]), dtype=float)
        density = GridDensity.from_unnormalized(grid, np.exp(-(v - v.min())))
    else:
        density = GridDensity.from_unnormalized(grid, np.ones(grid.n_cells))

    def picard_image(dens):
        u = np.asarray(model.linear_derivative(dens, centers), dtype=float)
        return GridDensity.from_unnormalized(grid, np.exp(-(u - u.min())))

    change = math.inf
    for iterations in range(1, max_iter + 1):
        image = picard_image(density)
        new_values = (1.0 - damping) * density.values + damping * image.values
        change = float(np.sum(np.abs(new_values - density.values)) * grid.dx)
        density = GridDensity(grid, new_values)
        if change < tol:
            break
    else:
        raise NonConvergenceError(
            f"fixed point not reached in {max_iter} iterations "
            f"(last L1 change {change:.3e})",
            residual=change,
            iterations=max_iter,
        )

    residual = density_total_variation(density, picard_image(density)) * 2.0
    if residual >= 10.0 * tol:
        raise NonConvergenceError(
            f"fixed point residual {residual:.3e} exceeds 10 tol", residual=residual
        )
    return FixedPointResult(density=density, iterations=iterations, residual=residual)


@dataclass
class FixedPointResult:
    density: GridDensity
    iterations: int
    residual: float


@dataclass
class GibbsTables:
    """Exact Gibbs tables on a tensor grid: joint cell masses and marginals."""

    joint: np.ndarray
    one_marginal: GridDensity
    two_marginal: np.ndarray | None


_CELL_BUDGET = 10 ** 8
_CHUNK = 65536  # tensor-grid points per energy call


def small_n_gibbs(model, n_particles, grid):
    """Tabulate the N-particle Gibbs measure for N <= 3 in one dimension.

    The potential is evaluated on the full tensor grid, exponentiated, and
    normalized; marginals are exchangeable by the symmetry of the potential.
    """
    if model.energy is None:
        raise CapabilityError("Gibbs tables need a model with an energy")
    if model.space.d != 1:
        raise CapabilityError("Gibbs tables are one-dimensional")
    if not 1 <= n_particles <= 3:
        raise ConfigurationError("Gibbs tables support 1 <= N <= 3")
    total_cells = grid.n_cells ** n_particles
    if total_cells > _CELL_BUDGET:
        raise ConfigurationError(
            f"tensor grid needs {total_cells} cells, over the {_CELL_BUDGET} budget; "
            "reduce n_cells or N"
        )
    centers = grid.centers
    meshes = np.meshgrid(*([centers] * n_particles), indexing="ij")
    points = np.stack([m.reshape(-1) for m in meshes], axis=-1)[..., None]

    potential = np.empty(total_cells)
    for start in range(0, total_cells, _CHUNK):
        block = points[start : start + _CHUNK]
        potential[start : start + _CHUNK] = n_particles * model.energy(block)

    weights = np.exp(-(potential - potential.min()))
    joint = (weights / weights.sum()).reshape((grid.n_cells,) * n_particles)

    axes = tuple(range(1, n_particles))
    one_mass = joint.sum(axis=axes) if axes else joint
    one_marginal = GridDensity(grid, one_mass / grid.dx)
    two_marginal = None
    if n_particles >= 2:
        two_axes = tuple(range(2, n_particles))
        two_mass = joint.sum(axis=two_axes) if two_axes else joint
        two_marginal = two_mass / grid.dx ** 2
    return GibbsTables(joint=joint, one_marginal=one_marginal, two_marginal=two_marginal)


def stationary_covariance_quadratic(r, gamma, h):
    """Exact stationary covariance of the scalar chain for a Gaussian target.

    For confinement (r/2) x^2 with one particle in one dimension, the chain
    is linear with Gaussian noise; its stationary covariance solves the
    2x2 discrete Lyapunov equation of the one-step recursion.  Returns the
    (x, v) covariance matrix.
    """
    if not (r > 0.0 and gamma > 0.0 and 0.0 < h < 1.0 / gamma):
        raise ConfigurationError("need r > 0, gamma > 0, 0 < h < 1/gamma")
    eta = 1.0 - gamma * h
    a = 1.0 - 0.5 * r * h * h
    m = np.array([
        [a, h * eta],
        [-0.5 * h * r * (1.0 + a), a * eta],
    ])
    if np.max(np.abs(np.linalg.eigvals(m))) >= 1.0:
        raise NumericalDomainError("one-step map is not contracting; no stationary law")
    noise = (1.0 - eta * eta) * np.array([
        [h * h, h * a],
        [h * a, a * a],
    ])
    lhs = np.eye(4) - np.kron(m, m)
    sigma = np.linalg.solve(lhs, noise.reshape(-1)).reshape(2, 2)
    return 0.5 * (sigma + sigma.T)
