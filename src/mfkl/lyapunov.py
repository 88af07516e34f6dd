"""Lyapunov functions of the kernel and empirical drift verification.

Two Lyapunov functions are supported: the sixth velocity moment
``sum_i |v_i|^6`` on the torus, whose one-step drift bound is fully
explicit, and the cubed tilted energy
``sum_i (V(x_i) + |v_i|^2/2 + alpha x_i . v_i)^3`` on R^d, whose
contraction slope ``1 - theta h`` is explicit while the additive constant
is not.  Accordingly the torus check compares a Monte Carlo estimate of
the kernel action against the explicit bound, and the Euclidean check is
an affine regression of the kernel action on the function value.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chain import _transition
from .errors import (
    CapabilityError,
    ConfigurationError,
    InvariantViolationError,
    NumericalDomainError,
)
from .model import EUCLIDEAN, TORUS, potential_gradient
from .risk import _fit_line, _moment_record
from .rng import RngStream
from .theory import lyapunov_constants

VELOCITY_SIXTH = "velocity_sixth"
ENERGY_CUBED = "energy_cubed"


@dataclass(frozen=True)
class LyapunovSpec:
    """Which Lyapunov function to evaluate, with its parameters.

    ``velocity_sixth`` needs nothing extra and applies on the torus.
    ``energy_cubed`` needs the tilt ``alpha`` and the external potential
    ``v_ref`` (vectorized over particles), and applies on R^d; ``alpha``
    must not exceed ``sqrt(c0/2)`` for the energy sandwich to hold.
    """

    kind: str
    alpha: float = 0.0
    v_ref: "callable | None" = None

    def __post_init__(self):
        if self.kind not in (VELOCITY_SIXTH, ENERGY_CUBED):
            raise ConfigurationError(f"unknown Lyapunov kind {self.kind!r}")
        if self.kind == ENERGY_CUBED:
            if not self.alpha >= 0.0:
                raise ConfigurationError("alpha must be nonnegative")
            if not math.isfinite(self.alpha):
                raise ConfigurationError("alpha must be finite")
            if self.v_ref is None:
                raise ConfigurationError("energy_cubed needs the external potential")

    @classmethod
    def for_model(cls, model, gamma, n_particles=1):
        """Spec matching the model's space, with alpha from the drift constants."""
        if model.space.kind == TORUS:
            return cls(kind=VELOCITY_SIXTH)
        consts = lyapunov_constants(model.space, gamma, model.coeffs, n_particles)
        if model.external_potential is None:
            raise CapabilityError("model does not expose its external potential")
        return cls(kind=ENERGY_CUBED, alpha=consts.alpha, v_ref=model.external_potential)


def _values_batched(spec, positions, velocities):
    """Lyapunov value for every system in a leading batch; shape (...,)."""
    if spec.kind == VELOCITY_SIXTH:
        speed_sq = np.sum(velocities * velocities, axis=-1)
        return np.sum(speed_sq ** 3, axis=-1)
    pot = np.asarray(spec.v_ref(positions), dtype=float)
    phi = pot + 0.5 * np.sum(velocities * velocities, axis=-1) + spec.alpha * np.sum(
        positions * velocities, axis=-1
    )
    if (phi < 0.0).any():
        raise InvariantViolationError(
            "tilted energy is negative at some particle; alpha is too large "
            "for this potential"
        )
    return np.sum(phi ** 3, axis=-1)


def lyapunov_value(spec, state):
    """Evaluate the Lyapunov function on one particle state."""
    if spec.kind == VELOCITY_SIXTH and state.space.kind != TORUS:
        raise ConfigurationError("velocity_sixth is the torus Lyapunov function")
    if spec.kind == ENERGY_CUBED and state.space.kind != EUCLIDEAN:
        raise ConfigurationError("energy_cubed is the Euclidean Lyapunov function")
    return float(_values_batched(spec, state.positions, state.velocities))


@dataclass(frozen=True)
class DriftReport:
    """Monte Carlo estimate of the kernel action against a drift bound."""

    pv_estimate: float
    pv_std_err: float
    rhs_bound: float
    holds: bool
    margin_sigmas: float


def kernel_values_monte_carlo(model, state, params, spec, m_draws, rng):
    """Lyapunov values after one kernel step, one per refresh draw: the
    chain's own transition, broadcast over ``(m_draws, N, d)`` draws.

    Working set, counted in ``(m_draws, N, d)`` float64 arrays: the
    transition makes the draws as a temporary of the refresh, so they die
    there, the trailing gradient is not kept, and the batched gradient runs
    in cache-sized blocks, so the step peaks at about 4 (2.5 while the
    draws are made).  The peak comes twice: at the torus wrap (the
    velocities, the unwrapped positions, their ``floor`` and the result)
    and at the kick (the velocities, the new positions, the trailing
    gradient and one temporary).
    """
    if m_draws < 1000:
        raise ConfigurationError("use at least 1000 Monte Carlo draws")
    g0 = potential_gradient(model, state.positions)
    x_new, v_new = _transition(
        model, state.space, state.positions, state.velocities,
        rng, (m_draws, *state.positions.shape), params, g0,
    )[:2]
    return _values_batched(spec, x_new, v_new)


def estimate_kernel_drift(model, state, params, spec, m_draws=10_000, rng=None):
    """One-step drift check at ``state``: is P V <= (1 - gamma h) V + N h C?

    The additive constant C is explicit only on the torus; on R^d use
    :func:`drift_slope_regression`, which tests the explicit slope only.
    """
    if spec.kind != VELOCITY_SIXTH:
        raise CapabilityError(
            "the Euclidean additive drift constant is not explicit; "
            "use drift_slope_regression"
        )
    if rng is None:
        rng = RngStream(params.master_seed)
    current = lyapunov_value(spec, state)
    values = kernel_values_monte_carlo(model, state, params, spec, m_draws, rng)
    pv = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(m_draws))
    n = state.positions.shape[0]
    consts = lyapunov_constants(state.space, params.gamma, model.coeffs, n)
    rhs = params.eta * current + n * params.h * consts.torus_additive
    holds = pv - 3.0 * se <= rhs
    margin = (rhs - pv) / se if se > 0.0 else math.inf
    return DriftReport(
        pv_estimate=pv, pv_std_err=se, rhs_bound=rhs, holds=bool(holds), margin_sigmas=margin
    )


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    slope_std_err: float
    r_squared: float


def drift_slope_regression(model, states, params, spec, m_draws=10_000, seed=0):
    """Regress Monte Carlo kernel values on Lyapunov values over many states.

    Uses common random numbers (the same refresh draws for every state) to
    sharpen the comparison.  The drift inequality predicts a fitted slope
    at most ``1 - theta h`` up to statistical error.
    """
    _require_slope_states(len(states))
    v_vals = []
    pv_vals = []
    for state in states:
        v_vals.append(lyapunov_value(spec, state))
        values = kernel_values_monte_carlo(
            model, state, params, spec, m_draws, RngStream(seed)
        )
        pv_vals.append(float(np.mean(values)))
    v_vals = np.asarray(v_vals)
    pv_vals = np.asarray(pv_vals)
    n = len(v_vals)
    slope, ss_v, rss, r_squared = _fit_line(v_vals, pv_vals, "the Lyapunov value of the states")
    stderr = math.sqrt(rss / (n - 2) / ss_v)
    return SlopeFit(slope=slope, slope_std_err=stderr, r_squared=r_squared)


def _require_slope_states(n_states):
    if n_states < 3:
        raise ConfigurationError(f"need at least three states to fit a slope, got {n_states}")


# ---------------------------------------------------------------------------
# Gaussian moment utilities


def gaussian_sixth_moment_exact(d):
    """E|G|^6 = d(d+2)(d+4) for a standard Gaussian in d dimensions."""
    if d < 1:
        raise NumericalDomainError("dimension must be >= 1")
    return float(d * (d + 2) * (d + 4))


def gaussian_sixth_moment_bound(d):
    """The 15 d^3 upper bound on E|G|^6."""
    if d < 1:
        raise NumericalDomainError("dimension must be >= 1")
    return 15.0 * d ** 3


def refresh_sixth_moment_bound(eta, w_norm, eps, d):
    """Bound on E|eta w + sqrt(1-eta^2) G|^6, valid for eps in (0, 1/10]."""
    if not 0.0 < eps <= 0.1:
        raise NumericalDomainError("eps must lie in (0, 1/10]")
    if not 0.0 < eta < 1.0:
        raise NumericalDomainError("eta must lie in (0, 1)")
    if not (w_norm >= 0.0 and d >= 1):
        raise NumericalDomainError("need |w| >= 0 and d >= 1")
    return (1.0 + eps) * eta ** 6 * w_norm ** 6 + 87.0 * (1.0 - eta * eta) ** 3 * d ** 3 / eps ** 2


def quad_form_cube_bound(a, b_norm, c, d):
    """Bound on E(a + b.G + c|G|^2)^3 for a standard Gaussian G."""
    if not (a >= 0.0 and c >= 0.0 and b_norm >= 0.0 and d >= 1):
        raise NumericalDomainError("need a, c, |b| >= 0 and d >= 1")
    return (
        a ** 3
        + 15.0 * d ** 3 * c ** 3
        + 3.0 * a ** 2 * c * d
        + 9.0 * a * c ** 2 * d ** 2
        + 9.0 * c * d * b_norm ** 2
        + 3.0 * a * b_norm ** 2
    )


# ---------------------------------------------------------------------------
# trajectory moment constant


def moment_constant_series(v_moments, grad_moments, coeffs, d):
    """Per-record values of the moment functional normalized by d^3.

    ``v_moments`` and ``grad_moments`` hold, per recorded step, the particle
    means of |v|^2, |v|^4, |v|^6 and of the force norms; the functional is
    ``sum_i l_i^2 (mean|v|^{2i} + mean|grad|^{2i}) / d^3``.
    """
    l1, l2, l3 = coeffs.require("l1", "l2", "l3")
    v_moments = np.atleast_2d(np.asarray(v_moments, dtype=float))
    grad_moments = np.atleast_2d(np.asarray(grad_moments, dtype=float))
    if v_moments.shape != grad_moments.shape or v_moments.shape[1] != 3:
        raise ConfigurationError("moment records must be (T, 3) arrays")
    weights = np.array([l1 ** 2, l2 ** 2, l3 ** 2])
    return (v_moments + grad_moments) @ weights / d ** 3


def estimate_moment_constant(v_moments, grad_moments, coeffs, d):
    """Running maximum of the moment functional over the recorded steps."""
    series = moment_constant_series(v_moments, grad_moments, coeffs, d)
    if series.size == 0:
        raise ConfigurationError("no records supplied")
    return float(np.max(series))


def c1_moment_observer_fn(model):
    """Observer callback collecting the moment records needed for C1.

    Returns ``(v2, v4, v6, g2, g4, g6)`` per visit: the moment record of
    :func:`mfkl.risk.moment_observer_fn` taken over the force rows and the
    velocities.  Costs one extra force evaluation per observed step.
    """

    def fn(step, state):
        grad = potential_gradient(model, np.array(state.positions))
        (g2, v2), (g4, v4), (g6, v6) = _moment_record(
            grad, state.velocities, (2, 4, 6)
        )
        return v2, v4, v6, g2, g4, g6

    return fn
