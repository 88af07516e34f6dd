"""Empirical estimators: quadratic risk, particle moments, histogram divergences.

The quadratic risk of the particle-average estimator is measured over
independent replicas of the chain, each on its own derived seed; histogram
divergences against grid oracles act as measurable surrogates for the
total-variation and entropy quantities appearing in the theory bounds.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .chain import run_replicas
from .errors import ConfigurationError, NumericalDomainError, _require_integer


@dataclass
class RiskEstimate:
    """Across-replica mean squared error of the particle-average estimator
    over ``reps`` replicas, with its standard error."""

    value: float
    std_err: float
    reps: int

    def __post_init__(self):
        if self.value < 0.0 or self.std_err < 0.0:
            raise NumericalDomainError("risk estimate must be nonnegative")


def quadratic_risk(model, f, params, n_particles, reps, oracle_mean, init_law):
    """Mean squared error of ``mean_i f(X_i)`` about ``oracle_mean`` at the
    final step, as a :class:`RiskEstimate`.

    ``f`` maps a positions array (N, d) to per-particle values (N,).  Each
    replica runs on seed ``derive(master_seed, k)``, one after another, and
    the estimate and its standard error are aggregated in replica order.
    """
    _require_replicas(reps)
    runs = run_replicas(model, init_law, n_particles, params, reps)
    estimates = [float(np.mean(np.asarray(f(final.positions), dtype=float))) for final, _ in runs]
    sq_errors = (np.asarray(estimates) - oracle_mean) ** 2
    value = float(np.mean(sq_errors))
    std_err = float(np.std(sq_errors, ddof=1) / math.sqrt(reps))
    return RiskEstimate(value=value, std_err=std_err, reps=reps)


def _require_replicas(reps):
    _require_integer("reps", reps)
    if reps < 8:
        raise ConfigurationError(f"quadratic risk needs at least 8 replicas, got {reps}")


@dataclass
class MomentSeries:
    """Per-step particle means of |x|^p and |v|^p for requested orders p."""

    orders: tuple
    position: dict
    velocity: dict

    def position_max(self, p):
        return float(np.max(self.position[p]))

    def velocity_max(self, p):
        return float(np.max(self.velocity[p]))


def empirical_moments(states, orders=(2, 4, 6)):
    """Consume a stream of states into per-order moment time series.

    On the torus the position norm uses the stored representative in
    [0,1)^d, so position moments are bounded there by construction.
    """
    orders = tuple(orders)
    if not orders or any(p not in (2, 4, 6) for p in orders):
        raise ConfigurationError("orders must be a nonempty subset of {2, 4, 6}")
    fn = moment_observer_fn(orders)
    records = [fn(None, state) for state in states]
    return MomentSeries(
        orders=orders,
        position={p: np.asarray([r[j][0] for r in records]) for j, p in enumerate(orders)},
        velocity={p: np.asarray([r[j][1] for r in records]) for j, p in enumerate(orders)},
    )


def _moment_record(a, b, orders):
    """``((mean|a|^p, mean|b|^p) for p in orders)`` over the rows of a and b."""
    a_sq = np.sum(a ** 2, axis=-1)
    b_sq = np.sum(b ** 2, axis=-1)
    return tuple(
        (float(np.mean(a_sq ** (p // 2))), float(np.mean(b_sq ** (p // 2))))
        for p in orders
    )


def moment_observer_fn(orders=(2, 4, 6)):
    """Observer callback producing (p -> mean|x|^p, mean|v|^p) tuples."""
    orders = tuple(orders)

    def fn(step, state):
        return _moment_record(state.positions, state.velocities, orders)

    return fn


def histogram_divergence(samples, reference, n_bins=50, kind="tv"):
    """Binned divergence between scalar samples and a grid density, over
    ``n_bins`` (an integer, at least 10) equal bins of its domain.

    ``kind="kl"`` returns ``sum p log(p/q)`` over occupied bins (infinite,
    not an exception, when a reference bin has zero mass under occupied
    samples); ``kind="tv"`` returns half the L1 distance of the bin masses.
    A NaN or infinite sample raises; finite out-of-range samples are clamped
    to the domain and counted in a warning.
    """
    samples = np.asarray(samples, dtype=float).reshape(-1)
    if samples.size == 0:
        raise ConfigurationError("no samples supplied")
    _require_integer("n_bins", n_bins)
    if n_bins < 10:
        raise ConfigurationError(f"need at least 10 histogram bins, got {n_bins}")
    non_finite = int(np.count_nonzero(~np.isfinite(samples)))
    if non_finite:
        raise NumericalDomainError(f"{non_finite} of {samples.size} samples are not finite")
    lo, hi = reference.lo, reference.hi
    outside = int(np.sum((samples < lo) | (samples > hi)))
    if outside:
        warnings.warn(
            f"{outside} of {samples.size} samples fell outside [{lo}, {hi}] "
            "and were clamped",
            stacklevel=2,
        )
        samples = np.clip(samples, lo, hi)
    edges = np.linspace(lo, hi, n_bins + 1)
    counts, _ = np.histogram(samples, bins=edges)
    p_hat = counts / counts.sum()
    q_mass, _ = np.histogram(
        reference.centers, bins=edges, weights=reference.values * reference.dx
    )
    total = q_mass.sum()
    if not total > 0.0:
        raise NumericalDomainError("reference density has no mass on its own domain")
    q_mass = q_mass / total
    if kind == "tv":
        return 0.5 * float(np.sum(np.abs(p_hat - q_mass)))
    if kind == "kl":
        occupied = p_hat > 0.0
        if (q_mass[occupied] == 0.0).any():
            return math.inf
        return float(np.sum(p_hat[occupied] * np.log(p_hat[occupied] / q_mass[occupied])))
    raise ConfigurationError(f"unknown divergence kind {kind!r}")


@dataclass(frozen=True)
class RateFit:
    """Per-step geometric decay rate fitted on the log scale."""

    rate: float
    r_squared: float


def fit_geometric_rate(series):
    """Least-squares geometric rate of a positive series: exp(log-slope)."""
    series = np.asarray(series, dtype=float).reshape(-1)
    _require_rate_points(series.size)
    if (series <= 0.0).any() or not np.isfinite(series).all():
        raise NumericalDomainError("rate fitting needs strictly positive finite values")
    y = np.log(series)
    slope, _, _, r_squared = _fit_line(np.arange(series.size, dtype=float), y, "time")
    return RateFit(rate=math.exp(slope), r_squared=r_squared)


def _require_rate_points(n_points):
    if n_points < 10:
        raise ConfigurationError(f"need at least 10 points to fit a rate, got {n_points}")


def _fit_line(x, y, x_name):
    """Least-squares line of ``y`` on ``x``: ``(slope, ss_x, rss, r_squared)``,
    with ``ss_x`` the centred and ``rss`` the residual sum of squares."""
    xc = x - x.mean()
    ss_x = float(np.sum(xc * xc))
    if ss_x <= 0.0:
        raise NumericalDomainError(f"no spread in {x_name}")
    slope = float(np.sum(xc * y) / ss_x)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - intercept - slope * x
    rss = float(np.sum(resid * resid))
    tss = float(np.sum((y - y.mean()) ** 2))
    return slope, ss_x, rss, 1.0 - rss / tss if tss > 0.0 else 1.0
