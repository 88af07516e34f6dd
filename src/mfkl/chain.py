"""The sampling chain: partial velocity refresh followed by one Verlet step.

One transition of the kernel is ``refresh`` then ``verlet``: velocities are
damped by ``eta = 1 - gamma h`` and reinflated with Gaussian noise, then the
pair (positions, velocities) moves along one step of the Verlet integrator
of the N-particle potential.  Gaussian draws are consumed particle-major,
coordinate-minor, which together with the keyed stream in :mod:`mfkl.rng`
fixes the meaning of "same seed" exactly.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    NumericalDomainError,
    ObserverError,
    StepSizeWarning,
    _require_integer,
)
from .model import ParticleState, _first_non_finite, potential_gradient, readonly_state
from .rng import RngStream, derive_seed


@dataclass(frozen=True)
class ChainParams:
    """Step size, friction, trajectory length, and the master seed.

    The damping factor ``eta = 1 - gamma h`` is always recomputed from
    ``h`` and ``gamma``; requiring ``h < 1/gamma`` keeps it inside (0, 1).
    """

    h: float
    gamma: float
    n_steps: int
    master_seed: int = 0

    def __post_init__(self):
        if not self.h > 0.0:
            raise ConfigurationError("step size h must be positive")
        if not self.gamma > 0.0:
            raise ConfigurationError("friction gamma must be positive")
        if not self.h < 1.0 / self.gamma:
            raise ConfigurationError("need h < 1/gamma so the damping stays in (0, 1)")
        _require_integer("n_steps", self.n_steps)
        if self.n_steps < 0:
            raise ConfigurationError("n_steps must be nonnegative")
        _require_integer("master_seed", self.master_seed)
        if not 0 <= int(self.master_seed) <= 0xFFFFFFFFFFFFFFFF:
            raise ConfigurationError("master_seed must fit in 64 bits")

    @property
    def eta(self):
        return 1.0 - self.gamma * self.h


def warn_if_step_large(params, coeffs):
    """Non-fatal warning when h sqrt(m1x + m1m) > 1/10 (theory range)."""
    if coeffs.m1x is None or coeffs.m1m is None:
        return
    if params.h * np.sqrt(coeffs.m1x + coeffs.m1m) > 0.1:
        warnings.warn(
            "step size h sqrt(m1x + m1m) exceeds 1/10; the entropy decay "
            "constants are not guaranteed at this step size",
            StepSizeWarning,
            stacklevel=3,
        )


def _verlet(model, space, x, v, h, g0):
    """Raw-array Verlet step from the leading gradient ``g0``.

    Drift, wrap onto the space, trailing gradient, kick; returns
    ``(x_new, v_new, g1)``.  ``g0`` broadcasts against batched ``x``/``v``.
    """
    x_new = space.wrap(x + h * v - (0.5 * h * h) * g0)
    g1 = potential_gradient(model, x_new)
    # the bits of v - (0.5 h)(g0 + g1), as a - b = (-b) + a exactly; with the
    # temporary as the left operand, numpy may add v into its buffer
    return x_new, (-0.5 * h) * (g0 + g1) + v, g1


def verlet_step(model, state, h):
    """One Verlet step of the Hamiltonian with the N-particle potential.

    Evaluates the gradient at the current positions and, after wrapping
    torus positions into [0,1), at the new ones; returns the new state.
    """
    if not h > 0.0:
        raise ConfigurationError("step size h must be positive")
    g0 = potential_gradient(model, state.positions)
    x_new, v_new, _ = _verlet(model, state.space, state.positions, state.velocities, h, g0)
    return ParticleState(x_new, v_new, state.space)


def _transition(model, space, x, v, rng, noise_shape, params, g0):
    """Raw-array transition: the refresh ``eta v + sqrt(1 - eta^2) G`` with
    ``G = rng.normal_matrix(noise_shape)``, then :func:`_verlet` from the
    leading gradient ``g0``; returns ``(x_new, v_new, g1)``, broadcasting
    over leading axes.  The draws are a temporary of the refresh, so they
    are freed before the Verlet step."""
    eta = params.eta
    v = eta * v + math.sqrt(1.0 - eta * eta) * rng.normal_matrix(noise_shape)
    return _verlet(model, space, x, v, params.h, g0)


def refresh_velocities(state, eta, rng=None, gaussians=None):
    """Partial Gaussian refresh: v <- eta v + sqrt(1 - eta^2) G.

    Positions are untouched.  ``gaussians`` injects the noise matrix
    directly (test hook); otherwise it is drawn from ``rng`` in
    particle-major, coordinate-minor order.
    """
    if not 0.0 < eta < 1.0:
        raise ConfigurationError("damping eta must lie in (0, 1)")
    if gaussians is None:
        if rng is None:
            raise ConfigurationError("refresh needs an rng or injected gaussians")
        gaussians = rng.normal_matrix(state.velocities.shape)
    v_new = eta * state.velocities + np.sqrt(1.0 - eta * eta) * gaussians
    return ParticleState(state.positions, v_new, state.space)


def kernel_step(model, state, params, rng):
    """One transition of the chain: refresh, then Verlet."""
    refreshed = refresh_velocities(state, params.eta, rng)
    return verlet_step(model, refreshed, params.h)


class Observer:
    """Strided trajectory callback collecting one record per visit.

    ``fn(step, state)`` is invoked at steps 0, stride, 2*stride, ... with a
    read-only state view; whatever it returns is appended to ``records``.
    """

    def __init__(self, fn, stride=1):
        _require_integer("stride", stride)
        if stride < 1:
            raise ConfigurationError("observer stride must be >= 1")
        self.fn = fn
        self.stride = stride
        self.records = []

    def notify(self, step, state):
        if step % self.stride == 0:
            try:
                self.records.append(self.fn(step, state))
            except Exception as err:  # noqa: BLE001 - context added, then re-raised
                raise ObserverError(
                    f"observer {getattr(self.fn, '__name__', self.fn)!r} "
                    f"failed at step {step}: {err}",
                    step=step,
                ) from err


def run_chain(model, init, params, observers=(), rng=None):
    """Advance the chain ``params.n_steps`` transitions from ``init``.

    Returns ``(final_state, records)`` where ``records`` lists each
    observer's collected records.  The trailing Verlet gradient is reused as
    the next leading gradient (the refresh does not move positions), which
    is bitwise identical to the naive two-evaluations-per-step kernel.  The
    loop works on raw arrays: each step is one :func:`_transition`, and
    observers see steps 0 (the initial state) to ``n_steps``.
    """
    if rng is None:
        rng = RngStream(params.master_seed)
    warn_if_step_large(params, model.coeffs)
    if init.space != model.space:
        raise ConfigurationError("initial state does not live in the model's space")

    x, v, space = init.positions.copy(), init.velocities.copy(), init.space
    if params.n_steps:
        gradient = potential_gradient(model, x)
    for step in range(params.n_steps + 1):
        if step:
            try:
                x, v, gradient = _transition(model, space, x, v, rng, v.shape, params, gradient)
            except NumericalDomainError as err:
                raise NumericalDomainError(f"step {step}: {err}") from err
            bad = _first_non_finite(v, x)
            if bad is not None:
                name = ("velocities", "positions")[bad[0]]
                raise NumericalDomainError(f"step {step}: non-finite {name}")
        if observers:
            # x and v are copies or fresh arrays of the validated shape,
            # wrapped and finite: no ParticleState validation is needed
            snapshot = readonly_state(x, v, space)
            for obs in observers:
                obs.notify(step, snapshot)
    return ParticleState(x, v, space), [getattr(obs, "records", None) for obs in observers]


def _law_point(law, key, d):
    """``law[key]`` (default 0) as a point of R^d; one number broadcasts."""
    try:
        return np.broadcast_to(np.atleast_1d(np.asarray(law.get(key, 0.0), float)), (d,))
    except (TypeError, ValueError) as err:
        raise ConfigurationError(f"init.{key} must be a number or {d} numbers") from err


def _initial_law(law, space):
    """Parse an initial law on ``space``; returns ``draw(n_particles, rng)``.

    ``law`` is a mapping with ``kind`` one of ``point`` (field ``at``),
    ``gaussian`` (fields ``mean``, ``std``, and ``wrap`` on the torus only)
    or ``uniform`` (torus only), and no other field.  A malformed law raises
    here, before any draw; ``draw`` draws positions, then velocities, particle-major.
    """
    kind, d = law.get("kind"), space.d
    if kind == "point":
        fields, point = ("at",), _law_point(law, "at", d)
        if space.is_torus and ((point < 0.0).any() or (point >= 1.0).any()):
            raise ConfigurationError("point mass must lie in [0,1)^d on the torus")
        positions = lambda n, rng: np.tile(point, (n, 1))
    elif kind == "gaussian":
        if space.is_torus and not law.get("wrap", False):
            raise ConfigurationError("gaussian initial positions on the torus need wrap=true")
        fields = ("mean", "std", "wrap") if space.is_torus else ("mean", "std")
        mean, std = _law_point(law, "mean", d), float(law.get("std", 1.0))
        if not std >= 0.0:
            raise ConfigurationError(f"init.std must be nonnegative, got {std}")
        positions = lambda n, rng: space.wrap(mean + std * rng.normal_matrix((n, d)))
    elif kind == "uniform":
        if not space.is_torus:
            raise ConfigurationError("uniform initial positions are torus-only")
        fields, positions = (), lambda n, rng: rng.uniforms(n * d).reshape(n, d)
    else:
        raise ConfigurationError(f"unknown initial law kind {kind!r}")
    unread = ", ".join(name for name in law if name not in ("kind", *fields))
    if unread:
        raise ConfigurationError(f"{kind} law on {space.kind} does not read field(s): {unread}")

    def draw(n, rng):
        _require_integer("n_particles", n)
        if n < 1:
            raise ConfigurationError("need at least one particle")
        return ParticleState(positions(n, rng), rng.normal_matrix((n, d)), space)

    return draw


def sample_initial(law, n_particles, space, rng):
    """Draw an exchangeable initial state from the law mapping ``law`` (kinds
    as in :func:`_initial_law`): iid positions, then Gaussian velocities."""
    return _initial_law(law, space)(n_particles, rng)


def run_replicas(model, init_law, n_particles, params, reps, observe=None, stride=1):
    """Chain replicas ``0 .. reps-1``: the one place replica seeds are derived.

    Replica ``k`` draws its initial state from ``init_law`` on the stream
    seeded ``derive_seed(master_seed, k)``, then continues that stream in
    :func:`run_chain`, observed by ``Observer(observe, stride)`` if given.
    Replicas run one after another in the calling thread.  Returns
    ``(final_state, records)`` per replica in replica order.
    """
    draw = _initial_law(init_law, model.space)  # parsed once, for every replica

    def replica(k):
        rng = RngStream(derive_seed(params.master_seed, k))
        init = draw(n_particles, rng)
        observers = [Observer(observe, stride)] if observe is not None else []
        final, records = run_chain(model, init, params, observers, rng)
        return final, records[0] if records else []

    return [replica(k) for k in range(reps)]
