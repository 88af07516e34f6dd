"""Closed-form constants of the convergence theory.

Everything here is plain arithmetic on declared inputs: the per-step
entropy contraction rate and bias constants, quadratic-risk bounds for
bounded observables, defective/tight log-Sobolev constants of the
N-particle Gibbs measure, and the Lyapunov drift constants on both state
spaces.  Values are evaluated term by term in double precision, with no
algebraic simplification, so printed numbers can be audited against the
defining expressions.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapabilityError,
    ConfigurationError,
    NumericalDomainError,
    TheoremInapplicableError,
)
from .model import EUCLIDEAN, TORUS


@dataclass(frozen=True)
class TheoryConstants:
    """Contraction/bias constants of the entropy decay estimate.

    ``a`` weights the gradient part of the modified entropy, ``kappa`` is
    the per-unit-step contraction rate, and ``c2`` multiplies the
    ``N d^3 h^4`` stationary bias; all three are derived from the inputs,
    with a = gamma/(7 + 3(gamma+3)^2).  ``rho`` and ``delta_n`` are the
    (possibly defective) log-Sobolev constants, and ``c1_hat`` is the
    trajectory-moment constant estimate.
    """

    gamma: float
    rho: float
    c1_hat: float
    a: float = field(init=False)
    kappa: float = field(init=False)
    c2: float = field(init=False)
    delta_n: float = 0.0

    def __post_init__(self):
        for name, value in (("gamma", self.gamma), ("rho", self.rho)):
            if not value > 0.0:  # not <= 0: NaN is rejected by name too
                raise ConfigurationError(f"{name} must be positive, got {value}")
        if not self.c1_hat >= 0.0:
            raise ConfigurationError(f"c1_hat must be nonnegative, got {self.c1_hat}")
        if not self.delta_n >= 0.0:
            raise ConfigurationError(f"delta_n must be nonnegative, got {self.delta_n}")
        for name in ("gamma", "rho", "c1_hat", "delta_n"):
            # stored as floats, so that 1 and 1.0 give the same fields and bytes
            object.__setattr__(self, name, float(getattr(self, name)))
        a = self.gamma / (7.0 + 3.0 * (self.gamma + 3.0) ** 2)
        kappa = a / (3.0 * max(1.0, 1.0 / self.rho) + 6.0 * a)
        if not 0.0 < kappa < 1.0:
            raise NumericalDomainError("kappa left (0, 1)")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "c2", (1.0 / kappa) * (9.0 + 1.0 / a) * self.c1_hat)


def contraction_constants(gamma, rho, c1_hat=0.0, delta_n=0.0):
    """Evaluate a = gamma/(7 + 3(gamma+3)^2) and its derived constants."""
    return TheoryConstants(gamma, rho, c1_hat, delta_n)


def entropy_bound(n, n_particles, d, h, h0, i0, constants):
    """Relative-entropy bound after n steps.

    ``(1 + kappa h)^(-n) (H0 + 2 a I0) + delta_n / rho + C2 N d^3 h^4``
    with caller-supplied initial relative entropy ``h0`` and Fisher
    information ``i0``.
    """
    if not (h0 >= 0.0 and i0 >= 0.0):  # not < 0: NaN is rejected too
        raise NumericalDomainError("need initial entropy h0 >= 0 and Fisher information i0 >= 0")
    if not (n >= 0 and n_particles >= 1 and d >= 1 and h > 0.0):
        raise ConfigurationError("need n >= 0, N >= 1, d >= 1, h > 0")
    transient = math.exp(-n * math.log1p(constants.kappa * h)) * (h0 + 2.0 * constants.a * i0)
    floor = constants.delta_n / constants.rho + constants.c2 * n_particles * d ** 3 * h ** 4
    return transient + floor


def risk_bounds(f_sup, n_particles, h_mn, mode, tv=None, r_entropy=None, eta_n=None):
    """Quadratic-risk bound for a bounded observable.

    ``mode="tv2"`` uses the pair-marginal total variation ``tv``;
    ``mode="entropy"`` uses the entropy-comparison constants
    ``r_entropy`` and ``eta_n``.
    """
    if not (f_sup >= 0.0 and n_particles >= 1 and h_mn >= 0.0):
        raise NumericalDomainError("risk bound needs f_sup >= 0, N >= 1, h_mn >= 0")
    if mode == "tv2":
        if tv is None or not tv >= 0.0:
            raise NumericalDomainError("tv2 mode needs a nonnegative tv value")
        return 4.0 * f_sup ** 2 * (1.0 / n_particles + math.sqrt(2.0 * h_mn) + tv)
    if mode == "entropy":
        if r_entropy is None or eta_n is None or not (r_entropy >= 0.0 and eta_n >= 0.0):
            raise NumericalDomainError("entropy mode needs nonnegative r_entropy, eta_n")
        return 4.0 * f_sup ** 2 * (
            1.0 / n_particles + 2.0 * math.sqrt((eta_n + r_entropy * h_mn) / n_particles)
        )
    raise ConfigurationError(f"unknown risk bound mode {mode!r}")


@dataclass(frozen=True)
class LsiConstants:
    """Inputs of the log-Sobolev calculator.

    ``rho_bar``: LSI constant of the frozen single-particle Gibbs measures;
    ``mmm``: uniform bound on the second intrinsic derivative of the energy;
    ``eps``: free parameter in (0, 1); ``lambda_flat``/``alpha_n``: the
    semi-convexity cost coefficients; ``alpha_n_prime``: free-energy gap of
    the N-particle minimizer; ``lambda_prime``: quadratic cost coefficient;
    ``rho_n``: conditional single-coordinate Poincare constant.
    """

    rho_bar: float
    mmm: float
    eps: float = 0.5
    lambda_flat: float = 0.0
    alpha_n: float = 0.0
    alpha_n_prime: float = 0.0
    lambda_prime: float = 0.0
    rho_n: float | None = None

    def __post_init__(self):
        if not self.rho_bar > 0.0:
            raise ConfigurationError("rho_bar must be positive")
        if not self.mmm >= 0.0:
            raise ConfigurationError("mmm must be nonnegative")
        if not 0.0 < self.eps < 1.0:
            raise ConfigurationError("eps must lie in (0, 1)")
        if not 0.0 <= self.lambda_flat < 1.0:
            raise ConfigurationError("lambda_flat must lie in [0, 1)")
        if not (self.alpha_n >= 0.0 and self.alpha_n_prime >= 0.0 and self.lambda_prime >= 0.0):
            raise ConfigurationError("alpha_n, alpha_n_prime, lambda_prime must be >= 0")
        if self.rho_n is not None and not self.rho_n > 0.0:
            raise ConfigurationError("rho_n must be positive when given")


@dataclass(frozen=True)
class LsiReport:
    """Defective/tight LSI constants with reasons for absent entries."""

    lambda_tilde: float
    delta_n: float
    r_entropy: float
    eta_n: float
    rho_prime_star: float | None = None
    rho_prime_reason: str | None = None
    rho_star: float | None = None
    rho_star_reason: str | None = None


def lsi_constants(inputs, n_particles, d):
    """Defective and tight LSI constants of the N-particle Gibbs measure.

    Also returns the entropy-comparison constants ``r_entropy = 1/(1-lambda)``
    and ``eta_n = (alpha_n + alpha_n')/(1-lambda)``.
    """
    if not (n_particles >= 1 and d >= 1):
        raise ConfigurationError("need N >= 1 and d >= 1")
    lam = inputs.lambda_flat
    if lam >= 0.5:
        raise TheoremInapplicableError(
            f"lambda_flat = {lam} >= 1/2: the defective-LSI constants are undefined"
        )
    m = inputs.mmm
    rb = inputs.rho_bar
    eps = inputs.eps
    lambda_tilde = (2.0 * m / rb) * (4.0 + 3.0 * m / (2.0 * rb * eps))
    delta_n = 4.0 * rb * (1.0 - eps) * (
        2.0 * inputs.alpha_n + (m * d / rb) * (2.5 + 3.0 * m / (4.0 * rb * eps))
    )
    r_entropy = 1.0 / (1.0 - lam)
    eta_n = (inputs.alpha_n + inputs.alpha_n_prime) / (1.0 - lam)

    rho_prime = None
    rho_prime_reason = None
    threshold = lambda_tilde / (1.0 - 2.0 * lam)
    if n_particles > threshold:
        rho_prime = 2.0 * (1.0 - eps) * (1.0 - 2.0 * lam - lambda_tilde / n_particles) * rb
    else:
        rho_prime_reason = (
            f"N = {n_particles} <= lambda_tilde/(1-2 lambda) = {threshold:.6g}"
        )

    rho_star = None
    rho_star_reason = None
    if rho_prime is None:
        rho_star_reason = "defective constant absent"
    elif inputs.rho_n is None:
        rho_star_reason = "rho_n not supplied"
    else:
        slack = inputs.rho_n - inputs.lambda_prime - m / n_particles
        if slack > 0.0:
            rho_star = rho_prime / (1.0 + delta_n / (4.0 * slack))
        else:
            rho_star_reason = (
                f"rho_n - lambda' - mmm/N = {slack:.6g} is not positive"
            )
    return LsiReport(
        lambda_tilde=lambda_tilde,
        delta_n=delta_n,
        r_entropy=r_entropy,
        eta_n=eta_n,
        rho_prime_star=rho_prime,
        rho_prime_reason=rho_prime_reason,
        rho_star=rho_star,
        rho_star_reason=rho_star_reason,
    )


@dataclass(frozen=True)
class EuclideanLyapunov:
    """Drift constants of the cubed-energy Lyapunov function on R^d."""

    alpha: float
    theta: float
    lambda0: float


@dataclass(frozen=True)
class TorusLyapunov:
    """Additive drift constant (per unit N h) of the velocity-moment function."""

    torus_additive: float


def lyapunov_constants(space, gamma, coeffs, n_particles):
    """Drift constants for the step kernel on the model's space.

    Euclidean models need positive ``r_conf``, ``c0``, ``c1``; torus models
    need ``df_sup``.  The torus constant is the additive term divided by
    ``N h``: ``766 gamma d^3 + df_sup^6 / gamma^5``.
    """
    if not gamma > 0.0:
        raise ConfigurationError("gamma must be positive")
    d = space.d
    if space.kind == TORUS:
        (df_sup,) = coeffs.require("df_sup")
        return TorusLyapunov(torus_additive=766.0 * gamma * d ** 3 + df_sup ** 6 / gamma ** 5)
    if space.kind != EUCLIDEAN:
        raise ConfigurationError(f"unknown space kind {space.kind!r}")
    r, c0, c1 = coeffs.require("r_conf", "c0", "c1")
    if min(r, c0, c1) <= 0.0:
        raise CapabilityError(
            "Euclidean drift constants need positive r_conf, c0, c1; "
            "the drift diagnostic is disabled"
        )
    if not n_particles >= 1:
        raise ConfigurationError("need N >= 1")
    alpha = min(0.5 * gamma / (2.0 * gamma ** 2 / r + 19.0 / 12.0), math.sqrt(c0 / 2.0))
    theta = 0.5 * min(alpha * r / (5.0 * c1), gamma)
    lambda0 = min(
        r / 3.0,
        2.0 * alpha / 3.0,
        r * alpha * c0 ** 2 / (176.0 * (1.0 + alpha) ** 3),
        (2.0 * theta / (1.0 + alpha)) / (16.0 / (c0 ** 3 * n_particles) + 2.0),
    )
    return EuclideanLyapunov(alpha=alpha, theta=theta, lambda0=lambda0)


def gaussian_quadratic_init_divergences(r, s, n_particles, d, mean, std):
    """Initial relative entropy and Fisher information in closed form.

    Applies to the quadratic model started from iid Gaussian positions
    ``N(mean, std^2 I)`` with standard Gaussian velocities; both the initial
    and the stationary laws are Gaussian, so the divergences are exact.
    Returns ``(h0, i0)``.
    """
    if not (r > 0.0 and s >= 0.0 and math.inf > std > 0.0 and n_particles >= 1 and d >= 1):
        raise ConfigurationError("need r > 0, s >= 0, finite std > 0, N >= 1, d >= 1")
    mean = np.broadcast_to(np.atleast_1d(np.asarray(mean, dtype=float)), (d,))
    if not np.isfinite(mean).all():
        raise ConfigurationError(f"need a finite mean, got {mean.tolist()}")
    var = std * std
    n = n_particles
    # per-coordinate precision spectrum of the stationary Gaussian:
    # r on the all-ones direction, r + 2s with multiplicity N - 1
    p_mean, p_rest = r, r + 2.0 * s
    m_sq = float(np.sum(mean * mean))
    trace_term = var * d * (p_mean + (n - 1) * p_rest)
    logdet_term = -d * (math.log(p_mean) + (n - 1) * math.log(p_rest)) - n * d * math.log(var)
    h0 = 0.5 * (trace_term - n * d + n * p_mean * m_sq + logdet_term)
    i0 = n * p_mean ** 2 * m_sq + var * d * (
        (p_mean - 1.0 / var) ** 2 + (n - 1) * (p_rest - 1.0 / var) ** 2
    )
    return h0, i0
