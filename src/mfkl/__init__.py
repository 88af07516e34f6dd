"""Mean-field interacting-particle kinetic Langevin Monte Carlo.

A numpy library for sampling the minimizer of a mean-field free energy
with an unadjusted splitting chain (partial velocity refresh followed by a
Verlet step), together with the explicit constants of its convergence
theory and the oracles and estimators needed to verify them empirically.
"""

from .chain import (
    ChainParams,
    Observer,
    kernel_step,
    refresh_velocities,
    run_chain,
    sample_initial,
    verlet_step,
)
from .errors import (
    CapabilityError,
    ConfigurationError,
    InvariantViolationError,
    MfklError,
    MissingArtifactError,
    NonConvergenceError,
    NumericalDomainError,
    ObserverError,
    StepSizeWarning,
    TheoremInapplicableError,
)
from .lyapunov import (
    ENERGY_CUBED,
    VELOCITY_SIXTH,
    DriftReport,
    LyapunovSpec,
    drift_slope_regression,
    estimate_kernel_drift,
    estimate_moment_constant,
    gaussian_sixth_moment_bound,
    gaussian_sixth_moment_exact,
    lyapunov_value,
    moment_constant_series,
    quad_form_cube_bound,
    refresh_sixth_moment_bound,
)
from .model import (
    EUCLIDEAN,
    TORUS,
    MeanFieldModel,
    ModelCoefficients,
    ParticleState,
    Space,
    flat_convex_regression_model,
    gauss_attract_repel_model,
    make_builtin_model,
    pairwise_model,
    potential_gradient,
    quadratic_model,
    system_potential,
    torus_trig_model,
)
from .oracle import (
    FixedPointResult,
    GibbsTables,
    GridDensity,
    GridSpec,
    default_grid_for_quadratic,
    density_total_variation,
    reference_expectation,
    self_consistent_fixed_point,
    small_n_gibbs,
    stationary_covariance_quadratic,
)
from .risk import (
    MomentSeries,
    RateFit,
    RiskEstimate,
    empirical_moments,
    fit_geometric_rate,
    histogram_divergence,
    quadratic_risk,
)
from .rng import PerParticleStreams, RngStream, derive_seed
from .theory import (
    EuclideanLyapunov,
    LsiConstants,
    LsiReport,
    TheoryConstants,
    TorusLyapunov,
    contraction_constants,
    entropy_bound,
    gaussian_quadratic_init_divergences,
    lsi_constants,
    lyapunov_constants,
    risk_bounds,
)

__version__ = "0.1.0"
