"""Exception hierarchy shared by all mfkl modules.

Each class carries the process exit code used by the command-line driver,
so library errors map onto stable shell-level diagnostics.
"""

import numbers


class MfklError(Exception):
    """Base class for all mfkl errors."""

    exit_code = 1


class ConfigurationError(MfklError):
    """Invalid user-supplied configuration (bad parameters, schema violation)."""

    exit_code = 2


class NumericalDomainError(MfklError):
    """A numerical quantity left its valid domain (NaN/inf force, negative input)."""

    exit_code = 3


class NonConvergenceError(MfklError):
    """An iterative solver exhausted its iteration budget."""

    exit_code = 4

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class MissingArtifactError(MfklError):
    """An expected result file is absent when building a report."""

    exit_code = 5


class CapabilityError(MfklError):
    """A requested diagnostic needs model data (coefficients, energy) that is absent."""


class TheoremInapplicableError(CapabilityError):
    """Inputs fall outside the validity range of a closed-form constant."""


class InvariantViolationError(MfklError):
    """An internal invariant failed; indicates inconsistent inputs upstream."""


class ObserverError(MfklError):
    """An observer callback raised during a chain run."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class StepSizeWarning(UserWarning):
    """The step size exceeds the range covered by the non-asymptotic theory."""


def _require_integer(name, value):
    """Reject a count or seed that is not an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
