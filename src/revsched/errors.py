"""Exception types shared across the package, and the numeric input check."""

import math
import numbers


class RevschedError(Exception):
    """Base class for all package errors."""


class ConfigError(RevschedError):
    """Invalid workload, policy, or run configuration."""


class NumericalError(RevschedError):
    """A numeric routine failed to converge or hit its safety cap."""


class InvariantError(RevschedError):
    """A simulation broke one of its own invariants (a bug, not bad input)."""


def require_finite(name: str, value) -> None:
    """ConfigError unless ``value`` is a finite real number (a bool is not)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
