"""Exception types shared across the package, and the input checks."""

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


def require_finite(name: str, value, above=None) -> None:
    """ConfigError unless ``value`` is a finite real (not a bool) and, if given, > ``above``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if above is not None and not value > above:
        raise ConfigError(f"{name} must be > {above:g}, got {value}")


def require_int(name: str, value, low: int, high=math.inf) -> None:
    """ConfigError unless ``value`` is an integer (a bool is not) in ``[low, high)``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if not low <= value < high:
        upper = "" if high == math.inf else f" and <= {high - 1}"
        raise ConfigError(f"{name} must be >= {low}{upper}, got {value}")


def fields(obj, what: str, required, optional=()):
    """``obj`` once it is a JSON object that holds every ``required`` key and
    no key outside ``required`` and ``optional``; ConfigError otherwise."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(obj).__name__}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ConfigError(f"{what} is missing {missing}")
    unknown = [key for key in obj if key not in required and key not in optional]
    if unknown:
        raise ConfigError(f"{what} has unknown keys {unknown}; known: {[*required, *optional]}")
    return obj
