"""Exception types shared across the package."""


class RevschedError(Exception):
    """Base class for all package errors."""


class ConfigError(RevschedError):
    """Invalid workload, policy, or run configuration."""


class NumericalError(RevschedError):
    """A numeric routine failed to converge or hit its safety cap."""


class InvariantError(RevschedError):
    """A simulation broke one of its own invariants (a bug, not bad input)."""
