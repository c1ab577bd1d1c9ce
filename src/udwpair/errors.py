"""Exception types and warning categories shared across the package."""


class UdwError(Exception):
    """Base class for package-specific errors."""


class DomainError(UdwError, ValueError):
    """An argument lies outside a function's validated domain."""


class GeometryError(UdwError, ValueError):
    """Inconsistent or degenerate detector geometry."""


class ConvergenceError(UdwError, RuntimeError):
    """Quadrature refinement or extrapolation failed to converge."""


class InvalidStateError(UdwError, ValueError):
    """A matrix fails the checks required of a two-qubit density matrix."""


class PositivityError(InvalidStateError):
    """An assembled detector state violates a positivity condition.

    At leading perturbative order this signals a coupling strength too
    large for the truncation to be a valid density matrix.
    """


class ConfigError(UdwError, ValueError):
    """Invalid sweep configuration."""


class TruncationWarning(UserWarning):
    """Image-sum truncation left a tail above the requested precision."""
