"""Exception hierarchy.

Every failure surfaced by this package derives from :class:`CotvError`, so
callers can catch one base class at the CLI boundary.  Validation problems
(bad parameters, malformed instances) additionally derive from
``ValueError`` for interoperability.
"""

from __future__ import annotations

__all__ = [
    "CotvError",
    "ValidationError",
    "NonConvergenceError",
    "NonFiniteError",
    "NoBracketError",
    "DomainError",
    "DerivativeZeroError",
    "UndefinedCVError",
    "UndefinedCoefficientError",
    "MetadataMissingError",
    "MetadataMismatchError",
    "MassError",
    "ZeroMeanError",
    "CollapsedBandError",
    "ZeroCostError",
    "NotQuadraticError",
    "MonotonicityError",
    "ConfigError",
    "GridTooLargeError",
]


class CotvError(Exception):
    """Base class for all package errors."""


class ValidationError(CotvError, ValueError):
    """Inputs violate a constructor or operation contract."""


class NonConvergenceError(CotvError):
    """An iterative routine exhausted its iteration budget."""


class NonFiniteError(CotvError):
    """A callable produced NaN or infinity where a finite value is required."""


class NoBracketError(CotvError):
    """Root finding could not establish a sign change."""


class DomainError(CotvError):
    """Evaluation requested outside the mathematical domain of an operation."""


class DerivativeZeroError(CotvError):
    """A derivative in a denominator vanished at the evaluation point."""


class UndefinedCVError(CotvError):
    """Coefficient of variation is undefined (non-positive mean)."""


class UndefinedCoefficientError(CotvError):
    """A required risk coefficient is undefined for this utility."""


class MetadataMissingError(CotvError):
    """A discrete instance lacks the construction metadata this operation needs."""


class MetadataMismatchError(CotvError):
    """Instance metadata disagrees with the supplied evaluation context."""


class MassError(ValidationError):
    """Probability mass bookkeeping left the unit interval."""


class ZeroMeanError(ValidationError):
    """A perturbation that must be zero-mean is not."""


class CollapsedBandError(ValidationError):
    """Rounding t0 + xi merges perturbations of a band that xi keeps apart."""


class ZeroCostError(CotvError):
    """A cost ratio was requested against a zero baseline cost."""


class NotQuadraticError(CotvError):
    """Operation is defined for the quadratic utility family only."""


class MonotonicityError(ValidationError):
    """A utility could not be certified non-increasing on its working interval."""


class ConfigError(CotvError):
    """Scenario configuration is invalid; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


class GridTooLargeError(ConfigError):
    """A sweep grid exceeds the hard point budget."""
