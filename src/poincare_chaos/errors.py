"""Semantic exception hierarchy shared across the package."""


class PoincareChaosError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(PoincareChaosError):
    """Malformed parameter set for a distribution family."""


class ZeroMass(PoincareChaosError):
    """The parent distribution carries (numerically) no mass on the truncation interval."""


class NonPositive(PoincareChaosError):
    """A quantity that must be strictly positive is not."""


class DivisionBlowup(PoincareChaosError):
    """Division by a vanishing density at an interior grid node."""


class OutOfSupport(PoincareChaosError):
    """Evaluation point lies outside the support interval."""


class NotConverged(PoincareChaosError):
    """The eigensolver failed to converge."""


class MassNotSPD(PoincareChaosError):
    """The mass matrix is not symmetric positive definite (mesh too coarse)."""


class MissingGradients(PoincareChaosError):
    """A gradient-based fit was requested on a design without gradient data."""


class Degenerate(PoincareChaosError):
    """Too few rows for regression (m < 2)."""


class ZeroVariance(PoincareChaosError):
    """Sensitivity indices are undefined for an expansion with zero variance."""


class DomainError(PoincareChaosError):
    """Benchmark model evaluated outside its physical domain."""


class ExistenceWarning(UserWarning):
    """Numeric existence probe was inconclusive for the requested basis."""
