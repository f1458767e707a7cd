"""Exception types shared across the package.

Every failure mode named in an operation contract maps to one class here, so
callers can catch precisely what they expect instead of bare ValueErrors.
"""


class PKSError(Exception):
    """Base class for all package errors."""


class InvalidField(PKSError):
    """Field data violates an invariant (non-finite, too negative, bad grid)."""


class InvalidParameter(PKSError):
    """An argument is outside the documented domain (e.g. t <= 0, p < 1)."""


class InvalidData(PKSError):
    """Data passed to a fitting routine is unusable (too short, nonpositive)."""


class DomainTooSmall(PKSError):
    """Mass sits too close to the grid boundary for a free-space solve."""


class OutOfValidatedRange(PKSError):
    """Request outside the range the implementation has been validated on."""


class OutOfRange(PKSError):
    """A requested time or coordinate lies outside the recorded range."""


class StiffnessFailure(PKSError):
    """A run cannot go on: it exhausted its step budget, or a step left
    negative samples beyond the clamp tolerance."""


class SupercriticalMass(PKSError):
    """A 2D profile was requested at or above the 8*pi mass threshold."""


class FixedPointStalled(PKSError):
    """Fixed-point iteration failed to converge within the iteration budget."""


class QuadratureDiverging(PKSError):
    """An integrand that must decay empirically failed to do so."""


class DependencyMissing(PKSError):
    """A required precomputed object (e.g. the W-star profile) is absent."""


class InsufficientSampling(PKSError):
    """A trajectory does not carry enough records for the requested quadrature."""


class UseProfileModule(PKSError):
    """The 2D long-time asymptote is the self-similar profile, not a Gaussian
    expansion; callers must go through the profiles module instead."""


class ScenarioConfigError(PKSError):
    """A scenario configuration file failed to parse or validate."""
