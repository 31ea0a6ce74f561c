"""Exception hierarchy shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; generic misuse raises the usual built-ins via ``DomainError`` /
``ConfigError`` (both are ``ValueError`` subclasses).
"""


class SsemError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SsemError, ValueError):
    """A parameter lies outside the natural domain of its family."""


class ConfigError(SsemError, ValueError):
    """Invalid run configuration. ``field`` names the offending key."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field


class EmptyComponent(SsemError):
    """M-step denominator underflowed: a component has no labeled support
    and negligible responsibility mass."""


class MeanOutOfRange(SsemError):
    """Weighted sufficient statistic outside the range of the mean function."""


class NumericOverflow(SsemError):
    """A sum or statistic left the float64 range: an observation too far
    out for the surrogate, or for the logits under the current iterate."""


class NoConvergence(SsemError):
    """Root finder exhausted its iteration budget."""


class QuadratureFailure(SsemError):
    """Integrator could not reach the requested absolute tolerance."""


class DegenerateDenominator(SsemError):
    """Population operator denominator too close to zero."""


class ProbeTooCloseToFixedPoint(SsemError):
    """Contraction ratio undefined: probe maps (numerically) onto the truth."""


class NotExpFam(SsemError, TypeError):
    """Operation requires an exponential-family model kind."""


class ProbeOutsideRegime(SsemError):
    """Probe violates the precondition of the bound being checked."""


class TrajectoryTooShort(SsemError):
    """Too few iterates above the noise floor to measure a rate."""
