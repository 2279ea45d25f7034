"""Exception types raised across the package."""


class PlanarControlError(Exception):
    """Base class for all errors raised by planarcontrol."""


class NotComplexSpectrum(PlanarControlError):
    """The drift matrix does not have a complex eigenvalue pair."""


class OffLine(PlanarControlError):
    """A point expected on a line through the origin is not on it."""


class ZeroVector(PlanarControlError):
    """A direction argument is the zero vector."""


class DegenerateSpiral(PlanarControlError):
    """Spiral endpoints coincide (the excluded diagonal)."""


class InvalidControl(PlanarControlError):
    """A control value lies outside the admissible range."""


class TraceZero(PlanarControlError):
    """Operation undefined for drift with (numerically) zero trace."""


class TraceNotZero(PlanarControlError):
    """Operation requires a drift with (numerically) zero trace."""


class PreconditionViolated(PlanarControlError):
    """A geometric precondition of the operation does not hold."""


class TargetNotInterior(PlanarControlError):
    """Reach planning target is not interior to the control set region."""


class EpsilonTooSmall(PlanarControlError):
    """Requested accuracy is below the rounding error of an exact plan."""


class NoIntersectionFound(PlanarControlError):
    """Spiral crossing search exhausted its time window without a root."""


class EmptySet(PlanarControlError):
    """A set argument that must be nonempty is empty."""


class ParseError(PlanarControlError):
    """Configuration document is not well formed."""


class ValidationError(PlanarControlError):
    """Configuration document violates a system invariant."""
