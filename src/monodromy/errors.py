"""Exception types shared across the package."""


class MonodromyError(Exception):
    """Base class for errors raised by this package."""


class NotUnimodular(MonodromyError):
    """A matrix expected to have determinant 1 deviates beyond tolerance."""


class BadIndex(MonodromyError):
    """A 1-based index or index tuple is out of range or malformed."""


class NotApplicable(MonodromyError):
    """The requested relation does not exist for this tuple size."""


class BadChart(MonodromyError):
    """The chart id is not valid for the given tuple size."""


class ChartNotAdmissible(MonodromyError):
    """The chart polynomial, or every one, vanishes numerically at the given point."""


class DegenerateEigenvalues(MonodromyError):
    """A pair trace is within tolerance of +/-2, so the pair product cannot
    be diagonalized with distinct eigenvalues."""


class NotReal(MonodromyError):
    """Local traces or coordinates carry imaginary parts beyond tolerance."""


class PsiDegenerate(MonodromyError):
    """The signature-deciding factor is numerically zero: the point sits on
    the boundary between the definite and indefinite regions."""


class OffVariety(MonodromyError):
    """The point is off the variety: the tuple rebuilt on the deciding chart
    misses it by more than the tolerance, so no verdict holds there."""


class TraceOutOfRange(MonodromyError):
    """A requested local trace cannot be realized by the requested sampler."""


class OffVarietyWarning(UserWarning):
    """``reconstruct`` was asked for a point its rebuild misses by more than
    the tolerance; the rebuilt tuple is returned anyway."""
