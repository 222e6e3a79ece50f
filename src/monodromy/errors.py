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
    """The chart polynomial vanishes numerically at the given point."""


class DegenerateEigenvalues(MonodromyError):
    """A pair trace is within tolerance of +/-2, so the pair product cannot
    be diagonalized with distinct eigenvalues."""


class NotReal(MonodromyError):
    """Local traces or coordinates carry imaginary parts beyond tolerance."""


class PsiDegenerate(MonodromyError):
    """The signature-deciding factor is numerically zero: the point sits on
    the boundary between the definite and indefinite regions."""


class ChartsDisagree(MonodromyError):
    """Two admissible charts, or a chart and its constructed form, give
    different signature verdicts: the point is off the variety."""


class TraceOutOfRange(MonodromyError):
    """A requested local trace cannot be realized by the requested sampler."""


class OffVarietyWarning(UserWarning):
    """Input coordinates do not satisfy the defining relations within
    tolerance; reconstruction proceeds pointwise anyway."""
