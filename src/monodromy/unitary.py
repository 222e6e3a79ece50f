"""Unitarity of reconstructed tuples: reality gate, invariant form, signature.

A tuple built from real coordinates on an admissible chart always preserves
a non-degenerate Hermitian form.  When x_kj^2 - 4 > 0 the form is the
anti-diagonal [[0, i], [-i, 0]] (always indefinite); when x_kj^2 - 4 < 0 it
is diag(1, psi / (x_kj^2 - 4)) with psi the chart's factor, so the sign of
psi decides definite versus indefinite.  The verdict never depends on which
admissible chart is used; ``classify`` cross-checks that.
"""

from __future__ import annotations

import enum
from itertools import chain

from .charts import ChartEval, ChartId, classify_charts, require_admissible
from .coords import Representation, TraceCoordinates
from .errors import ChartsDisagree, DegenerateEigenvalues, NotReal, PsiDegenerate
from .sl2 import DEFAULT_TOL, Mat2, Tolerance, _record, max_entry_diff


class Signature(enum.Enum):
    """Signature verdict; (2,0) and (0,2) are reported jointly as definite
    because nothing in the data distinguishes an orientation."""

    DEFINITE = "definite"
    INDEFINITE = "indefinite(1,1)"
    NOT_UNITARY = "not-unitary"


class HermitianForm(_record("HermitianForm", "h11 h22 h12")):
    """2x2 Hermitian matrix [[h11, h12], [conj(h12), h22]]."""

    __slots__ = ()

    def __new__(cls, h11: float, h22: float, h12: complex = 0.0):
        if h11 * h22 - abs(h12) ** 2 == 0:
            raise ValueError("form is degenerate")
        return tuple.__new__(cls, (h11, h22, h12))

    def matrix(self) -> Mat2:
        h12 = complex(self.h12)
        return Mat2(self.h11, h12, h12.conjugate(), self.h22)

    def eigenvalues(self) -> tuple[float, float]:
        """Real eigenvalues, larger first."""
        mean = 0.5 * (self.h11 + self.h22)
        radius = (0.25 * (self.h11 - self.h22) ** 2 + abs(self.h12) ** 2) ** 0.5
        return mean + radius, mean - radius

    def is_definite(self) -> bool:
        hi, lo = self.eigenvalues()
        return hi * lo > 0


class SignatureClass(_record("SignatureClass", "kind detail chart disc psi", (None, None, None))):
    """Outcome of ``classify``: the ``Signature`` verdict and its reason, plus
    the deciding chart, x_kj^2 - 4 and psi (None when not unitary)."""

    __slots__ = ()


def reality_gate(x: TraceCoordinates, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when every local trace and stored coordinate is real within tol.abs.

    A necessary condition for unitarity: any matrix preserving a
    non-degenerate Hermitian form has a real trace.
    """
    bound = tol.abs
    values = chain(x.local.a, x.pairs.values(), x.triples.values())
    return all(abs(complex(v).imag) <= bound for v in values)


def hermitian_form(x: TraceCoordinates, chart: ChartId,
                   tol: Tolerance = DEFAULT_TOL) -> HermitianForm:
    """Invariant form of the tuple reconstructed on ``chart`` from real x.

    Unique up to a real scale (fixed here to 1).  Raises NotReal off the
    real locus, ChartNotAdmissible off the chart, and DegenerateEigenvalues
    when the pair trace sits at +/-2.
    """
    if not reality_gate(x, tol):
        raise NotReal("coordinates or local traces have imaginary parts beyond tolerance")
    disc, ps = _disc_psi(require_admissible(x, chart, tol))
    if abs(disc) <= tol.abs:
        raise DegenerateEigenvalues(f"|x_kj^2 - 4| = {abs(disc):.3e} is numerically zero")
    if disc > 0:
        return HermitianForm(0.0, 0.0, 1j)
    return HermitianForm(1.0, ps / disc)


def _disc_psi(e: ChartEval) -> tuple[float, float]:
    """(x_kj^2 - 4, psi) of a chart at a real point: the pair whose signs
    decide the signature."""
    xkj = complex(e.xkj).real
    return xkj * xkj - 4.0, complex(e.psi).real


def verify_invariance(rep: Representation, form: HermitianForm | Mat2) -> float:
    """max over the tuple's generators of the entrywise norm of M^dag H M - H."""
    h = form.matrix() if isinstance(form, HermitianForm) else form
    worst = 0.0
    for m in rep.mats:
        worst = max(worst, max_entry_diff(m.conj_transpose() @ h @ m, h))
    return worst


def _verdict(disc: float, ps: float) -> Signature:
    if disc > 0 or ps > 0:
        return Signature.INDEFINITE
    return Signature.DEFINITE


def classify(x: TraceCoordinates, tol: Tolerance = DEFAULT_TOL) -> SignatureClass:
    """Decide unitarity and signature of the tuple parametrized by x.

    Coordinates alone drive the decision: the reality gate, then the sign
    pattern of (x_kj^2 - 4, psi) on the best admissible chart, which is the
    signature of the invariant form by construction (module docstring),
    cross-checked against every other admissible chart away from the
    boundary.  Raises PsiDegenerate when the deciding psi is numerically
    zero and DegenerateEigenvalues when x_kj^2 - 4 is.
    """
    if not reality_gate(x, tol):
        return SignatureClass(
            Signature.NOT_UNITARY,
            "local traces or coordinates are not real",
        )
    report = classify_charts(x, tol)
    if report.best is None:
        return SignatureClass(
            Signature.NOT_UNITARY,
            "no admissible chart: the point lies outside the big open",
        )
    # report.best is the chart object of one of its entries
    best = next(e for e in report.entries if e.chart is report.best)
    disc, ps = _disc_psi(best)
    if abs(ps) <= tol.abs:
        raise PsiDegenerate(
            f"chart {best.chart.label()}: |psi| = {abs(ps):.3e} sits on the signature boundary"
        )
    if abs(disc) <= tol.abs:
        raise DegenerateEigenvalues(f"|x_kj^2 - 4| = {abs(disc):.3e} is numerically zero")
    verdict = _verdict(disc, ps)
    # The best chart is in this loop too; it agrees with itself.
    for e in report.entries:
        if not e.admissible:
            continue
        other_disc, other_ps = _disc_psi(e)
        if abs(other_ps) <= tol.abs or abs(other_disc) <= tol.abs:
            continue  # boundary-adjacent chart: no reliable sign
        if _verdict(other_disc, other_ps) is not verdict:
            raise ChartsDisagree(
                f"charts {best.chart.label()} and {e.chart.label()} disagree; "
                "the point likely violates the defining relations"
            )
    detail = (
        "eigenvalues of the invariant form share a sign"
        if verdict is Signature.DEFINITE
        else "invariant form has signature (1,1)"
    )
    return SignatureClass(verdict, detail, best.chart, disc, ps)
