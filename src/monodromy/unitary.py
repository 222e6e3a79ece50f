"""Unitarity of reconstructed tuples: reality gate, invariant form, signature.

A tuple built from real coordinates on an admissible chart always preserves
a non-degenerate Hermitian form.  When x_kj^2 - 4 > 0 the form is the
anti-diagonal [[0, i], [-i, 0]] (always indefinite); when x_kj^2 - 4 < 0 it
is diag(1, psi / (x_kj^2 - 4)) with psi the chart's factor, so the sign of
psi decides definite versus indefinite.  The verdict never depends on which
admissible chart is used, provided the point lies on the variety; ``classify``
checks that on its chart's memoized ``reconstruct``, by ``Diagnostics.passes``.
Chart-free, the real Gram matrix Z of ``relations`` has inertia (0+, 3-) on
su(2) and (2+, 1-) on su(1,1), zeros aside (Goldman, arXiv:0901.1404).
"""

from __future__ import annotations

import enum
from itertools import chain

from .charts import ChartEval, ChartId, chart_eval, classify_charts, require_admissible
from .coords import Representation, TraceCoordinates
from .errors import ChartNotAdmissible, DegenerateEigenvalues, NotReal, OffVariety, PsiDegenerate
from .reconstruction import PLUS, reconstruct
from .sl2 import DEFAULT_TOL, Mat2, Tolerance, _record, max_entry_diff


class Signature(enum.Enum):
    """Signature verdict; (2,0) and (0,2) are reported jointly as definite
    because nothing in the data distinguishes an orientation.  NOT_UNITARY
    means non-real traces, which no tuple preserving a form has."""

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
    return _form(*_disc_psi(require_admissible(x, chart, tol)), tol)


def _form(disc: float, ps: float, tol: Tolerance) -> HermitianForm:
    """The invariant form at x_kj^2 - 4 = disc and psi = ps (module docstring);
    DegenerateEigenvalues when disc is numerically zero."""
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


def verify_invariance(rep: Representation, form: HermitianForm) -> float:
    """max over the tuple's generators of the entrywise norm of M^dag H M - H."""
    h = form.matrix()
    worst = 0.0
    for m in rep.mats:
        worst = max(worst, max_entry_diff(m.conj_transpose() @ h @ m, h))
    return worst


def classify(x: TraceCoordinates, tol: Tolerance = DEFAULT_TOL) -> SignatureClass:
    """Decide unitarity and signature of the tuple parametrized by x.

    Coordinates alone drive the decision: the reality gate (NOT_UNITARY when
    it fails), then the signature of the invariant form ``hermitian_form``
    builds on the best admissible chart: definite exactly when its h22 =
    psi / (x_kj^2 - 4) is positive (module docstring).  Raises
    ChartNotAdmissible at a real point without an admissible chart (a
    reducible one, say), where the criterion does not apply; PsiDegenerate
    when the deciding psi is numerically zero, DegenerateEigenvalues when
    x_kj^2 - 4 is, and OffVariety when the rebuild on that chart fails the
    variety gate, ``Diagnostics.passes``.
    """
    if not reality_gate(x, tol):
        return SignatureClass(
            Signature.NOT_UNITARY,
            "local traces or coordinates are not real",
        )
    report = classify_charts(x, tol)
    if report.best is None:
        raise ChartNotAdmissible("no admissible chart at this point: the chart criterion does "
                                 "not apply here, for instance at a reducible point")
    best = chart_eval(x, report.best, tol)  # the report's entry for that chart
    disc, ps = _disc_psi(best)
    if abs(ps) <= tol.abs:
        raise PsiDegenerate(
            f"chart {best.chart.label()}: |psi| = {abs(ps):.3e} sits on the signature boundary"
        )
    form = _form(disc, ps, tol)
    diag = reconstruct(x, best.chart, PLUS, tol).diagnostics
    if not diag.passes(tol):
        raise OffVariety(
            f"chart {best.chart.label()}: the rebuilt tuple misses the point by "
            f"{diag.worst():.1e} > {tol.abs:g}"
        )
    if form.h22 > 0:
        return SignatureClass(Signature.DEFINITE, "eigenvalues of the invariant form share a sign",
                              best.chart, disc, ps)
    return SignatureClass(Signature.INDEFINITE, "invariant form has signature (1,1)",
                          best.chart, disc, ps)
