"""Explicit matrix tuples from coordinates on an admissible chart.

On the chart (j, k, i0) the pair product M_k M_j is put into the diagonal
form diag(l+, l-) with l +/- the roots of t^2 - x_kj t + 1; the remaining
entries are solved from the stored pair/triple traces.  Base charts
(i0 = 0) normalize the lower-left entry of M_j to 1, anchored charts do the
same at M_{i0} and recover the remaining anti-diagonals through the
four-factor trace identity.

The square-root branch in r = sqrt(x_kj^2 - 4) only moves the tuple inside
its conjugacy class, so coordinates of the output never depend on it;
``branch_independence_check`` verifies that numerically.

Every reconstruction is irreducible, so nothing tests that numerically:
psi != 0 on an admissible chart, and psi vanishes exactly when (M_j, M_k),
or (M_k M_j, M_{i0}) on an anchored chart, generates a reducible group.
"""

from __future__ import annotations

import cmath
import warnings

from .charts import ChartId, require_admissible
from .coords import (
    Representation,
    TraceCoordinates,
    coordinate_distance,
    closure_residual,
    descending_product,
    phi,
    quad_trace,
    triple_trace,
)
from .errors import BadChart, DegenerateEigenvalues, OffVarietyWarning
from .relations import membership, psi
from .sl2 import DEFAULT_TOL, Mat2, Tolerance, _record


class BranchChoice(_record("BranchChoice", "sign")):
    """Sign applied to the principal square root of x_kj^2 - 4."""

    __slots__ = ()

    def __new__(cls, sign: int = 1):
        if sign not in (1, -1):
            raise ValueError("branch sign must be +1 or -1")
        return tuple.__new__(cls, (sign,))


PLUS = BranchChoice(1)
MINUS = BranchChoice(-1)


def lambdas(x_kj: complex, branch: BranchChoice = PLUS,
            tol: Tolerance = DEFAULT_TOL) -> tuple[complex, complex, complex]:
    """(r, l+, l-) with r = sign * sqrt(x_kj^2 - 4) and l+- = (x_kj +- r)/2.

    The two lambdas multiply to 1 and sum to x_kj; raises
    DegenerateEigenvalues when x_kj is within tolerance of +/-2.
    """
    disc = x_kj * x_kj - 4.0
    if abs(disc) <= tol.abs:
        raise DegenerateEigenvalues(
            f"x_kj = {x_kj!r}: |x_kj^2 - 4| = {abs(disc):.3e} is numerically zero"
        )
    r = branch.sign * cmath.sqrt(disc)
    return r, (x_kj + r) / 2.0, (x_kj - r) / 2.0


class Diagnostics(_record("Diagnostics", "trace det closure round_trip membership_max")):
    """Residuals of one reconstruction.

    ``trace`` and ``det`` are tuples over M_1 .. M_{n+1}; ``round_trip`` and
    ``membership_max`` are scale-normalized.  No irreducibility flag: the
    chart's psi != 0 already proves the rebuilt tuple irreducible.
    """

    __slots__ = ()

    def worst(self) -> float:
        return max(max(self.trace), max(self.det), self.closure, self.round_trip)


class ReconstructionResult(_record("ReconstructionResult", "rep chart branch diagnostics")):
    """The rebuilt ``Representation``, the ``ChartId`` and ``BranchChoice``
    used, and the ``Diagnostics`` of the rebuild."""

    __slots__ = ()


def _finish(x: TraceCoordinates, chart: ChartId, branch: BranchChoice,
            mats: tuple[Mat2, ...], tol: Tolerance) -> ReconstructionResult:
    rep = Representation(mats, descending_product(mats).adjugate())
    a = x.local
    trace_res = tuple(
        abs(rep.matrix(s).trace - a.trace(s)) for s in range(1, rep.n + 2)
    )
    det_res = tuple(abs(rep.matrix(s).det - 1.0) for s in range(1, rep.n + 2))
    round_trip = coordinate_distance(x, phi(rep))
    mem = membership(x).normalized
    if mem > tol.abs:
        warnings.warn(
            f"input point violates the defining relations "
            f"(normalized residual {mem:.3e}); reconstructing anyway",
            OffVarietyWarning,
            stacklevel=3,
        )
    diag = Diagnostics(
        trace=trace_res,
        det=det_res,
        closure=closure_residual(rep),
        round_trip=round_trip,
        membership_max=mem,
    )
    return ReconstructionResult(rep, chart, branch, diag)


def reconstruct_base(x: TraceCoordinates, chart: ChartId,
                     branch: BranchChoice = PLUS,
                     tol: Tolerance = DEFAULT_TOL) -> ReconstructionResult:
    """Matrix tuple on a base chart (i0 = 0).

    M_j gets lower-left entry 1 and upper-right -psi/(x_kj^2 - 4); M_k M_j
    comes out as diag(l+, l-), and every other matrix is solved from its
    local trace, triple trace with (k, j), and pair traces with j and k.
    """
    if chart.i0 != 0:
        raise BadChart("base reconstruction requires anchor i0 == 0")
    require_admissible(x, chart, tol)
    j, k = chart.j, chart.k
    a = x.local.trace
    xkj = x.pair(k, j)
    r, lp, lm = lambdas(xkj, branch, tol)
    disc = xkj * xkj - 4.0
    ps = psi(xkj, a(k), a(j))
    mat_j = Mat2(
        -(a(k) - lp * a(j)) / r, -ps / disc,
        1.0, (a(k) - lm * a(j)) / r,
    )
    mat_k = Mat2(
        -(a(j) - lp * a(k)) / r, lp * ps / disc,
        -lm, (a(j) - lm * a(k)) / r,
    )
    mats = []
    for i in range(1, x.n + 1):
        if i == j:
            mats.append(mat_j)
        elif i == k:
            mats.append(mat_k)
        else:
            xkji = triple_trace(x, k, j, i)
            u11 = (xkji - lm * a(i)) / r
            u22 = -(xkji - lp * a(i)) / r
            u12 = (x.pair(k, i) - a(k) * u22 + lp * (x.pair(j, i) - a(j) * u11)) / r
            u21 = r * (x.pair(k, i) - a(k) * u11 + lm * (x.pair(j, i) - a(j) * u22)) / ps
            mats.append(Mat2(u11, u12, u21, u22))
    return _finish(x, chart, branch, tuple(mats), tol)


def reconstruct_anchored(x: TraceCoordinates, chart: ChartId,
                         branch: BranchChoice = PLUS,
                         tol: Tolerance = DEFAULT_TOL) -> ReconstructionResult:
    """Matrix tuple on an anchored chart (i0 >= 1).

    The normalization sits at M_{i0} (lower-left entry 1); the
    anti-diagonals of M_j, M_k follow from the pair traces with i0, and the
    remaining matrices additionally use the four-factor trace with
    (k, j, i, i0).
    """
    if chart.i0 == 0:
        raise BadChart("anchored reconstruction requires anchor i0 >= 1")
    require_admissible(x, chart, tol)
    j, k, i0 = chart.j, chart.k, chart.i0
    a = x.local.trace
    xkj = x.pair(k, j)
    r, lp, lm = lambdas(xkj, branch, tol)
    disc = xkj * xkj - 4.0
    ps = psi(triple_trace(x, k, j, i0), xkj, a(i0))

    def diag_entries(i: int) -> tuple[complex, complex]:
        xkji = triple_trace(x, k, j, i)
        return (xkji - lm * a(i)) / r, -(xkji - lp * a(i)) / r

    u11_0, u22_0 = diag_entries(i0)
    mat_i0 = Mat2(u11_0, -ps / disc, 1.0, u22_0)
    u12_j = -(x.pair(k, i0) - a(k) * u11_0 + lm * (x.pair(j, i0) - a(j) * u22_0)) / r
    u21_j = -r * (x.pair(k, i0) - a(k) * u22_0 + lp * (x.pair(j, i0) - a(j) * u11_0)) / ps
    mat_j = Mat2(
        -(a(k) - lp * a(j)) / r, u12_j,
        u21_j, (a(k) - lm * a(j)) / r,
    )
    mat_k = Mat2(
        -(a(j) - lp * a(k)) / r, -lp * u12_j,
        -lm * u21_j, (a(j) - lm * a(k)) / r,
    )
    mats = []
    for i in range(1, x.n + 1):
        if i == j:
            mats.append(mat_j)
        elif i == k:
            mats.append(mat_k)
        elif i == i0:
            mats.append(mat_i0)
        else:
            u11, u22 = diag_entries(i)
            q = quad_trace(x, k, j, i, i0)
            u12 = -(lm * x.pair(i, i0) + r * u11 * u11_0 - q) / r
            u21 = -r * (lp * x.pair(i, i0) - r * u22 * u22_0 - q) / ps
            mats.append(Mat2(u11, u12, u21, u22))
    return _finish(x, chart, branch, tuple(mats), tol)


def reconstruct(x: TraceCoordinates, chart: ChartId,
                branch: BranchChoice = PLUS,
                tol: Tolerance = DEFAULT_TOL) -> ReconstructionResult:
    """Dispatch to the base or anchored builder by the chart's anchor."""
    if chart.i0 == 0:
        return reconstruct_base(x, chart, branch, tol)
    return reconstruct_anchored(x, chart, branch, tol)


def branch_independence_check(x: TraceCoordinates, chart: ChartId,
                              tol: Tolerance = DEFAULT_TOL) -> float:
    """Reconstruct on both square-root branches and compare coordinates.

    Returns the scale-normalized coordinate distance between the two
    outputs, which must vanish since the tuples are conjugate.
    """
    plus = reconstruct(x, chart, PLUS, tol)
    minus = reconstruct(x, chart, MINUS, tol)
    return coordinate_distance(phi(plus.rep), phi(minus.rep))
