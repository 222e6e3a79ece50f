"""Explicit matrix tuples from coordinates on an admissible chart.

On the chart (j, k, i0) the pair product M_k M_j is put into the diagonal
form diag(l+, l-) with l +/- the roots of t^2 - x_kj t + 1, which fixes the
diagonals of M_j, M_k and, through the triple traces with (k, j), of every
other matrix.  Only the anti-diagonals depend on the chart kind.  Base
charts (i0 = 0) give M_j lower-left entry 1 and upper-right
-psi/(x_kj^2 - 4) and solve the rest from the pair traces with j and k.
Anchored charts put that normalization at M_{i0}, take the anti-diagonals
of M_j, M_k from the pair traces with i0, and those of the remaining
matrices from the four-factor traces with (k, j, i0).  psi is the chart's
own factor, read from the point's chart report.

The square-root branch in r = sqrt(x_kj^2 - 4) only moves the tuple inside
its conjugacy class, so coordinates of the output never depend on it.

The chart is checked once, by ``require_admissible``, which reads its entry
of the memoized ``classify_charts`` report, so a rebuild evaluates no chart
polynomial of its own.  After that the rebuild reads the local traces and
stored pairs by key and the triple traces through ``coords._triple``, the
unchecked core of ``triple_trace``, each once per matrix (the anchor's once
per chart), and evaluates the four-factor traces with
``sl2.four_trace_reduction`` on those reads, as ``coords.quad_trace`` does.
The n matrices, the adjugate of their product and the ``Representation`` are
built after one finiteness pass over the n + 1 matrices; when it fails, ``Mat2``
checks matrices 1..n, then the product, which names the first bad entry.

The rebuild is the package's variety test: its trace residuals compare every
a_s, closing trace included, and its round trip every stored coordinate with
those of an actual tuple, so they all vanish exactly when x lies on the
variety.  ``Diagnostics.passes`` is that one gate; ``rebuild`` memoizes the
result on the point for ``reconstruct``, ``unitary.classify`` and the CLI's
``reconstruct`` and ``classify``, which report a miss without a warning.

Every reconstruction is irreducible, so nothing tests that numerically:
psi != 0 on an admissible chart, and psi vanishes exactly when (M_j, M_k),
or (M_k M_j, M_{i0}) on an anchored chart, generates a reducible group.
"""

from __future__ import annotations

import cmath
import warnings
from itertools import chain

from .charts import ChartId, require_admissible
from .coords import (
    Representation,
    TraceCoordinates,
    _pair,
    _triple,
    coordinate_distance,
    descending_product,
    phi,
)
from .errors import DegenerateEigenvalues, OffVarietyWarning
from .sl2 import DEFAULT_TOL, Mat2, Tolerance, _record, four_trace_reduction


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


class Diagnostics(_record("Diagnostics", "trace det round_trip")):
    """Residuals of one reconstruction.

    ``trace`` and ``det`` run over M_1 .. M_{n+1}; ``det[-1]`` is also the
    closure residual, M_{n+1} being adj(M_n ... M_1).  ``round_trip`` is
    scale-normalized.  No irreducibility flag: psi != 0 on the chart proves it.
    """

    __slots__ = ()

    def worst(self) -> float:
        """The largest residual, NaN when any residual is NaN."""
        values = (*self.trace, *self.det, self.round_trip)
        total = sum(values)  # of non-negative terms: NaN exactly when one is NaN
        return total if total != total else max(values)

    def passes(self, tol: Tolerance) -> bool:
        """The variety gate: every residual within tol.abs (NaN fails it)."""
        return self.worst() <= tol.abs


class ReconstructionResult(_record("ReconstructionResult", "rep diagnostics")):
    """The rebuilt ``Representation`` and the ``Diagnostics`` of the rebuild."""

    __slots__ = ()


def reconstruct(x: TraceCoordinates, chart: ChartId,
                branch: BranchChoice = PLUS,
                tol: Tolerance = DEFAULT_TOL) -> ReconstructionResult:
    """The tuple rebuilt from x on ``chart`` by the normal form of its kind
    (module docstring), memoized on x per (chart, branch, tol).

    Raises BadChart for a chart that does not exist at x.n,
    ChartNotAdmissible off the chart and DegenerateEigenvalues at
    x_kj = +/-2; warns OffVarietyWarning on every call whose rebuild fails
    ``Diagnostics.passes``, i.e. when x is off the variety.
    """
    result = rebuild(x, chart, branch, tol)
    if not result.diagnostics.passes(tol):
        warnings.warn(
            f"chart {chart.label()}: the rebuilt tuple misses the point by "
            f"{result.diagnostics.worst():.1e} > {tol.abs:g}; returning it anyway",
            OffVarietyWarning,
            stacklevel=2,
        )
    return result


def rebuild(x: TraceCoordinates, chart: ChartId, branch: BranchChoice = PLUS,
            tol: Tolerance = DEFAULT_TOL) -> ReconstructionResult:
    """``reconstruct`` without the warning; the result is memoized on the point."""
    key = ("rebuild", chart, branch, tol)
    result = x._cache.get(key)
    if result is not None:
        return result
    ps = require_admissible(x, chart, tol).psi
    j, k, i0 = chart
    a = (None,) + x.local.a  # 1-based
    pairs = x.pairs
    xkj = _pair(pairs, k, j)
    r, lp, lm = lambdas(xkj, branch, tol)
    disc = xkj * xkj - 4.0
    if i0 == 0:
        u12_j, u21_j = -ps / disc, 1.0
        u12_k, u21_k = lp * ps / disc, -lm
    else:  # the anchor's triple and pairs, read once for every matrix
        xkji0, xki0, xji0 = _triple(x, k, j, i0), _pair(pairs, k, i0), _pair(pairs, j, i0)
        u11_0, u22_0 = (xkji0 - lm * a[i0]) / r, -(xkji0 - lp * a[i0]) / r
        u12_j = -(xki0 - a[k] * u11_0 + lm * (xji0 - a[j] * u22_0)) / r
        u21_j = -r * (xki0 - a[k] * u22_0 + lp * (xji0 - a[j] * u11_0)) / ps
        u12_k, u21_k = -lp * u12_j, -lm * u21_j
    mats = []
    for i in range(1, x.n + 1):
        if i == j:
            mats.append((-(a[k] - lp * a[j]) / r, u12_j, u21_j, (a[k] - lm * a[j]) / r))
            continue
        if i == k:
            mats.append((-(a[j] - lp * a[k]) / r, u12_k, u21_k, (a[j] - lm * a[k]) / r))
            continue
        if i == i0:
            mats.append((u11_0, -ps / disc, 1.0, u22_0))
            continue
        xkji, xki, xji = _triple(x, k, j, i), _pair(pairs, k, i), _pair(pairs, j, i)
        u11, u22 = (xkji - lm * a[i]) / r, -(xkji - lp * a[i]) / r
        if i0 == 0:
            u12 = (xki - a[k] * u22 + lp * (xji - a[j] * u11)) / r
            u21 = r * (xki - a[k] * u11 + lm * (xji - a[j] * u22)) / ps
        else:
            xii0 = _pair(pairs, i, i0)
            q = four_trace_reduction(a[k], a[j], a[i], a[i0], xkj, xki, xki0, xji, xji0, xii0,
                                     xkji, xkji0, _triple(x, k, i, i0), _triple(x, j, i, i0))
            u12 = -(lm * xii0 + r * u11 * u11_0 - q) / r
            u21 = -r * (lp * xii0 - r * u22 * u22_0 - q) / ps
        mats.append((u11, u12, u21, u22))
    p11, p12, p21, p22 = mats[0]
    for a11, a12, a21, a22 in mats[1:]:  # M_s @ (M_{s-1} ... M_1), as Mat2.__matmul__ rounds it
        p11, p12, p21, p22 = (a11 * p11 + a12 * p21, a11 * p12 + a12 * p22,
                              a21 * p11 + a22 * p21, a21 * p12 + a22 * p22)
    closed = [tuple.__new__(Mat2, m) for m in mats] + [tuple.__new__(Mat2, (p22, -p12, -p21, p11))]
    if not all(map(cmath.isfinite, chain.from_iterable(closed))):  # the same arithmetic, checked,
        descending_product([Mat2(*m) for m in mats])  # raises naming the first bad entry
    rep = tuple.__new__(Representation, (tuple(closed[:-1]), closed[-1]))
    diag = Diagnostics(
        trace=tuple([abs(m11 + m22 - v) for (m11, _, _, m22), v in zip(closed, x.local.a)]),
        det=tuple([abs(m11 * m22 - m12 * m21 - 1.0) for m11, m12, m21, m22 in closed]),
        round_trip=coordinate_distance(x, phi(rep)),
    )
    result = x._cache[key] = ReconstructionResult(rep, diag)
    return result
