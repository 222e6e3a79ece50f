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

The chart is checked once, by ``require_admissible``, whose entry of the memoized
``classify_charts`` report gives x_kj and psi, so a rebuild evaluates no chart
polynomial of its own.  The loop ``_rebuild`` reads each stored value where it uses
it, as the chart table reads them: a pair by its ``coords._key``, a triple word by
``coords._read`` of its ``coords._word``.  The four-factor traces are
``sl2.four_trace_reduction`` on those reads, as ``coords.quad_trace`` has them.  The
loop is traced per chart at small n as ``sl2._straight`` decides; where its finiteness
pass fails, ``Mat2`` names the first bad entry.

The rebuild is the package's variety test: its trace residuals compare every
a_s, closing trace included, and its round trip every stored coordinate with
those of an actual tuple, read by ``coords._traces`` without building a point,
so they all vanish exactly when x lies on the variety.  ``Diagnostics.passes`` is
that one gate.  ``reconstruct`` memoizes its result on the point, for
``unitary.classify`` and the CLI's ``reconstruct`` and ``classify`` too, and warns
nothing: each caller reports a miss once.

Every reconstruction is irreducible, so nothing tests that numerically:
psi != 0 on an admissible chart, and psi vanishes exactly when (M_j, M_k),
or (M_k M_j, M_{i0}) on an anchored chart, generates a reducible group.
"""

from __future__ import annotations

import cmath
from itertools import chain

from .charts import ChartId, require_admissible
from .coords import (
    Representation,
    TraceCoordinates,
    _distance,
    _key,
    _read,
    _traces,
    _word,
    descending_product,
)
from .errors import DegenerateEigenvalues
from .sl2 import (
    DEFAULT_TOL,
    Mat2,
    Tolerance,
    _finite,
    _record,
    _straight,
    _worst,
    four_trace_reduction,
)


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
        return _worst(self.trace, self.det, (self.round_trip,))

    def passes(self, tol: Tolerance) -> bool:
        """The variety gate: every residual within tol.abs (NaN fails it)."""
        return self.worst() <= tol.abs


class ReconstructionResult(_record("ReconstructionResult", "rep diagnostics")):
    """The rebuilt ``Representation`` and the ``Diagnostics`` of the rebuild."""

    __slots__ = ()


@_straight(2)
def _rebuild(n: int, chart: ChartId, a: tuple, pairs, triples, xkj: complex, ps: complex,
             r: complex, lp: complex, lm: complex) -> tuple[Representation, tuple, tuple]:
    """``(rep, trace, det)`` of the rebuild on ``chart`` from the local traces ``a``, the
    stored maps and the chart's x_kj, psi and lambdas, each stored value read where it is
    used (module docstring); raises naming the first non-finite entry."""
    j, k, i0 = chart
    a = (None,) + a  # 1-based
    disc = xkj * xkj - 4.0
    if not i0:
        u12_j, u21_j = -ps / disc, 1.0
        u12_k, u21_k = lp * ps / disc, -lm
    else:  # the anchor's triple and pairs, read once for every matrix
        xkji0 = _read(_word(k, j, i0), a, pairs, triples)
        xki0, xji0 = pairs[_key(k, i0)], pairs[_key(j, i0)]
        u11_0, u22_0 = (xkji0 - lm * a[i0]) / r, -(xkji0 - lp * a[i0]) / r
        u12_j = -(xki0 - a[k] * u11_0 + lm * (xji0 - a[j] * u22_0)) / r
        u21_j = -r * (xki0 - a[k] * u22_0 + lp * (xji0 - a[j] * u11_0)) / ps
        u12_k, u21_k = -lp * u12_j, -lm * u21_j
    mats = []
    for i in range(1, n + 1):
        if i == j:
            mats.append((-(a[k] - lp * a[j]) / r, u12_j, u21_j, (a[k] - lm * a[j]) / r))
            continue
        if i == k:
            mats.append((-(a[j] - lp * a[k]) / r, u12_k, u21_k, (a[j] - lm * a[k]) / r))
            continue
        if i == i0:
            mats.append((u11_0, -ps / disc, 1.0, u22_0))
            continue
        xkji = _read(_word(k, j, i), a, pairs, triples)
        xki, xji = pairs[_key(k, i)], pairs[_key(j, i)]
        u11, u22 = (xkji - lm * a[i]) / r, -(xkji - lp * a[i]) / r
        if not i0:
            u12 = (xki - a[k] * u22 + lp * (xji - a[j] * u11)) / r
            u21 = r * (xki - a[k] * u11 + lm * (xji - a[j] * u22)) / ps
        else:
            xii0 = pairs[_key(i, i0)]
            q = four_trace_reduction(a[k], a[j], a[i], a[i0], xkj, xki, xki0, xji, xji0, xii0,
                                     xkji, xkji0, _read(_word(k, i, i0), a, pairs, triples),
                                     _read(_word(j, i, i0), a, pairs, triples))
            u12 = -(lm * xii0 + r * u11 * u11_0 - q) / r
            u21 = -r * (lp * xii0 - r * u22 * u22_0 - q) / ps
        mats.append((u11, u12, u21, u22))
    p11, p12, p21, p22 = mats[0]
    for a11, a12, a21, a22 in mats[1:]:  # M_s @ (M_{s-1} ... M_1), as Mat2.__matmul__ rounds it
        p11, p12, p21, p22 = (a11 * p11 + a12 * p21, a11 * p12 + a12 * p22,
                              a21 * p11 + a22 * p21, a21 * p12 + a22 * p22)
    closed = [tuple.__new__(Mat2, m) for m in mats] + [tuple.__new__(Mat2, (p22, -p12, -p21, p11))]
    if not _finite([*chain.from_iterable(closed)]):  # the same arithmetic, checked,
        descending_product([Mat2(*m) for m in mats])  # raises naming the first bad entry
    return (tuple.__new__(Representation, (tuple(closed[:-1]), closed[-1])),
            tuple([abs(m11 + m22 - v) for (m11, _, _, m22), v in zip(closed, a[1:])]),
            tuple([abs(m11 * m22 - m12 * m21 - 1.0) for m11, m12, m21, m22 in closed]))


def reconstruct(x: TraceCoordinates, chart: ChartId, branch: BranchChoice = PLUS,
                tol: Tolerance = DEFAULT_TOL) -> ReconstructionResult:
    """The tuple rebuilt from x on ``chart`` by the normal form of its kind
    (module docstring), memoized on x per (chart, branch, tol).

    Raises BadChart for a chart that does not exist at x.n,
    ChartNotAdmissible off the chart and DegenerateEigenvalues at
    x_kj = +/-2.  Off the variety the result comes back all the same, with
    diagnostics that fail ``Diagnostics.passes``.
    """
    key = ("rebuild", chart, branch, tol)
    result = x._cache.get(key)
    if result is not None:
        return result
    e = require_admissible(x, chart, tol)
    rep, trace, det = _rebuild(x.n, chart, x.local.a, x.pairs, x._triples, e.xkj, e.psi,
                               *lambdas(e.xkj, branch, tol))
    diag = Diagnostics(trace, det, _distance(x, *_traces(x.n, *rep)[1:]))  # raises as phi does
    result = x._cache[key] = ReconstructionResult(rep, diag)
    return result
