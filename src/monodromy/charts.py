"""Chart index set, chart polynomials, and admissibility classification.

A chart is labeled by a pair (j, k) from the index set plus an anchor
``i0``: the sentinel ``i0 = 0`` names the base chart of the pair, any other
``i0`` outside {j, k} anchors the normalization at that matrix.  A chart is
admissible at a point when its chart polynomial is numerically nonzero;
the union of all admissible loci is where explicit matrix representatives
exist.

Which stored coordinates each chart reads is worked out once per n and
grouped by chart pair, so ``classify_charts`` computes x_kj, x_kj^2 - 4 and
the admissibility threshold once per pair.  Its report is memoized on the
point per tolerance, so ``classify`` reuses the table a caller already built.
``chart_eval`` evaluates one chart by the same code, and its ``ChartEval``
(p, psi, x_kj) is what ``reconstruct`` and ``unitary`` build from.
"""

from __future__ import annotations

from functools import lru_cache

from .coords import TraceCoordinates, opposite_rotation
from .errors import BadChart, ChartNotAdmissible
from .sl2 import DEFAULT_TOL, Tolerance, _record


def psi(s: complex, t: complex, u: complex) -> complex:
    """s^2 + t^2 + u^2 - s t u - 4.

    At (tr(AB), tr(A), tr(B)) this equals tr(A B A^-1 B^-1) - 2, so it
    vanishes exactly when the pair generates a reducible group.
    """
    return s * s + t * t + u * u - s * t * u - 4.0


class ChartId(_record("ChartId", "j k i0")):
    """Chart label (j, k, i0); i0 == 0 is the base chart.  Orders as (j, k, i0)."""

    __slots__ = ()

    def __new__(cls, j: int, k: int, i0: int = 0):
        if j < 1 or k < 1 or j == k:
            raise BadChart(f"bad chart pair ({j}, {k})")
        if i0 < 0 or i0 in (j, k):
            raise BadChart(f"bad anchor index {i0} for pair ({j}, {k})")
        return tuple.__new__(cls, (j, k, i0))

    def label(self) -> str:
        """Human/file form: anchor 0 spelled as 'base'."""
        return f"({self.j},{self.k},{'base' if self.i0 == 0 else self.i0})"


def _is_chart_pair(n: int, j: int, k: int) -> bool:
    """j = 1 takes 2 <= k < n, middle j take j < k <= n, and j = n takes k = 1."""
    return (j == 1 and 2 <= k < n) or (2 <= j < n and j < k <= n) or (j == n and k == 1)


def index_set(n: int) -> list[tuple[int, int]]:
    """The chart pairs (j, k) for tuples of size n, in lexicographic order."""
    if n < 3:
        raise ValueError("need n >= 3")
    return [
        (j, k) for j in range(1, n + 1) for k in range(1, n + 1) if _is_chart_pair(n, j, k)
    ]


@lru_cache(maxsize=None)
def _layout(n: int) -> tuple[tuple, ...]:
    """One ``_group`` per chart pair of size n, in lexicographic order."""
    return tuple(_group(j, k, (0, *(i0 for i0 in range(1, n + 1) if i0 not in (j, k))))
                 for j, k in index_set(n))


@lru_cache(maxsize=None)
def _group(j: int, k: int, anchors: tuple[int, ...]) -> tuple:
    """``(kj, k, j, charts, reads)`` for the charts (j, k, i0), i0 in ``anchors``:
    ``kj`` is the stored key of x_kj, and ``reads`` holds ``(i0, tkey, flip)`` per
    chart, ``tkey`` the stored key of the triple (k, j, i0) and ``flip`` those of
    x_{j i0} and x_{k i0} when M_k M_j M_i0 is no rotation of the stored word."""
    reads = []
    for i0 in anchors:
        tkey = flip = None
        if i0:
            lo, mid, hi = tkey = tuple(sorted((k, j, i0)))
            if (k, j, i0) not in ((hi, mid, lo), (mid, lo, hi), (lo, hi, mid)):
                flip = ((min(j, i0), max(j, i0)), (min(k, i0), max(k, i0)))
        reads.append((i0, tkey, flip))
    return (min(j, k), max(j, k)), k, j, tuple(ChartId(j, k, i0) for i0 in anchors), tuple(reads)


class ChartEval(_record("ChartEval", "chart value admissible psi xkj")):
    """One chart at a point: its polynomial value, admissibility, psi factor
    and pair trace x_kj."""

    __slots__ = ()


def _chart_values(x: TraceCoordinates, groups,
                  tol: Tolerance) -> tuple[list[ChartEval], ChartId | None]:
    """A ``ChartEval`` per chart of each ``_group``, read straight from the stored
    coordinates, and the first admissible chart of largest |p|.  Base charts use
    psi(x_kj, a_k, a_j), anchored charts psi(x_{k j i0}, x_kj, a_i0) with the
    triple trace canonicalized as ``triple_trace`` does; p = (x_kj^2 - 4) psi is
    admissible when |p| exceeds the scale-aware zero threshold
    tol.abs * (1 + |x_kj|^4)."""
    a = (0.0,) + x.local.a  # 1-based
    pairs = x.pairs
    # for n = 3 the single triple trace is the closing trace a_4
    triples = x.triples or {(1, 2, 3): a[4]}
    new = tuple.__new__  # ChartEval checks nothing, so its Python-level __new__ is skipped
    out = []
    best, best_mag = None, 0.0
    for kj, k, j, charts, reads in groups:
        xkj = pairs[kj]
        disc = xkj * xkj - 4.0
        threshold = tol.abs * (1.0 + abs(xkj) ** 4)
        for chart, (i0, tkey, flip) in zip(charts, reads):
            if i0 == 0:
                ps = psi(xkj, a[k], a[j])
            else:
                t = triples[tkey]
                if flip is not None:
                    t = opposite_rotation(a[k], a[j], a[i0], pairs[flip[0]], pairs[flip[1]], xkj, t)
                ps = psi(t, xkj, a[i0])
            value = disc * ps
            mag = abs(value)
            admissible = mag > threshold
            out.append(new(ChartEval, (chart, value, admissible, ps, xkj)))
            if admissible and mag > best_mag:
                best, best_mag = chart, mag
    return out, best


def chart_eval(x: TraceCoordinates, chart: ChartId, tol: Tolerance = DEFAULT_TOL) -> ChartEval:
    """One chart at x, evaluated as ``classify_charts`` evaluates it.

    Raises BadChart for a chart that does not exist at x.n.
    """
    n = x.n
    if not _is_chart_pair(n, chart.j, chart.k):
        raise BadChart(f"pair ({chart.j}, {chart.k}) is not a chart pair for n = {n}")
    if chart.i0 > n:
        raise BadChart(f"anchor index {chart.i0} out of range for n = {n}")
    return _chart_values(x, (_group(chart.j, chart.k, (chart.i0,)),), tol)[0][0]


def require_admissible(x: TraceCoordinates, chart: ChartId,
                       tol: Tolerance = DEFAULT_TOL) -> ChartEval:
    """The chart evaluated at x, raising ChartNotAdmissible where p is numerically zero."""
    e = chart_eval(x, chart, tol)
    if not e.admissible:
        raise ChartNotAdmissible(
            f"chart {chart.label()}: |p| = {abs(e.value):.3e} is numerically zero"
        )
    return e


class ChartReport(_record("ChartReport", "entries best")):
    """Chart polynomial values at a point plus the best admissible chart.

    ``entries`` is a tuple of ``ChartEval``.  ``best`` is the admissible
    chart maximizing |p| (lexicographic tie break); ``best is None`` means
    the point lies outside every chart domain as far as the tolerance can
    tell.
    """

    __slots__ = ()

    def admissible(self) -> list[ChartId]:
        return [e.chart for e in self.entries if e.admissible]


def classify_charts(x: TraceCoordinates, tol: Tolerance = DEFAULT_TOL) -> ChartReport:
    """Evaluate every chart polynomial at x and pick the best admissible chart.

    The report is memoized on the (immutable) point, one per tolerance.
    """
    key = ("charts", tol)
    report = x._cache.get(key)
    if report is None:
        entries, best = _chart_values(x, _layout(x.n), tol)
        report = x._cache[key] = ChartReport(tuple(entries), best)
    return report
