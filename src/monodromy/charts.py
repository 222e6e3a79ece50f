"""Chart index set, chart polynomials, and admissibility classification.

A chart is labeled by a pair (j, k) from the index set plus an anchor
``i0``: the sentinel ``i0 = 0`` names the base chart of the pair, any other
``i0`` outside {j, k} anchors the normalization at that matrix.  A chart is
admissible at a point when its chart polynomial is numerically nonzero;
the union of all admissible loci is where explicit matrix representatives
exist.

Which stored coordinates each chart reads is worked out once per n and
grouped by chart pair, so ``classify_charts`` computes x_kj, x_kj^2 - 4 and
the admissibility threshold once per pair; ``chart_psi`` and ``chart_poly``
evaluate one chart by the same formula.
"""

from __future__ import annotations

from functools import lru_cache

from .coords import TraceCoordinates, opposite_rotation
from .errors import BadChart, ChartNotAdmissible
from .relations import psi
from .sl2 import DEFAULT_TOL, Tolerance, _record


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
    return tuple(_group(j, k, [0] + [i0 for i0 in range(1, n + 1) if i0 not in (j, k)])
                 for j, k in index_set(n))


def _group(j: int, k: int, anchors) -> tuple:
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


def _chart_values(x: TraceCoordinates, groups) -> list[tuple]:
    """``(charts, x_kj, x_kj^2 - 4, psis)`` per ``_group``, with the ``chart_psi`` of
    each of its charts read straight from the stored coordinates."""
    a = (0.0,) + x.local.a  # 1-based
    pairs = x.pairs
    # for n = 3 the single triple trace is the closing trace a_4
    triples = x.triples or {(1, 2, 3): a[4]}
    out = []
    for kj, k, j, charts, reads in groups:
        xkj = pairs[kj]
        psis = []
        for i0, tkey, flip in reads:
            if i0 == 0:
                psis.append(psi(xkj, a[k], a[j]))
                continue
            t = triples[tkey]
            if flip is not None:
                t = opposite_rotation(a[k], a[j], a[i0], pairs[flip[0]], pairs[flip[1]], xkj, t)
            psis.append(psi(t, xkj, a[i0]))
        out.append((charts, xkj, xkj * xkj - 4.0, psis))
    return out


def _threshold(xkj: complex, tol: Tolerance) -> float:
    """Scale-aware zero threshold of a chart polynomial: tol.abs * (1 + |x_kj|^4)."""
    return tol.abs * (1.0 + abs(xkj) ** 4)


def _validate_chart(x: TraceCoordinates, chart: ChartId) -> None:
    n = x.n
    if not _is_chart_pair(n, chart.j, chart.k):
        raise BadChart(f"pair ({chart.j}, {chart.k}) is not a chart pair for n = {n}")
    if chart.i0 > n:
        raise BadChart(f"anchor index {chart.i0} out of range for n = {n}")


def chart_psi(x: TraceCoordinates, chart: ChartId) -> complex:
    """The chart's psi factor, deciding both admissibility and signature.

    Base charts use psi(x_kj, a_k, a_j); anchored charts use
    psi(x_{k j i0}, x_kj, a_{i0}) with the triple trace canonicalized
    as ``triple_trace`` does.
    """
    _validate_chart(x, chart)
    return _chart_values(x, (_group(chart.j, chart.k, (chart.i0,)),))[0][3][0]


def chart_poly(x: TraceCoordinates, chart: ChartId) -> complex:
    """(x_kj^2 - 4) times the chart's psi factor."""
    _validate_chart(x, chart)
    _, _, disc, (ps,) = _chart_values(x, (_group(chart.j, chart.k, (chart.i0,)),))[0]
    return disc * ps


def admissibility_threshold(x: TraceCoordinates, chart: ChartId, tol: Tolerance) -> float:
    """Scale-aware zero threshold: tol.abs * (1 + |x_kj|^4)."""
    return _threshold(x.pair(chart.k, chart.j), tol)


def require_admissible(x: TraceCoordinates, chart: ChartId, tol: Tolerance = DEFAULT_TOL) -> complex:
    """Return the chart polynomial value, raising ChartNotAdmissible at zero."""
    value = chart_poly(x, chart)
    if abs(value) <= admissibility_threshold(x, chart, tol):
        raise ChartNotAdmissible(
            f"chart {chart.label()}: |p| = {abs(value):.3e} is numerically zero"
        )
    return value


class ChartEval(_record("ChartEval", "chart value admissible psi xkj")):
    """One chart at a point: its polynomial value, admissibility, psi factor
    and pair trace x_kj."""

    __slots__ = ()


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
    """Evaluate every chart polynomial at x and pick the best admissible chart."""
    entries = []
    best: ChartId | None = None
    best_mag = 0.0
    new = tuple.__new__  # ChartEval checks nothing, so its Python-level __new__ is skipped
    for charts, xkj, disc, psis in _chart_values(x, _layout(x.n)):
        threshold = _threshold(xkj, tol)
        for chart, ps in zip(charts, psis):
            value = disc * ps
            mag = abs(value)
            admissible = mag > threshold
            entries.append(new(ChartEval, (chart, value, admissible, ps, xkj)))
            if admissible and mag > best_mag:
                best, best_mag = chart, mag
    return ChartReport(tuple(entries), best)
