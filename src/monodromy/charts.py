"""Chart index set, chart polynomials, and admissibility classification.

A chart is labeled by a pair (j, k) from the index set plus an anchor
``i0``: the sentinel ``i0 = 0`` names the base chart of the pair, any other
``i0`` outside {j, k} anchors the normalization at that matrix.  A chart is
admissible at a point when its chart polynomial is numerically nonzero;
the union of all admissible loci is where explicit matrix representatives
exist.  The chart polynomial is p = (x_kj^2 - 4) psi, where
psi(s, t, u) = s^2 + t^2 + u^2 - s t u - 4 is read at (x_kj, a_k, a_j) on a
base chart and at (x_{k j i0}, x_kj, a_i0) on an anchored one.  The base
psi = z_jk^2 - z_jj z_kk is minus the Gram determinant of M0_j and M0_k (see
``relations``), so psi != 0 exactly when the pair is irreducible (Goldman,
arXiv:0901.1404).

Which stored coordinates each chart reads is worked out once per n and
grouped by chart pair, so ``classify_charts`` computes x_kj, x_kj^2 - 4 and
the admissibility threshold once per pair.  Its report, memoized on the
point per tolerance, is the only evaluation: ``chart_eval`` checks the chart
and returns the report's entry, so ``require_admissible``, ``reconstruct``
and ``unitary`` all read its ``ChartEval`` (p, psi, x_kj).  Indices are
checked at ``chart_eval`` and ``ChartId`` only: the table reads the stored
coordinates by the keys of its layout, with psi written out and each anchored
chart's triple word read by ``coords._read``.
"""

from __future__ import annotations

from functools import lru_cache
from math import hypot, inf

from .coords import TraceCoordinates, _key, _read, _word
from .errors import BadChart, ChartNotAdmissible
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
def _layout(n: int) -> tuple[tuple, dict]:
    """One ``_group`` per chart pair of size n, in lexicographic order, and
    ``{chart: slot}`` in that table order."""
    groups = tuple(_group(j, k, n) for j, k in index_set(n))
    return groups, {chart: slot for slot, chart in enumerate(c for g in groups for c in g[3])}


def _group(j: int, k: int, n: int) -> tuple:
    """``(kj, k, j, charts, reads)`` for the charts (j, k, i0) of size n, base chart
    first: ``kj`` is the stored key of x_kj, and ``reads`` holds ``(i0, word)`` per
    chart, ``word`` the ``_word`` of M_k M_j M_i0 (None on the base chart)."""
    anchors = (0, *(i0 for i0 in range(1, n + 1) if i0 not in (j, k)))
    reads = tuple((i0, _word(k, j, i0) if i0 else None) for i0 in anchors)
    return _key(k, j), k, j, tuple(ChartId(j, k, i0) for i0 in anchors), reads


class ChartEval(_record("ChartEval", "chart value admissible psi xkj")):
    """One chart at a point: its polynomial value, admissibility, psi factor
    and pair trace x_kj."""

    __slots__ = ()


def _chart_values(x: TraceCoordinates, tol: Tolerance) -> tuple[list[ChartEval], ChartId | None]:
    """A ``ChartEval`` per chart of x's ``_layout``, read straight from the stored
    coordinates, and the first admissible chart of largest |p|.  The triple trace
    is read as ``triple_trace`` reads it; p is admissible when |p| exceeds
    the scale-aware zero threshold tol.abs * (1 + |x_kj|^4)."""
    a = (0.0,) + x.local.a  # 1-based
    pairs, triples = x.pairs, x._triples
    new = tuple.__new__  # ChartEval checks nothing, so its Python-level __new__ is skipped
    out = []
    best, best_mag = None, 0.0
    for kj, k, j, charts, reads in _layout(x.n)[0]:
        xkj = pairs[kj]
        xkj2 = xkj * xkj
        disc = xkj2 - 4.0
        try:
            threshold = tol.abs * (1.0 + abs(xkj) ** 4)
        except OverflowError:  # |x_kj| past about 1e77: no |p| can clear it
            threshold = inf
        ak, aj = a[k], a[j]
        for chart, (i0, word) in zip(charts, reads):  # psi inlined, term for term
            if i0 == 0:
                ps = xkj2 + ak * ak + aj * aj - xkj * ak * aj - 4.0
            else:
                t, ai = _read(word, a, pairs, triples), a[i0]
                ps = t * t + xkj2 + ai * ai - t * xkj * ai - 4.0
            value = disc * ps
            try:
                mag = abs(value)
            except OverflowError:  # finite parts, modulus past 1.8e308: saturate as above
                mag = inf
            admissible = mag > threshold
            out.append(new(ChartEval, (chart, value, admissible, ps, xkj)))
            if admissible and mag > best_mag:
                best, best_mag = chart, mag
    return out, best


def chart_eval(x: TraceCoordinates, chart: ChartId, tol: Tolerance = DEFAULT_TOL) -> ChartEval:
    """One chart at x: its entry of the memoized ``classify_charts`` report.

    Raises BadChart for a chart that does not exist at x.n.
    """
    n = x.n
    if not _is_chart_pair(n, chart.j, chart.k):
        raise BadChart(f"pair ({chart.j}, {chart.k}) is not a chart pair for n = {n}")
    if chart.i0 > n:
        raise BadChart(f"anchor index {chart.i0} out of range for n = {n}")
    return classify_charts(x, tol).entries[_layout(n)[1][chart]]


def require_admissible(x: TraceCoordinates, chart: ChartId,
                       tol: Tolerance = DEFAULT_TOL) -> ChartEval:
    """The chart evaluated at x, raising ChartNotAdmissible where p is numerically zero."""
    e = chart_eval(x, chart, tol)
    if not e.admissible:  # |p| = inf: p overflowed, and so did its threshold
        mag = hypot(e.value.real, e.value.imag)  # |p|, saturated to inf as the table has it
        raise ChartNotAdmissible(f"chart {chart.label()}: |p| = {mag:.3e} is "
                                 + ("numerically zero" if mag != inf else "out of range"))
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
        entries, best = _chart_values(x, tol)
        report = x._cache[key] = ChartReport(tuple(entries), best)
    return report
