"""Chart index set, chart polynomials, and admissibility classification.

A chart is labeled by a pair (j, k) from the index set plus an anchor
``i0``: the sentinel ``i0 = 0`` names the base chart of the pair, any other
``i0`` outside {j, k} anchors the normalization at that matrix.  A chart is
admissible at a point when its chart polynomial is numerically nonzero;
the union of all admissible loci is where explicit matrix representatives
exist.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coords import TraceCoordinates, triple_trace
from .errors import BadChart, ChartNotAdmissible
from .relations import psi
from .sl2 import DEFAULT_TOL, Tolerance


@dataclass(frozen=True, order=True)
class ChartId:
    """Chart label (j, k, i0); i0 == 0 is the base chart."""

    j: int
    k: int
    i0: int = 0

    def __post_init__(self) -> None:
        if self.j < 1 or self.k < 1 or self.j == self.k:
            raise BadChart(f"bad chart pair ({self.j}, {self.k})")
        if self.i0 < 0 or self.i0 in (self.j, self.k):
            raise BadChart(f"bad anchor index {self.i0} for pair ({self.j}, {self.k})")

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


def charts_for(n: int) -> list[ChartId]:
    """Every chart for tuples of size n, in lexicographic (j, k, i0) order."""
    out = []
    for j, k in index_set(n):
        out.append(ChartId(j, k, 0))
        out.extend(ChartId(j, k, i0) for i0 in range(1, n + 1) if i0 not in (j, k))
    return out


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
    through the accessor.
    """
    _validate_chart(x, chart)
    a = x.local.trace
    xkj = x.pair(chart.k, chart.j)
    if chart.i0 == 0:
        return psi(xkj, a(chart.k), a(chart.j))
    return psi(triple_trace(x, chart.k, chart.j, chart.i0), xkj, a(chart.i0))


def chart_poly(x: TraceCoordinates, chart: ChartId) -> complex:
    """(x_kj^2 - 4) times the chart's psi factor."""
    ps = chart_psi(x, chart)  # validates the chart against n
    xkj = x.pair(chart.k, chart.j)
    return (xkj * xkj - 4.0) * ps


def admissibility_threshold(x: TraceCoordinates, chart: ChartId, tol: Tolerance) -> float:
    """Scale-aware zero threshold: tol.abs * (1 + |x_kj|^4)."""
    return tol.abs * (1.0 + abs(x.pair(chart.k, chart.j)) ** 4)


def require_admissible(x: TraceCoordinates, chart: ChartId, tol: Tolerance = DEFAULT_TOL) -> complex:
    """Return the chart polynomial value, raising ChartNotAdmissible at zero."""
    value = chart_poly(x, chart)
    if abs(value) <= admissibility_threshold(x, chart, tol):
        raise ChartNotAdmissible(
            f"chart {chart.label()}: |p| = {abs(value):.3e} is numerically zero"
        )
    return value


@dataclass(frozen=True)
class ChartEval:
    chart: ChartId
    value: complex
    admissible: bool


@dataclass(frozen=True)
class ChartReport:
    """Chart polynomial values at a point plus the best admissible chart.

    ``best`` is the admissible chart maximizing |p| (lexicographic tie
    break); ``best is None`` means the point lies outside every chart
    domain as far as the tolerance can tell.
    """

    entries: tuple[ChartEval, ...]
    best: ChartId | None

    def admissible(self) -> list[ChartId]:
        return [e.chart for e in self.entries if e.admissible]


def classify_charts(x: TraceCoordinates, tol: Tolerance = DEFAULT_TOL) -> ChartReport:
    """Evaluate every chart polynomial at x and pick the best admissible chart."""
    entries = []
    best: ChartId | None = None
    best_mag = 0.0
    for chart in charts_for(x.n):
        value = chart_poly(x, chart)
        admissible = abs(value) > admissibility_threshold(x, chart, tol)
        entries.append(ChartEval(chart, value, admissible))
        if admissible and abs(value) > best_mag:
            best, best_mag = chart, abs(value)
    return ChartReport(tuple(entries), best)
