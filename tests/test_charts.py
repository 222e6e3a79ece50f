import cmath
import copy
import pickle
from itertools import combinations, product

import pytest

from monodromy import (
    DEFAULT_TOL,
    BadChart,
    ChartId,
    LocalData,
    MINUS,
    Mat2,
    PLUS,
    Tolerance,
    TraceCoordinates,
    classify,
    classify_charts,
    hermitian_form,
    membership,
    phi,
    reconstruct,
    type1,
    type2,
    type3,
)
from monodromy import charts, coords, reconstruction, relations, sl2
from monodromy.charts import chart_eval, index_set, require_admissible
from monodromy.samplers import SplitMix64, random_unimodular

from conftest import (
    FAMILIES,
    charts_for,
    generic,
    identity_rep,
    omat,
    omul,
    oracle_chart_entries,
    oracle_chart_psi,
    otr,
    oword,
    psi,
    traced,
)


def test_index_set_n3():
    assert index_set(3) == [(1, 2), (2, 3), (3, 1)]


def test_index_set_n4():
    assert index_set(4) == [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 1)]


@pytest.mark.parametrize("n", range(3, 9))
def test_index_set_sizes_and_shape(n):
    pairs = index_set(n)
    # branch counts: j = 1 gives n-2 pairs, middle j give (n-1)(n-2)/2, j = n gives 1
    assert len(pairs) == (n - 2) + (n - 1) * (n - 2) // 2 + 1
    assert len(set(pairs)) == len(pairs)
    for j, k in pairs:
        assert j != k
        if j == 1:
            assert 2 <= k < n
        elif j == n:
            assert k == 1
        else:
            assert j < k <= n


def test_charts_for_counts():
    for n in (3, 4, 5, 6):
        charts = charts_for(n)
        assert len(charts) == len(index_set(n)) * (n - 1)
        assert charts == sorted(charts)  # lexicographic (j, k, i0)


def test_chart_id_validation():
    with pytest.raises(BadChart):
        ChartId(1, 1, 0)
    with pytest.raises(BadChart):
        ChartId(1, 2, 2)
    with pytest.raises(BadChart):
        ChartId(1, 2, -1)
    assert ChartId(1, 2, 0).label() == "(1,2,base)"
    assert ChartId(3, 1, 2).label() == "(3,1,2)"


def test_chart_poly_fixture(fixture_coords):
    value = chart_eval(fixture_coords, ChartId(1, 2, 0)).value
    assert abs(value - 81.0 / 16.0) <= 1e-14


def test_chart_poly_vanishes_at_pair_trace_two():
    pairs = {key: 2.0 for key in combinations(range(1, 4), 2)}
    x = TraceCoordinates(LocalData((0.5, 0.5, 0.5, 0.5)), pairs)
    assert chart_eval(x, ChartId(1, 2, 0)).value == 0.0


def test_chart_poly_wraparound_pair_canonicalization():
    # chart (n, 1): the polynomial reads pair and triple traces with the
    # indices in non-ascending order; compare against direct matrix traces.
    rep = generic(4, seed=17)
    x = phi(rep)
    for i0 in (2, 3):
        got = chart_eval(x, ChartId(4, 1, i0)).value
        x14 = oword(rep, (1, 4))
        trip = oword(rep, (1, 4, i0))
        expect = (x14 * x14 - 4.0) * psi(trip, x14, rep.mats[i0 - 1].trace)
        assert abs(got - expect) <= 1e-9 * (1.0 + abs(expect))


def test_chart_poly_anchored_between_canonicalization():
    # anchor strictly between j and k exercises the reordering identity
    rep = generic(4, seed=18)
    x = phi(rep)
    got = chart_eval(x, ChartId(2, 4, 3)).value
    x42 = oword(rep, (4, 2))
    trip = oword(rep, (4, 2, 3))
    expect = (x42 * x42 - 4.0) * psi(trip, x42, rep.mats[2].trace)
    assert abs(got - expect) <= 1e-9 * (1.0 + abs(expect))


def test_chart_poly_full_sweep_against_oracle():
    # every chart at an n = 5 point: accessor-based value vs direct traces
    rep = generic(5, seed=19)
    x = phi(rep)
    for chart in charts_for(5):
        xkj = oword(rep, (chart.k, chart.j))
        if chart.i0 == 0:
            expect = (xkj * xkj - 4.0) * psi(
                xkj, oword(rep, (chart.k,)), oword(rep, (chart.j,))
            )
        else:
            trip = oword(rep, (chart.k, chart.j, chart.i0))
            expect = (xkj * xkj - 4.0) * psi(trip, xkj, oword(rep, (chart.i0,)))
        got = chart_eval(x, chart).value
        assert abs(got - expect) <= 1e-9 * (1.0 + abs(expect))


def test_chart_poly_rejects_bad_chart():
    x = phi(generic(4, seed=2))
    with pytest.raises(BadChart):
        chart_eval(x, ChartId(2, 1, 0))  # (2, 1) is not a chart pair
    with pytest.raises(BadChart):
        chart_eval(x, ChartId(1, 4, 0))  # j = 1 requires k < n
    with pytest.raises(BadChart):
        chart_eval(x, ChartId(1, 2, 5))  # anchor beyond n


def test_classify_charts_fixture(fixture_coords):
    report = classify_charts(fixture_coords)
    assert ChartId(1, 2, 0) in report.admissible()
    assert report.best is not None


def test_classify_charts_all_pair_traces_two():
    pairs = {key: 2.0 for key in combinations(range(1, 4), 2)}
    x = TraceCoordinates(LocalData((0.5, 0.5, 0.5, 0.5)), pairs)
    report = classify_charts(x)
    assert report.admissible() == []
    assert report.best is None


def test_classify_charts_identity_coordinates():
    report = classify_charts(phi(identity_rep(4)))
    assert report.best is None


def test_classify_charts_conjugation_invariant():
    rng = SplitMix64(123)
    rep = generic(5, seed=44)
    p = random_unimodular(rng)
    a = classify_charts(phi(rep))
    b = classify_charts(phi(rep.conjugated(p)))
    assert a.best == b.best
    assert [e.admissible for e in a.entries] == [e.admissible for e in b.entries]


def test_chart_psi_matches_commutator_interpretation():
    # psi at (tr(AB), tr A, tr B) equals tr(A B A^-1 B^-1) - 2
    rep = generic(3, seed=55)
    x = phi(rep)
    a, b = omat(rep.mats[1]), omat(rep.mats[0])
    ainv, binv = omat(rep.mats[1].adjugate()), omat(rep.mats[0].adjugate())
    comm = otr(omul(omul(a, b), omul(ainv, binv)))
    got = chart_eval(x, ChartId(1, 2, 0)).psi
    assert abs(got - (comm - 2.0)) <= 1e-10 * (1.0 + abs(comm))


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", range(3, 10))
def test_chart_table_matches_definition(n, family):
    # the table writes psi out and reads triple words by coords._read; every ChartEval must be ==
    # a recomputation with psi and triple_trace
    for seed, tol in product((400 + n, 0, 1, 2), (DEFAULT_TOL, Tolerance(1e-3))):
        x = phi(FAMILIES[family](n, seed))
        report = classify_charts(x, tol)
        entries, best = oracle_chart_entries(x, tol)
        assert [(e.chart, e.value, e.admissible, e.psi) for e in report.entries] == entries
        assert report.best == best
        for e in report.entries:
            assert chart_eval(x, e.chart, tol) == e
            if e.admissible:
                assert require_admissible(x, e.chart, tol) == e
            xkj = x.pair(e.chart.k, e.chart.j)
            ps = oracle_chart_psi(x, e.chart)
            assert e.xkj == xkj
            assert e.psi == ps
            assert e.value == (xkj * xkj - 4.0) * ps


@pytest.mark.parametrize("n", [4, 5])
def test_huge_pair_trace_saturates_the_threshold(n):
    # |x_kj|^4 overflows past |x_kj| ~ 1.2e77: the threshold reads inf, so
    # the charts of that pair are inadmissible and the report still completes
    base = phi(FAMILIES["su2"](n, 1))
    for key, value in product([(1, 2), (1, 3), (1, 4)], [1e78, 1e100, 1e150, 1e300]):
        x = TraceCoordinates(base.local, {**base.pairs, key: complex(value)}, dict(base.triples))
        report = classify_charts(x)
        assert len(report.entries) == len(charts_for(n))
        big = [e for e in report.entries if tuple(sorted(e.chart[:2])) == key]
        assert big and not any(e.admissible for e in big)


def test_chart_modulus_past_the_float_range_saturates():
    # x_21 = 1.19e77 e^{i pi/16}: |x_21|^4 overflows, so the threshold of the pair
    # (1, 2) reads inf, and p of its base chart has finite parts but a modulus past
    # 1.8e308, where complex abs raises OverflowError; |p| reads inf instead, which
    # clears no inf threshold, and the other pairs' charts are scored as usual
    base = phi(FAMILIES["su2"](4, 1))
    x21 = 1.19e77 * cmath.exp(1j * cmath.pi / 16)
    x = TraceCoordinates(base.local, {**base.pairs, (1, 2): x21}, dict(base.triples))
    report = classify_charts(x)
    big = [e for e in report.entries if tuple(sorted(e.chart[:2])) == (1, 2)]
    assert big and all(cmath.isfinite(e.value) and not e.admissible for e in big)
    with pytest.raises(OverflowError):
        abs(big[0].value)
    assert report.best == ChartId(1, 3, 2)


def test_classify_charts_memoized_per_tolerance():
    rep = FAMILIES["su2"](6, 3)
    x = phi(rep)
    report = classify_charts(x)
    assert classify_charts(x) is report and classify_charts(x, DEFAULT_TOL) is report
    loose = Tolerance(1e-3)
    other = classify_charts(x, loose)
    assert other is not report and classify_charts(x, loose) is other
    assert other == classify_charts(phi(rep), loose)
    assert report == classify_charts(phi(rep))
    for copied in (copy.copy(x), pickle.loads(pickle.dumps(x))):  # copies start without the memo
        assert copied._cache == {}
        assert classify_charts(copied) == report and classify_charts(copied) is not report


@pytest.mark.parametrize("family, n", [
    pytest.param(family, n, id=family if n == 6 else f"{family}-n{n}")
    for n in (6, 4) for family in ("su2", "su11")
])
def test_pipeline_evaluates_each_layer_once(family, n, monkeypatch):
    # phi -> membership -> classify_charts -> reconstruct -> classify ->
    # hermitian_form, with the public evaluators after: one chart table per
    # tolerance and one relation pass per point, one call of the traced loop (its
    # straight-line kernel at n <= 5, the z/s3 tables and the word past it); one
    # trace pass per phi call and per fresh rebuild, and one rebuild per
    # tolerance, none on a memo hit
    calls = {"charts": 0, "comprehension": 0, "tables": 0, "words": 0, "traces": 0, "rebuild": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    # the kernel built first: a trace runs _tables
    traced(relations._comprehension, lambda: membership(phi(FAMILIES[family](n, 3))))
    monkeypatch.setattr(charts, "_chart_values", counted("charts", charts._chart_values))
    monkeypatch.setattr(relations, "_comprehension",
                        counted("comprehension", relations._comprehension))
    monkeypatch.setattr(relations, "_tables", counted("tables", relations._tables))
    monkeypatch.setattr(relations, "_word_trace", counted("words", relations._word_trace))
    traces = counted("traces", coords._traces)
    monkeypatch.setattr(coords, "_traces", traces)
    monkeypatch.setattr(reconstruction, "_traces", traces)
    monkeypatch.setattr(reconstruction, "_rebuild", counted("rebuild", reconstruction._rebuild))
    x = phi(FAMILIES[family](n, 2))
    tols = (DEFAULT_TOL, Tolerance(1e-3))
    for tol in tols:
        membership(x)
        best = classify_charts(x, tol).best
        reconstruct(x, best, tol=tol)
        sig = classify(x, tol)
        hermitian_form(x, sig.chart, tol)
        for e in classify_charts(x, tol).entries:
            chart_eval(x, e.chart, tol)
        type1(x, (1, 2, 3), (n - 2, n - 1, n))
        type2(x, 1, (n - 3, n - 2, n - 1, n))
        type3(x)
    assert calls == {"charts": len(tols), "comprehension": 1, "tables": int(n > sl2._STRAIGHT_N),
                     "words": int(n > sl2._STRAIGHT_N), "traces": 1 + len(tols),
                     "rebuild": len(tols)}


@pytest.mark.parametrize("family", ["su2", "generic"])
@pytest.mark.parametrize("n", [3, 4, 9])
def test_phi_and_rebuild_build_values_unchecked(family, n, monkeypatch):
    # one finiteness pass per layer: on a finite point no Mat2 or LocalData goes
    # through its checking constructor (test_invalid_construction pins those checks)
    rep = FAMILIES[family](n, 2)
    expected = phi(rep)
    best = classify_charts(expected).best
    rebuilt = [reconstruct(expected, best, branch) for branch in (PLUS, MINUS)]
    made = []
    for cls in (Mat2, LocalData):
        def counted(cls, *args, new=cls.__new__):
            made.append(cls)
            return new(cls, *args)
        monkeypatch.setattr(cls, "__new__", counted)
    x = phi(rep)
    assert made == []
    classify_charts(x)  # the chart table, which reconstruct reads, is not counted
    assert [reconstruct(x, best, branch) for branch in (PLUS, MINUS)] == rebuilt
    assert x == expected and made == []
    Mat2(1.0, 0.0, 0.0, 1.0), LocalData((2.0,) * 4)  # the counter counts
    assert made == [Mat2, LocalData]


@pytest.mark.parametrize("family", ["su2", "su11", "generic"])
def test_classify_after_classify_charts_matches_fresh_point(family):
    rep = FAMILIES[family](7, 2)
    for tol in (DEFAULT_TOL, Tolerance(1e-3)):
        x = phi(rep)
        classify_charts(x, tol)
        assert classify(x, tol) == classify(phi(rep), tol)
