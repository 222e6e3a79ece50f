import copy
import pickle
import warnings
from importlib import import_module
from itertools import permutations, product

import pytest

from monodromy import (
    BadChart,
    BranchChoice,
    ChartId,
    ChartNotAdmissible,
    DEFAULT_TOL,
    DegenerateEigenvalues,
    Diagnostics,
    MINUS,
    PLUS,
    Tolerance,
    TraceCoordinates,
    classify,
    classify_charts,
    coordinate_distance,
    membership,
    phi,
    quad_trace,
    reconstruct,
    triple_trace,
)
from monodromy import reconstruction, sl2
from monodromy.cli import coords_from_obj, coords_to_obj
from monodromy.coords import _pair, _triple, opposite_rotation
from monodromy.reconstruction import lambdas
from monodromy.samplers import SplitMix64
from monodromy.sl2 import four_trace_reduction

from conftest import (
    FAMILIES,
    branch_gap,
    closure_residual,
    commutator_gap,
    const_leaves,
    generic,
    identity_rep,
    oracle_gram_rebuild,
    su2,
    traced,
)


def test_branch_choice_validation():
    with pytest.raises(ValueError):
        BranchChoice(0)
    assert MINUS.sign == -1 and PLUS.sign == 1


def test_lambdas_real_case():
    r, lp, lm = lambdas(3.0)
    assert abs(r - 5 ** 0.5) <= 1e-15
    assert abs(lp - (3 + 5 ** 0.5) / 2) <= 1e-15
    assert abs(lm - (3 - 5 ** 0.5) / 2) <= 1e-15


def test_lambdas_imaginary_case():
    r, lp, lm = lambdas(0.0)
    assert r == 2j and lp == 1j and lm == -1j
    assert abs(abs(lp) - 1.0) == 0.0


def test_lambdas_branch_flip():
    rm, lpm, lmm = lambdas(3.0, MINUS)
    rp, lpp, lmp = lambdas(3.0, PLUS)
    assert rm == -rp and lpm == lmp and lmm == lpp


def test_lambdas_product_identity():
    rng = SplitMix64(31)
    for _ in range(1000):
        xkj = complex(rng.uniform(-6, 6), rng.uniform(-3, 3))
        if abs(xkj * xkj - 4.0) <= 1e-9:
            continue
        _, lp, lm = lambdas(xkj)
        assert abs(lp * lm - 1.0) <= 1e-14
        assert abs(lp + lm - xkj) <= 1e-14


def test_lambdas_degenerate():
    with pytest.raises(DegenerateEigenvalues):
        lambdas(2.0)
    with pytest.raises(DegenerateEigenvalues):
        lambdas(-2.0 + 1e-12)


def test_base_fixture_round_trip(fixture_coords):
    result = reconstruct(fixture_coords, ChartId(1, 2, 0))
    assert result.diagnostics.round_trip <= 1e-9
    assert max(result.diagnostics.trace) <= 1e-10
    assert max(result.diagnostics.det) <= 1e-10
    assert closure_residual(result.rep) <= 1e-10
    assert commutator_gap(result.rep.mats[0], result.rep.mats[1]) > 1e-6


def test_base_pair_product_diagonal(fixture_coords):
    x = fixture_coords
    chart = ChartId(1, 2, 0)
    result = reconstruct(x, chart)
    mk, mj = result.rep.mats[chart.k - 1], result.rep.mats[chart.j - 1]
    prod = mk @ mj
    assert abs(prod.trace - x.pair(chart.k, chart.j)) <= 1e-12
    assert abs(prod.m12) <= 1e-11 and abs(prod.m21) <= 1e-11


def test_base_seeded_round_trips():
    rep = generic(5, seed=25)
    x = phi(rep)
    for chart in classify_charts(x).admissible():
        if chart.i0 != 0:
            continue
        result = reconstruct(x, chart)
        assert result.diagnostics.round_trip <= 1e-8


def test_anchored_seeded_round_trips():
    rep = generic(4, seed=26)
    x = phi(rep)
    anchored = [c for c in classify_charts(x).admissible() if c.i0 >= 1]
    assert anchored
    for chart in anchored:
        result = reconstruct(x, chart)
        assert result.diagnostics.round_trip <= 1e-8
        mk, mj = result.rep.mats[chart.k - 1], result.rep.mats[chart.j - 1]
        prod = mk @ mj
        assert abs(prod.m12) <= 1e-11 and abs(prod.m21) <= 1e-11


def test_anchored_and_base_agree():
    rep = generic(4, seed=27)
    x = phi(rep)
    report = classify_charts(x)
    base = [c for c in report.admissible() if c.i0 == 0]
    anchored = [c for c in report.admissible() if c.i0 >= 1]
    xa = phi(reconstruct(x, base[0]).rep)
    xb = phi(reconstruct(x, anchored[0]).rep)
    assert coordinate_distance(xa, xb) <= 1e-8


def test_reconstruct_dispatch():
    rep = generic(4, seed=28)
    x = phi(rep)
    # a base chart gives M_j lower-left entry 1, an anchored one gives it to M_{i0}
    base = reconstruct(x, ChartId(1, 2, 0)).rep
    anchored = reconstruct(x, ChartId(1, 2, 3)).rep
    assert base.mats[0].m21 == 1.0 and base.mats[2].m21 != 1.0
    assert anchored.mats[2].m21 == 1.0 and anchored.mats[0].m21 != 1.0
    with pytest.raises(BadChart):
        reconstruct(x, ChartId(2, 1, 0))  # (2, 1) is not a chart pair


def test_closing_trace_matches_local_data():
    for n, seed in ((3, 1), (4, 2), (5, 3)):
        rep = generic(n, seed=300 + seed)
        x = phi(rep)
        for chart in classify_charts(x).admissible():
            d = reconstruct(x, chart).diagnostics
            assert d.trace[n] <= 1e-8  # closing trace vs a_{n+1}


def test_local_trace_and_det_fidelity():
    for n, seed in ((4, 61), (5, 62)):
        rep = generic(n, seed=seed)
        x = phi(rep)
        for chart in classify_charts(x).admissible():
            d = reconstruct(x, chart).diagnostics
            assert max(d.trace[:n]) <= 1e-10
            assert max(d.det) <= 1e-10


def test_branch_independence_fixture(fixture_coords):
    assert branch_gap(fixture_coords, ChartId(1, 2, 0)) <= 1e-10


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_branch_independence_seeded(n):
    rep = generic(n, seed=400 + n)
    x = phi(rep)
    for chart in classify_charts(x).admissible():
        assert branch_gap(x, chart) <= 1e-9


def test_branch_independence_real_negative_disc():
    # real coordinates with x_kj^2 - 4 < 0: the branches produce
    # conjugate-looking tuples whose coordinates still agree
    rep = su2(3, seed=77)
    x = phi(rep)
    charts = classify_charts(x).admissible()
    assert charts
    for chart in charts:
        xkj = complex(x.pair(chart.k, chart.j)).real
        if xkj * xkj - 4.0 < 0:
            assert branch_gap(x, chart) <= 1e-9


def test_not_admissible_chart_raises():
    x = phi(identity_rep(4))
    with pytest.raises(ChartNotAdmissible):
        reconstruct(x, ChartId(1, 2, 0))


def test_gate_fails_on_nan_in_any_slot():
    # the variety gate is "worst <= tol.abs", so a NaN residual must reach worst()
    nan = float("nan")
    for diag in (Diagnostics((0.0, nan), (0.0,), 0.0), Diagnostics((0.0,), (0.0, nan), 0.0),
                 Diagnostics((0.0,), (0.0,), nan)):
        assert diag.worst() != diag.worst() and not diag.passes(DEFAULT_TOL)
    passing = Diagnostics((1e-12, 0.0), (1e-10,), 0.0)
    assert passing.worst() == 1e-10 and passing.passes(DEFAULT_TOL)
    assert not Diagnostics((0.0,), (float("inf"),), 0.0).passes(DEFAULT_TOL)


def _moved_pair(x):
    """x with x_21 moved by 1: off the variety."""
    pairs = dict(x.pairs)
    pairs[(1, 2)] += 1.0
    return TraceCoordinates(x.local, pairs, x.triples)


def test_off_variety_warning():
    # reconstruct warns nothing: the miss shows in diagnostics that fail the gate
    moved = _moved_pair(phi(generic(4, seed=29)))
    chart = classify_charts(moved).best
    assert chart is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would raise
        result = reconstruct(moved, chart)
    assert not result.diagnostics.passes(DEFAULT_TOL)
    assert membership(moved).normalized > 1e-6


def test_closure_residual_is_last_det_residual():
    # M_{n+1} is the adjugate of M_n ... M_1, so the closure residual the CLI
    # prints as det[-1] is exactly what closure_residual measures.
    for n in range(3, 10):
        for family in FAMILIES.values():
            for seed in range(4):
                x = phi(family(n, seed))
                for branch in (PLUS, MINUS):
                    result = reconstruct(x, classify_charts(x).best, branch)
                    assert closure_residual(result.rep) == result.diagnostics.det[-1]


def test_rebuild_memoized_per_chart_branch_and_tolerance():
    rep = FAMILIES["su11"](6, 3)
    x = phi(rep)
    chart = classify_charts(x).best
    result = reconstruct(x, chart)
    assert reconstruct(x, chart) is result and reconstruct(x, chart, PLUS, DEFAULT_TOL) is result
    loose = Tolerance(1e-3)
    for branch, tol in ((MINUS, DEFAULT_TOL), (PLUS, loose), (MINUS, loose)):
        other = reconstruct(x, chart, branch, tol)
        assert other is not result and reconstruct(x, chart, branch, tol) is other
        assert other == reconstruct(phi(rep), chart, branch, tol)
    assert result == reconstruct(phi(rep), chart)
    for copied in (copy.copy(x), pickle.loads(pickle.dumps(x))):  # copies start without the memo
        assert copied._cache == {}
        assert reconstruct(copied, chart) == result and reconstruct(copied, chart) is not result


def test_classify_reuses_the_rebuild_of_reconstruct(monkeypatch):
    rep = FAMILIES["su2"](7, 2)
    x, fresh = phi(rep), phi(rep)
    chart = classify_charts(x).best
    reconstruct(x, chart)

    def no_rebuild(*args):
        raise AssertionError("rebuilt again")

    monkeypatch.setattr(import_module("monodromy.reconstruction"), "require_admissible", no_rebuild)
    assert classify(x).chart == chart
    with pytest.raises(AssertionError, match="rebuilt again"):
        classify(fresh)  # a fresh point does rebuild


def test_off_variety_warning_on_every_call():
    # neither the first call nor the memo hit warns; both fail the gate
    x = _moved_pair(phi(su2(5, seed=4)))
    chart = classify_charts(x).best
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would raise
        first = reconstruct(x, chart)
        assert reconstruct(x, chart) is first  # the memo hit
    assert not first.diagnostics.passes(DEFAULT_TOL)
    assert membership(x).normalized > 1e-6


def _public_triple(x, k, j, i):
    """tr(M_k M_j M_i) from the public accessors: the stored word or its reordering."""
    a = x.local.trace
    lo, mid, hi = sorted((k, j, i))
    stored = a(4) if x.n == 3 else x.triples[(lo, mid, hi)]
    if (k, j, i) in ((hi, mid, lo), (mid, lo, hi), (lo, hi, mid)):
        return stored
    return opposite_rotation(a(k), a(j), a(i), x.pair(j, i), x.pair(k, i), x.pair(k, j), stored)


@pytest.mark.parametrize("family", ["su2", "generic16"])
@pytest.mark.parametrize("n", range(3, 7))
def test_rebuild_reads_equal_public_accessors(n, family):
    # the unchecked cores under the accessors; each must be == the public path
    x = phi(FAMILIES[family](n, 7))
    a = x.local.trace
    for u, v in permutations(range(1, n + 1), 2):
        assert _pair(x.pairs, u, v) == x.pair(u, v)
    for k, j, i in permutations(range(1, n + 1), 3):
        got = _triple(x, k, j, i)
        assert got == triple_trace(x, k, j, i) == _public_triple(x, k, j, i)
    for k, j, i, i0 in permutations(range(1, n + 1), 4):
        assert quad_trace(x, k, j, i, i0) == four_trace_reduction(
            a(k), a(j), a(i), a(i0),
            x.pair(k, j), x.pair(k, i), x.pair(k, i0), x.pair(j, i), x.pair(j, i0), x.pair(i, i0),
            triple_trace(x, k, j, i), triple_trace(x, k, j, i0),
            triple_trace(x, k, i, i0), triple_trace(x, j, i, i0),
        )


@pytest.mark.parametrize("family", ["su2", "su11", "generic"])
@pytest.mark.parametrize("n", range(3, 10))
def test_gram_frame_rebuild_passes_the_gate(n, family):
    # a second rebuild, in the Gram frame of one triple instead of a chart's normal
    # form, meets the rebuild gate on every genuine point of the default entry bound
    # (at entry bound 16 it reads 1.9e-9 on n = 8 seed 2, where the gate's scale fails)
    for seed in range(16):
        assert oracle_gram_rebuild(phi(FAMILIES[family](n, seed))) <= DEFAULT_TOL.abs


@pytest.mark.parametrize("family", ["su2", "su11", "generic"])
@pytest.mark.parametrize("n", [12, 16, 20, 24])
def test_wide_n_round_trip_and_su2_gate(n, family):
    # past n = 9 the round trip holds on every genuine point; the gate is asserted on
    # su2 only, since on su11 and generic the closing determinant's roundoff outgrows
    # the unscaled bound (4 of 4 generic points fail it at n = 24)
    for seed in range(4):
        x = phi(FAMILIES[family](n, seed))
        diag = reconstruct(x, classify_charts(x).best, PLUS).diagnostics
        assert diag.round_trip <= 1e-13
        if family == "su2":
            assert diag.passes(DEFAULT_TOL)


def _file_point(n, seed, edit):
    """The su2 point of size n read back from its coordinate file after ``edit(triples)``."""
    obj = coords_to_obj(phi(su2(n, seed=seed)))
    edit(obj["triples"])
    return coords_from_obj(obj)


def _every_other_scaled(triples):
    for key in list(triples)[::2]:  # in file order
        triples[key] = [v * 1e100 for v in triples[key]]


@pytest.mark.parametrize("x, chart, in_product, message", [
    (_file_point(4, 1, lambda triples: triples.update({"321": [1e160, 0.0]})), (1, 2, 3), False,
     "non-finite matrix entry (inf+nanj)"),
    (_file_point(5, 1, _every_other_scaled), (2, 5, 1), True,
     "non-finite matrix entry (-inf+nanj)"),
    (_file_point(7, 2, _every_other_scaled), (7, 1, 6), True,
     "non-finite matrix entry (inf-2.323463919496536e+282j)"),
], ids=["matrix", "product-n5", "product-n7"])
def test_rebuild_overflow_names_the_first_bad_entry(x, chart, in_product, message):
    # the checked order: the rebuilt matrices 1..n, then the descending product
    with pytest.raises(ValueError) as info:
        reconstruct(x, ChartId(*chart))
    assert str(info.value) == message
    assert any(entry.name == "__matmul__" for entry in info.traceback) == in_product


def _same(u: float, v: float) -> bool:
    return u == v or (u != u and v != v)


@pytest.mark.parametrize("n", range(3, 10))
def test_round_trip_equals_the_public_distance(n):
    # the rebuild reads the rebuilt tuple's traces without building a point; its
    # round trip is exactly coordinate_distance against phi of the rebuilt tuple
    for family in sorted(FAMILIES):
        for seed in range(4):
            x = phi(FAMILIES[family](n, seed))
            for branch in (PLUS, MINUS):
                result = reconstruct(x, classify_charts(x).best, branch)
                assert _same(result.diagnostics.round_trip,
                             coordinate_distance(x, phi(result.rep)))


@pytest.mark.parametrize("n, seed", [(4, 1), (5, 1), (6, 3), (7, 2)])
def test_round_trip_equals_the_public_distance_far_off_the_variety(n, seed):
    x = _file_point(n, seed, _every_other_scaled)
    rebuilt = 0
    for chart in classify_charts(x).admissible():
        for branch in (PLUS, MINUS):
            try:
                result = reconstruct(x, chart, branch)
            except ValueError:  # an overflow, named by test_rebuild_overflow_...
                continue
            rebuilt += 1
            assert _same(result.diagnostics.round_trip,
                         coordinate_distance(x, phi(result.rep)))
    assert rebuilt


def _rebuild_record(x, chart, branch):
    """repr of the rebuild on a fresh copy of x, or the type and message it raises."""
    fresh = TraceCoordinates(x.local, dict(x.pairs), dict(x.triples))
    try:
        return repr(reconstruct(fresh, chart, branch))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _overflow_points(n):
    """Coordinate files whose rebuilds overflow on some admissible charts."""
    points = [_file_point(n, seed, _every_other_scaled) for seed in range(4)]
    for table, key in [("pairs", "21"), ("pairs", f"{n}1"), ("triples", "321")][:2 + (n > 3)]:
        obj = coords_to_obj(phi(su2(n, seed=1)))
        obj[table][key] = [1e160, 0.0]
        points.append(coords_from_obj(obj))
    return points


@pytest.mark.parametrize("n", range(3, sl2._STRAIGHT_N + 1))
def test_rebuild_kernel_identical_to_loop(n, monkeypatch):
    # every admissible chart and both branches, on the sampler grid (4608 rebuilds
    # over n = 3..5, every chart admissible) and on points whose rebuilds overflow,
    # where the kernel returns None and the loop names the bad entry
    grid = [phi(sampler(n, seed, entry_bound=bound)) for sampler, bound, seed
            in product((su2, FAMILIES["su11"], generic), (4.0, 16.0), range(6))]
    charts = classify_charts(grid[0]).admissible()
    traced(reconstruction._rebuild, lambda: [_rebuild_record(grid[0], c, PLUS) for c in charts])
    records = []
    for x in grid + _overflow_points(n):
        for chart, branch in product(classify_charts(x).admissible(), (PLUS, MINUS)):
            assert (n, chart) in reconstruction._rebuild.kernels  # the kernel runs every case
            got = _rebuild_record(x, chart, branch)
            with monkeypatch.context() as m:
                m.setattr(sl2, "_STRAIGHT_N", 2)  # every n through the loop
                assert _rebuild_record(x, chart, branch) == got
            records.append(got)
    rebuilt = [r for r in records if r.startswith("ReconstructionResult(")]
    assert len(rebuilt) >= len(grid) * 2 * len(classify_charts(grid[0]).entries)
    assert any(r.startswith("ValueError: non-finite matrix entry") for r in records)


@pytest.mark.parametrize("n", range(3, sl2._STRAIGHT_N + 1))
def test_rebuild_kernel_source_holds_no_point_data(n):
    # names, the plan's indices and the float literals of the functions traced, nothing else
    def floats(code):
        for c in const_leaves(code.co_consts):
            if hasattr(c, "co_consts"):  # a nested function or comprehension
                yield from floats(c)
            elif isinstance(c, float):
                yield c

    sources = (reconstruction._rebuild.__wrapped__, four_trace_reduction, opposite_rotation)
    literals = {c for f in sources for c in floats(f.__code__)}
    assert literals == {0.5, 1.0, 4.0}
    admissible = classify_charts(phi(generic(n, 0))).admissible()
    assert admissible

    def rebuilds():  # on a fresh point each call, since reconstruct memoizes on the point
        x = phi(generic(n, 0))  # traced from a point of complex values
        return [reconstruct(x, chart) for chart in admissible]

    traced(reconstruction._rebuild, rebuilds)
    for chart in admissible:
        code = reconstruction._rebuild.kernels[(n, chart)].__code__
        assert set(map(type, const_leaves(code.co_consts))) <= {int, str, float, type(None)}
        assert set(floats(code)) <= literals


def test_chart_table_reads_its_layout(monkeypatch):
    # past n = 5 the chart table's stored keys come from the per-n chart layout: once
    # it is built, a fresh point's table canonicalizes no triple word
    x = phi(generic(9, seed=701))
    admissible = classify_charts(x).admissible()
    monkeypatch.setattr("monodromy.charts._word", None)
    assert classify_charts(phi(generic(9, seed=701))) == classify_charts(x)
    assert {chart.i0 == 0 for chart in admissible} == {True, False}
