import pytest

from monodromy import (
    BadChart,
    BranchChoice,
    ChartId,
    ChartNotAdmissible,
    DegenerateEigenvalues,
    MINUS,
    OffVarietyWarning,
    PLUS,
    TraceCoordinates,
    branch_independence_check,
    classify_charts,
    coordinate_distance,
    lambdas,
    phi,
    reconstruct,
    reconstruct_anchored,
    reconstruct_base,
)
from monodromy.samplers import SplitMix64

from conftest import commutator_gap, generic, identity_rep, su2


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
    result = reconstruct_base(fixture_coords, ChartId(1, 2, 0))
    assert result.diagnostics.round_trip <= 1e-9
    assert max(result.diagnostics.trace) <= 1e-10
    assert max(result.diagnostics.det) <= 1e-10
    assert result.diagnostics.closure <= 1e-10
    assert commutator_gap(result.rep.matrix(1), result.rep.matrix(2)) > 1e-6


def test_base_pair_product_diagonal(fixture_coords):
    x = fixture_coords
    chart = ChartId(1, 2, 0)
    result = reconstruct_base(x, chart)
    mk, mj = result.rep.matrix(chart.k), result.rep.matrix(chart.j)
    prod = mk @ mj
    assert abs(prod.trace - x.pair(chart.k, chart.j)) <= 1e-12
    assert abs(prod.m12) <= 1e-11 and abs(prod.m21) <= 1e-11


def test_base_seeded_round_trips():
    rep = generic(5, seed=25)
    x = phi(rep)
    for chart in classify_charts(x).admissible():
        if chart.i0 != 0:
            continue
        result = reconstruct_base(x, chart)
        assert result.diagnostics.round_trip <= 1e-8


def test_anchored_seeded_round_trips():
    rep = generic(4, seed=26)
    x = phi(rep)
    anchored = [c for c in classify_charts(x).admissible() if c.i0 >= 1]
    assert anchored
    for chart in anchored:
        result = reconstruct_anchored(x, chart)
        assert result.diagnostics.round_trip <= 1e-8
        mk, mj = result.rep.matrix(chart.k), result.rep.matrix(chart.j)
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
    with pytest.raises(BadChart):
        reconstruct_base(x, ChartId(1, 2, 3))
    with pytest.raises(BadChart):
        reconstruct_anchored(x, ChartId(1, 2, 0))
    assert reconstruct(x, ChartId(1, 2, 0)).chart.i0 == 0
    assert reconstruct(x, ChartId(1, 2, 3)).chart.i0 == 3


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
    assert branch_independence_check(fixture_coords, ChartId(1, 2, 0)) <= 1e-10


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_branch_independence_seeded(n):
    rep = generic(n, seed=400 + n)
    x = phi(rep)
    for chart in classify_charts(x).admissible():
        assert branch_independence_check(x, chart) <= 1e-9


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
            assert branch_independence_check(x, chart) <= 1e-9


def test_not_admissible_chart_raises():
    x = phi(identity_rep(4))
    with pytest.raises(ChartNotAdmissible):
        reconstruct(x, ChartId(1, 2, 0))


def test_off_variety_warning():
    rep = generic(4, seed=29)
    x = phi(rep)
    pairs = dict(x.pairs)
    pairs[(1, 2)] += 1.0
    moved = TraceCoordinates(x.local, pairs, x.triples)
    chart = classify_charts(moved).best
    assert chart is not None
    with pytest.warns(OffVarietyWarning):
        result = reconstruct(moved, chart)
    assert result.diagnostics.membership_max > 1e-6
