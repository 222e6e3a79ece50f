import cmath

import pytest

from monodromy import (
    ChartId,
    ChartNotAdmissible,
    DegenerateEigenvalues,
    HermitianForm,
    LocalData,
    Mat2,
    NotReal,
    OffVariety,
    PsiDegenerate,
    Signature,
    TraceCoordinates,
    classify,
    classify_charts,
    close_tuple,
    hermitian_form,
    phi,
    reconstruct,
    verify_invariance,
)
from monodromy.charts import chart_eval
from monodromy.unitary import reality_gate
from conftest import (
    form_eigenvalues, generic, identity_rep, oracle_gram, oracle_inertia, psi, su2, su11,
)


def coords_n3(a, x21, x31, x32):
    return TraceCoordinates(
        LocalData(a), {(1, 2): x21, (1, 3): x31, (2, 3): x32}
    )


def test_hermitian_form_type_invariants():
    with pytest.raises(ValueError):
        HermitianForm(1.0, 0.0)  # degenerate
    assert form_eigenvalues(HermitianForm(1.0, -2.0)) == (1.0, -2.0)
    anti = HermitianForm(0.0, 0.0, 1j)
    assert form_eigenvalues(anti) == (1.0, -1.0)
    m = anti.matrix()
    assert m.m12 == 1j and m.m21 == -1j


def test_reality_gate(fixture_coords):
    assert reality_gate(fixture_coords)
    x = coords_n3((0.0, 0.0, 3.0, -4.5), -2.5 + 1e-3j, 0.0, 1.5)
    assert not reality_gate(x)


def test_reality_gate_su2_coordinates():
    for seed in range(10):
        assert reality_gate(phi(su2(3 + seed % 3, seed=500 + seed)))


def test_reality_gate_generic_complex_tuples():
    hits = 0
    for seed in range(200):
        x = phi(generic(3 + seed % 3, seed=700 + seed))
        vals = list(x.local.a) + [v for _, v in x.items()]
        if max(abs(complex(v).imag) for v in vals) > 1e-3:
            hits += 1
            assert not reality_gate(x)
    assert hits == 200


def test_hermitian_form_negative_disc_case():
    # x_21 = 0, a_1 = a_2 = 0: psi(0,0,0) = -4, x^2 - 4 = -4, so H = diag(1, 1)
    x = coords_n3((0.0, 0.0, 1.0, -1.0), 0.0, 0.5, 0.5)
    form = hermitian_form(x, ChartId(1, 2, 0))
    assert form.h11 == 1.0 and form.h22 == 1.0 and form.h12 == 0.0
    assert form_eigenvalues(form) == (1.0, 1.0)


def test_hermitian_form_positive_disc_case():
    x = coords_n3((0.5, 0.5, 1.0, -1.0), 3.0, 0.5, 0.5)
    form = hermitian_form(x, ChartId(1, 2, 0))
    assert form.h11 == 0.0 and form.h22 == 0.0 and form.h12 == 1j
    assert form_eigenvalues(form) == (1.0, -1.0)


def test_hermitian_form_anchored_chart():
    x = coords_n3((0.0, 0.0, 1.0, -1.0), 0.5, 0.5, 0.5)
    chart = ChartId(1, 2, 3)
    xkj = x.pair(2, 1)
    # triple trace (2, 1, 3) cycles to the stored closing trace a_4
    expect = psi(x.local.trace(4), xkj, x.local.trace(3)) / (xkj ** 2 - 4.0)
    form = hermitian_form(x, chart)
    assert form.h11 == 1.0
    assert abs(form.h22 - expect) <= 1e-15


def test_hermitian_form_errors():
    x_complex = coords_n3((0.0, 0.0, 1.0, -1.0), 0.5j, 0.5, 0.5)
    with pytest.raises(NotReal):
        hermitian_form(x_complex, ChartId(1, 2, 0))
    x_identity = phi(identity_rep(3))
    with pytest.raises(ChartNotAdmissible):
        hermitian_form(x_identity, ChartId(1, 2, 0))
    # pair trace glued to 2 but psi huge: the chart passes the admissibility
    # threshold while the eigenvalue guard still fires
    x_degen = coords_n3((40.0, -40.0, 1.0, -1.0), 2.0 + 1e-12, 0.5, 0.5)
    with pytest.raises(DegenerateEigenvalues):
        hermitian_form(x_degen, ChartId(1, 2, 0))


def test_verify_invariance_su2_element():
    m = Mat2(cmath.exp(0.7j), 0.0, 0.0, cmath.exp(-0.7j))
    rep = close_tuple([m, m.adjugate(), m])
    assert verify_invariance(rep, HermitianForm(1.0, 1.0)) <= 1e-15


def test_verify_invariance_construction():
    rep = su2(4, seed=81)
    x = phi(rep)
    sig = classify(x)
    form = hermitian_form(x, sig.chart)
    rec = reconstruct(x, sig.chart)
    assert verify_invariance(rec.rep, form) <= 1e-9


def test_verify_invariance_rejects_random_pairing():
    rep = generic(4, seed=82)
    assert verify_invariance(rep, HermitianForm(1.0, -1.0)) > 1e-3


def test_classify_fixture_indefinite(fixture_coords):
    sig = classify(fixture_coords)
    assert sig.kind is Signature.INDEFINITE
    assert sig.disc is not None and sig.psi is not None


def test_classify_definite_rule():
    # best chart is (1,2,base) with |p| = 16: disc = -4 < 0 and psi = -4 < 0;
    # a_4 = -sqrt(5/2) puts the point on the n = 3 cubic
    x = coords_n3((0.0, 0.0, 1.0, -2.5 ** 0.5), 0.0, 0.5, 0.5)
    sig = classify(x)
    assert sig.chart == ChartId(1, 2, 0)
    assert sig.disc == -4.0 and sig.psi == -4.0
    assert sig.kind is Signature.DEFINITE


def test_classify_fixture_soundness(fixture_coords):
    # real, on-variety point: the verdict must be backed by an invariant form
    sig = classify(fixture_coords)
    assert sig.kind is Signature.INDEFINITE
    form = hermitian_form(fixture_coords, sig.chart)
    rec = reconstruct(fixture_coords, sig.chart)
    assert verify_invariance(rec.rep, form) <= 1e-8


def test_classify_su2_and_su11_families():
    for seed in range(40):
        n = 3 + seed % 3
        sig = classify(phi(su2(n, seed=900 + seed)))
        assert sig.kind is Signature.DEFINITE
        sig = classify(phi(su11(n, seed=950 + seed)))
        assert sig.kind is Signature.INDEFINITE


def test_classify_not_unitary_complex_data():
    sig = classify(phi(generic(4, seed=83)))
    assert sig.kind is Signature.NOT_UNITARY
    assert sig.chart is None


def test_classify_raises_without_charts():
    # the identity tuple lies in SU(2), but no chart applies there
    with pytest.raises(ChartNotAdmissible, match="no admissible chart"):
        classify(phi(identity_rep(4)))


def test_classify_boundary_psi():
    # crafted so the only admissible chart sits on a boundary of the verdict
    cases = [
        # x_21 = 0 gives disc = -4; a_1 chosen with a_1^2 = 5e-10 puts |psi| below
        # tolerance; every other chart is killed by pair traces at 2 or psi = 0
        (coords_n3(((5e-10) ** 0.5, 2.0, 0.0, 2.0), 0.0, 2.0, 2.0), PsiDegenerate,
         "chart (1,2,base): |psi| = 5.000e-10 sits on the signature boundary"),
        # psi = 100, but x_21 = 2 + 2e-10 puts |x_21^2 - 4| = 8e-10 below tolerance
        (coords_n3((5.0, -5.0, 0.5, 0.3), 2.0 + 2e-10, 2.0, 2.0), DegenerateEigenvalues,
         "|x_kj^2 - 4| = 8.000e-10 is numerically zero"),
    ]
    for x, error, message in cases:
        report = classify_charts(x)
        assert report.best == ChartId(1, 2, 0) and report.admissible() == [ChartId(1, 2, 0)]
        with pytest.raises(error) as info:
            classify(x)
        assert str(info.value) == message


def _moved(x, seed, delta):
    """x with a_{n+1}, then one stored pair, then one stored triple (n >= 4)
    moved by delta * (1 + |v|), one at a time; the stored key depends on seed."""
    a = list(x.local.a)
    a[-1] += delta * (1.0 + abs(a[-1]))
    yield TraceCoordinates(LocalData(tuple(a)), x.pairs, x.triples)
    for table in ("pairs", "triples"):
        values = dict(getattr(x, table))
        if values:
            key = sorted(values)[seed % len(values)]
            values[key] += delta * (1.0 + abs(values[key]))
            fields = {"pairs": x.pairs, "triples": x.triples, table: values}
            yield TraceCoordinates(x.local, fields["pairs"], fields["triples"])


@pytest.mark.parametrize("delta", [1e-6, 1e-3, 0.1])
@pytest.mark.parametrize("n", range(3, 10))
@pytest.mark.parametrize("family", ["su2", "su11"])
def test_classify_refuses_moved_points(family, n, delta):
    # genuine real points moved off the variety: the rebuild on the deciding
    # chart misses them, however small the move and whichever value moved
    seed = 300 + n
    x = phi({"su2": su2, "su11": su11}[family](n, seed=seed))
    assert classify(x).kind is not Signature.NOT_UNITARY
    for moved in _moved(x, seed, delta):
        with pytest.raises(OffVariety, match="the rebuilt tuple misses the point"):
            classify(moved)


def test_classify_chart_independent():
    for seed in (84, 85):
        x = phi(su2(4, seed=seed))
        sig = classify(x)
        tol_abs = 1e-9
        for chart in classify_charts(x).admissible():
            disc = complex(x.pair(chart.k, chart.j)).real ** 2 - 4.0
            ps = complex(chart_eval(x, chart).psi).real
            if abs(ps) <= tol_abs or abs(disc) <= tol_abs:
                continue
            expected = (
                Signature.INDEFINITE if disc > 0 or ps > 0 else Signature.DEFINITE
            )
            assert expected is sig.kind


def test_symmetry_of_reconstructed_entries():
    # real coordinates, negative disc: conj(u11) = u22 and
    # u12 / conj(u21) = -psi / (x_kj^2 - 4) for every matrix of the tuple
    for seed in range(6):
        rep = su2(3 + seed % 3, seed=1000 + seed)
        x = phi(rep)
        for chart in classify_charts(x).admissible():
            xkj = complex(x.pair(chart.k, chart.j)).real
            disc = xkj * xkj - 4.0
            if disc >= 0:
                continue
            ps = complex(chart_eval(x, chart).psi).real
            rec = reconstruct(x, chart)
            for m in rec.rep.mats:
                assert abs(complex(m.m11).conjugate() - m.m22) <= 1e-9
                ratio = m.m12 / complex(m.m21).conjugate()
                assert abs(ratio + ps / disc) <= 1e-9


# --- chart-free Gram oracle ---------------------------------------------------

def test_verdict_matches_gram_inertia():
    # definite exactly when Z has inertia (0+, 3-), indefinite exactly at (2+, 1-)
    for family, want in ((su2, Signature.DEFINITE), (su11, Signature.INDEFINITE)):
        for n in range(3, 10):
            for bound in (4.0, 16.0):
                for seed in range(6):
                    x = phi(family(n, seed=seed, entry_bound=bound))
                    inertia = oracle_inertia(oracle_gram(x))
                    kind = classify(x).kind
                    assert kind is want, (family.__name__, n, bound, seed)
                    assert (kind is Signature.DEFINITE) == (inertia == (0, 3, n - 3))
                    assert (kind is Signature.INDEFINITE) == (inertia == (2, 1, n - 3))


def _diagonal_su2(thetas):
    return close_tuple([Mat2(cmath.exp(1j * t), 0.0, 0.0, cmath.exp(-1j * t)) for t in thetas])


def test_reducible_probes_have_gram_rank_at_most_one():
    # a reducible tuple spans at most rank 1 of Z, and no chart applies to it
    probes = (
        identity_rep(4),
        _diagonal_su2((0.3, 1.1, 2.0, 0.7)),
        close_tuple([Mat2(2.0, 0.3 + 0.2j, 0.0, 0.5), Mat2(-0.5, 1.0, 0.0, -2.0),
                     Mat2(4.0, -1.5j, 0.0, 0.25), Mat2(1.0, 2.0, 0.0, 1.0)]),
    )
    for rep in probes:
        x = phi(rep)
        assert reality_gate(x)
        pos, neg, _ = oracle_inertia(oracle_gram(x))
        assert pos + neg <= 1
        with pytest.raises(ChartNotAdmissible):
            classify(x)
    # the quaternion tuple (i, j, i, j) is irreducible: rank 2 and a chart
    qi, qj = Mat2(1j, 0.0, 0.0, -1j), Mat2(0.0, 1.0, -1.0, 0.0)
    x = phi(close_tuple([qi, qj, qi, qj]))
    pos, neg, _ = oracle_inertia(oracle_gram(x))
    assert pos + neg == 2
    assert classify_charts(x).best is not None
