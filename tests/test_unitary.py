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
    PsiDegenerate,
    Signature,
    TraceCoordinates,
    chart_psi,
    classify,
    classify_charts,
    close_tuple,
    hermitian_form,
    phi,
    psi,
    reality_gate,
    reconstruct,
    verify_invariance,
)
from conftest import generic, identity_rep, su2, su11


def coords_n3(a, x21, x31, x32):
    return TraceCoordinates(
        LocalData(a), {(1, 2): x21, (1, 3): x31, (2, 3): x32}
    )


def test_hermitian_form_type_invariants():
    with pytest.raises(ValueError):
        HermitianForm(1.0, 0.0)  # degenerate
    form = HermitianForm(1.0, -2.0)
    hi, lo = form.eigenvalues()
    assert (hi, lo) == (1.0, -2.0)
    assert not form.is_definite()
    anti = HermitianForm(0.0, 0.0, 1j)
    assert anti.eigenvalues() == (1.0, -1.0)
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
        vals = list(x.local.a) + list(x.vector())
        if max(abs(complex(v).imag) for v in vals) > 1e-3:
            hits += 1
            assert not reality_gate(x)
    assert hits == 200


def test_hermitian_form_negative_disc_case():
    # x_21 = 0, a_1 = a_2 = 0: psi(0,0,0) = -4, x^2 - 4 = -4, so H = diag(1, 1)
    x = coords_n3((0.0, 0.0, 1.0, -1.0), 0.0, 0.5, 0.5)
    form = hermitian_form(x, ChartId(1, 2, 0))
    assert form.h11 == 1.0 and form.h22 == 1.0 and form.h12 == 0.0
    assert form.is_definite()


def test_hermitian_form_positive_disc_case():
    x = coords_n3((0.5, 0.5, 1.0, -1.0), 3.0, 0.5, 0.5)
    form = hermitian_form(x, ChartId(1, 2, 0))
    assert form.h11 == 0.0 and form.h22 == 0.0 and form.h12 == 1j
    assert not form.is_definite()


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
    assert verify_invariance(rep, Mat2(1.0, 0.0, 0.0, 1.0)) <= 1e-15


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
    # best chart is (1,2,base) with |p| = 16: disc = -4 < 0 and psi = -4 < 0
    x = coords_n3((0.0, 0.0, 1.0, -1.0), 0.0, 0.5, 0.5)
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


def test_classify_not_unitary_without_charts():
    sig = classify(phi(identity_rep(4)))
    assert sig.kind is Signature.NOT_UNITARY


def test_classify_boundary_psi():
    # crafted so the only admissible chart has |psi| below tolerance:
    # x_21 = 0 gives disc = -4; a_1 chosen with a_1^2 = 5e-10; every other
    # chart is killed by pair traces sitting at 2 or psi = 0
    a1 = (5e-10) ** 0.5
    x = coords_n3((a1, 2.0, 0.0, 2.0), 0.0, 2.0, 2.0)
    report = classify_charts(x)
    assert report.best == ChartId(1, 2, 0)
    with pytest.raises(PsiDegenerate):
        classify(x)


def test_classify_chart_independent():
    for seed in (84, 85):
        x = phi(su2(4, seed=seed))
        sig = classify(x)
        tol_abs = 1e-9
        for chart in classify_charts(x).admissible():
            disc = complex(x.pair(chart.k, chart.j)).real ** 2 - 4.0
            ps = complex(chart_psi(x, chart)).real
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
            ps = complex(chart_psi(x, chart)).real
            rec = reconstruct(x, chart)
            for m in rec.rep.mats:
                assert abs(complex(m.m11).conjugate() - m.m22) <= 1e-9
                ratio = m.m12 / complex(m.m21).conjugate()
                assert abs(ratio + ps / disc) <= 1e-9
