"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

from contextlib import contextmanager

import pytest

from monodromy import (
    SamplerConfig,
    Signature,
    classify,
    classify_charts,
    coordinate_distance,
    hermitian_form,
    membership,
    phi,
    reconstruct,
    sample_generic,
    sample_su2,
    sample_su11,
    verify_invariance,
)
from monodromy.charts import chart_eval
from monodromy.relations import g_poly
from monodromy.samplers import SplitMix64, random_unimodular
from monodromy.sl2 import four_trace_reduction

from conftest import branch_gap, form_eigenvalues, omat, omul, otr, relation_count


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} ({name}): FAIL")
        raise
    print(f"criterion {num:2d} ({name}): PASS")


# --- shared corpora (built once) ---------------------------------------------

@pytest.fixture(scope="module")
def roundtrip_corpus():
    """For n in {3,4,5} and 50 seeds each: every admissible chart,
    reconstructed on both branches, with coordinates of both outputs."""
    corpus = []
    for n in (3, 4, 5):
        for seed in range(50):
            rep = sample_generic(SamplerConfig(seed=10_000 + 97 * seed + n, n=n))
            x = phi(rep)
            charts = classify_charts(x).admissible()
            entries = []
            for chart in charts:
                plus = reconstruct(x, chart)
                entries.append((chart, plus, phi(plus.rep)))
            corpus.append((n, seed, x, entries))
    return corpus


@pytest.fixture(scope="module")
def unitary_corpus():
    """200 special-unitary and 200 diag(1,-1)-preserving tuples, n cycling 3..5."""
    corpus = []
    for kind, sampler, base in (("su2", sample_su2, 20_000), ("su11", sample_su11, 30_000)):
        for idx in range(200):
            n = 3 + idx % 3
            rep = sampler(SamplerConfig(seed=base + idx, n=n))
            corpus.append((kind, rep, phi(rep)))
    return corpus


# --- criteria -----------------------------------------------------------------

def test_criterion_01_relation_vanishing():
    with criterion(1, "relation vanishing on the coordinate image"):
        for n in (3, 4, 5, 6):
            for seed in range(100):
                rep = sample_generic(SamplerConfig(seed=1_000 + seed, n=n))
                res = membership(phi(rep))
                assert res.normalized <= 1e-8, (n, seed, res.normalized)


def test_criterion_02_full_word_trace_oracle():
    with criterion(2, "recursive full-word trace equals the direct product trace"):
        for n in (4, 5, 6):
            for seed in range(100):
                rep = sample_generic(SamplerConfig(seed=2_000 + seed, n=n))
                x = phi(rep)
                prod = omat(rep.mats[n - 1])
                for s in range(n - 1, 0, -1):
                    prod = omul(prod, omat(rep.mats[s - 1]))
                direct = otr(prod)
                value = g_poly(x, tuple(range(n, 0, -1)))
                assert abs(value - direct) <= 1e-8 * (1.0 + abs(direct)), (n, seed)


def test_criterion_03_four_trace_identity():
    with criterion(3, "four-factor trace identity on 1000 seeded quadruples"):
        rng = SplitMix64(3_000)
        for trial in range(1000):
            quad = tuple(random_unimodular(rng, entry_bound=20.0) for _ in range(4))
            a, b, c, d = (omat(m) for m in quad)
            direct = otr(omul(omul(omul(a, b), c), d))
            value = four_trace_reduction(
                otr(a), otr(b), otr(c), otr(d),
                otr(omul(a, b)), otr(omul(a, c)), otr(omul(a, d)),
                otr(omul(b, c)), otr(omul(b, d)), otr(omul(c, d)),
                otr(omul(omul(a, b), c)), otr(omul(omul(a, b), d)),
                otr(omul(omul(a, c), d)), otr(omul(omul(b, c), d)),
            )
            assert abs(value - direct) <= 1e-9 * (1.0 + abs(direct)), trial


def test_criterion_04_round_trip(roundtrip_corpus):
    with criterion(4, "round trip through every admissible chart"):
        for n, seed, x, entries in roundtrip_corpus:
            assert entries, (n, seed)
            local = x.local
            for chart, result, x_back in entries:
                assert coordinate_distance(x, x_back) <= 1e-8, (n, seed, chart)
                closed = result.rep.mats + (result.rep.last,)
                for s in range(1, n + 2):
                    err = abs(closed[s - 1].trace - local.trace(s))
                    assert err <= 1e-8 * (1.0 + abs(local.trace(s))), (n, seed, chart, s)


def test_criterion_05_branch_independence(roundtrip_corpus):
    with criterion(5, "square-root branch independence"):
        for n, seed, x, entries in roundtrip_corpus:
            for chart, _, _ in entries:
                assert branch_gap(x, chart) <= 1e-9, (n, seed, chart)


def test_criterion_06_chart_coherence(roundtrip_corpus):
    with criterion(6, "coordinate agreement across admissible charts"):
        for n, seed, x, entries in roundtrip_corpus:
            if len(entries) < 2:
                continue
            _, _, x_ref = entries[0]
            for chart, _, x_back in entries[1:]:
                assert coordinate_distance(x_ref, x_back) <= 1e-8, (n, seed, chart)


def test_criterion_07_hermitian_soundness(unitary_corpus):
    with criterion(7, "invariant form soundness on unitary families"):
        from monodromy.unitary import reality_gate

        for kind, rep, x in unitary_corpus:
            assert reality_gate(x), kind
            sig = classify(x)  # boundary cases would raise; none are expected
            expected = Signature.DEFINITE if kind == "su2" else Signature.INDEFINITE
            assert sig.kind is expected, (kind, sig)
            form = hermitian_form(x, sig.chart)
            rec = reconstruct(x, sig.chart)
            assert verify_invariance(rec.rep, form) <= 1e-8, kind


def test_criterion_08_signature_rule_consistency(unitary_corpus):
    with criterion(8, "sign pattern predicts eigenvalue signs, chart-independent"):
        tol_abs = 1e-9
        for kind, rep, x in unitary_corpus:
            verdicts = set()
            for chart in classify_charts(x).admissible():
                xkj = complex(x.pair(chart.k, chart.j)).real
                disc = xkj * xkj - 4.0
                ps = complex(chart_eval(x, chart).psi).real
                if abs(ps) <= tol_abs or abs(disc) <= tol_abs:
                    continue
                rule_definite = disc < 0 and ps < 0
                hi, lo = form_eigenvalues(hermitian_form(x, chart))
                assert (hi > 0 > lo) == (not rule_definite), (kind, chart)
                assert (hi * lo > 0) == rule_definite, (kind, chart)
                verdicts.add(rule_definite)
            assert len(verdicts) == 1, (kind, verdicts)


def test_criterion_09_symmetry_of_entries(unitary_corpus):
    with criterion(9, "conjugate symmetry of reconstructed entries"):
        tol_abs = 1e-9
        checked = 0
        for kind, rep, x in unitary_corpus:
            for chart in classify_charts(x).admissible():
                xkj = complex(x.pair(chart.k, chart.j)).real
                disc = xkj * xkj - 4.0
                if disc >= 0:
                    continue
                ps = complex(chart_eval(x, chart).psi).real
                if abs(ps) <= tol_abs:
                    continue
                rec = reconstruct(x, chart)
                for m in rec.rep.mats:
                    assert abs(complex(m.m11).conjugate() - m.m22) <= 1e-9, (kind, chart)
                    ratio = m.m12 / complex(m.m21).conjugate()
                    assert abs(ratio + ps / disc) <= 1e-9, (kind, chart)
                checked += 1
        assert checked > 200


def test_criterion_10_relation_counts():
    with criterion(10, "relation count matches the closed formula"):
        expected = {3: 1, 4: 15, 5: 81, 6: 301, 7: 876}
        for n, count in expected.items():
            assert relation_count(n) == count
            rep = sample_generic(SamplerConfig(seed=4_000 + n, n=n))
            assert membership(phi(rep)).count == count
