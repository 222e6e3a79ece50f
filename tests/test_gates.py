"""Inventory of the package's gates: each with the scale it applies today.

A gate compares a residual r against tol.abs * s, where s is its scale.  For
each gate one fixed input with a known residual runs through the gate's
public entry point at tolerance (r / s) * (1 +/- 1e-6), and the decision must
flip between the two: the residual is within the gate just above r / s and
outside it just below.  A change of a gate's scale shows up as a change of
its row here.

"Within" means the gate treats the residual as zero: the check passes, the
report prints PASS, or for the degenerate-pair, psi and admissibility gates
the value counts as numerically zero.  Admissibility is the one strict
comparison (|p| > threshold is admissible); the others admit equality.
"""

from __future__ import annotations

import json

import pytest

from monodromy import (
    PLUS,
    ChartId,
    DegenerateEigenvalues,
    Mat2,
    MonodromyError,
    NotUnimodular,
    OffVariety,
    PsiDegenerate,
    Tolerance,
    classify,
    classify_charts,
    close_tuple,
    membership,
    phi,
    reconstruct,
)
from monodromy.charts import chart_eval
from monodromy.cli import EXIT_OK, EXIT_RESIDUAL, coords_from_obj, coords_to_obj, main
from monodromy.cli import rep_from_obj, rep_to_obj
from monodromy.reconstruction import lambdas
from monodromy.sl2 import check_unimodular
from monodromy.unitary import hermitian_form, reality_gate

from conftest import BOUNDARY_COORDS, DEGENERATE_PAIR_COORDS, FIXTURE_MATS, su2


def _raises(call, error) -> bool:
    """True when ``call()`` raises ``error``, False when it returns."""
    try:
        call()
    except error:
        return True
    return False


def unimodular(tmp_path):
    m = Mat2(1.0 + 1e-7, 0.0, 0.0, 1.0)
    return abs(m.det - 1.0), 2.0, lambda tol: not _raises(lambda: check_unimodular(m, tol),
                                                           NotUnimodular)


def declared_trace(tmp_path):
    # integer matrices: every determinant, the closing one included, is exactly 1
    mats = [Mat2(1.0, 1.0, 0.0, 1.0), Mat2(1.0, 0.0, 1.0, 1.0), Mat2(2.0, 1.0, 1.0, 1.0)]
    obj = rep_to_obj(close_tuple(mats))
    obj["a"][1][0] += 1e-6
    declared = complex(*obj["a"][1])
    r = abs(close_tuple(mats).local().trace(2) - declared)
    return r, 2.0 + abs(declared), lambda tol: not _raises(lambda: rep_from_obj(obj, tol),
                                                           MonodromyError)


def relations_pass(tmp_path):
    obj = coords_to_obj(phi(close_tuple(FIXTURE_MATS)))
    obj["pairs"]["21"][0] += 1e-3
    path = tmp_path / "c.json"
    path.write_text(json.dumps(obj))
    x = coords_from_obj(obj)

    def within(tol):
        code = main(["relations", str(path), "--tol", repr(tol.abs)])
        assert code in (EXIT_OK, EXIT_RESIDUAL)
        return code == EXIT_OK

    return membership(x).max, (1.0 + x.max_abs()) ** 3, within


def diagnostics_passes(tmp_path):
    x = phi(su2(4, 0))
    diag = reconstruct(x, classify_charts(x).best).diagnostics
    return diag.worst(), 1.0, diag.passes


def lambdas_pair(tmp_path):
    xkj = DEGENERATE_PAIR_COORDS["pairs"]["21"][0]
    return (abs(xkj * xkj - 4.0), 1.0,
            lambda tol: _raises(lambda: lambdas(xkj, PLUS, tol), DegenerateEigenvalues))


def form_pair(tmp_path):
    x = coords_from_obj(DEGENERATE_PAIR_COORDS)
    xkj = DEGENERATE_PAIR_COORDS["pairs"]["21"][0]
    chart = ChartId(1, 2)
    return (abs(xkj * xkj - 4.0), 1.0,
            lambda tol: _raises(lambda: hermitian_form(x, chart, tol), DegenerateEigenvalues))


def psi_boundary(tmp_path):
    x = coords_from_obj(BOUNDARY_COORDS)
    ps = chart_eval(x, ChartId(1, 2)).psi  # the deciding chart at every tolerance used here

    def within(tol):
        try:
            classify(x, tol)
        except PsiDegenerate:
            return True
        except OffVariety:  # past the psi gate: this point is off the variety
            pass
        return False

    return abs(complex(ps).real), 1.0, within


def reality(tmp_path):
    obj = coords_to_obj(phi(close_tuple(FIXTURE_MATS)))
    obj["pairs"]["31"][1] = 3e-7
    x = coords_from_obj(obj)
    return 3e-7, 1.0, lambda tol: reality_gate(x, tol)


def admissibility(tmp_path):
    x = phi(close_tuple(FIXTURE_MATS))
    chart = ChartId(1, 2)
    e = chart_eval(x, chart)
    return (abs(e.value), 1.0 + abs(e.xkj) ** 4,
            lambda tol: not chart_eval(x, chart, tol).admissible)


GATES = {
    "sl2.check_unimodular: 2": unimodular,
    "cli declared traces of coords: 2 + |a|": declared_trace,
    "cli relations PASS: (1 + max|x|)^3": relations_pass,
    "reconstruct.Diagnostics.passes: 1": diagnostics_passes,
    "reconstruct.lambdas degenerate pair: 1": lambdas_pair,
    "unitary._form degenerate pair: 1": form_pair,
    "unitary.classify psi boundary: 1": psi_boundary,
    "unitary.reality_gate: 1": reality,
    "charts admissibility: 1 + |x_kj|^4, strict": admissibility,
}


@pytest.mark.parametrize("gate", GATES)
def test_gate_flips_at_its_scale(tmp_path, gate):
    r, s, within = GATES[gate](tmp_path)
    assert r > 0
    assert within(Tolerance(r / s * (1 + 1e-6)))
    assert not within(Tolerance(r / s * (1 - 1e-6)))
