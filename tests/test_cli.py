import ast
import importlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import monodromy
from monodromy import OffVariety, TraceCoordinates, classify, phi
from monodromy.cli import (
    EXIT_BOUNDARY,
    EXIT_NO_CHART,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESIDUAL,
    coords_from_obj,
    coords_to_obj,
    main,
    rep_to_obj,
)

from conftest import BOUNDARY_COORDS, DEGENERATE_PAIR_COORDS, FLAT_COORDS, identity_rep, su2


@pytest.fixture
def fixture_rep_file(tmp_path, fixture_rep):
    path = tmp_path / "fixture.rep.json"
    path.write_text(json.dumps(rep_to_obj(fixture_rep)))
    return path


def run(*argv):
    return main([str(a) for a in argv])


def coords_path(tmp_path, rep, name="coords.json"):
    path = tmp_path / name
    path.write_text(json.dumps(coords_to_obj(phi(rep))) + "\n")
    return path


def test_coords_identity_tuple(tmp_path, capsys):
    rep_path = tmp_path / "id.rep.json"
    rep_path.write_text(json.dumps(rep_to_obj(identity_rep(4))))
    out = tmp_path / "id.coords.json"
    assert run("coords", rep_path, "-o", out) == EXIT_OK
    obj = json.loads(out.read_text())
    assert all(v == [2.0, 0.0] for v in obj["pairs"].values())
    assert all(v == [2.0, 0.0] for v in obj["triples"].values())


def test_coords_fixture_values(tmp_path, capsys, fixture_rep_file):
    out = tmp_path / "fix.coords.json"
    assert run("coords", fixture_rep_file, "-o", out) == EXIT_OK
    report = capsys.readouterr().out
    assert "closing trace" in report and "-4.5" in report
    obj = json.loads(out.read_text())
    assert obj["pairs"]["21"] == [-2.5, 0.0]
    assert obj["pairs"]["31"] == [0.0, 0.0]
    assert obj["pairs"]["32"] == [1.5, 0.0]
    assert obj["a"][3] == [-4.5, 0.0]
    assert obj["triples"] == {}


def test_coords_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("coords", bad, "-o", tmp_path / "out.json") == EXIT_PARSE
    missing = tmp_path / "missing.json"
    assert run("coords", missing, "-o", tmp_path / "out.json") == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"error: cannot read {missing}: ")


def test_coords_shape_error(tmp_path, capsys):
    good = rep_to_obj(identity_rep(3))
    mats = good["matrices"]
    for obj, message in (
        ({"n": 3, "a": [[0, 0]], "matrices": []}, "tuple file: 'a' must list 4 traces"),
        ([], "tuple file: top level must be a JSON object"),
        ({"n": 3, "a": good["a"]}, "tuple file: missing field 'matrices'"),
        ({**good, "n": 2}, "tuple file: n must be an integer >= 3, got 2"),
        ({**good, "matrices": mats[:2]}, "tuple file: 'matrices' must list 3 matrices"),
        ({**good, "matrices": [mats[0][:1], *mats[1:]]},
         "matrix 1: expected a 2x2 grid of [re, im] pairs"),
        ({**good, "a": [[2.0, 0.0, 0.0], *good["a"][1:]]},
         "a[0]: expected [re, im], got [2.0, 0.0, 0.0]"),
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert run("coords", bad, "-o", tmp_path / "out.json") == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {message}\n"


def test_coords_invariant_violation(tmp_path):
    obj = rep_to_obj(identity_rep(3))
    obj["matrices"][0][0][0] = [5.0, 0.0]  # det != 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run("coords", bad, "-o", tmp_path / "out.json") == EXIT_RESIDUAL


def test_coords_trace_mismatch(tmp_path):
    obj = rep_to_obj(identity_rep(3))
    obj["a"][0] = [1.0, 0.0]  # declared trace disagrees with the matrix
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run("coords", bad, "-o", tmp_path / "out.json") == EXIT_RESIDUAL


def _tuple_file(mats, a):
    """A tuple file of real 2x2 grids and real declared traces."""
    grids = [[[[v, 0.0] for v in row] for row in m] for m in mats]
    return {"n": len(mats), "a": [[v, 0.0] for v in a], "matrices": grids}


def test_coords_nan_determinant_exits_three(tmp_path, capsys):
    # det M_1 = 1e400 - 1e400 is NaN, which check_unimodular must not pass
    obj = _tuple_file([[[1e200, 1e200], [1e200, 1e200]], [[1.0, 0.0], [0.0, 1.0]],
                       [[1.0, 0.0], [0.0, 1.0]]], [2e200, 2.0, 2.0, 2e200])
    path = tmp_path / "nan-det.json"
    path.write_text(json.dumps(obj))
    assert run("coords", path, "-o", tmp_path / "out.json") == EXIT_RESIDUAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: |det - 1| = nan") and captured.err.count("\n") == 1


def test_coords_closure_residual_is_last_det(tmp_path, capsys):
    # a genuine tuple whose product M_{n+1} (M_n ... M_1) overflows: the closure
    # residual is |det M_{n+1} - 1|, which reads 1 here (1e300 * 1 - 1e150 * 1e150)
    obj = _tuple_file([[[1.0, 1e150], [0.0, 1.0]], [[1.0, 0.0], [1e150, 1.0]],
                       [[1.0, 0.0], [0.0, 1.0]]], [2.0, 2.0, 2.0, 1e300])
    path = tmp_path / "shear.json"
    path.write_text(json.dumps(obj))
    assert run("coords", path, "-o", tmp_path / "out.json") == EXIT_OK
    captured = capsys.readouterr()
    assert "closure residual : 1.000e+00\n" in captured.out and captured.err == ""


def test_relations_pass_and_report(tmp_path, capsys, fixture_rep):
    path = coords_path(tmp_path, fixture_rep)
    assert run("relations", path) == EXIT_OK
    report = capsys.readouterr().out
    assert "PASS" in report
    assert "relations" in report and ": 1" in report  # n = 3 has one relation


def test_relations_fail_names_polynomial(tmp_path, capsys, fixture_rep):
    obj = coords_to_obj(phi(fixture_rep))
    obj["pairs"]["21"] = [obj["pairs"]["21"][0] + 1.0, 0.0]
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(obj))
    assert run("relations", path) == EXIT_RESIDUAL
    report = capsys.readouterr().out
    assert "FAIL" in report and "type1 (1, 2, 3)x(1, 2, 3)" in report


def test_relations_fail_names_first_nan(tmp_path, capsys):
    # su2 n = 4 seed 700 with a_2..a_4 scaled by 1e60: one nan among finite residuals
    obj = coords_to_obj(phi(su2(4, seed=700)))
    obj["a"][1:4] = [[re * 1e60, im] for re, im in obj["a"][1:4]]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))
    assert run("relations", path) == EXIT_RESIDUAL
    report = capsys.readouterr().out
    assert "max residual (raw)          : nan\n" in report
    assert report.endswith("FAIL  worst: type1 (2, 3, 4)x(2, 3, 4)\n")


def test_relations_tolerance_flag_and_env(tmp_path, capsys, fixture_rep, monkeypatch):
    obj = coords_to_obj(phi(fixture_rep))
    obj["pairs"]["21"] = [obj["pairs"]["21"][0] + 1e-5, 0.0]
    path = tmp_path / "nudged.json"
    path.write_text(json.dumps(obj))
    assert run("relations", path) == EXIT_RESIDUAL
    assert run("relations", path, "--tol", "1e-2") == EXIT_OK
    monkeypatch.setenv("MONODROMY_TOL", "1e-2")
    assert run("relations", path) == EXIT_OK
    monkeypatch.setenv("MONODROMY_TOL", "not-a-number")
    assert run("relations", path) == EXIT_PARSE
    capsys.readouterr()


@pytest.mark.parametrize("via", ["flag", "env"])
def test_nan_tolerance_exits_two(tmp_path, capsys, monkeypatch, via):
    # A NaN tolerance fails every <= gate: classify called this definite point
    # not-unitary (exit 0) and reconstruct found no admissible chart (exit 4).
    # An infinite one (1e400 parses to inf) passes the <= gates: relations
    # printed PASS (exit 0) at a normalized residual of 7.6e-2 on the moved point.
    path = coords_path(tmp_path, su2(4, seed=1))
    assert run("classify", path) == EXIT_OK
    assert "verdict       : definite" in capsys.readouterr().out
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(_coords_with("pairs", "21", 50.0)))
    for value, message in (("nan", "tolerances must be non-negative"),
                           ("inf", "tolerance must be finite"),
                           ("1e400", "tolerance must be finite")):
        flag = ["--tol", value] if via == "flag" else []
        if via == "env":
            monkeypatch.setenv("MONODROMY_TOL", value)
        assert run("classify", path, *flag) == EXIT_PARSE
        assert run("reconstruct", path, *flag, "-o", tmp_path / "o.json") == EXIT_PARSE
        assert run("relations", moved, *flag) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n" * 3


def test_tuple_file_nan_matrix_entry_exits_two(tmp_path, capsys):
    obj = rep_to_obj(identity_rep(3))
    obj["matrices"][1][0][1] = [float("nan"), 0.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))  # json writes the bare token NaN
    assert run("coords", bad, "-o", tmp_path / "out.json") == EXIT_PARSE
    err = capsys.readouterr().err
    assert err == "error: matrix 2 entry (1,2): non-finite number in [nan, 0.0]\n"


def test_tuple_file_nan_declared_trace_exits_two(tmp_path, capsys):
    # nan > bound is False, so the declared-trace check let this through
    obj = rep_to_obj(identity_rep(3))
    obj["a"][2] = [float("nan"), 0.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run("coords", bad, "-o", tmp_path / "out.json") == EXIT_PARSE
    assert capsys.readouterr().err == "error: a[2]: non-finite number in [nan, 0.0]\n"


@pytest.mark.parametrize("command", ["relations", "reconstruct", "classify"])
def test_coordinate_file_infinite_trace_exits_two(tmp_path, capsys, fixture_rep, command):
    obj = coords_to_obj(phi(fixture_rep))
    bad = tmp_path / "bad.json"
    argv = [command, bad] + (["-o", tmp_path / "o.json"] if command == "reconstruct" else [])
    for value in (float("inf"), 10 ** 400):  # the integer overflows a float
        obj["a"][0] = [value, 0.0]
        bad.write_text(json.dumps(obj))
        assert run(*argv) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: a[0]: non-finite number in {[value, 0.0]!r}\n"


def test_coordinate_file_integer_past_digit_limit_exits_two(tmp_path, capsys, fixture_rep):
    # json.loads raises ValueError past the int-digit limit; without the limit
    # the integer parses and then overflows a float.
    text = json.dumps(coords_to_obj(phi(fixture_rep)))
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"a": [[', '"a": [[' + "9" * 5000 + ", 0.0], [", 1))
    assert run("relations", bad) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("edit, message", [
    (lambda o: [o], "coordinate file: top level must be a JSON object"),
    (lambda o: {"n": 3, "a": o["a"], "triples": {}}, "coordinate file: missing field 'pairs'"),
    (lambda o: {**o, "n": 3.0}, "coordinate file: n must be an integer >= 3, got 3.0"),
    (lambda o: {**o, "triples": None}, "coordinate file: 'pairs' and 'triples' must be objects"),
    (lambda o: {**o, "pairs": {"21": o["pairs"]["21"], "32": o["pairs"]["32"]}},
     "coordinate file: pair keys must be the 3 ascending pairs in 1..3"),
    (lambda o: {**o, "a": [1.0, *o["a"][1:]]}, "a[0]: expected [re, im], got 1.0"),
], ids=["top-level", "missing-field", "n", "triples", "pair-set", "trace"])
def test_coordinate_file_shape_errors_exit_two(tmp_path, capsys, fixture_rep, edit, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(coords_to_obj(phi(fixture_rep)))))
    assert run("relations", bad) == EXIT_PARSE
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("table, key, bad_key", [
    ("pairs", "21", "\u00b2\u00b9"),  # superscript digits: isdigit() but not int()
    ("pairs", "21", "\u0662\u0661"),  # Arabic-Indic digits: int() reads them as 21
    ("triples", "321", "\u00b3\u00b2\u00b9"),
    ("triples", "321", "\u0663\u0662\u0661"),
])
def test_coordinate_file_non_ascii_digit_key_exits_two(tmp_path, capsys, table, key, bad_key):
    obj = coords_to_obj(phi(su2(4, seed=2)))
    obj[table][bad_key] = obj[table].pop(key)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run("relations", bad) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_coords_round_trip_above_nine(tmp_path, capsys):
    # past n = 9 the keys join the descending indices with commas
    for n in (10, 12):
        rep_path, path = tmp_path / f"t{n}.json", tmp_path / f"c{n}.json"
        assert run("sample", "--kind", "su2", "--n", n, "--seed", 0, "-o", rep_path) == EXIT_OK
        assert run("coords", rep_path, "-o", path) == EXIT_OK
        text = path.read_text()
        obj = json.loads(text)
        assert list(obj["pairs"])[:2] == ["2,1", "3,1"] and f"{n},2" in obj["pairs"]
        assert list(obj["triples"])[0] == "3,2,1" and f"{n},2,1" in obj["triples"]
        x = coords_from_obj(obj)
        assert x == phi(su2(n, seed=0)) and x.n == n
        assert json.dumps(coords_to_obj(x), indent=2) + "\n" == text
        assert run("relations", path) == EXIT_OK
        assert run("reconstruct", path, "-o", tmp_path / "r.json") == EXIT_OK
        assert run("classify", path) == EXIT_OK
        assert capsys.readouterr().out.endswith("verdict       : definite\n")


def test_reconstruct_at_n_sixteen_passes(tmp_path, capsys):
    # the report evaluates no relation, so a wide su2 point costs only its O(n^3) rebuild
    rep_path, path = tmp_path / "t.json", tmp_path / "c.json"
    assert run("sample", "--kind", "su2", "--n", 16, "--seed", 0, "-o", rep_path) == EXIT_OK
    assert run("coords", rep_path, "-o", path) == EXIT_OK
    assert run("reconstruct", path, "-o", tmp_path / "r.json") == EXIT_OK
    out = capsys.readouterr().out
    assert out.endswith("PASS\n") and "membership" not in out


def test_coordinate_keys_past_nine_are_checked(tmp_path, capsys):
    obj = coords_to_obj(phi(su2(10, seed=0)))
    for field, key, message in (
        ("pairs", "21", "pair key '21': expected two indices 'j,i' with j > i"),
        ("pairs", "1,2", "pair key '1,2': need 1 <= i < j <= 10"),
        ("pairs", "02,1", "pair key '02,1': need 1 <= i < j <= 10"),
        ("triples", "11,2,1", "triple key '11,2,1': need 1 <= i < j < k <= 10"),
        ("triples", "3,2", "triple key '3,2': expected three indices 'k,j,i' with k > j > i"),
    ):
        bad = json.loads(json.dumps(obj))
        bad[field][key] = [0.0, 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert run("relations", path) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {message}\n"


def test_reconstruct_round_trip(tmp_path, fixture_rep):
    coords1 = coords_path(tmp_path, fixture_rep, "c1.json")
    rep_out = tmp_path / "rebuilt.rep.json"
    assert run("reconstruct", coords1, "--chart", "auto", "-o", rep_out) == EXIT_OK
    coords2 = tmp_path / "c2.json"
    assert run("coords", rep_out, "-o", coords2) == EXIT_OK
    a = json.loads(coords1.read_text())
    b = json.loads(coords2.read_text())
    for key in a["pairs"]:
        va, vb = a["pairs"][key], b["pairs"][key]
        assert abs(complex(*va) - complex(*vb)) <= 1e-8 * (1 + abs(complex(*va)))


def test_reconstruct_branches_agree(tmp_path, fixture_rep):
    # the base chart and the three anchored charts the flag can name at n = 3
    coords1 = coords_path(tmp_path, fixture_rep)
    out_plus = tmp_path / "plus.rep.json"
    out_minus = tmp_path / "minus.rep.json"
    cp = tmp_path / "cp.json"
    cm = tmp_path / "cm.json"
    for chart in ("1,2,base", "1,2,3", "2,3,1", "3,1,2"):
        assert run("reconstruct", coords1, "--chart", chart, "--branch", "+",
                   "-o", out_plus) == EXIT_OK
        assert run("reconstruct", coords1, "--chart", chart, "--branch", "-",
                   "-o", out_minus) == EXIT_OK
        assert run("coords", out_plus, "-o", cp) == EXIT_OK
        assert run("coords", out_minus, "-o", cm) == EXIT_OK
        a = json.loads(cp.read_text())
        b = json.loads(cm.read_text())
        for key in a["pairs"]:
            assert abs(complex(*a["pairs"][key]) - complex(*b["pairs"][key])) <= 1e-9


def test_reconstruct_no_admissible_chart(tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(FLAT_COORDS))
    assert run("reconstruct", path, "-o", tmp_path / "out.json") == EXIT_NO_CHART
    assert run("reconstruct", path, "--chart", "1,2,base",
               "-o", tmp_path / "out.json") == EXIT_NO_CHART


def test_reconstruct_bad_chart_flag(tmp_path, capsys, fixture_rep):
    path = coords_path(tmp_path, fixture_rep)
    assert run("reconstruct", path, "--chart", "nope", "-o", tmp_path / "o.json") == EXIT_PARSE
    assert run("reconstruct", path, "--chart", "1,1,base", "-o", tmp_path / "o.json") == EXIT_PARSE
    capsys.readouterr()
    # a valid chart id that names no chart at n = 3
    for chart, message in (("2,1,base", "pair (2, 1) is not a chart pair for n = 3"),
                           ("1,2,7", "anchor index 7 out of range for n = 3")):
        assert run("reconstruct", path, "--chart", chart, "-o", tmp_path / "o.json") == EXIT_PARSE
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "o.json").exists()


def test_classify_su2_definite(tmp_path, capsys):
    assert run("sample", "--kind", "su2", "--n", "4", "--seed", "11",
               "-o", tmp_path / "su2.rep.json") == EXIT_OK
    assert run("coords", tmp_path / "su2.rep.json", "-o", tmp_path / "su2.json") == EXIT_OK
    assert run("classify", tmp_path / "su2.json") == EXIT_OK
    report = capsys.readouterr().out
    assert "verdict       : definite" in report
    assert "invariance" in report


def test_classify_su11_indefinite(tmp_path, capsys):
    assert run("sample", "--kind", "su11", "--n", "4", "--seed", "12",
               "-o", tmp_path / "su11.rep.json") == EXIT_OK
    assert run("coords", tmp_path / "su11.rep.json", "-o", tmp_path / "su11.json") == EXIT_OK
    assert run("classify", tmp_path / "su11.json") == EXIT_OK
    report = capsys.readouterr().out
    assert "verdict       : indefinite(1,1)" in report


def test_classify_generic_not_unitary(tmp_path, capsys):
    assert run("sample", "--kind", "generic", "--n", "4", "--seed", "13",
               "-o", tmp_path / "g.rep.json") == EXIT_OK
    assert run("coords", tmp_path / "g.rep.json", "-o", tmp_path / "g.json") == EXIT_OK
    assert run("classify", tmp_path / "g.json") == EXIT_OK
    report = capsys.readouterr().out
    assert "reality gate  : fail" in report
    assert "verdict       : not-unitary" in report


def test_classify_without_chart_exits_four(tmp_path, capsys):
    # the identity tuple lies in SU(2), but no chart applies to it: no verdict
    path = coords_path(tmp_path, identity_rep(4))
    assert run("classify", path) == EXIT_NO_CHART
    out, err = capsys.readouterr()
    assert out == "reality gate  : pass\n"
    assert err.startswith("no admissible chart at this point") and err.count("\n") == 1


def test_classify_boundary_exit(tmp_path, capsys):
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps(BOUNDARY_COORDS))
    assert run("classify", path) == EXIT_BOUNDARY
    assert "boundary" in capsys.readouterr().out


def test_degenerate_pair_is_a_boundary_and_has_no_chart(tmp_path, capsys):
    # the only admissible chart has x_21 = 2 + 2e-10: classify calls it a
    # boundary, and reconstruct finds the chart unusable
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(DEGENERATE_PAIR_COORDS))
    assert run("classify", path) == EXIT_BOUNDARY
    assert capsys.readouterr().out == (
        "reality gate  : pass\n"
        "verdict       : boundary\n"
        "reason        : |x_kj^2 - 4| = 8.000e-10 is numerically zero\n"
    )
    assert run("reconstruct", path, "-o", tmp_path / "out.json") == EXIT_NO_CHART
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("chart (1,2,base) unusable: x_kj = (2.0000000002+0j): "
                   "|x_kj^2 - 4| = 8.000e-10 is numerically zero\n")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_unwritable_output_exits_two(tmp_path, capsys, fixture_rep, target):
    # a missing directory (FileNotFoundError) or a directory (IsADirectoryError)
    # as -o: one error line and exit 2, after any report already printed
    out = tmp_path / target
    rep_path = tmp_path / "t.json"
    rep_path.write_text(json.dumps(rep_to_obj(fixture_rep)))
    commands = [
        ("coords", rep_path),
        ("reconstruct", coords_path(tmp_path, fixture_rep)),
        ("sample", "--kind", "su2", "--n", "4", "--seed", "1"),
    ]
    for command in commands:
        assert run(*command, "-o", out) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_classify_off_variety_exits_3(tmp_path, capsys):
    # a real su2 point with x_21 moved off the variety: the reality gate passes,
    # then the tuple rebuilt on the best chart misses the point
    x = phi(su2(4, seed=0))
    pairs = dict(x.pairs)
    pairs[(1, 2)] += 1.0
    off = TraceCoordinates(x.local, pairs, x.triples)
    with pytest.raises(OffVariety, match=r"^chart \(\d,\d,(\d|base)\): the rebuilt tuple "
                                         r"misses the point by \d\.\de[+-]\d\d > 1e-09$"):
        classify(off)
    path = tmp_path / "off.json"
    path.write_text(json.dumps(coords_to_obj(off)))
    assert run("classify", path) == EXIT_RESIDUAL
    out, err = capsys.readouterr()
    assert "reality gate  : pass" in out
    assert err.startswith("error: chart (") and err.count("\n") == 1


@pytest.mark.parametrize("closing", [-1.422, 1e3], ids=["shifted", "huge"])
def test_classify_wrong_closing_trace_exits_3(tmp_path, capsys, closing):
    # no chart reads a_{n+1} for n >= 4; the rebuild's closing trace does
    obj = coords_to_obj(phi(su2(4, seed=1)))
    assert round(obj["a"][4][0], 3) == -1.722
    obj["a"][4] = [closing, 0.0]
    path = tmp_path / "closing.json"
    path.write_text(json.dumps(obj))
    assert run("classify", path) == EXIT_RESIDUAL
    out, err = capsys.readouterr()
    assert "verdict" not in out
    assert err.startswith("error: chart (") and err.count("\n") == 1


def _coords_with(table, key, value, n=4):
    """The su2 seed 1 coordinate file of size n with one stored value replaced."""
    obj = coords_to_obj(phi(su2(n, seed=1)))
    obj[table][key] = [value, 0.0]
    return obj


def _diagonal_tuple(scales, closing_trace):
    """A tuple file of the unimodular matrices diag(s, 1/s), one per scale."""
    mats = [[[[s, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0 / s, 0.0]]] for s in scales]
    a = [[s + 1.0 / s, 0.0] for s in scales] + [[closing_trace, 0.0]]
    return {"n": len(scales), "a": a, "matrices": mats}


@pytest.mark.parametrize("command, obj", [
    ("relations", _coords_with("pairs", "21", 1e103)),  # the relation scale (1 + max|x|)^3
    # a huge pair trace: its admissibility threshold saturates, a rebuilt entry overflows
    ("reconstruct", _coords_with("pairs", "21", 1e160)),
    ("classify", _coords_with("pairs", "21", 1e160)),
    ("reconstruct", _coords_with("triples", "321", 1e160)),  # a rebuilt matrix entry
    ("classify", _coords_with("triples", "543", 1e160, n=5)),  # the rebuild classify gates on
    ("coords", _diagonal_tuple([1e100] * 4, 2.0)),  # closing the tuple
    ("coords", _diagonal_tuple([1e200, 1e-200, 1e200], 1e200)),  # the pair trace x_31
], ids=["relations", "reconstruct", "classify", "reconstruct-entry", "classify-entry", "coords",
        "coords-pair"])
def test_arithmetic_overflow_exits_three(tmp_path, capsys, command, obj):
    # finite input whose arithmetic overflows is a data failure, not a traceback
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    output = [] if command in ("relations", "classify") else ["-o", tmp_path / "out.json"]
    assert run(command, path, *output) == EXIT_RESIDUAL
    err = capsys.readouterr().err
    assert err.startswith("error: arithmetic overflow: ") and err.count("\n") == 1


def test_admissibility_threshold_saturates(tmp_path, capsys):
    # |x_21| = 1e78 overflows |x_21|^4: the threshold reads inf, so the charts of
    # the pair (1, 2) are inadmissible and the rest still rebuild, off the variety
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_coords_with("pairs", "21", 1e78)))
    base = ["--chart", "1,2,base", "-o", tmp_path / "base.json"]
    assert run("reconstruct", path, *base) == EXIT_NO_CHART
    assert capsys.readouterr().err == (
        "chart (1,2,base) unusable: chart (1,2,base): |p| = inf is out of range\n")
    assert run("reconstruct", path, "-o", tmp_path / "out.json") == EXIT_RESIDUAL
    out, err = capsys.readouterr()
    assert out.startswith("chart            : (1,3,2)   branch: +\n") and err == ""
    assert out.endswith("FAIL  worst residual 1.905e+140 exceeds 1.0e-09\n")
    assert run("classify", path) == EXIT_RESIDUAL
    assert capsys.readouterr().err == (
        "error: chart (1,3,2): the rebuilt tuple misses the point by 1.9e+140 > 1e-09\n")


def test_inadmissible_chart_modulus_saturates(tmp_path, capsys):
    # x_21 = 1.19e77 e^(i pi/16): |x_21|^4 overflows, so the threshold reads inf, and p
    # has finite parts but a modulus past 1.8e308, which the message saturates to inf
    obj = _coords_with("pairs", "21", 0.0)
    obj["pairs"]["21"] = [1.19e77 * math.cos(math.pi / 16), 1.19e77 * math.sin(math.pi / 16)]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    assert run("reconstruct", path, "--chart", "1,2,base", "-o", tmp_path / "out.json") == EXIT_NO_CHART
    assert capsys.readouterr().err == (
        "chart (1,2,base) unusable: chart (1,2,base): |p| = inf is out of range\n")


# Standing defects of ROADMAP's open items: each test asserts the right exit code and
# fails today; the mend of item 3 (scale-aware gates) makes it pass, and strict
# xfail then fails the suite until the marker goes.


@pytest.mark.xfail(strict=True, reason="ROADMAP defect 2: a genuine n = 8 tuple fails the "
                   "reconstruct gate (worst 1.417e-9, all of it |det M_9 - 1|)")
def test_genuine_n8_tuple_passes_reconstruct(tmp_path, monkeypatch):
    sample_point(tmp_path, monkeypatch, "--kind", "generic", "--n", "8", "--seed", "3",
                 "--entry-bound", "16")
    assert main(["reconstruct", "c.json", "-o", "r.json"]) == EXIT_OK


@pytest.mark.xfail(strict=True, reason="ROADMAP defect 3: relations passes an off-variety "
                   "point (PASS at normalized 4.0e-10, scale 1e30)")
def test_relations_fails_an_off_variety_point(tmp_path, capsys):
    path = tmp_path / "off.json"
    path.write_text(json.dumps(_coords_with("pairs", "21", 1e10)))
    assert run("classify", path) == EXIT_RESIDUAL  # the rebuild misses the point by 1.3
    assert run("relations", path) == EXIT_RESIDUAL


def test_sample_deterministic_files(tmp_path):
    for kind in ("generic", "su2", "su11"):
        p1 = tmp_path / f"{kind}1.json"
        p2 = tmp_path / f"{kind}2.json"
        assert run("sample", "--kind", kind, "--n", "5", "--seed", "31", "-o", p1) == EXIT_OK
        assert run("sample", "--kind", kind, "--n", "5", "--seed", "31", "-o", p2) == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()


# `sample --kind su2 --n 3 --seed 3` as CPython 3.11 writes it.  The same
# seed must give the same tuple on every supported version, so the samplers
# must not add floats with sum(), which rounds differently from CPython 3.12 on.
SU2_N3_SEED3_A = [
    [-1.4688887001828133, 0.0], [-0.6231977331486809, 0.0],
    [-0.46221242850493466, 0.0], [1.2600472396505666, 0.0],
]
SU2_N3_SEED3_MATRICES = [
    [[[-0.7344443500914066, 0.41777226372150744], [-0.2866084650759334, 0.4515677358167175]],
     [[0.2866084650759334, 0.4515677358167175], [-0.7344443500914066, -0.41777226372150744]]],
    [[[-0.31159886657434044, 0.47373332577143934], [-0.3202653822729774, -0.7588892984623392]],
     [[0.3202653822729774, -0.7588892984623392], [-0.31159886657434044, -0.47373332577143934]]],
    [[[-0.23110621425246733, 0.503063261272292], [-0.26559976272329144, -0.7892870447012987]],
     [[0.26559976272329144, -0.7892870447012987], [-0.23110621425246733, -0.503063261272292]]],
]


def test_sample_su2_same_on_every_python_version(tmp_path):
    out = tmp_path / "su2.json"
    assert run("sample", "--kind", "su2", "--n", "3", "--seed", "3", "-o", out) == EXIT_OK
    obj = json.loads(out.read_text())
    assert obj["a"] == SU2_N3_SEED3_A
    assert obj["matrices"] == SU2_N3_SEED3_MATRICES


def test_sample_su2_trace_out_of_range(tmp_path):
    assert run("sample", "--kind", "su2", "--n", "3", "--traces", "0,2.5,0",
               "-o", tmp_path / "x.json") == EXIT_RESIDUAL


@pytest.mark.parametrize("flag, values", [
    ("--traces", "nan,0,0"), ("--thetas", "nan,0.5,0.5"), ("--thetas", "inf,0.5,0.5"),
    ("--traces", "1+,0,0"),  # a literal complex() rejects
    ("--traces", ""), ("--thetas", ""),  # empty, not absent: no random traces
])
def test_sample_non_finite_traces_exit_two(tmp_path, capsys, flag, values):
    out = tmp_path / "x.json"
    assert run("sample", "--kind", "su2", "--n", "3", flag, values, "-o", out) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("bound", ["1e-300", "inf"])
def test_sample_entry_bound_out_of_range_exits_two(tmp_path, capsys, bound):
    # 1e-300 divided by zero in the rejection threshold; inf wrote a non-JSON
    # Infinity into the provenance
    out = tmp_path / "x.json"
    assert run("sample", "--n", "3", "--entry-bound", bound, "-o", out) == EXIT_PARSE
    assert capsys.readouterr().err == (
        f"error: entry_bound must be finite and at least 2, got {float(bound)}\n"
    )
    assert not out.exists()


def test_sample_thetas_conversion(tmp_path):
    out = tmp_path / "theta.rep.json"
    assert run("sample", "--kind", "su2", "--n", "3", "--seed", "2",
               "--thetas", "0.5,0.5,0.5", "-o", out) == EXIT_OK
    obj = json.loads(out.read_text())
    for grid in obj["matrices"]:
        trace = complex(*grid[0][0]) + complex(*grid[1][1])
        assert abs(trace - 2.0 * 0.0) <= 1e-12  # 2 cos(pi/2) = 0


def test_sample_flag_conflicts(tmp_path):
    assert run("sample", "--kind", "su2", "--n", "3", "--traces", "0,0,0",
               "--thetas", "0.5,0.5,0.5", "-o", tmp_path / "x.json") == EXIT_PARSE
    assert run("sample", "--kind", "su2", "--n", "3", "--traces", "", "--thetas", "",
               "-o", tmp_path / "x.json") == EXIT_PARSE
    assert run("sample", "--kind", "generic", "--n", "2",
               "-o", tmp_path / "x.json") == EXIT_PARSE


def test_sample_then_relations_end_to_end(tmp_path):
    rep_path = tmp_path / "g.rep.json"
    assert run("sample", "--kind", "generic", "--n", "5", "--seed", "7",
               "-o", rep_path) == EXIT_OK
    coords = tmp_path / "g.coords.json"
    assert run("coords", rep_path, "-o", coords) == EXIT_OK
    assert run("relations", coords, "--tol", "1e-8") == EXIT_OK


def test_json_round_trip_byte_identical(tmp_path, fixture_rep):
    path = coords_path(tmp_path, fixture_rep)
    first = path.read_bytes()
    obj = coords_from_obj(json.loads(first))
    rewritten = json.dumps(coords_to_obj(obj), indent=2).encode() + b"\n"
    # writer output is canonical: parse -> rewrite reproduces the bytes
    reread = json.dumps(coords_to_obj(coords_from_obj(json.loads(rewritten))),
                        indent=2).encode() + b"\n"
    assert rewritten == reread


def test_unknown_flag_exits_two(capsys):
    assert run("relations", "--no-such-flag") == EXIT_PARSE
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run("--help") == EXIT_OK
    capsys.readouterr()


def child_env() -> dict:
    """A CLI subprocess's environment: this package first on the path, default
    warning filters, and standard output block-buffered when it is a pipe, so
    a missed flush loses bytes."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONWARNINGS", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = str(Path(monodromy.__file__).parents[1])
    return env


def test_off_variety_miss_is_reported_once(tmp_path):
    # the FAIL line is the one report of a miss: no library warning reaches
    # standard error, so -W error has none to turn into a traceback and exit 1
    def cli(*argv, flags=()):
        return subprocess.run([sys.executable, *flags, "-m", "monodromy", *argv], cwd=tmp_path,
                              env=child_env(), capture_output=True, text=True)

    assert cli("sample", "--kind", "su2", "--n", "4", "--seed", "1", "-o", "t.json").returncode == 0
    assert cli("coords", "t.json", "-o", "c.json").returncode == 0
    obj = json.loads((tmp_path / "c.json").read_text())
    obj["a"][4][0] += 0.3
    (tmp_path / "c.json").write_text(json.dumps(obj))
    default, strict = (cli("reconstruct", "c.json", "-o", "-", flags=flags)
                       for flags in ((), ("-W", "error")))
    assert (default.returncode, default.stderr) == (EXIT_RESIDUAL, "")
    assert default.stdout.splitlines()[-1].startswith("FAIL")
    assert (strict.returncode, strict.stdout, strict.stderr) == (
        default.returncode, default.stdout, default.stderr)


# ---------------------------------------------------------------------------
# The process entry point: `python -m monodromy` and the installed script run
# `cli.run`, which ends in os._exit after flushing


def sample_point(tmp_path, monkeypatch, *flags) -> None:
    """t.json and c.json for one sampled point, written in-process into tmp_path."""
    monkeypatch.chdir(tmp_path)
    assert main(["sample", *flags, "-o", "t.json"]) == EXIT_OK
    assert main(["coords", "t.json", "-o", "c.json"]) == EXIT_OK


PARITY_POINTS = {
    "su2-n4": ["--kind", "su2", "--n", "4", "--seed", "0"],
    "su2-n9": ["--kind", "su2", "--n", "9", "--seed", "0"],
    "generic16-n8": ["--kind", "generic", "--entry-bound", "16", "--n", "8", "--seed", "3"],
}


@pytest.mark.parametrize("point", PARITY_POINTS)
def test_process_matches_in_process_main(tmp_path, capsys, monkeypatch, point):
    commands = [
        (["sample", *PARITY_POINTS[point], "-o", "t.json"], "t.json"),
        (["coords", "t.json", "-o", "c.json"], "c.json"),
        (["relations", "c.json"], None),
        (["reconstruct", "c.json", "-o", "r.json"], "r.json"),
        (["reconstruct", "c.json", "-o", "-"], None),
        (["classify", "c.json"], None),
    ]
    inner, outer = tmp_path / "main", tmp_path / "process"
    inner.mkdir()
    outer.mkdir()
    monkeypatch.chdir(inner)
    monkeypatch.delenv("MONODROMY_TOL", raising=False)  # for both sides: child_env reads os.environ
    codes, warned = [], []
    for argv, written in commands:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        want = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "monodromy", *argv], cwd=outer,
                              env=child_env(), capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (code, want.out), argv
        assert proc.stderr == want.err
        if written is not None:
            assert (outer / written).read_bytes() == (inner / written).read_bytes(), argv
        codes.append(code)
        warned.append(len(caught))
    if point == "generic16-n8":  # a genuine tuple the reconstruct gate fails (the known defect)
        assert codes[3:5] == [EXIT_RESIDUAL] * 2
    else:
        assert codes == [EXIT_OK] * 6
    assert warned == [0] * 6  # the FAIL line is the one report of a miss


@pytest.mark.parametrize("command", ["relations", "classify"])
def test_closed_stdout_exits_two_with_one_line(tmp_path, capsys, monkeypatch, command):
    # relations at n = 9 writes 188 kB in one call, so the pipe breaks inside main;
    # classify's few lines sit in the buffer until run() flushes them
    sample_point(tmp_path, monkeypatch, "--kind", "su2", "--n", "9", "--seed", "0")
    capsys.readouterr()
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "monodromy", command, "c.json"],
                              cwd=tmp_path, env=child_env(), stdout=write_end,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_PARSE
    assert proc.stderr.startswith("error: cannot write standard output: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["classify", "c.json"],
    ["relations", "c.json"],
    ["coords", "t.json", "-o", "-"],
    ["reconstruct", "c.json", "-o", "-"],
    ["sample", "--kind", "su2", "--n", "4", "-o", "-"],
], ids=["classify", "relations", "coords", "reconstruct", "sample"])
def test_stdout_closed_at_start_keeps_the_exit_code(tmp_path, capsys, monkeypatch, argv):
    # Python sets sys.stdout to None when descriptor 1 is closed at start-up,
    # and print() then writes nothing; every report and every `-o -` prints
    sample_point(tmp_path, monkeypatch, "--kind", "su2", "--n", "4", "--seed", "0")
    capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", "monodromy", *argv],
                          cwd=tmp_path, env=child_env(), stderr=subprocess.PIPE, text=True,
                          preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")


def test_profiler_gets_a_normal_exit(tmp_path, capsys, monkeypatch):
    # cProfile prints its table after the profiled module raises SystemExit;
    # an os._exit would end the process before that
    sample_point(tmp_path, monkeypatch, "--kind", "su2", "--n", "4", "--seed", "0")
    capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "monodromy", "classify",
                           "c.json"], cwd=tmp_path, env=child_env(), capture_output=True,
                          text=True)
    assert proc.returncode == EXIT_OK
    assert "verdict       : definite" in proc.stdout
    assert "function calls" in proc.stdout.split("verdict", 1)[1]


@pytest.mark.skipif(not hasattr(sys, "monitoring"), reason="sys.monitoring is new in 3.12")
def test_coverage_tool_gets_a_normal_exit(tmp_path):
    # coverage's sysmon core registers at COVERAGE_ID, as cProfile does at
    # PROFILER_ID; atexit handlers run only on a normal exit
    probe = ("import atexit, sys; from monodromy.cli import run; "
             "sys.monitoring.use_tool_id(sys.monitoring.COVERAGE_ID, 'probe'); "
             "atexit.register(print, 'exited normally'); sys.argv[1:] = ['--help']; run()")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert proc.stdout.endswith("exited normally\n")


def test_script_and_python_m_share_one_entry_point():
    import monodromy.__main__ as entry
    import monodromy.cli as cli

    # pyproject.toml read as text: Python 3.10 has no tomllib
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    module, name = re.search(r'^monodromy = "([\w.]+):(\w+)"$', scripts, re.M).groups()
    assert getattr(importlib.import_module(module), name) is entry.run is cli.run
    for mod in (entry, cli):
        blocks = [node for node in ast.parse(Path(mod.__file__).read_text(encoding="utf-8")).body
                  if isinstance(node, ast.If)]
        assert [ast.unparse(b) for b in blocks] == ["if __name__ == '__main__':\n    run()"]


# Each process imports only the modules its subcommand runs: the root names
# are lazy, and every cmd_* imports what it needs beyond coords.
BASE = {"cli", "coords", "sl2", "errors"}
LOADED = {
    "help": (["--help"], BASE),
    "sample": (["sample", "--kind", "su2", "--n", "4", "-o", "s.json"], BASE | {"samplers"}),
    "coords": (["coords", "t.json", "-o", "c2.json"], BASE),
    "relations": (["relations", "c.json"], BASE | {"relations"}),
    "reconstruct": (["reconstruct", "c.json", "-o", "r.json"],
                    BASE | {"charts", "reconstruction"}),
    "classify": (["classify", "c.json"], BASE | {"unitary", "charts", "reconstruction"}),
}


def loaded_modules(proc) -> set:
    """The monodromy.* modules a `python -X importtime` child imported."""
    rows = (line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:"))
    return {name.split(".", 1)[1] for name in rows if name.startswith("monodromy.")}


@pytest.mark.parametrize("command", LOADED)
def test_process_loads_only_its_subcommands_modules(tmp_path, capsys, monkeypatch, command):
    sample_point(tmp_path, monkeypatch, "--kind", "su2", "--n", "4", "--seed", "0")
    capsys.readouterr()
    argv, want = LOADED[command]
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "monodromy", *argv],
                          cwd=tmp_path, env=child_env(), capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert loaded_modules(proc) == want


def test_import_loads_no_submodule(tmp_path):
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import monodromy"],
                          cwd=tmp_path, env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0
    assert "monodromy" in proc.stderr and loaded_modules(proc) == set()
