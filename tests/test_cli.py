import json

import pytest

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

from conftest import BOUNDARY_COORDS, FLAT_COORDS, identity_rep, su2


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


def test_coords_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("coords", bad, "-o", tmp_path / "out.json") == EXIT_PARSE


def test_coords_shape_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "a": [[0, 0]], "matrices": []}))
    assert run("coords", bad, "-o", tmp_path / "out.json") == EXIT_PARSE


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
    path = coords_path(tmp_path, su2(4, seed=1))
    assert run("classify", path) == EXIT_OK
    assert "verdict       : definite" in capsys.readouterr().out
    flag = ["--tol", "nan"] if via == "flag" else []
    if via == "env":
        monkeypatch.setenv("MONODROMY_TOL", "nan")
    assert run("classify", path, *flag) == EXIT_PARSE
    assert run("reconstruct", path, *flag, "-o", tmp_path / "o.json") == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and err == "error: tolerances must be non-negative\n" * 2


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


def test_coords_rejects_n_above_nine(tmp_path, capsys):
    rep_path = tmp_path / "t10.json"
    assert run("sample", "--n", "10", "--seed", "1", "-o", rep_path) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "c10.json"
    assert run("coords", rep_path, "-o", out) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "n <= 9" in captured.err
    assert not out.exists()


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
    coords1 = coords_path(tmp_path, fixture_rep)
    out_plus = tmp_path / "plus.rep.json"
    out_minus = tmp_path / "minus.rep.json"
    assert run("reconstruct", coords1, "--chart", "1,2,base", "--branch", "+",
               "-o", out_plus) == EXIT_OK
    assert run("reconstruct", coords1, "--chart", "1,2,base", "--branch", "-",
               "-o", out_minus) == EXIT_OK
    plus = json.loads(out_plus.read_text())
    minus = json.loads(out_minus.read_text())
    cp = tmp_path / "cp.json"
    cm = tmp_path / "cm.json"
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


def test_reconstruct_bad_chart_flag(tmp_path, fixture_rep):
    path = coords_path(tmp_path, fixture_rep)
    assert run("reconstruct", path, "--chart", "nope", "-o", tmp_path / "o.json") == EXIT_PARSE
    assert run("reconstruct", path, "--chart", "1,1,base", "-o", tmp_path / "o.json") == EXIT_PARSE


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


def test_classify_boundary_exit(tmp_path, capsys):
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps(BOUNDARY_COORDS))
    assert run("classify", path) == EXIT_BOUNDARY
    assert "boundary" in capsys.readouterr().out


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
    ("reconstruct", _coords_with("pairs", "21", 1e78)),  # the admissibility threshold
    ("classify", _coords_with("pairs", "21", 1e78)),
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
    assert err.startswith("error: ") and err.count("\n") == 1


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
