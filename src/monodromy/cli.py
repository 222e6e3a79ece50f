"""Command-line front end: JSON I/O for tuples and coordinates, subcommands
wiring the library, and human-readable residual reports.

Exit codes: 0 success, 2 parse/flag error or an unwritable output (an ``-o``
path, or a standard output its reader closed), 3 residual or invariant failure
(off-variety points and arithmetic overflow included), 4 no usable chart
(``reconstruct``; ``classify`` at a real point without one), 5 signature boundary.

File formats are UTF-8 JSON with every complex number written as an
``[re, im]`` pair.  A tuple file carries ``n``, the n+1 local traces ``a``
and the n matrices as 2x2 row-major grids; a coordinate file carries ``n``,
``a`` and the maps ``pairs``/``triples`` keyed by the descending indices, run
together for n <= 9 ("21", "321") and comma-separated past it ("10,2,1").
Rewriting a file read back in reproduces it byte for byte.

The environment variable MONODROMY_TOL overrides the default tolerance of
1e-9; --tol overrides both.

Each subcommand imports the library modules it runs beyond ``coords``, so a
process loads only those.  The process entry point ``run`` ends in
``os._exit``: module teardown and the exit-time garbage collection would add
about 10 ms to a 60-70 ms call and free nothing an exiting process needs;
under a tracer or profiler it exits normally.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import combinations

from .coords import LocalData, Representation, TraceCoordinates, close_tuple, phi
from .errors import (
    BadChart,
    ChartNotAdmissible,
    DegenerateEigenvalues,
    MonodromyError,
    PsiDegenerate,
)
from .sl2 import DEFAULT_TOL, Mat2, Tolerance

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RESIDUAL = 3
EXIT_NO_CHART = 4
EXIT_BOUNDARY = 5


class ParseError(Exception):
    """Malformed file or flag (exit code 2)."""


# ---------------------------------------------------------------------------
# JSON (de)serialization


def _c_out(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _c_in(obj, what: str) -> complex:
    ok = (
        isinstance(obj, list)
        and len(obj) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj)
    )
    if not ok:
        raise ParseError(f"{what}: expected [re, im], got {obj!r}")
    try:
        finite = all(map(math.isfinite, obj))  # json reads NaN, Infinity and 1e400 (as inf)
    except OverflowError:  # an integer literal beyond the float range
        finite = False
    if not finite:
        raise ParseError(f"{what}: non-finite number in {obj!r}")
    return complex(obj[0], obj[1])


def rep_to_obj(rep: Representation, provenance: dict | None = None) -> dict:
    local = rep.local()
    obj = {
        "n": rep.n,
        "a": [_c_out(v) for v in local.a],
        "matrices": [
            [[_c_out(m.m11), _c_out(m.m12)], [_c_out(m.m21), _c_out(m.m22)]]
            for m in rep.mats
        ],
    }
    if provenance is not None:
        obj["seed"] = provenance
    return obj


def _header(obj, what: str, body: tuple[str, ...]) -> list:
    """[n, a, *body] of a tuple or coordinate file, after the checks both share."""
    if not isinstance(obj, dict):
        raise ParseError(f"{what}: top level must be a JSON object")
    try:
        fields = [obj[name] for name in ("n", "a", *body)]
    except KeyError as exc:
        raise ParseError(f"{what}: missing field {exc}") from exc
    n, raw_a = fields[:2]
    if not isinstance(n, int) or n < 3:
        raise ParseError(f"{what}: n must be an integer >= 3, got {n!r}")
    if not isinstance(raw_a, list) or len(raw_a) != n + 1:
        raise ParseError(f"{what}: 'a' must list {n + 1} traces")
    return fields


def rep_from_obj(obj, tol: Tolerance) -> Representation:
    n, raw_a, raw_mats = _header(obj, "tuple file", ("matrices",))
    if not isinstance(raw_mats, list) or len(raw_mats) != n:
        raise ParseError(f"tuple file: 'matrices' must list {n} matrices")
    declared = [_c_in(v, f"a[{idx}]") for idx, v in enumerate(raw_a)]
    mats = []
    for s, grid in enumerate(raw_mats, start=1):
        shape_ok = (
            isinstance(grid, list) and len(grid) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in grid)
        )
        if not shape_ok:
            raise ParseError(f"matrix {s}: expected a 2x2 grid of [re, im] pairs")
        mats.append(Mat2(*(_c_in(grid[r][c], f"matrix {s} entry ({r + 1},{c + 1})")
                           for r in (0, 1) for c in (0, 1))))
    rep = close_tuple(mats, tol)
    actual = rep.local()
    for idx in range(1, n + 2):
        err = abs(actual.trace(idx) - declared[idx - 1])
        if err > tol.abs * (2.0 + abs(declared[idx - 1])):
            raise MonodromyError(
                f"declared trace a_{idx} disagrees with the matrices by {err:.3e}"
            )
    return rep


def coords_to_obj(x: TraceCoordinates) -> dict:
    sep = "" if x.n <= 9 else ","
    pairs: dict[str, list[float]] = {}
    triples: dict[str, list[float]] = {}
    for key, v in x.items():
        target = pairs if len(key) == 2 else triples
        target[sep.join(map(str, key))] = _c_out(v)
    return {
        "n": x.n,
        "a": [_c_out(v) for v in x.local.a],
        "pairs": pairs,
        "triples": triples,
    }


def _keyed(raw: dict, size: int, n: int) -> dict:
    """The stored pair (size 2) or triple (size 3) map of a coordinate file's
    ``raw`` map, whose keys are written as ``coords_to_obj`` writes them."""
    what, names, count = ("pair", "ji", "two") if size == 2 else ("triple", "kji", "three")
    sep, unit = ("", "digits") if n <= 9 else (",", "indices")
    stored = {sep.join(map(str, t[::-1])): t for t in combinations(range(1, n + 1), size)}
    out = {}
    for key, val in raw.items():
        if key not in stored:
            parts = key.split(",") if sep else list(key)
            if len(parts) == size and all(p.isascii() and p.isdigit() for p in parts):
                raise ParseError(f"{what} key {key!r}: need 1 <= {' < '.join(names[::-1])} <= {n}")
            raise ParseError(f"{what} key {key!r}: expected {count} {unit} '{sep.join(names)}' "
                             f"with {' > '.join(names)}")
        out[stored[key]] = _c_in(val, f"{what} {key}")
    return out


def coords_from_obj(obj) -> TraceCoordinates:
    n, raw_a, raw_pairs, raw_triples = _header(obj, "coordinate file", ("pairs", "triples"))
    local = LocalData(tuple(_c_in(v, f"a[{idx}]") for idx, v in enumerate(raw_a)))
    if not isinstance(raw_pairs, dict) or not isinstance(raw_triples, dict):
        raise ParseError("coordinate file: 'pairs' and 'triples' must be objects")
    try:
        return TraceCoordinates(local, _keyed(raw_pairs, 2, n), _keyed(raw_triples, 3, n))
    except ValueError as exc:
        raise ParseError(f"coordinate file: {exc}") from exc


def read_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past the int-digit limit
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def write_json(path: str, obj) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if path == "-":
        print(text, end="")  # a no-op when descriptor 1 was closed at start-up
    else:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {path}: {exc}") from exc


def _fmt_c(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return f"{z.real:.12g}"
    return f"{z.real:.12g}{z.imag:+.12g}j"


# ---------------------------------------------------------------------------
# Subcommands


def cmd_coords(args, tol: Tolerance) -> int:
    rep = rep_from_obj(read_json(args.input), tol)
    obj = coords_to_obj(phi(rep))
    print(f"n                : {rep.n}")
    # M_{n+1} = adj(M_n ... M_1), so |M_{n+1} M_n ... M_1 - I| is |det M_{n+1} - 1|
    print(f"closure residual : {abs(rep.last.det - 1.0):.3e}")
    print(f"closing trace    : {_fmt_c(rep.last.trace)}")
    write_json(args.output, obj)
    if args.output != "-":
        print(f"wrote {args.output}")
    return EXIT_OK


def cmd_relations(args, tol: Tolerance) -> int:
    from .relations import membership

    x = coords_from_obj(read_json(args.input))
    res = membership(x)
    # labels in the enumeration order of relations.type1_pairs and type2_terms, written out
    # as comprehensions (a generator resumes once a label), each tuple's str taken once
    idx = range(1, x.n + 1)
    triples, quads = ([str(t) for t in combinations(idx, size)] for size in (3, 4))
    labels = [f"type1 {ta}x{tb}" for pos, ta in enumerate(triples) for tb in triples[pos:]]
    labels += [f"type2 i={i} {quad}" for i in idx for quad in quads]
    values = res.type1 + res.type2
    if res.type3 is not None:
        labels.append("type3")
        values += (res.type3,)
    passed = res.normalized <= tol.abs
    # the first label of the largest value, or of the first NaN
    worst = res.max if res.max == res.max else next(v for v in values if v != v)
    worst_label = labels[values.index(worst)]
    print("".join([  # one write: the report runs to 4705 lines at n = 9
        *map("%-28s: %.3e\n".__mod__, zip(labels, values)),
        f"relations                   : {res.count}\n",
        f"max residual (raw)          : {res.max:.3e}\n",
        f"max residual (normalized)   : {res.normalized:.3e}  [scale {res.scale:.3e}]\n",
        "PASS\n" if passed else f"FAIL  worst: {worst_label}\n",
    ]), end="")
    return EXIT_OK if passed else EXIT_RESIDUAL


def _parse_chart(text: str):
    from .charts import ChartId

    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError(f"chart {text!r}: expected 'j,k,i0' or 'j,k,base'")
    try:
        j, k = int(parts[0]), int(parts[1])
        i0 = 0 if parts[2].strip() == "base" else int(parts[2])
        return ChartId(j, k, i0)
    except (ValueError, BadChart) as exc:
        raise ParseError(f"chart {text!r}: {exc}") from exc


def cmd_reconstruct(args, tol: Tolerance) -> int:
    from .charts import classify_charts
    from .reconstruction import MINUS, PLUS, reconstruct

    x = coords_from_obj(read_json(args.input))
    if args.chart == "auto":
        report = classify_charts(x, tol)
        if report.best is None:
            print("no admissible chart at this point", file=sys.stderr)
            return EXIT_NO_CHART
        chart = report.best
    else:
        chart = _parse_chart(args.chart)
    branch = PLUS if args.branch == "+" else MINUS
    try:
        result = reconstruct(x, chart, branch, tol)  # a miss is reported once, by the FAIL line
    except (ChartNotAdmissible, DegenerateEigenvalues) as exc:
        print(f"chart {chart.label()} unusable: {exc}", file=sys.stderr)
        return EXIT_NO_CHART
    diag = result.diagnostics
    print(f"chart            : {chart.label()}   branch: {'+' if branch.sign > 0 else '-'}")
    for s in range(1, x.n + 2):
        print(
            f"M_{s:<2d}  |tr-a| = {diag.trace[s - 1]:.3e}   "
            f"|det-1| = {diag.det[s - 1]:.3e}"
        )
    # M_{n+1} = adj(M_n ... M_1), so |M_{n+1} M_n ... M_1 - I| is |det M_{n+1} - 1|
    print(f"closure residual    : {diag.det[-1]:.3e}")
    print(f"round-trip residual : {diag.round_trip:.3e}")
    write_json(args.output, rep_to_obj(result.rep))
    if args.output != "-":
        print(f"wrote {args.output}")
    if not diag.passes(tol):
        print(f"FAIL  worst residual {diag.worst():.3e} exceeds {tol.abs:.1e}")
        return EXIT_RESIDUAL
    print("PASS")
    return EXIT_OK


def cmd_classify(args, tol: Tolerance) -> int:
    from .reconstruction import PLUS, reconstruct
    from .unitary import Signature, classify, hermitian_form, reality_gate, verify_invariance

    x = coords_from_obj(read_json(args.input))
    print(f"reality gate  : {'pass' if reality_gate(x, tol) else 'fail'}")
    try:
        sig = classify(x, tol)
    except (PsiDegenerate, DegenerateEigenvalues) as exc:
        print("verdict       : boundary")
        print(f"reason        : {exc}")
        return EXIT_BOUNDARY
    except ChartNotAdmissible as exc:
        print(exc, file=sys.stderr)
        return EXIT_NO_CHART
    if sig.kind is Signature.NOT_UNITARY:
        print("verdict       : not-unitary")
        print(f"reason        : {sig.detail}")
        return EXIT_OK
    print(f"best chart    : {sig.chart.label()}")
    print(f"x_kj^2 - 4    : {sig.disc:.12g}  ({'>' if sig.disc > 0 else '<'} 0)")
    print(f"psi           : {sig.psi:.12g}  ({'>' if sig.psi > 0 else '<'} 0)")
    form = hermitian_form(x, sig.chart, tol)
    h = form.matrix()
    print(f"H             : [[{_fmt_c(h.m11)}, {_fmt_c(h.m12)}], "
          f"[{_fmt_c(h.m21)}, {_fmt_c(h.m22)}]]")
    rec = reconstruct(x, sig.chart, PLUS, tol)  # the rebuild classify gated on
    print(f"invariance    : {verify_invariance(rec.rep, form):.3e}")
    print(f"verdict       : {sig.kind.value}")
    return EXIT_OK


def cmd_sample(args, tol: Tolerance) -> int:
    from .samplers import SamplerConfig, sample_generic, sample_su2, sample_su11

    if args.traces is not None and args.thetas is not None:
        raise ParseError("--traces and --thetas are mutually exclusive")
    traces = None
    if args.traces is not None:
        try:
            traces = tuple(complex(tok) for tok in args.traces.split(","))
        except ValueError as exc:
            raise ParseError(f"--traces: {exc}") from exc
    elif args.thetas is not None:
        try:
            traces = tuple(2.0 * math.cos(math.pi * float(tok)) for tok in args.thetas.split(","))
        except ValueError as exc:  # a token float() rejects, or math.cos(inf)
            raise ParseError(f"--thetas: {exc}") from exc
    try:
        cfg = SamplerConfig(args.seed, args.n, traces, args.entry_bound)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    sampler = {"generic": sample_generic, "su2": sample_su2, "su11": sample_su11}[args.kind]
    rep = sampler(cfg)
    provenance = {
        "kind": args.kind,
        "seed": args.seed,
        "n": args.n,
        "entry_bound": args.entry_bound,
    }
    write_json(args.output, rep_to_obj(rep, provenance))
    local = rep.local()
    print(f"kind           : {args.kind}")
    print(f"traces         : {', '.join(_fmt_c(v) for v in local.a[:-1])}")
    print(f"closing trace  : {_fmt_c(local.a[-1])}")
    if args.output != "-":
        print(f"wrote {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monodromy",
        description="Trace coordinates, relation residuals, matrix reconstruction, "
                    "and unitarity classification for rank-2 monodromy tuples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coords", help="compute trace coordinates of a tuple file")
    p.add_argument("input", help="tuple JSON file")
    p.add_argument("-o", "--output", required=True, help="coordinate JSON file ('-' for stdout)")
    p.set_defaults(func=cmd_coords)

    p = sub.add_parser("relations", help="evaluate the defining relations at a coordinate file")
    p.add_argument("input", help="coordinate JSON file")
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("reconstruct", help="build a matrix tuple from coordinates on a chart")
    p.add_argument("input", help="coordinate JSON file")
    p.add_argument("-o", "--output", required=True, help="tuple JSON file ('-' for stdout)")
    p.add_argument("--chart", default="auto", help="'j,k,i0', 'j,k,base' or 'auto' (default)")
    p.add_argument("--branch", choices=["+", "-"], default="+", help="square-root branch")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("classify", help="decide unitarity and signature of a coordinate file")
    p.add_argument("input", help="coordinate JSON file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sample", help="write a deterministic fixture tuple")
    p.add_argument("--kind", choices=["generic", "su2", "su11"], default="generic")
    p.add_argument("--n", type=int, required=True, help="tuple size (>= 3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--traces", default=None,
                   help="comma-separated target traces (complex literals accepted)")
    p.add_argument("--thetas", default=None,
                   help="comma-separated local exponents; converted via a = 2 cos(pi theta)")
    p.add_argument("--entry-bound", type=float, default=4.0, dest="entry_bound")
    p.add_argument("-o", "--output", required=True, help="tuple JSON file ('-' for stdout)")
    p.set_defaults(func=cmd_sample)

    for p in sub.choices.values():
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance (default: MONODROMY_TOL env var, else 1e-9)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    tol_value = args.tol
    env = os.environ.get("MONODROMY_TOL")
    if tol_value is None and env is not None:
        try:
            tol_value = float(env)
        except ValueError:
            print(f"error: MONODROMY_TOL={env!r} is not a number", file=sys.stderr)
            return EXIT_PARSE
    try:
        tol = DEFAULT_TOL if tol_value is None else Tolerance(tol_value)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.func(args, tol)
    except (ParseError, BadChart) as exc:  # BadChart: a --chart that is no chart at n
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MonodromyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESIDUAL
    except (ValueError, OverflowError) as exc:  # checked input whose arithmetic left the float range
        print(f"error: arithmetic overflow: {exc.args[-1]}", file=sys.stderr)
        return EXIT_RESIDUAL


def run() -> None:
    """``main`` on the process's arguments, then exit without interpreter teardown."""
    try:
        code = main()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None: the descriptor was closed when the process started
                stream.flush()
    except BrokenPipeError as exc:  # the reader of standard output went away
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)  # so that no later flush can fail
        code = EXIT_PARSE
        try:
            print(f"error: cannot write standard output: {exc}", file=sys.stderr, flush=True)
        except OSError:  # standard error is closed too
            pass
    tools = getattr(sys, "monitoring", None)  # PEP 669: cProfile registers there from 3.12 on
    if (sys.gettrace() is not None or sys.getprofile() is not None or tools is not None
            and any(map(tools.get_tool, (tools.PROFILER_ID, tools.COVERAGE_ID)))):
        raise SystemExit(code)  # coverage, trace and cProfile write their results at exit
    os._exit(code)


if __name__ == "__main__":
    run()
