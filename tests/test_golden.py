"""Golden corpus for the command line: what every subcommand prints, writes
and returns over a fixed grid of sampled tuples, plus one case per error exit.

Grid: n = 3..9 x {su2, su11, generic at entry bound 4, generic at entry
bound 16} x seeds 0..3.  For each tuple the corpus runs ``sample``,
``coords``, ``relations``, ``reconstruct`` on branch + (to a file) and on
branch - (to stdout), and ``classify``.  A command is recorded as its exit
code and the sha256 of its exit code, stdout, stderr, the file it wrote and
its warnings (category and message, no file:line); full texts would run to
megabytes.  Commands run in-process with the working directory in a scratch
directory, so the ``wrote ...`` lines do not depend on where the suite runs.

The generic entry-bound-16 tuples at n = 8, 9 with seeds 2, 3 fail the
reconstruct gate (exit 3) on at least one branch although they are genuine
tuples.  The corpus pins that defect on purpose: the change that mends it
updates this file and says so.

After an intended change of output, regenerate from the repository root with

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.regenerate()"

which prints every cell that changed, with its old and new exit code, and a
count per command, for the change's list of moved cells.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from monodromy import close_tuple, phi
from monodromy.cli import coords_to_obj, main, rep_to_obj

from conftest import BOUNDARY_COORDS, FIXTURE_MATS, FLAT_COORDS, identity_rep

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

FAMILIES = {
    "su2": ["--kind", "su2"],
    "su11": ["--kind", "su11"],
    "generic4": ["--kind", "generic", "--entry-bound", "4"],
    "generic16": ["--kind", "generic", "--entry-bound", "16"],
}


def _run(argv: list[str], output: str | None = None) -> list:
    """[exit code, sha256 of everything the command produced]."""
    if output is not None and output != "-":
        Path(output).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    written = None
    if output is not None and output != "-" and Path(output).exists():
        written = Path(output).read_text(encoding="utf-8")
    record = {
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "file": written,
        "warnings": [[w.category.__name__, str(w.message)] for w in caught],
    }
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    return [code, digest]


def _grid() -> dict:
    cases = {}
    for n in range(3, 10):
        for family, kind in FAMILIES.items():
            for seed in range(4):
                sample = ["sample", *kind, "--n", str(n), "--seed", str(seed), "-o", "t.json"]
                commands = {
                    "sample": (sample, "t.json"),
                    "coords": (["coords", "t.json", "-o", "c.json"], "c.json"),
                    "relations": (["relations", "c.json"], None),
                    "reconstruct +": (["reconstruct", "c.json", "-o", "r.json"], "r.json"),
                    "reconstruct -": (["reconstruct", "c.json", "--branch", "-", "-o", "-"], "-"),
                    "classify": (["classify", "c.json"], None),
                }
                for name, (argv, output) in commands.items():
                    cases[f"n={n} {family} seed={seed} {name}"] = _run(argv, output)
    return cases


def _write(name: str, obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj)
    Path(name).write_text(text, encoding="utf-8")
    return name


def _errors() -> dict:
    fixture = _write("fixture.json", coords_to_obj(phi(close_tuple(FIXTURE_MATS))))
    mismatch = rep_to_obj(identity_rep(3))
    mismatch["a"][0] = [1.0, 0.0]  # declared trace disagrees with the matrix
    not_unimodular = rep_to_obj(identity_rep(3))
    not_unimodular["matrices"][0][0][0] = [5.0, 0.0]  # det != 1
    commands = {
        "bad chart": ["reconstruct", fixture, "--chart", "nope", "-o", "o.json"],
        "chart not in index set": ["reconstruct", fixture, "--chart", "1,1,base", "-o", "o.json"],
        "bad json": ["coords", _write("bad.json", "{not json"), "-o", "o.json"],
        "DataError": ["coords", _write("mismatch.json", mismatch), "-o", "o.json"],
        "TraceOutOfRange": ["sample", "--kind", "su2", "--n", "3", "--traces", "0,2.5,0",
                            "-o", "o.json"],
        "NotUnimodular": ["coords", _write("det.json", not_unimodular), "-o", "o.json"],
        "no chart": ["reconstruct", _write("flat.json", FLAT_COORDS), "-o", "o.json"],
        "boundary": ["classify", _write("boundary.json", BOUNDARY_COORDS)],
    }
    return {f"error: {name}": _run(argv, "o.json") for name, argv in commands.items()}


def corpus() -> dict:
    """Run the whole corpus in the current working directory."""
    return {**_grid(), **_errors()}


def _command(key: str) -> str:
    """The command of a cell key: the text after the seed of a grid cell
    (``sample``, ``reconstruct +``, ...), or ``error`` for the error cases."""
    return "error" if key.startswith("error: ") else key.split(" ", 3)[3]


def regenerate() -> None:
    """Rewrite the golden file from the current code, printing every cell whose
    entry changed, with its old and new exit code, and a count per command."""
    os.environ.pop("MONODROMY_TOL", None)
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            obj = corpus()
        finally:
            os.chdir(cwd)
    moved = [key for key in [*obj, *(key for key in old if key not in obj)]
             if old.get(key) != obj.get(key)]
    for key in moved:
        print(f"{key}: exit {old.get(key, [None])[0]} -> {obj.get(key, [None])[0]}")
    for command, count in Counter(map(_command, moved)).items():
        print(f"{command}: {count} cells changed")
    print(f"{len(moved)} of {len(obj)} cells changed")
    lines = [f"{json.dumps(key)}: {json.dumps(rec)}" for key, rec in obj.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def test_cli_golden_corpus(tmp_path, monkeypatch):
    monkeypatch.delenv("MONODROMY_TOL", raising=False)
    monkeypatch.chdir(tmp_path)
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = corpus()
    moved = [
        f"{key}: {want.get(key)} -> {got.get(key)}"
        for key in sorted(want.keys() | got.keys())
        if want.get(key) != got.get(key)
    ]
    assert not moved, "\n".join(moved)
