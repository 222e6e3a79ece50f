"""Golden corpus for the library: the values of every pipeline stage over a
fixed grid of sampled points, pinned to the last bit.

Grid: n = 3..9, 12, 16 x {su2, su11, generic at entry bound 4, generic at
entry bound 16} x seeds 0, 1.  For each point the cell holds a sha256 over
the ``repr``s of the ``phi`` point, ``membership`` (n <= 12: n = 16 has
186201 relations), the chart table's best chart and its |p|, the
``reconstruct`` diagnostics on that chart for both branches (or the error
type), and ``classify`` (or the error type and message).  A few of those
values are kept in clear, so that a moved cell can be read.

``tests/golden/cli.json`` pins what the CLI prints, 4-12 significant digits
up to n = 9.  This corpus pins the values themselves, up to n = 16, so a
change meant to leave every result ``==`` to its parent is checked to do so
on every Python the suite runs on.  It imports no pytest, so an interpreter
without pytest can check it too:

    PYTHONPATH=src:tests python -c "import test_golden_lib as g; print(g.moved_cells())"

After an intended change of value, regenerate from the repository root with

    PYTHONPATH=src:tests python -c "import test_golden_lib; test_golden_lib.regenerate()"

which prints every cell that changed, with its old and new clear values.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from monodromy import (
    MINUS,
    PLUS,
    MonodromyError,
    SamplerConfig,
    classify,
    classify_charts,
    membership,
    phi,
    reconstruct,
    sample_generic,
    sample_su2,
    sample_su11,
)

GOLDEN = Path(__file__).parent / "golden" / "lib.json"

FAMILIES = {
    "su2": (sample_su2, 4.0),
    "su11": (sample_su11, 4.0),
    "generic4": (sample_generic, 4.0),
    "generic16": (sample_generic, 16.0),
}
SIZES = (3, 4, 5, 6, 7, 8, 9, 12, 16)
MEMBERSHIP_MAX_N = 12


def _attempt(f, *args):
    """(value, repr) of f(*args), or (None, the error's type and message)."""
    try:
        value = f(*args)
    except MonodromyError as exc:
        return None, f"{type(exc).__name__}: {exc}"
    return value, repr(value)


def _cell(sampler, n: int, seed: int, entry_bound: float) -> dict:
    x = phi(sampler(SamplerConfig(seed=seed, n=n, entry_bound=entry_bound)))
    parts = [repr(x)]
    if n <= MEMBERSHIP_MAX_N:
        parts.append(repr(membership(x)))
    report = classify_charts(x)
    best = report.best
    p = None if best is None else max(abs(e.value) for e in report.entries if e.admissible)
    parts.append(repr((best, p)))
    worst = []
    for branch in (PLUS, MINUS):
        if best is None:
            parts.append("no chart")
            continue
        result, text = _attempt(reconstruct, x, best, branch)
        parts.append(text if result is None else repr(result.diagnostics))
        worst.append(text.split(":")[0] if result is None
                     else f"{result.diagnostics.worst():.3e}")
    sig, text = _attempt(classify, x)
    parts.append(text)
    return {
        "sha256": hashlib.sha256("\n".join(parts).encode()).hexdigest(),
        "best": None if best is None else best.label(),
        "|p|": None if p is None else f"{p:.6e}",
        "worst +/-": worst,
        "classify": text.split(":")[0] if sig is None else sig.kind.value,
    }


def corpus() -> dict:
    return {
        f"n={n} {family} seed={seed}": _cell(sampler, n, seed, bound)
        for n in SIZES
        for family, (sampler, bound) in FAMILIES.items()
        for seed in (0, 1)
    }


def moved_cells(got: dict | None = None) -> list[str]:
    """Each cell whose entry differs from the golden file, with both entries."""
    want = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    got = corpus() if got is None else got
    return [f"{key}: {want.get(key)} -> {got.get(key)}"
            for key in [*got, *(key for key in want if key not in got)]
            if want.get(key) != got.get(key)]


def regenerate() -> None:
    """Rewrite the golden file from the current code, printing every cell that changed."""
    obj = corpus()
    moved = moved_cells(obj)
    for line in moved:
        print(line)
    print(f"{len(moved)} of {len(obj)} cells changed")
    lines = [f"{json.dumps(key)}: {json.dumps(rec)}" for key, rec in obj.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def test_library_golden_corpus():
    moved = moved_cells()
    assert not moved, "\n".join(moved)
