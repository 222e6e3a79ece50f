"""The value-type contract: immutable named tuples whose constructors check
their fields, with ``_make`` and ``_replace`` going through those checks,
and a CLI import that loads neither ``dataclasses`` nor ``typing``."""

import copy
import os
import pickle
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from monodromy import (
    BadChart,
    BranchChoice,
    ChartEval,
    ChartId,
    ChartReport,
    Diagnostics,
    HermitianForm,
    LocalData,
    Mat2,
    ReconstructionResult,
    RelationResiduals,
    Representation,
    SamplerConfig,
    Signature,
    SignatureClass,
    Tolerance,
    TraceCoordinates,
    classify_charts,
    close_tuple,
    membership,
    phi,
    reconstruct,
)

from conftest import FIXTURE_MATS, charts_for, su2

NAN = float("nan")


def _rep():
    return close_tuple(FIXTURE_MATS)


def _coords():
    return phi(_rep())


# One valid instance of every value type.
INSTANCES = {
    "Tolerance": lambda: Tolerance(1e-6, 1e-8),
    "Mat2": lambda: Mat2(1.0, 2.0, 3.0, 7.0),
    "LocalData": lambda: LocalData((0.0, 0.0, 3.0, -4.5)),
    "Representation": _rep,
    "TraceCoordinates": _coords,
    "ChartId": lambda: ChartId(1, 2, 3),
    "ChartEval": lambda: classify_charts(_coords()).entries[0],
    "ChartReport": lambda: classify_charts(_coords()),
    "BranchChoice": lambda: BranchChoice(-1),
    "Diagnostics": lambda: reconstruct(_coords(), ChartId(1, 2)).diagnostics,
    "ReconstructionResult": lambda: reconstruct(_coords(), ChartId(1, 2)),
    "RelationResiduals": lambda: membership(_coords()),
    "SamplerConfig": lambda: SamplerConfig(3, 4, (0.5, 0.5, 0.5, 0.5)),
    "HermitianForm": lambda: HermitianForm(1.0, -2.0, 0.5j),
    "SignatureClass": lambda: SignatureClass(Signature.DEFINITE, "why", ChartId(1, 2), -1.0, -2.0),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_fields_are_read_only(name):
    obj = INSTANCES[name]()
    assert type(obj).__name__ == name
    fields = getattr(obj, "_fields", ("local", "pairs", "triples"))
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError):
        obj.extra = 1  # no instance dict


def test_trace_coordinate_maps_are_read_only():
    # a write through x.pairs would leave the residuals memoized on x stale
    x = phi(su2(5, seed=1))
    with pytest.raises(TypeError):
        x.pairs[(1, 2)] += 0.5
    with pytest.raises(TypeError):
        x.triples[(1, 2, 3)] = 0.0


def _keyed(n, pair_value=0.0, triple_value=0.0):
    """Every pair and triple key of size n, each holding the given value."""
    pairs = {key: pair_value for key in combinations(range(1, n + 1), 2)}
    return pairs, {key: triple_value for key in combinations(range(1, n + 1), 3)}


def _last_key_moved(keys: dict) -> dict:
    """``keys`` with its last key replaced by its reverse."""
    *rest, last = keys
    return {**dict.fromkeys(rest, 0.0), last[::-1]: 0.0}


# (type, args, exception, message) for every check a constructor makes.
INVALID = [
    (Tolerance, (-1e-9, 1e-9), ValueError, "tolerances must be non-negative"),
    (Tolerance, (1e-9, -1e-9), ValueError, "tolerances must be non-negative"),
    (Tolerance, (0.0, 0.0), ValueError, "abs and rel tolerance cannot both be zero"),
    (Mat2, (1.0, NAN, 0.0, 1.0), ValueError, "non-finite matrix entry nan"),
    (Mat2, (1.0, 0.0, complex(0.0, float("inf")), 1.0), ValueError,
     "non-finite matrix entry infj"),
    (LocalData, ((1.0, 2.0, 3.0),), ValueError, "need at least four local traces (n >= 3)"),
    (LocalData, ((1.0, 2.0, 3.0, NAN),), ValueError, "non-finite local trace: nan"),
    (TraceCoordinates, (LocalData((0.0,) * 5), {(1, 2): 0.0}, {}), ValueError,
     "pair keys must be the 6 ascending pairs in 1..4"),
    (TraceCoordinates, (LocalData((0.0,) * 4), {(1, 2): 0.0, (1, 3): 0.0, (2, 3): 0.0},
                        {(1, 2, 3): 0.0}), ValueError, "triple keys must be empty for n = 3"),
    (TraceCoordinates, (LocalData((0.0,) * 4), {(1, 2): 0.0, (1, 3): NAN, (2, 3): 0.0}),
     ValueError, "non-finite coordinate: nan"),
    (ChartId, (2, 2), BadChart, "bad chart pair (2, 2)"),
    (ChartId, (0, 2), BadChart, "bad chart pair (0, 2)"),
    (ChartId, (1, 2, 2), BadChart, "bad anchor index 2 for pair (1, 2)"),
    (ChartId, (1, 2, -1), BadChart, "bad anchor index -1 for pair (1, 2)"),
    (BranchChoice, (0,), ValueError, "branch sign must be +1 or -1"),
    (SamplerConfig, (0, 2), ValueError, "need n >= 3"),
    (SamplerConfig, (0, 4, None, 0.0), ValueError, "entry_bound must be positive"),
    (SamplerConfig, (0, 4, [1.0, 1.0]), ValueError, "need 4 target traces, got 2"),
    (HermitianForm, (1.0, 0.0), ValueError, "form is degenerate"),
    (HermitianForm, (1.0, 1.0, 1.0), ValueError, "form is degenerate"),
    # with a bad pair and a bad triple, the message names the pair
    (TraceCoordinates, (LocalData((0.0,) * 5), *_keyed(4, float("inf"), NAN)), ValueError,
     "non-finite coordinate: inf"),
    (TraceCoordinates, (LocalData((0.0,) * 5), {**_keyed(4)[0], (1, 2): complex(0.0, NAN)},
                        _keyed(4)[1]), ValueError, "non-finite coordinate: nanj"),
    (TraceCoordinates, (LocalData((0.0,) * 5), _keyed(4)[0],
                        {**_keyed(4)[1], (2, 3, 4): -float("inf")}), ValueError,
     "non-finite coordinate: -inf"),
    (TraceCoordinates, (LocalData((0.0,) * 5), _keyed(4)[0], {}), ValueError,
     "triple keys must be the 4 ascending triples in 1..4"),
    (TraceCoordinates, (LocalData((0.0,) * 5), _keyed(4)[0], _last_key_moved(_keyed(4)[1])),
     ValueError, "triple keys must be the 4 ascending triples in 1..4"),
    (TraceCoordinates, (LocalData((0.0,) * 5), _last_key_moved(_keyed(4)[0]), _keyed(4)[1]),
     ValueError, "pair keys must be the 6 ascending pairs in 1..4"),
    (TraceCoordinates, (LocalData((0.0,) * 5), {**_keyed(4)[0], (1, 5): 0.0}, _keyed(4)[1]),
     ValueError, "pair keys must be the 6 ascending pairs in 1..4"),
    # NaN compares false with everything, so a NaN tolerance would fail every gate
    (Tolerance, (NAN, 1e-9), ValueError, "tolerances must be non-negative"),
    (Tolerance, (1e-9, NAN), ValueError, "tolerances must be non-negative"),
    (SamplerConfig, (0, 3, [NAN, 0.0, 1j]), ValueError,
     "target traces must be finite, got (nan, 0.0, 1j)"),
    (SamplerConfig, (0, 4, None, NAN), ValueError, "entry_bound must be positive"),
    # below 2 the sampler's rejection loop (nearly) never accepts a draw
    (SamplerConfig, (0, 3, None, 1.0), ValueError,
     "entry_bound must be finite and at least 2, got 1.0"),
    (SamplerConfig, (0, 3, None, 1e-300), ValueError,
     "entry_bound must be finite and at least 2, got 1e-300"),
    (SamplerConfig, (0, 3, None, float("inf")), ValueError,
     "entry_bound must be finite and at least 2, got inf"),
]


@pytest.mark.parametrize(
    "cls, args, exc, message", INVALID, ids=[f"{c[0].__name__}-{k}" for k, c in enumerate(INVALID)]
)
def test_invalid_construction(cls, args, exc, message):
    with pytest.raises(exc) as info:
        cls(*args)
    assert str(info.value) == message
    if hasattr(cls, "_make"):
        # _make, and so _replace, builds through the same checks.
        with pytest.raises(exc) as info:
            cls._make(args)
        assert str(info.value) == message


# One invalid replacement per type whose constructor checks its fields.
BAD_REPLACE = {
    "Tolerance": ({"abs": -1.0}, ValueError, "tolerances must be non-negative"),
    "Mat2": ({"m22": NAN}, ValueError, "non-finite matrix entry nan"),
    "LocalData": ({"a": (1.0,)}, ValueError, "need at least four local traces (n >= 3)"),
    "ChartId": ({"i0": 1}, BadChart, "bad anchor index 1 for pair (1, 2)"),
    "BranchChoice": ({"sign": 2}, ValueError, "branch sign must be +1 or -1"),
    "SamplerConfig": ({"n": 5}, ValueError, "need 5 target traces, got 4"),
    "HermitianForm": ({"h22": 0.0, "h12": 0.0}, ValueError, "form is degenerate"),
}


@pytest.mark.parametrize("name", sorted(BAD_REPLACE))
def test_replace_runs_the_checks(name):
    obj = INSTANCES[name]()
    changes, exc, message = BAD_REPLACE[name]
    with pytest.raises(exc) as info:
        obj._replace(**changes)
    assert str(info.value) == message
    assert obj._replace() == obj


def test_constructors_normalise_sequences():
    assert LocalData([1.0, 2.0, 3.0, 4.0]).a == (1.0, 2.0, 3.0, 4.0)
    assert SamplerConfig(0, 3, [1.0, 1.0, 1.0]).traces == (1.0, 1.0, 1.0)
    rep = Representation(list(FIXTURE_MATS), FIXTURE_MATS[0])
    assert rep.mats == FIXTURE_MATS
    assert rep._replace(mats=list(FIXTURE_MATS)) == rep
    assert Tolerance(abs=1e-3) == Tolerance(1e-3, 1e-9)
    assert SignatureClass(Signature.NOT_UNITARY, "no").chart is None


def test_chart_id_repr_order_and_hash():
    assert repr(ChartId(1, 2)) == "ChartId(j=1, k=2, i0=0)"
    assert repr(ChartId(9, 1, 4)) == "ChartId(j=9, k=1, i0=4)"
    assert ChartId(1, 3) < ChartId(1, 3, 2) < ChartId(2, 1) < ChartId(2, 3)
    for n in range(3, 10):
        charts = charts_for(n)
        assert sorted(charts) == charts
        assert sorted(reversed(charts)) == charts
        for c in charts:
            # the hash a frozen dataclass gives: the hash of its field tuple
            assert hash(c) == hash((c.j, c.k, c.i0))
    assert len({ChartId(1, 2), ChartId(1, 2, 0)}) == 1


def test_value_types_are_tuples():
    m = Mat2(1.0, 2.0, 3.0, 7.0)
    assert pickle.loads(pickle.dumps(m)) == copy.deepcopy(m) == m
    assert tuple(m) == m.entries() == (1.0, 2.0, 3.0, 7.0)
    assert m == (1.0, 2.0, 3.0, 7.0)
    assert m + m == (1.0, 2.0, 3.0, 7.0) * 2
    j, k, i0 = ChartId(1, 2, 3)
    assert (j, k, i0) == (1, 2, 3)


def test_trace_coordinates_equality_repr_and_hash():
    x, y = _coords(), _coords()
    assert x == y and x is not y
    y._cache["probe"] = 1.0  # the memo takes no part in equality or repr
    assert x == y
    assert repr(x) == repr(y)
    assert repr(x) == (f"TraceCoordinates(local={x.local!r}, pairs={x.pairs!r}, "
                       f"triples={x.triples!r})")
    assert x != phi(close_tuple(FIXTURE_MATS[::-1]))
    assert (x == (x.local, x.pairs, x.triples)) is False
    with pytest.raises(TypeError):
        hash(x)
    with pytest.raises(AttributeError):
        del x.pairs
    assert TraceCoordinates(x.local, x.pairs) == x
    for other in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert other == x and other._cache == {}


def test_cli_import_loads_neither_dataclasses_nor_typing():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, monodromy.cli; "
            "print(sorted({'dataclasses', 'typing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
