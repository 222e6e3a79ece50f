"""Direct reads of the stored coordinates against the canonical ``items()`` walk.

``TraceCoordinates.max_abs``, ``coordinate_distance`` and ``reality_gate``
read ``local.a``, ``pairs`` and ``triples`` directly; the ``conftest``
oracles walk the sorted ``items()``.  A maximum and a conjunction do not
depend on order, so the two must agree with ``==``.  The ``ValueError`` for
points of different n is checked in ``test_coords.py``.
"""

from __future__ import annotations

import math

import pytest

from conftest import (
    FAMILIES,
    oracle_coordinate_distance,
    oracle_max_abs,
    oracle_reality_gate,
)
from monodromy import DEFAULT_TOL, LocalData, Tolerance, TraceCoordinates, phi
from monodromy import coordinate_distance
from monodromy.unitary import reality_gate

TOLERANCES = (DEFAULT_TOL, Tolerance(1e-3))


def _replaced(x, key, value):
    """x with the stored coordinate at ``key`` (a pair or a triple) set to value."""
    pairs, triples = dict(x.pairs), dict(x.triples)
    (pairs if len(key) == 2 else triples)[key] = value
    return TraceCoordinates(x.local, pairs, triples)


def _imag_local(x, imag):
    """x with a_1 given the imaginary part ``imag``."""
    a = list(x.local.a)
    a[0] = complex(complex(a[0]).real, imag)
    return TraceCoordinates(LocalData(tuple(a)), x.pairs, x.triples)


def _last_key(x):
    """The last stored key: a triple for n >= 4, the pair (2, 3) for n = 3."""
    return max(x.triples) if x.triples else max(x.pairs)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", range(3, 10))
def test_direct_reads_match_canonical_walk(n, family):
    x = phi(FAMILIES[family](n, 400 + n))
    y = phi(FAMILIES[family](n, 500 + n))
    key = _last_key(x)
    value = {**x.pairs, **x.triples}[key]
    # one coordinate moved far enough to dominate both maxima
    bumped = _replaced(x, key, value + 10.0 * (1.0 + x.max_abs()))
    for p in (x, y, bumped):
        assert p.max_abs() == oracle_max_abs(p)
    assert bumped.max_abs() > x.max_abs()
    for pa, pb in ((x, x), (x, y), (y, x), (x, bumped), (bumped, x)):
        assert coordinate_distance(pa, pb) == oracle_coordinate_distance(pa, pb)
    assert coordinate_distance(x, x) == 0.0

    for tol in TOLERANCES:
        base = reality_gate(x, tol)
        assert base == oracle_reality_gate(x, tol)
        if family in ("su2", "su11"):
            assert base
        above = math.nextafter(tol.abs, math.inf)
        below = math.nextafter(tol.abs, 0.0)
        for imag, passes in ((above, False), (below, base), (tol.abs, base)):
            for p in (_replaced(x, key, complex(complex(value).real, imag)), _imag_local(x, imag)):
                assert reality_gate(p, tol) == oracle_reality_gate(p, tol) == passes

