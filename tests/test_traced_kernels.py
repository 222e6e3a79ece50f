"""The loops ``sl2._straight`` runs traced: which n get a kernel, and that a kernel,
traced from its first call's arguments, does not depend on which call that was."""

from importlib import import_module
from types import MappingProxyType

import pytest

from monodromy import Mat2, Representation, classify_charts, membership, phi, reconstruct
from monodromy import reconstruction, relations, sl2
from monodromy.charts import require_admissible
from monodromy.coords import _pair

from conftest import generic, su2

LOOPS = ["coords._traces", "relations._comprehension", "reconstruction._rebuild"]


def _loop(name: str):
    module, attr = name.split(".")
    return getattr(import_module(f"monodromy.{module}"), attr)


def _pipeline(n: int, seed: int) -> None:
    """phi, membership and a rebuild on the best chart: one call of each traced loop."""
    x = phi(generic(n, seed))
    membership(x)
    reconstruct(x, classify_charts(x).best)


@pytest.mark.parametrize("name", LOOPS)
def test_kernels_only_for_n_3_to_straight_n(name):
    kernels = _loop(name).kernels
    for n in range(3, 10):
        _pipeline(n, 700)
    assert {key[0] for key in kernels} == set(range(3, sl2._STRAIGHT_N + 1))
    built = dict(kernels)
    for n in range(6, 10):
        _pipeline(n, 701)
    assert kernels == built


def _real(m: Mat2) -> Mat2:
    return Mat2(*(v.real for v in m))


def _rebuild_args(x, chart, real: bool) -> tuple:
    """``_rebuild``'s arguments on x as ``reconstruct`` passes them (complex values and
    a read-only pair map), or as floats in dicts."""
    xkj, ps = _pair(x.pairs, chart.k, chart.j), require_admissible(x, chart).psi
    a, pairs, triples = x.local.a, x.pairs, MappingProxyType(x._triples)
    if real:
        xkj, ps, a = xkj.real, ps.real, tuple(v.real for v in a)
        pairs, triples = ({k: v.real for k, v in m.items()} for m in (pairs, triples))
    return (x.n, chart, a, pairs, triples, xkj, ps, *reconstruction.lambdas(xkj))


def _calls(name: str, n: int) -> tuple[tuple, tuple]:
    """A generic call (complex values, read-only maps) and a real one (floats, dicts)."""
    rep, real = generic(n, 0), su2(n, 0)
    if name == "coords._traces":
        real = Representation(tuple(map(_real, real.mats)), _real(real.last))
        return (n, *rep), (n, *real)
    x, y = phi(rep), phi(real)
    if name == "relations._comprehension":
        return ((n, (0.0,) + x.local.a, x.pairs, MappingProxyType(x._triples)),
                (n, *relations._real_view(y)))
    chart = next(c for c in classify_charts(x).admissible() if c in classify_charts(y).admissible())
    return _rebuild_args(x, chart, False), _rebuild_args(y, chart, True)


@pytest.mark.parametrize("n", range(3, sl2._STRAIGHT_N + 1))
@pytest.mark.parametrize("name", LOOPS)
def test_kernel_does_not_depend_on_the_first_caller(name, n, monkeypatch):
    loop, calls = _loop(name), _calls(name, n)
    got = []
    for order in (calls, calls[::-1]):
        loop.kernels.clear()
        got.append([repr(loop(*args)) for args in order])
        assert len(loop.kernels) == 1
    with monkeypatch.context() as m:
        m.setattr(sl2, "_STRAIGHT_N", 2)  # the loop itself
        want = [repr(loop(*args)) for args in calls]
    assert got[0] == got[1][::-1] == want
