"""The loops ``sl2._straight`` runs traced: which n get a kernel, that a kernel is built
on the second call per static values, so that a one-point CLI process builds none, and
that a kernel, traced from that call's arguments, does not depend on which call it was."""

import json
from importlib import import_module
from types import MappingProxyType

import pytest

from monodromy import Mat2, Representation, classify_charts, membership, phi, reconstruct
from monodromy import cli, reconstruction, relations, sl2
from monodromy.charts import require_admissible
from monodromy.coords import _pair

from conftest import generic, su2, traced

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
    loop = _loop(name)
    traced(loop, lambda: [_pipeline(n, 700) for n in range(3, 10)])
    assert {key[0] for key in loop.kernels} == set(range(3, sl2._STRAIGHT_N + 1))
    built = dict(loop.kernels)
    for n in range(6, 10):
        _pipeline(n, 701)
        _pipeline(n, 701)
    assert loop.kernels == built


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
def test_second_call_builds_the_kernel(name, n, monkeypatch):
    loop, (args, _) = _loop(name), _calls(name, n)
    key = args[:2] if name == "reconstruction._rebuild" else args[:1]  # n, and the chart
    loop.kernels.clear()
    loop.seen.clear()
    first = loop(*args)
    assert loop.kernels == {} and loop.seen == {key}
    second = loop(*args)
    assert list(loop.kernels) == [key]
    with monkeypatch.context() as m:
        m.setattr(sl2, "_STRAIGHT_N", 2)  # the loop itself
        want = loop(*args)
    assert first == second == want


def _cli_inputs(tmp_path, n: int) -> list[list[str]]:
    """The five commands on a tuple and a coordinate file at n, written beforehand."""
    rep, point = tmp_path / "rep.json", tmp_path / "coords.json"
    rep.write_text(json.dumps(cli.rep_to_obj(su2(n, 0))))
    point.write_text(json.dumps(cli.coords_to_obj(phi(su2(n, 0)))))
    return [["sample", "--n", str(n), "-o", str(tmp_path / "sampled.json")],
            ["coords", str(rep), "-o", str(tmp_path / "out.json")], ["relations", str(point)],
            ["reconstruct", str(point), "-o", str(tmp_path / "rebuilt.json")],
            ["classify", str(point)]]


@pytest.mark.parametrize("n", [4, 5])
def test_one_point_cli_process_builds_no_kernel(n, tmp_path, capsys):
    # a CLI process evaluates one point: each traced loop it calls runs once per key
    loops, ran = list(map(_loop, LOOPS)), set()
    for argv in _cli_inputs(tmp_path, n):
        for loop in loops:
            loop.kernels.clear()
            loop.seen.clear()
        assert cli.main(argv) == cli.EXIT_OK
        assert [loop.kernels for loop in loops] == [{}, {}, {}], argv[0]
        ran.update(name for name, loop in zip(LOOPS, loops) if loop.seen)
    assert ran == set(LOOPS)  # each loop ran at n, on its first call per key


@pytest.mark.parametrize("n", range(3, sl2._STRAIGHT_N + 1))
@pytest.mark.parametrize("name", LOOPS)
def test_kernel_does_not_depend_on_the_first_caller(name, n, monkeypatch):
    loop, calls = _loop(name), _calls(name, n)
    got = []
    for first, then in (calls, calls[::-1]):  # the kernel traced from first, run on both
        got.append([repr(traced(loop, loop, *first)), repr(loop(*then))])
        assert len(loop.kernels) == 1
    with monkeypatch.context() as m:
        m.setattr(sl2, "_STRAIGHT_N", 2)  # the loop itself
        want = [repr(loop(*args)) for args in calls]
    assert got[0] == got[1][::-1] == want
