from itertools import combinations, product
from math import comb

import pytest

from monodromy import (
    BadIndex,
    LocalData,
    Mat2,
    NotUnimodular,
    Representation,
    close_tuple,
    coordinate_distance,
    phi,
    quad_trace,
    triple_trace,
)
from monodromy import coords, sl2
from monodromy.samplers import SplitMix64, random_unimodular
from monodromy.sl2 import IDENTITY, four_trace_reduction

from conftest import (
    FAMILIES, closure_residual, const_leaves, generic, identity_rep, oword, su2, su11, traced,
)


def test_close_tuple_identity():
    rep = identity_rep(4)
    assert rep.last == IDENTITY
    assert closure_residual(rep) == 0.0


def test_close_tuple_fixture(fixture_rep):
    # oracle: tr((M_3 M_2 M_1)^{-1}) = tr(M_3 M_2 M_1) = -9/2 by hand
    assert abs(fixture_rep.last.trace - (-4.5)) <= 1e-15
    assert closure_residual(fixture_rep) <= 1e-15


def test_close_tuple_telescoping():
    rng = SplitMix64(3)
    a = random_unimodular(rng)
    rep = close_tuple([a, a.adjugate(), IDENTITY])
    assert closure_residual(rep) <= 1e-14
    assert abs(rep.last.trace - 2.0) <= 1e-14


def test_close_tuple_rejects_nonunimodular():
    with pytest.raises(NotUnimodular):
        close_tuple([IDENTITY, Mat2(2.0, 0.0, 0.0, 1.0), IDENTITY])


def test_close_tuple_needs_three():
    with pytest.raises(ValueError):
        close_tuple([IDENTITY, IDENTITY])


def test_local_data_invariants():
    with pytest.raises(ValueError):
        LocalData((1.0, 2.0, 3.0))
    loc = LocalData((0.0, 0.5, 3.0, -4.5))
    assert loc.n == 3
    with pytest.raises(BadIndex):
        loc.trace(0)
    with pytest.raises(BadIndex):
        loc.trace(5)


def test_phi_fixture_values(fixture_coords):
    x = fixture_coords
    assert x.pair(2, 1) == -2.5
    assert x.pair(3, 1) == 0.0
    assert x.pair(3, 2) == 1.5
    assert x.local.trace(4) == -4.5
    assert x.triples == {}


def test_phi_identity():
    x = phi(identity_rep(5))
    assert all(v == 2.0 for _, v in x.items())
    assert len(x.pairs) == comb(5, 2)
    assert len(x.triples) == comb(5, 3)


def test_phi_conjugation_invariance():
    rng = SplitMix64(42)
    for trial in range(500):
        n = 3 + trial % 4
        rep = generic(n, seed=9000 + trial)
        p = random_unimodular(rng)
        assert abs(p.det - 1.0) <= 1e-12
        # tolerance scales with the conjugator's entry magnitude
        scale = 1.0 + p.max_abs() ** 2
        dist = coordinate_distance(phi(rep), phi(rep.conjugated(p)))
        assert dist <= 1e-9 * scale


def test_pair_accessor_symmetric():
    x = phi(generic(4, seed=1))
    for i in range(1, 5):
        for j in range(1, 5):
            if i != j:
                assert x.pair(i, j) is x.pair(j, i)
    with pytest.raises(BadIndex):
        x.pair(1, 1)
    with pytest.raises(BadIndex):
        x.pair(0, 2)
    with pytest.raises(BadIndex):
        x.pair(5, 1)


def test_triple_trace_n3_is_closing_trace(fixture_coords):
    assert triple_trace(fixture_coords, 3, 2, 1) == -4.5
    # cyclic orderings return the identical stored value
    assert triple_trace(fixture_coords, 2, 1, 3) == -4.5
    assert triple_trace(fixture_coords, 1, 3, 2) == -4.5


def test_triple_trace_swap_against_oracle():
    rep = generic(4, seed=12)
    x = phi(rep)
    direct = oword(rep, (3, 1, 2))
    got = triple_trace(x, 3, 1, 2)
    assert abs(got - direct) <= 1e-10 * (1.0 + abs(direct))


def test_triple_trace_all_orderings():
    rep = generic(5, seed=21)
    x = phi(rep)
    for (k, j, i) in [(3, 2, 1), (4, 2, 1), (5, 3, 2), (5, 4, 1)]:
        stored = x.triples[(i, j, k)]
        for word in [(k, j, i), (j, i, k), (i, k, j)]:
            assert triple_trace(x, *word) is stored
        for word in [(k, i, j), (i, j, k), (j, k, i)]:
            got = triple_trace(x, *word)
            direct = oword(rep, word)
            assert abs(got - direct) <= 1e-10 * (1.0 + abs(direct))


def test_triple_trace_bad_indices():
    x = phi(generic(4, seed=2))
    with pytest.raises(BadIndex):
        triple_trace(x, 1, 1, 2)
    with pytest.raises(BadIndex):
        triple_trace(x, 0, 1, 2)
    with pytest.raises(BadIndex):
        triple_trace(x, 5, 1, 2)


def test_quad_trace_identity_tuple():
    x = phi(identity_rep(4))
    assert quad_trace(x, 4, 3, 2, 1) == 2.0


def test_quad_trace_against_direct():
    rep = generic(4, seed=31)
    x = phi(rep)
    direct = oword(rep, (4, 3, 2, 1))
    got = quad_trace(x, 4, 3, 2, 1)
    assert abs(got - direct) <= 1e-9 * (1.0 + abs(direct))


def test_quad_trace_matches_four_trace_reduction():
    rep = generic(5, seed=8)
    x = phi(rep)
    k, j, i, i0 = 5, 3, 2, 1
    a = x.local.trace
    got = quad_trace(x, k, j, i, i0)
    reduced = four_trace_reduction(
        a(k), a(j), a(i), a(i0),
        x.pair(k, j), x.pair(k, i), x.pair(k, i0),
        x.pair(j, i), x.pair(j, i0), x.pair(i, i0),
        triple_trace(x, k, j, i), triple_trace(x, k, j, i0),
        triple_trace(x, k, i, i0), triple_trace(x, j, i, i0),
    )
    assert abs(got - reduced) <= 1e-10 * (1.0 + abs(got))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_quad_trace_every_descending_quadruple(n):
    rep = generic(n, seed=50 + n)
    x = phi(rep)
    for quad in combinations(range(1, n + 1), 4):
        word = tuple(reversed(quad))
        direct = oword(rep, word)
        got = quad_trace(x, *word)
        assert abs(got - direct) <= 1e-9 * (1.0 + abs(direct))


def test_coordinate_counts():
    for n in (3, 4, 5, 6):
        x = phi(generic(n, seed=n))
        assert len(x.pairs) == comb(n, 2)
        assert len(x.triples) == (0 if n == 3 else comb(n, 3))


def test_coordinate_distance_layout_mismatch():
    with pytest.raises(ValueError):
        coordinate_distance(phi(generic(3, seed=1)), phi(generic(4, seed=1)))


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", range(3, 10))
def test_phi_triples_equal_matrix_product_traces(n, family):
    # phi multiplies plain entry tuples; every value must be == the Mat2 product's
    for seed in (500 + n, 0, 1, 2, 3):
        rep = FAMILIES[family](n, seed)
        m = rep.mats
        x = phi(rep)
        assert list(x.pairs) == list(combinations(range(1, n + 1), 2))
        assert list(x.triples) == list(combinations(range(1, n + 1), 3) if n > 3 else [])
        for i, j, k in x.triples:
            assert x.triples[(i, j, k)] == (m[k - 1] @ m[j - 1] @ m[i - 1]).trace
        for i, j in x.pairs:
            assert x.pairs[(i, j)] == (m[j - 1] @ m[i - 1]).trace


def _shears(t, n=4):
    """Alternating upper and lower shears [[1, t], [0, 1]], [[1, 0], [t, 1]]."""
    upper, lower = Mat2(1.0, t, 0.0, 1.0), Mat2(1.0, 0.0, t, 1.0)
    return Representation(tuple(upper if s % 2 else lower for s in range(1, n + 1)), IDENTITY)


@pytest.mark.parametrize("n", [4, 6])  # the trace kernel and the loop
@pytest.mark.parametrize("t, message", [
    (1e160, "non-finite matrix entry inf"),
    (complex(1e160, 1e160), "non-finite matrix entry (nan+infj)"),
])
def test_phi_overflow_names_the_first_bad_entry_as_mat2_does(t, message, n):
    rep = _shears(t, n)
    with pytest.raises(ValueError) as direct:  # the first pair product M_2 M_1 overflows
        rep.mats[1] @ rep.mats[0]
    assert str(direct.value) == message
    with pytest.raises(ValueError) as flat:
        phi(rep)
    assert str(flat.value) == message


def _scalar(s):
    return Mat2(s, 0, 0, s)


@pytest.mark.parametrize("mats, message", [
    ((_scalar(1e308), _scalar(1e-308), _scalar(1e-308)), "non-finite local trace: inf"),
    ((_scalar(1e154), _scalar(1e154), _scalar(1.0)), "non-finite coordinate: inf"),
    ((_scalar(1.0), _scalar(1.0)), "need at least four local traces (n >= 3)"),
    ((_scalar(1e308), _scalar(1e-308), _scalar(1e-308)) + (_scalar(1.0),) * 3,
     "non-finite local trace: inf"),
    ((_scalar(1e154), _scalar(1e154)) + (_scalar(1.0),) * 4, "non-finite coordinate: inf"),
], ids=["local-trace", "coordinate", "size-2", "local-trace-n6", "coordinate-n6"])
def test_phi_checks_products_then_local_data_then_coordinates(mats, message):
    # every pair product is finite here; the first failing check of the checked
    # path names the value: a local trace, x_21 = 2e308, or the size (n = 3 on the
    # trace kernel, n = 6 on the loop)
    with pytest.raises(ValueError) as info:
        phi(Representation(mats, IDENTITY))
    assert str(info.value) == message



def _records(a, pairs, triples):
    """repr of the three maps (keys, their order and values), and the value types."""
    values = [*a, *pairs.values(), *triples.values()]
    return repr((a, pairs, triples)), [type(v) for v in values]


@pytest.mark.parametrize("n", range(3, sl2._STRAIGHT_N + 1))
def test_trace_kernel_identical_to_loop(n, monkeypatch):
    # the kernel returns no product entries; their rounding is pinned by
    # test_phi_triples_equal_matrix_product_traces and the overflow-order tests below
    traced(coords._traces, coords._traces, n, *su2(n, 0))  # the kernel runs every case
    for sampler, bound, seed in product((su2, su11, generic), (4.0, 16.0), range(4)):
        rep = sampler(n, seed, entry_bound=bound)
        got = coords._traces(n, *rep)
        with monkeypatch.context() as m:
            m.setattr(sl2, "_STRAIGHT_N", 2)  # every n through the loop of _traces
            want = coords._traces(n, *rep)
        assert _records(*got) == _records(*want)
    assert list(coords._traces.kernels) == [(n,)]


@pytest.mark.parametrize("n", range(3, sl2._STRAIGHT_N + 1))
def test_trace_kernel_source_holds_no_point_data(n):
    # only names and the plan's indices: the key tuples fold into int constants
    traced(coords._traces, phi, generic(n, 0))  # traced from a point of complex entries
    consts = set(map(type, const_leaves(coords._traces.kernels[(n,)].__code__.co_consts)))
    assert consts <= {int, str, type(None)}
