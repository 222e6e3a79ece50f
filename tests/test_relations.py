import math
import random
from itertools import combinations

import pytest

from monodromy import (
    BadIndex,
    LocalData,
    Mat2,
    NotApplicable,
    TraceCoordinates,
    close_tuple,
    membership,
    phi,
    type1,
    type1_pairs,
    type2,
    type2_terms,
    type3,
)
from monodromy import relations
from conftest import (
    FAMILIES,
    generic,
    identity_rep,
    oracle_g,
    oracle_s3,
    oracle_type1,
    oracle_type2,
    oracle_z,
    oword,
    psi,
    relation_count,
)


def s3_table(x):
    """{ascending triple: s3} from the kernel's ``_tables``."""
    return dict(zip(combinations(range(1, x.n + 1), 3), relations._tables(x)[1]))


def word_trace(x, word):
    """g(word), the trace polynomial of a descending word that the ``test_g_poly_*``
    tests check: the kernel's ``_word_trace``, read from x's stored data."""
    return relations._word_trace(word, (0.0,) + x.local.a, x.pairs, x.triples)


def synthetic_coords(n, a, pair_value, triple_value=None):
    """Coordinate point with constant pair/triple values (not on the variety)."""
    pairs = {key: pair_value for key in combinations(range(1, n + 1), 2)}
    triples = {}
    if n >= 4:
        triples = {key: triple_value for key in combinations(range(1, n + 1), 3)}
    return TraceCoordinates(LocalData(a), pairs, triples)


@pytest.mark.parametrize(
    "args,expect",
    [((2.0, 2.0, 2.0), 0.0), ((0.0, 0.0, 0.0), -4.0), ((-2.5, 0.0, 0.0), 2.25)],
)
def test_psi_values(args, expect):
    assert psi(*args) == expect


def test_s3_identity_values():
    # every a = 2 and every coordinate = 2: 4 + 4 + 4 - 8 - 4 = 0
    x = phi(identity_rep(4))
    assert s3_table(x)[(1, 2, 3)] == 0.0


def test_s3_vanishing_local_traces():
    x = synthetic_coords(4, (0.0, 0.0, 0.0, 0.0, 1.0), pair_value=0.7, triple_value=1.3)
    s = s3_table(x)
    assert s[(1, 2, 3)] == -2.0 * 1.3
    assert s[(2, 3, 4)] == -2.0 * 1.3


def test_s3_against_oracle():
    rep = generic(4, seed=3)
    x = phi(rep)
    a = x.local.trace
    s = s3_table(x)
    for i1, i2, i3 in combinations(range(1, 5), 3):
        expect = (
            a(i1) * oword(rep, (i3, i2)) + a(i2) * oword(rep, (i3, i1))
            + a(i3) * oword(rep, (i2, i1)) - a(i3) * a(i2) * a(i1)
            - 2.0 * oword(rep, (i3, i2, i1))
        )
        assert abs(s[(i1, i2, i3)] - expect) <= 1e-12 * (1.0 + abs(expect))


def test_s3_requires_ascending():
    # a triple reaches s3 only through type1 and type2, whose index checks refuse it
    x = phi(generic(4, seed=3))
    with pytest.raises(BadIndex):
        type1(x, (2, 1, 3), (1, 2, 3))
    with pytest.raises(BadIndex):
        type1(x, (1, 2, 5), (1, 2, 3))
    with pytest.raises(BadIndex):
        type2(x, 1, (2, 1, 3, 4))


def test_z_entry_values(fixture_coords):
    z = relations._tables(fixture_coords)[0]
    assert z[1][1] == -2.0  # a_1 = 0
    assert z[3][3] == 0.5 * 9 - 2
    assert z[1][2] == -2.5  # x_21 - 0
    assert z[2][1] == -2.5


def test_z_entry_diag_identity():
    x = phi(identity_rep(4))
    assert relations._tables(x)[0][2][2] == 0.0


def test_type1_n3_cubic_on_fixture(fixture_coords):
    # hand check: s3(1,2,3) = 3/2, det Z = -9/8, so (3/2)^2 + 2(-9/8) = 0
    value = type1(fixture_coords, (1, 2, 3), (1, 2, 3))
    assert abs(value) <= 1e-12


def test_type1_vanishes_on_image():
    for n in (3, 4, 5):
        rep = generic(n, seed=60 + n)
        x = phi(rep)
        scale = (1.0 + x.max_abs()) ** 3
        for ta, tb in type1_pairs(n):
            assert abs(type1(x, ta, tb)) <= 1e-8 * scale


def test_type1_detects_perturbation(fixture_coords):
    x = fixture_coords
    pairs = dict(x.pairs)
    pairs[(1, 2)] += 1.0
    moved = TraceCoordinates(x.local, pairs, x.triples)
    assert abs(type1(moved, (1, 2, 3), (1, 2, 3))) > 1e-3


def test_type1_swap_symmetric():
    x = phi(generic(5, seed=14))
    for ta, tb in [((1, 2, 3), (2, 3, 4)), ((1, 2, 5), (1, 3, 4))]:
        assert type1(x, ta, tb) == type1(x, tb, ta)


def test_type2_vanishes_on_image():
    rep = generic(4, seed=71)
    x = phi(rep)
    scale = (1.0 + x.max_abs()) ** 3
    for i, quad in type2_terms(4):
        assert abs(type2(x, i, quad)) <= 1e-8 * scale


def test_type2_identity_coordinates():
    x = phi(identity_rep(4))
    for i, quad in type2_terms(4):
        assert type2(x, i, quad) == 0.0


def test_type2_detects_perturbation():
    x = phi(generic(4, seed=71))
    pairs = dict(x.pairs)
    pairs[(1, 2)] += 1.0
    moved = TraceCoordinates(x.local, pairs, x.triples)
    assert max(abs(type2(moved, i, q)) for i, q in type2_terms(4)) > 1e-3


def test_type2_not_applicable_n3(fixture_coords):
    with pytest.raises(NotApplicable):
        type2(fixture_coords, 1, (1, 2, 3))


def test_g_poly_base_cases():
    rep = generic(4, seed=5)
    x = phi(rep)
    assert word_trace(x, (1,)) == x.local.trace(1)
    assert word_trace(x, (3, 1)) == x.pair(3, 1)
    assert word_trace(x, (4, 3, 2)) == x.triples[(2, 3, 4)]


def test_g_poly_full_word_n4():
    rep = generic(4, seed=9)
    x = phi(rep)
    direct = oword(rep, (4, 3, 2, 1))
    assert abs(word_trace(x, (4, 3, 2, 1)) - direct) <= 1e-9 * (1.0 + abs(direct))


def test_g_poly_full_word_n6():
    rep = generic(6, seed=10)
    x = phi(rep)
    direct = oword(rep, (6, 5, 4, 3, 2, 1))
    assert abs(word_trace(x, (6, 5, 4, 3, 2, 1)) - direct) <= 1e-8 * (1.0 + abs(direct))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_g_poly_every_descending_subword(n):
    rep = generic(n, seed=100 + n)
    x = phi(rep)
    for size in range(1, n + 1):
        for combo in combinations(range(1, n + 1), size):
            word = tuple(reversed(combo))
            direct = oword(rep, word)
            assert abs(word_trace(x, word) - direct) <= 1e-8 * (1.0 + abs(direct))


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", range(4, 10))
def test_g_poly_bit_identical_to_accessor_recursion(n, family):
    x = phi(FAMILIES[family](n, 500 + n))
    memo = {}
    for size in range(1, n + 1):
        for word in combinations(range(n, 0, -1), size):
            assert word_trace(x, word) == oracle_g(x, word, memo)
    assert type3(x) == oracle_g(x, tuple(range(n, 0, -1)), memo) - x.local.trace(n + 1)


def test_type3_vanishes_on_image():
    for n in (4, 5, 6):
        rep = generic(n, seed=80 + n)
        x = phi(rep)
        scale = (1.0 + x.max_abs()) ** 3
        assert abs(type3(x)) <= 1e-8 * scale


def test_type3_identity_telescopes():
    x = phi(identity_rep(4))
    assert type3(x) == 0.0


def test_type3_linear_in_closing_trace():
    rep = generic(4, seed=33)
    x = phi(rep)
    base = type3(x)
    shifted_local = LocalData(x.local.a[:-1] + (x.local.a[-1] + 1.0,))
    shifted = TraceCoordinates(shifted_local, x.pairs, x.triples)
    assert abs(type3(shifted) - (base - 1.0)) <= 1e-12


def test_type3_not_applicable_n3(fixture_coords):
    with pytest.raises(NotApplicable):
        type3(fixture_coords)


def test_membership_vanishes_on_image():
    for n in (3, 4, 5, 6):
        x = phi(generic(n, seed=90 + n))
        assert membership(x).normalized <= 1e-8


def test_membership_identity():
    assert membership(phi(identity_rep(5))).max <= 1e-12


def test_membership_rejects_random_point():
    res = membership(synthetic_coords(4, (0.1,) * 5, pair_value=1.7, triple_value=-0.9))
    assert res.normalized > 1e-3


def test_membership_counts():
    expected = {3: 1, 4: 15, 5: 81, 6: 301, 7: 876, 8: 2157, 9: 4705}
    for n, count in expected.items():
        assert relation_count(n) == count
        res = membership(phi(generic(n, seed=n)))
        assert res.count == count
        assert len(res.type1) == len(list(type1_pairs(n)))
        assert len(res.type2) == len(list(type2_terms(n)))
        assert (res.type3 is None) == (n == 3)


# Integer generators of SL2(Z[i]): words in them have Gaussian-integer
# entries and traces, which floating point holds exactly at these sizes.
_U = Mat2(1.0, 1.0, 0.0, 1.0)
_L = Mat2(1.0, 0.0, 1.0, 1.0)
_INTEGER_GENERATORS = (
    _U, _U.adjugate(), _L, _L.adjugate(),
    Mat2(1j, 0.0, 0.0, -1j), Mat2(0.0, 1.0, -1.0, 0.0),
)


def integer_tuple(n, rng):
    mats = []
    for _ in range(n):
        word = rng.choice(_INTEGER_GENERATORS)
        for _ in range(rng.randrange(3)):
            word = word @ rng.choice(_INTEGER_GENERATORS)
        mats.append(word)
    return close_tuple(mats)


@pytest.mark.parametrize("n", range(3, 10))
def test_relations_exactly_zero_on_integer_tuples(n):
    rng = random.Random(f"integer/{n}")
    for _ in range(6):
        x = phi(integer_tuple(n, rng))
        assert membership(x).max == 0.0
        for ta, tb in type1_pairs(n):
            assert type1(x, ta, tb) == 0.0
        if n > 3:
            for i, quad in type2_terms(n):
                assert type2(x, i, quad) == 0.0
            assert type3(x) == 0.0


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", range(3, 10))
def test_kernel_bit_identical_to_definition(n, family):
    rep = FAMILIES[family](n, 300 + n)
    # the evaluators, called first on a fresh point, read what membership reports
    y = phi(rep)
    t1 = tuple(abs(type1(y, ta, tb)) for ta, tb in type1_pairs(n))
    t2 = tuple(abs(type2(y, i, quad)) for i, quad in type2_terms(n))
    t3 = abs(type3(y)) if n > 3 else None
    assert (t1, t2, t3) == membership(y)[:3]  # (type1, type2, type3)
    x = phi(rep)
    res = membership(x)
    assert res.type1 == tuple(abs(oracle_type1(x, ta, tb)) for ta, tb in type1_pairs(n))
    assert res.type2 == tuple(abs(oracle_type2(x, i, quad)) for i, quad in type2_terms(n))
    for ta, tb in type1_pairs(n):
        assert type1(x, ta, tb) == oracle_type1(x, ta, tb)
    for i, quad in type2_terms(n):
        assert type2(x, i, quad) == oracle_type2(x, i, quad)
    z, sv, _ = relations._tables(x)
    assert sv == [oracle_s3(x, *t) for t in combinations(range(1, n + 1), 3)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert z[i][j] == oracle_z(x, i, j)


def test_type1_rejects_malformed_triples():
    x = phi(generic(5, seed=14))
    with pytest.raises(BadIndex):
        type1(x, (1, 2), (1, 2, 3))
    with pytest.raises(BadIndex):
        type1(x, (1, 2, 3), (3, 2, 1))
    with pytest.raises(BadIndex):
        type1(x, (1, 2, 3), (4, 5, 6))


def _stored_view(x):
    """``relations._real_view`` with the float view switched off."""
    return (0.0,) + x.local.a, x.pairs, x._triples


def _membership_outcome(x):
    """repr of ``membership`` on a fresh copy of x, or the exception's name."""
    try:
        return repr(membership(TraceCoordinates(x.local, dict(x.pairs), dict(x.triples))))
    except OverflowError as exc:  # the scale (1 + max|x|)^3 beyond the float range
        return type(exc).__name__


@pytest.mark.parametrize("n", range(3, 10))
def test_real_view_bit_identical_to_complex_kernel(n, monkeypatch):
    points = []
    for family in sorted(FAMILIES):
        for seed in (0, 1):
            x = phi(FAMILIES[family](n, 700 + seed))
            points.append(x)
            for factor in (1e60, 1e90, 1e101):  # up to inf/nan residuals
                for start in sorted({0, n // 2 - 1, n - 2}):
                    a = list(x.local.a)
                    a[start:start + 3] = [v * factor for v in a[start:start + 3]]
                    points.append(TraceCoordinates(LocalData(a), dict(x.pairs), dict(x.triples)))
    outcomes = []
    for x in points:
        got = _membership_outcome(x)
        with monkeypatch.context() as m:
            m.setattr(relations, "_real_view", _stored_view)
            want = _membership_outcome(x)
        assert got == want
        outcomes.append(got)
    assert any("nan" in o or "inf" in o for o in outcomes)


def test_real_view_only_on_exactly_real_points():
    x = phi(FAMILIES["su2"](5, 11))
    z, sv, _ = relations._tables(x)
    assert {type(v) for row in z for v in row} == {type(v) for v in sv} == {float}
    assert type(type1(x, (1, 2, 3), (2, 3, 4))) is type(type2(x, 1, (2, 3, 4, 5))) is float
    assert type(type3(x)) is float
    pairs = dict(x.pairs)
    pairs[(2, 4)] += 1e-30j  # one imaginary part off zero keeps every table complex
    y = TraceCoordinates(x.local, pairs, dict(x.triples))
    assert relations._real_view(y) == ((0.0,) + y.local.a, y.pairs, y.triples)
    z, sv, _ = relations._tables(y)
    assert type(z[2][4]) is type(z[1][1]) is complex
    assert {type(v) for v in sv} == {complex}
    assert membership(y).max > 0.0


def _nan_point():
    """The generic n = 5 seed 0 point with a_1..a_3 scaled by 1e60: its type 1
    values overflow to nan (inf - inf), so every residual reads nan."""
    x = phi(generic(5, seed=0))
    a = tuple(v * 1e60 if s < 3 else v for s, v in enumerate(x.local.a))
    return TraceCoordinates(LocalData(a), x.pairs, x.triples)


def _after_caught_overflow(fn, *args):
    """fn(*args) right after an OverflowError was raised and caught in this thread."""
    try:
        (1e200) ** 3
    except OverflowError:
        pass
    return fn(*args)


def test_membership_same_whatever_ran_before():
    # complex abs of a nan reports a stale ERANGE from an earlier overflow
    alone = membership(_nan_point())
    assert math.isnan(alone.max) and math.isnan(alone.normalized)
    after = _after_caught_overflow(membership, _nan_point())
    assert repr(after) == repr(alone)
    assert repr(membership(_nan_point())) == repr(alone)  # and in the other order again


def test_magnitudes_keep_a_genuine_overflow():
    nan, inf = float("nan"), float("inf")
    got = _after_caught_overflow(relations._magnitudes, [complex(nan, 0.0), complex(inf, nan), 3j])
    assert math.isnan(got[0]) and got[1:] == (inf, 3.0)
    for run in (relations._magnitudes, lambda v: _after_caught_overflow(relations._magnitudes, v)):
        with pytest.raises(OverflowError):
            run([complex(nan, 0.0), complex(1.5e308, 1.5e308)])
