from math import inf, nan
from types import MappingProxyType

import pytest

from monodromy import (
    DEFAULT_TOL,
    Mat2,
    NotUnimodular,
    Tolerance,
    close_tuple,
)
from monodromy.samplers import SplitMix64, random_unimodular
from monodromy.sl2 import (
    IDENTITY,
    _finite,
    _trace,
    check_unimodular,
    four_trace_reduction,
    max_entry_diff,
)

from conftest import omat, omul, otr

ROT = Mat2(0.0, 1.0, -1.0, 0.0)


def skein_check(a: Mat2, b: Mat2, tol: Tolerance = DEFAULT_TOL) -> float:
    """Residual |tr(AB) + tr(AB^-1) - tr(A) tr(B)| for unimodular A, B.

    The combination vanishes identically on determinant-1 matrices.
    """
    check_unimodular(a, tol)
    check_unimodular(b, tol)
    lhs = (a @ b).trace + (a @ b.adjugate()).trace
    return abs(lhs - a.trace * b.trace)


def test_mul_identity():
    assert IDENTITY @ IDENTITY == IDENTITY


def test_mul_rotation_squared():
    assert ROT @ ROT == Mat2(-1.0, 0.0, 0.0, -1.0)


def test_mul_direct_case():
    # oracle: plain-tuple product of [[2,1],[1,1]] and [[0,1],[-1,0]]
    a, b = Mat2(2.0, 1.0, 1.0, 1.0), ROT
    expect = omul(omat(a), omat(b))
    got = a @ b
    assert omat(got) == expect == ((-1.0, 2.0), (-1.0, 1.0))


def test_mat2_rejects_nonfinite():
    with pytest.raises(ValueError):
        Mat2(float("nan"), 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Mat2(1.0, complex(0, float("inf")), 0.0, 1.0)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(0.0)
    with pytest.raises(ValueError):
        Tolerance(-1e-9)


@pytest.mark.parametrize(
    "mat,expect",
    [
        (IDENTITY, (1.0, 2.0, IDENTITY)),
        (ROT, (1.0, 0.0, Mat2(0.0, -1.0, 1.0, 0.0))),
        (Mat2(2.0, 1.0, 1.0, 1.0), (1.0, 3.0, Mat2(1.0, -1.0, -1.0, 2.0))),
    ],
)
def test_det_trace_inverse(mat, expect):
    check_unimodular(mat)
    assert mat.det == expect[0]
    assert mat.trace == expect[1]
    assert mat.adjugate() == expect[2]


def test_det_trace_inverse_rejects():
    with pytest.raises(NotUnimodular):
        check_unimodular(Mat2(2.0, 0.0, 0.0, 1.0))


def test_check_unimodular_rejects_nan_determinant():
    # 1e200 * 1e200 - 1e200 * 1e200 is inf - inf: |det - 1| is NaN, which fails the gate
    huge = Mat2(1e200, 1e200, 1e200, 1e200)
    with pytest.raises(NotUnimodular, match="nan"):
        check_unimodular(huge)
    with pytest.raises(NotUnimodular):
        close_tuple([huge, IDENTITY, IDENTITY])


def test_skein_identity_pair():
    assert skein_check(IDENTITY, IDENTITY) == 0.0


def test_skein_self_pair():
    rng = SplitMix64(11)
    for _ in range(50):
        a = random_unimodular(rng)
        assert skein_check(a, a) <= 1e-13


def test_skein_seeded_pairs():
    rng = SplitMix64(202)
    for _ in range(1000):
        a = random_unimodular(rng)
        b = random_unimodular(rng)
        bound = 1e-10 * (1.0 + abs(a.trace) * abs(b.trace))
        assert skein_check(a, b) <= bound


def test_skein_rejects_nonunimodular():
    with pytest.raises(NotUnimodular):
        skein_check(Mat2(2.0, 0.0, 0.0, 1.0), IDENTITY)


def test_adjugate_inverse_property():
    rng = SplitMix64(77)
    checked = 0
    for _ in range(500):
        a = random_unimodular(rng)
        if abs(a.det - 1.0) <= 1e-13:
            assert max_entry_diff(a @ a.adjugate(), IDENTITY) <= 1e-12
            checked += 1
    assert checked >= 450


def _traces_of(quad):
    """The 14 traces of a quadruple, via the plain-tuple oracle."""
    a, b, c, d = (omat(m) for m in quad)
    return dict(
        t_a=otr(a), t_b=otr(b), t_c=otr(c), t_d=otr(d),
        t_ab=otr(omul(a, b)), t_ac=otr(omul(a, c)), t_ad=otr(omul(a, d)),
        t_bc=otr(omul(b, c)), t_bd=otr(omul(b, d)), t_cd=otr(omul(c, d)),
        t_abc=otr(omul(omul(a, b), c)), t_abd=otr(omul(omul(a, b), d)),
        t_acd=otr(omul(omul(a, c), d)), t_bcd=otr(omul(omul(b, c), d)),
    ), otr(omul(omul(omul(a, b), c), d))


def test_four_trace_identity_tuple():
    traces, direct = _traces_of((IDENTITY,) * 4)
    assert direct == 2.0
    # 0.5 * (16 + 16 + 4 - 32) = 2
    assert four_trace_reduction(**traces) == 2.0


def test_four_trace_telescoping():
    rng = SplitMix64(5)
    m = random_unimodular(rng)
    traces, direct = _traces_of((m, m.adjugate(), m, m.adjugate()))
    assert abs(direct - 2.0) <= 1e-12
    assert abs(four_trace_reduction(**traces) - 2.0) <= 1e-10


def test_four_trace_seeded_quadruples():
    # entry magnitudes <= 10 via entry_bound 20
    rng = SplitMix64(99)
    for _ in range(1000):
        quad = tuple(random_unimodular(rng, entry_bound=20.0) for _ in range(4))
        assert all(m.max_abs() <= 10.0 for m in quad)
        traces, direct = _traces_of(quad)
        got = four_trace_reduction(**traces)
        assert abs(got - direct) <= 1e-9 * (1.0 + abs(direct))


# Traced kernels: each case with a wrong bracketing of it whose bits differ at one of
# TRACED_POINTS (rounding, or the signed zeros of complex arithmetic)
TRACED_CASES = [
    (lambda a, b, c: a - (b - c), lambda a, b, c: a - b - c),
    (lambda a, b, c: a + (b + c), lambda a, b, c: a + b + c),
    (lambda a, b, c: -(a * b), lambda a, b, c: -a * b),
    (lambda a, b, c: -a * b, lambda a, b, c: -(a * b)),
    (lambda a, b, c: a * -b, lambda a, b, c: -(a * b)),
    (lambda a, b, c: a / (b * c), lambda a, b, c: a / b * c),
    (lambda a, b, c: a * (b * c), lambda a, b, c: a * b * c),
    (lambda a, b, c: 2.0 - a, lambda a, b, c: a - 2.0),  # a constant on the left
    (lambda a, b, c: -0.0 - a * b, lambda a, b, c: 0.0 - a * b),  # a negative constant
    (lambda a, b, c: abs(a - b) * c, lambda a, b, c: abs(a - b * c)),
]
TRACED_POINTS = [(0.1, 0.2, 0.3), (0j, 1 + 1j, 0.5), (-1.5, 2j, 1e-300)]


@pytest.mark.parametrize("case, wrong", TRACED_CASES)
def test_trace_keeps_operand_order_association_and_precedence(case, wrong):
    kernel = _trace("case", case, a=0, b=0, c=0)
    for point in TRACED_POINTS:
        assert repr(kernel(*point)) == repr(case(*point))
    assert any(repr(case(*point)) != repr(wrong(*point)) for point in TRACED_POINTS)


def test_traced_guard_returns_none_on_a_non_finite_value():
    kernel = _trace("guard", lambda a: _finite([a[0] * 2.0]) and (1.0 / a[1],), a=(0, 0))
    assert kernel((1.0, 4.0)) == (0.25,)
    for bad in (inf, nan, 1e308, complex(1.0, inf)):
        assert kernel((bad, 0.0)) is None  # returned before the division by zero
    assert _finite([1.0, 2j]) and not _finite([1.0, nan])


def test_trace_reads_only_live_inputs():
    reads = []

    class Probe(dict):
        def __getitem__(self, key):
            reads.append(key)
            return dict.__getitem__(self, key)

    def fn(p, s, unused):
        p[1, 3] * p[1, 3] * s  # a dead step
        return p[1, 2] * p[1, 2] + s

    kernel = _trace("reads", fn, p=dict.fromkeys([(1, 2), (1, 3)]), s=0, unused=0)
    assert kernel(Probe({(1, 2): 3.0, (1, 3): 5.0}), 1.0, None) == 10.0
    assert reads == [(1, 2)]  # read once into a local; (1, 3) feeds only a dead step


def test_trace_reads_any_mapping():
    # a point's stored maps are read-only views; the kernel reads them as dicts
    proxy = MappingProxyType({(1, 2): 3.0, (1, 3): 5.0})
    kernel = _trace("mapping", lambda p, s: {"x": p[1, 2] * s + p[1, 3]}, p=proxy, s=0)
    assert kernel(proxy, 2.0) == kernel(dict(proxy), 2.0) == {"x": 11.0}
    assert kernel(MappingProxyType({(1, 2): 1j, (1, 3): 0.5}), 2.0) == {"x": 0.5 + 2j}
