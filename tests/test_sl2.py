import pytest

from monodromy import (
    DEFAULT_TOL,
    Mat2,
    NotUnimodular,
    Tolerance,
    close_tuple,
)
from monodromy.samplers import SplitMix64, random_unimodular
from monodromy.sl2 import IDENTITY, check_unimodular, four_trace_reduction, max_entry_diff

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
