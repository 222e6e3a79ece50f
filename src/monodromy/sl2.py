"""Complex 2x2 matrix algebra and the four-factor trace identity.

Scalars are double-precision complex numbers throughout; matrices are
immutable value objects.  Every value type of the package but
``TraceCoordinates`` is a named tuple built on ``_record``, so its ``_make``
and ``_replace`` go through the constructor and its checks.  Inverses always
go through the adjugate, which is the exact inverse of a determinant-1 matrix
and therefore keeps unimodularity residuals tight.  ``Tolerance`` is the one
positive finite number ``abs`` that every gate of the package reads: each gate
compares its residual with ``abs`` times its own scale.
"""

from __future__ import annotations

import cmath
from collections import namedtuple

from .errors import NotUnimodular


def _record(name: str, fields: str, defaults=None) -> type:
    """A namedtuple base whose ``_make``, and so ``_replace``, calls the constructor."""
    base = namedtuple(name, fields, defaults=defaults)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


_STRAIGHT_N = 5  # the largest n with generated kernels (costs: coords, relations, reconstruction)


def _compiled(name: str, params: str, lines: list[str], **names):
    """``kernel(params)`` with the body ``lines``, compiled as ``<name>`` with the
    globals ``names``."""
    source = f"def kernel({params}):\n" + "".join(f"    {line}\n" for line in lines)
    namespace = dict(names)
    exec(compile(source, f"<{name}>", "exec"), namespace)
    return namespace["kernel"]


class Tolerance(_record("Tolerance", "abs")):
    """One tolerance ``abs``; a gate of scale s admits a residual up to ``abs * s``."""

    __slots__ = ()

    def __new__(cls, abs: float = 1e-9):
        if not abs >= 0:  # also rejects NaN, which fails every gate
            raise ValueError("tolerances must be non-negative")
        if abs == 0:
            raise ValueError("tolerance cannot be zero")
        if abs == float("inf"):  # passes every <= gate
            raise ValueError("tolerance must be finite")
        return tuple.__new__(cls, (abs,))


DEFAULT_TOL = Tolerance()


class Mat2(_record("Mat2", "m11 m12 m21 m22")):
    """Immutable 2x2 complex matrix [[m11, m12], [m21, m22]]."""

    __slots__ = ()

    def __new__(cls, m11: complex, m12: complex, m21: complex, m22: complex):
        for v in (m11, m12, m21, m22):
            if not cmath.isfinite(v):
                raise ValueError(f"non-finite matrix entry {v!r}")
        return tuple.__new__(cls, (m11, m12, m21, m22))

    def __matmul__(self, other: Mat2) -> Mat2:
        a11, a12, a21, a22 = self
        b11, b12, b21, b22 = other
        return Mat2(
            a11 * b11 + a12 * b21,
            a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21,
            a21 * b12 + a22 * b22,
        )

    @property
    def trace(self) -> complex:
        return self.m11 + self.m22

    @property
    def det(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21

    def adjugate(self) -> Mat2:
        """[[m22, -m12], [-m21, m11]]; the inverse whenever det == 1."""
        return Mat2(self.m22, -self.m12, -self.m21, self.m11)

    def conj_transpose(self) -> Mat2:
        return Mat2(
            complex(self.m11).conjugate(),
            complex(self.m21).conjugate(),
            complex(self.m12).conjugate(),
            complex(self.m22).conjugate(),
        )

    def max_abs(self) -> float:
        return max(map(abs, self))


IDENTITY = Mat2(1.0, 0.0, 0.0, 1.0)


def max_entry_diff(a: Mat2, b: Mat2) -> float:
    """Largest entrywise |a - b|."""
    return max(abs(x - y) for x, y in zip(a, b))


def check_unimodular(a: Mat2, tol: Tolerance = DEFAULT_TOL) -> None:
    """Raise NotUnimodular unless |det(a) - 1| is within tolerance."""
    err = abs(a.det - 1.0)
    if not err <= tol.abs * 2.0:  # a NaN determinant fails too
        raise NotUnimodular(f"|det - 1| = {err:.3e} exceeds tolerance {tol.abs * 2.0:.3e}")


def four_trace_reduction(
    t_a: complex, t_b: complex, t_c: complex, t_d: complex,
    t_ab: complex, t_ac: complex, t_ad: complex,
    t_bc: complex, t_bd: complex, t_cd: complex,
    t_abc: complex, t_abd: complex, t_acd: complex, t_bcd: complex,
) -> complex:
    """tr(ABCD) expressed through the 14 traces of shorter products.

    Takes the four single traces, the six pair-product traces and the four
    triple-product traces of determinant-1 matrices A, B, C, D and returns
    the value the four-factor trace must have.
    """
    return 0.5 * (
        t_a * t_b * t_c * t_d
        + t_a * t_bcd + t_b * t_acd + t_c * t_abd + t_d * t_abc
        + t_ab * t_cd - t_ac * t_bd + t_ad * t_bc
        - t_a * t_b * t_cd - t_a * t_d * t_bc
        - t_b * t_c * t_ad - t_d * t_c * t_ab
    )
