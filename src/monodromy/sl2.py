"""Complex 2x2 matrix algebra and the four-factor trace identity.

Scalars are double-precision complex numbers throughout; matrices are
immutable value objects.  Every value type of the package but
``TraceCoordinates`` is a named tuple built on ``_record``, so its ``_make``
and ``_replace`` go through the constructor and its checks.  Inverses always
go through the adjugate, which is the exact inverse of a determinant-1 matrix
and therefore keeps unimodularity residuals tight.  ``Tolerance`` is the one
positive finite number ``abs`` that every gate of the package reads: each gate
compares its residual with ``abs`` times its own scale.

This module alone decides which loops run traced: ``coords._traces``,
``relations._comprehension`` and ``reconstruction._rebuild``, decorated ``_straight``
and called as loops.  At 3 <= n <= ``_STRAIGHT_N`` (5) the first call per static values
runs the loop and records them, and the second traces the loop with ``_trace``: it runs
once on ``_Sym`` values shaped as that call's arguments, which record each operation with
its operands in order, and its live steps compile to one straight-line function,
parenthesized as precedence and association need, so each value is the loop's, bit for
bit; ``_finite`` becomes ``return None``, on which the loop reruns and raises.  That call
and every later one run the kernel.  A kernel is built on reuse, since a build takes
milliseconds and a run of the loop microseconds: a CLI process, one point, calls each loop
once per static values and so builds none, while library workloads evaluate many points
per n and pay each build back.  Builds grow with n (the relation kernel's like the
relation count), so past n = 5 the loops stay (Python 3.11, 2-vCPU Xeon VM, su2 points;
memory is a trace's transient peak):

    build ms / saving us a call   n = 3        4          5          6          8
    trace                        0.41 / 1.8  0.80 / 2.4  1.2 / 4.7
    rebuild, one chart           0.67 / 3.4  0.98 / 4.1  1.4 / 5.7
    relations, with type 3       0.44 / 7.1   1.4 / 17   4.4 / 34    11 / 60   77 / 240
    relations, memory (MB)       0.10         0.33        1.1        3.5        18
"""

from __future__ import annotations

import cmath
from collections import namedtuple
from collections.abc import Mapping
from functools import update_wrapper

from .errors import NotUnimodular


def _record(name: str, fields: str, defaults=None) -> type:
    """A namedtuple base whose ``_make``, and so ``_replace``, calls the constructor."""
    base = namedtuple(name, fields, defaults=defaults)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


def _worst(*groups) -> float:
    """The largest value in ``groups`` of non-negative numbers (a group may be empty), NaN
    when any value is NaN: their sum is NaN exactly then, where ``max`` would skip it."""
    total = sum(map(sum, groups))
    return total if total != total else max(max(g, default=0.0) for g in groups)


_STRAIGHT_N = 5  # the largest n with traced kernels (costs: module docstring)


class _Sym:
    """A value traced into ``steps``: ``op`` (source form, precedence, each operand's) on
    ``args``, an input's form its read; the emitter sets ``reads`` and ``text``."""

    __slots__ = ("op", "args", "steps", "reads", "text")

    def __init__(self, op, args, steps: list) -> None:
        self.op, self.args, self.steps, self.reads = op, args, steps, 0
        steps.append(self)

    def _ops(sign: str, q: int) -> tuple:  # a left-associative operator and its reverse
        op = "{} %s {}" % sign, q, (q, q + 1)
        return (lambda s, o: _Sym(op, (s, o), s.steps)), (lambda s, o: _Sym(op, (o, s), s.steps))

    (__add__, __radd__), (__sub__, __rsub__) = _ops("+", 1), _ops("-", 1)
    (__mul__, __rmul__), (__truediv__, __rtruediv__) = _ops("*", 2), _ops("/", 2)
    __neg__ = lambda s: _Sym(("-{}", 3, (3,)), (s,), s.steps)
    __abs__ = lambda s: _Sym(("abs({})", 4, (0,)), (s,), s.steps)
    del _ops


def _finite(values: list) -> bool:
    """``all(map(cmath.isfinite, values))``; in a trace True, recording the statement
    ``if not all(map(isfinite, values)): return None``."""
    try:
        return all(map(cmath.isfinite, values))
    except TypeError:  # a traced value
        steps = next(v.steps for v in values if isinstance(v, _Sym))
        _Sym(("if not all(map(isfinite, {})): return None", None, (0,)), (values,), steps).reads = 1
        return True


def _trace(name: str, fn, **params):
    """``kernel(*params)`` compiled as ``<name>``: ``fn`` run once on ``params`` templates,
    each leaf an input read at its index, and its live steps written out in order: a
    statement (precedence None) as is, a value read twice as a local, others inlined."""
    steps, names, body = [], {"isfinite": cmath.isfinite, "new": tuple.__new__}, []

    def parts(o):  # the (key, value) pairs of a tuple, list or mapping; None for a value
        return (o.items() if isinstance(o, Mapping) else
                enumerate(o) if isinstance(o, (tuple, list)) else None)

    def symbolic(v, read: str):  # a tuple key k is read as [k0, k1, ...]
        if parts(v) is None:
            return _Sym((read, 4, ()), (), steps)
        got = {k: symbolic(u, f"{read}[{repr(k).strip('()')}]") for k, u in parts(v)}
        return got if isinstance(v, Mapping) else tuple(got.values())

    def src(v, p: int) -> str:  # v read at precedence p; a tuple subclass as new(cls, (...))
        if isinstance(v, _Sym) or parts(v) is None:
            text, q = v.text if isinstance(v, _Sym) else (repr(v), 4)
            return f"({text})" if q < p else text
        cls = names[type(v).__name__] = type(v)
        form = {dict: "{%s}", list: "[%s]", tuple: "(%s)"}.get(cls, f"new({cls.__name__}, (%s))")
        return form % "".join((f"{k!r}: " if cls is dict else "") + src(u, 0) + ", "
                              for k, u in parts(v))

    def unpack(v) -> str:  # the target unpacking a tuple input; "_" for a leaf never read
        if isinstance(v, tuple):
            return "(%s)" % "".join(unpack(u) + ", " for u in v)
        v.op = (f"v{steps.index(v)}", 4, ()) if v.reads else v.op
        return v.op[0] if v.reads else "_"

    inputs = [symbolic(v, k) for k, v in params.items()]
    _Sym(("return {}", None, (0,)), (fn(*inputs),), steps).reads = 1
    for s in reversed(steps):  # readers follow what they read: each count is final here
        args = list(s.args) if s.reads else []  # a dead step reads nothing
        while args:
            u = args.pop()
            if isinstance(u, _Sym):
                u.reads += 1
            else:
                args += [w for _, w in parts(u) or ()]
    body += [f"{unpack(v)} = {k}" for k, v in zip(params, inputs) if isinstance(v, tuple)]
    for i, s in enumerate(steps):
        if not s.reads:
            continue
        form, q, ps = s.op
        s.text = form.format(*map(src, s.args, ps)), q
        if q is None:  # a statement
            body.append(s.text[0])
        elif s.reads > 1 and not s.text[0].isidentifier():  # a local or scalar parameter is one
            body.append(f"v{i} = {s.text[0]}")
            s.text = f"v{i}", 4
    source = f"def kernel({', '.join(params)}):\n" + "".join(f"    {line}\n" for line in body)
    exec(compile(source, f"<{name}>", "exec"), names)
    return names["kernel"]


def _straight(static: int):
    """Decorate a loop whose first ``static`` arguments, n first, fix every step it takes:
    at 3 <= n <= ``_STRAIGHT_N`` the first call per static values runs the loop and
    records them in ``seen``; the second traces its kernel into ``kernels``, run from then on."""
    def decorate(loop):
        names, kernels, seen = loop.__code__.co_varnames[:loop.__code__.co_argcount], {}, set()

        def build(key: tuple, args: tuple):  # the loop on key's first call, else its kernel
            if key not in seen:
                seen.add(key)
                return loop
            kernels[key] = _trace(f"{loop.__name__}{key}", lambda *a: loop(*key, *a[static:]),
                                  **dict(zip(names, (None,) * static + args[static:])))
            return kernels[key]

        def run(*args):
            if 3 <= args[0] <= _STRAIGHT_N:
                key = args[:static]
                built = (kernels.get(key) or build(key, args))(*args)
                if built is not None:
                    return built
            return loop(*args)

        run.kernels, run.seen = kernels, seen
        return update_wrapper(run, loop)
    return decorate


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
