"""Local trace data, closed matrix tuples, and their trace coordinates.

A point of the coordinate space stores one value per unordered index pair
and one per ascending index triple:

* ``pairs[(i, j)]`` with ``i < j`` holds the pair trace ``tr(M_j M_i)``;
* ``triples[(i, j, k)]`` with ``i < j < k`` holds the triple trace
  ``tr(M_k M_j M_i)`` (reading the subscript word right to left).

Every other ordering is derived on access rather than stored: pair traces
are symmetric, the three cyclic rotations of a triple word share its value,
and the opposite rotation class follows from the linear reordering identity

    tr(M_k M_j M_i) + tr(M_k M_i M_j)
        = a_k x_ji + a_j x_ki + a_i x_kj - a_k a_j a_i.

For n = 3 the triple map is empty: the single triple trace is the closing
trace a_4, which the private read map ``TraceCoordinates._triples`` holds at
(1, 2, 3) (for n > 3 it is the stored map).  This module alone knows how a word
is read from the stored maps: ``_key`` is a pair's stored key, the cached ``_word``
names a triple word's stored key and, off the stored rotation class, the pair keys of
the identity, and ``_read`` evaluates a ``_word`` on the local traces and the maps,
the one caller of ``opposite_rotation``.

Checks run once, at the boundary.  ``pair``, ``triple_trace`` and ``quad_trace``
check indices, then read the unchecked cores ``_pair`` and ``_triple``; the chart
table and the rebuild's per-chart plan hold ``_word`` entries and call ``_read``.
``_traces`` (traced at small n, as ``sl2._straight`` decides) computes a tuple's product
entries, local traces, pairs and triples, then makes one finiteness pass; when it fails
it runs the checked path in its order (product entries, ``LocalData``, coordinates),
which names the first bad value.  ``phi`` builds ``LocalData`` and the point unchecked.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from itertools import chain, combinations
from math import comb
from types import MappingProxyType

from .errors import BadIndex
from .sl2 import (
    DEFAULT_TOL,
    Mat2,
    Tolerance,
    _finite,
    _record,
    _straight,
    check_unimodular,
    four_trace_reduction,
)


def _require_finite_scalar(v: complex, what: str) -> None:
    if not cmath.isfinite(v):
        raise ValueError(f"non-finite {what}: {v!r}")


class LocalData(_record("LocalData", "a")):
    """Prescribed traces (a_1, ..., a_n, a_{n+1}) of a closed tuple of size n."""

    __slots__ = ()

    def __new__(cls, a: tuple[complex, ...]):
        a = tuple(a)
        if len(a) < 4:
            raise ValueError("need at least four local traces (n >= 3)")
        for v in a:
            _require_finite_scalar(v, "local trace")
        return tuple.__new__(cls, (a,))

    @property
    def n(self) -> int:
        return len(self.a) - 1

    def trace(self, j: int) -> complex:
        """a_j for 1 <= j <= n+1."""
        if not 1 <= j <= len(self.a):
            raise BadIndex(f"local trace index {j} out of range 1..{len(self.a)}")
        return self.a[j - 1]


class Representation(_record("Representation", "mats last")):
    """A tuple (M_1, ..., M_n) together with the closing matrix M_{n+1}.

    The closing matrix is meant to satisfy M_{n+1} M_n ... M_1 = I; use
    ``close_tuple`` to construct one with that invariant checked.
    """

    __slots__ = ()

    def __new__(cls, mats: tuple[Mat2, ...], last: Mat2):
        return tuple.__new__(cls, (tuple(mats), last))

    @property
    def n(self) -> int:
        return len(self.mats)

    def local(self) -> LocalData:
        return LocalData(tuple(m.trace for m in self.mats) + (self.last.trace,))

    def conjugated(self, p: Mat2) -> Representation:
        """The tuple (P M_s P^-1) with P^-1 taken as the adjugate."""
        q = p.adjugate()
        return Representation(
            tuple(p @ m @ q for m in self.mats), p @ self.last @ q
        )


def descending_product(mats: tuple[Mat2, ...]) -> Mat2:
    """The product M_n M_{n-1} ... M_1."""
    prod = mats[0]
    for m in mats[1:]:
        prod = m @ prod
    return prod


def close_tuple(mats, tol: Tolerance = DEFAULT_TOL) -> Representation:
    """Close (M_1, ..., M_n) with M_{n+1} = (M_n ... M_1)^{-1}.

    Every input must be unimodular within tolerance.  The closing matrix is
    the adjugate of the descending product, so the closure residual is
    governed by the accumulated determinant error alone.
    """
    mats = tuple(mats)
    if len(mats) < 3:
        raise ValueError("need at least three matrices (n >= 3)")
    for m in mats:
        check_unimodular(m, tol)
    return Representation(mats, descending_product(mats).adjugate())


@lru_cache(maxsize=None)
def _phi_plan(n: int) -> tuple[tuple, tuple, frozenset, frozenset]:
    """The pair keys of size n in ``combinations`` order; per stored triple (i, j, k)
    its key, the pair slot of (j, k) and i - 1; the stored pair and triple key sets."""
    pairs = tuple(combinations(range(1, n + 1), 2))
    slot = {key: s for s, key in enumerate(pairs)}
    triples = tuple(combinations(range(1, n + 1), 3)) if n > 3 else ()
    return (pairs, tuple((t, slot[t[1:]], t[0] - 1) for t in triples),
            frozenset(pairs), frozenset(triples))


class TraceCoordinates:
    """A coordinate point together with the local data it refers to.

    Immutable and unhashable, ``pairs`` and ``triples`` being read-only views;
    equality compares ``local``, ``pairs`` and ``triples``.  ``_cache`` memoizes
    derived values: the signed relation values, one chart report per
    tolerance, and one ``reconstruct`` result per (chart, branch, tolerance),
    which ``classify`` reads too.  Each entry is write-once and
    idempotent, so sharing across threads stays safe; equality, repr and
    copies ignore it.
    """

    __slots__ = ("local", "pairs", "triples", "_triples", "_cache", "_n")
    __hash__ = None

    def __init__(self, local: LocalData, pairs: dict[tuple[int, int], complex],
                 triples: dict[tuple[int, int, int], complex] | None = None) -> None:
        pairs, triples, n = dict(pairs), dict(triples or {}), local.n
        _, _, pair_keys, triple_keys = _phi_plan(n)
        if pairs.keys() != pair_keys:
            raise ValueError(f"pair keys must be the {comb(n, 2)} ascending pairs in 1..{n}")
        if triples.keys() != triple_keys:
            want = "empty for n = 3" if n == 3 else f"the {comb(n, 3)} ascending triples in 1..{n}"
            raise ValueError(f"triple keys must be {want}")
        if not all(map(cmath.isfinite, chain(pairs.values(), triples.values()))):
            for v in chain(pairs.values(), triples.values()):  # name the first bad value
                _require_finite_scalar(v, "coordinate")
        self._fill(local, pairs, triples)

    def _fill(self, local: LocalData, pairs: dict, triples: dict) -> None:
        """Set the fields from checked dicts with the keys of local.n, kept uncopied."""
        init = object.__setattr__
        init(self, "local", local)
        init(self, "pairs", MappingProxyType(pairs))
        init(self, "triples", MappingProxyType(triples))
        init(self, "_triples", triples if local.n > 3 else {(1, 2, 3): local.a[3]})
        init(self, "_cache", {})
        init(self, "_n", local.n)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.local, self.pairs, self.triples) == (other.local, other.pairs, other.triples)

    def __reduce__(self):
        # rebuilt through __init__ (__setattr__ refuses) from dicts (a mappingproxy won't pickle)
        return (self.__class__, (self.local, dict(self.pairs), dict(self.triples)))

    def __repr__(self) -> str:
        return (f"TraceCoordinates(local={self.local!r}, pairs={self.pairs!r}, "
                f"triples={self.triples!r})")

    @property
    def n(self) -> int:
        return self._n

    def pair(self, j: int, i: int) -> complex:
        """Pair trace tr(M_j M_i) = tr(M_i M_j); symmetric lookup."""
        _check_distinct(self, (j, i))
        return _pair(self.pairs, j, i)

    def items(self):
        """Yield ((j, i), x_ji) then ((k, j, i), x_kji) in canonical order.

        Canonical order lists pairs sorted by (j, i) and triples sorted by
        (k, j, i), i.e. x_21, x_31, x_32, ..., x_321, x_421, ...
        """
        for i, j in sorted(self.pairs, key=lambda key: (key[1], key[0])):
            yield (j, i), self.pairs[(i, j)]
        for i, j, k in sorted(self.triples, key=lambda key: (key[2], key[1], key[0])):
            yield (k, j, i), self.triples[(i, j, k)]

    def max_abs(self) -> float:
        """Largest magnitude over local traces and stored coordinates."""
        return max(map(abs, chain(self.local.a, self.pairs.values(), self.triples.values())))


@_straight(1)
def _traces(n: int, mats: tuple, last: Mat2) -> tuple[tuple, dict, dict]:
    """``(a, pairs, triples)`` of the size-n tuple (mats, last) from its entries, rounded as
    ``Mat2.__matmul__`` and ``.trace`` round them, checked by one pass (module docstring)."""
    pair_keys, triple_reads, _, _ = _phi_plan(n)
    prods = []
    for i, j in pair_keys:
        a11, a12, a21, a22 = mats[j - 1]
        b11, b12, b21, b22 = mats[i - 1]
        prods.append((a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
                      a21 * b11 + a22 * b21, a21 * b12 + a22 * b22))
    a = tuple([m11 + m22 for m11, _, _, m22 in (*mats, last)])
    pairs = {key: p[0] + p[3] for key, p in zip(pair_keys, prods)}
    triples = {}
    for key, s, i in triple_reads:
        # tr((M_k M_j) M_i) from entries, rounded as (M_k @ M_j @ M_i).trace rounds it
        p11, p12, p21, p22 = prods[s]
        q11, q12, q21, q22 = mats[i]
        triples[key] = (p11 * q11 + p12 * q21) + (p21 * q12 + p22 * q22)
    if n < 3 or not _finite([*chain.from_iterable(prods), *a, *pairs.values(), *triples.values()]):
        for p in prods:  # the checked path, in its order; one of its checks raises
            Mat2(*p)
        TraceCoordinates(LocalData(a), pairs, triples)
    return a, pairs, triples


def phi(rep: Representation) -> TraceCoordinates:
    """Trace coordinates of a tuple: x_ji = tr(M_j M_i), x_kji = tr(M_k M_j M_i).

    Conjugation-invariant up to roundoff, since traces are.  Every value comes
    from the entry tuples, rounded as ``Mat2.__matmul__`` and ``Mat2.trace``
    round it, and the point is built unchecked from ``_traces`` (module docstring).
    """
    a, pairs, triples = _traces(len(rep.mats), *rep)
    x = object.__new__(TraceCoordinates)
    x._fill(tuple.__new__(LocalData, (a,)), pairs, triples)  # the plan's keys, checked values
    return x


def _check_distinct(x: TraceCoordinates, indices: tuple[int, ...]) -> None:
    if len(set(indices)) != len(indices):
        raise BadIndex(f"indices {indices} are not distinct")
    for v in indices:
        if not 1 <= v <= x.n:
            raise BadIndex(f"index {v} out of range 1..{x.n}")


def _key(u: int, v: int) -> tuple[int, int]:
    """The stored key of the pair x_uv = x_vu."""
    return (u, v) if u < v else (v, u)


def _pair(pairs, u: int, v: int) -> complex:
    """x_uv = x_vu read from the stored ``pairs`` map, on checked indices."""
    return pairs[_key(u, v)]


def triple_trace(x: TraceCoordinates, k: int, j: int, i: int) -> complex:
    """tr(M_k M_j M_i) for any ordering of three distinct indices.

    Orderings in the cyclic class of the stored descending word return the
    stored value; the opposite class is computed from the reordering
    identity (see the module docstring).
    """
    _check_distinct(x, (k, j, i))
    return _triple(x, k, j, i)


@lru_cache(maxsize=None)
def _word(k: int, j: int, i: int) -> tuple:
    """``(key, flip)``: how the word M_k M_j M_i is read.  ``key`` is the stored key of its
    triple; ``flip`` is None when the word rotates into the stored one, else (k, j, i) and
    the ``_key`` of x_ji, x_ki and x_kj, the operands ``opposite_rotation`` reads with it."""
    lo, mid, hi = key = tuple(sorted((k, j, i)))
    if (k, j, i) in ((hi, mid, lo), (mid, lo, hi), (lo, hi, mid)):
        return key, None
    return key, (k, j, i, _key(j, i), _key(k, i), _key(k, j))


def _read(word: tuple, a: tuple, pairs, triples) -> complex:
    """The trace of a ``_word`` from the 1-based local traces ``a``, the stored ``pairs``
    and the triple read map ``triples``."""
    key, flip = word
    if flip is None:
        return triples[key]
    k, j, i, ji, ki, kj = flip
    return opposite_rotation(a[k], a[j], a[i], pairs[ji], pairs[ki], pairs[kj], triples[key])


def _triple(x: TraceCoordinates, k: int, j: int, i: int) -> complex:
    """``triple_trace`` on indices the caller has checked."""
    return _read(_word(k, j, i), (None,) + x.local.a, x.pairs, x._triples)


def opposite_rotation(ak, aj, ai, xji, xki, xkj, stored: complex) -> complex:
    """tr(M_k M_j M_i) from stored = tr(M_k M_i M_j), by the reordering identity."""
    return ak * xji + aj * xki + ai * xkj - ak * aj * ai - stored


def quad_trace(x: TraceCoordinates, k: int, j: int, i: int, i0: int) -> complex:
    """tr(M_k M_j M_i M_{i0}) for four distinct indices, reduced to stored data.

    Evaluates ``four_trace_reduction`` with (A, B, C, D) = (M_k, M_j, M_i,
    M_{i0}) on the stored pair and triple traces; agrees with the directly
    computed trace whenever the coordinates come from an actual tuple.
    """
    _check_distinct(x, (k, j, i, i0))
    a, p = x.local.a, x.pairs
    return four_trace_reduction(
        a[k - 1], a[j - 1], a[i - 1], a[i0 - 1],
        _pair(p, k, j), _pair(p, k, i), _pair(p, k, i0),
        _pair(p, j, i), _pair(p, j, i0), _pair(p, i, i0),
        _triple(x, k, j, i), _triple(x, k, j, i0), _triple(x, k, i, i0), _triple(x, j, i, i0),
    )


def coordinate_distance(xa: TraceCoordinates, xb: TraceCoordinates) -> float:
    """Largest per-coordinate difference |xa_c - xb_c| / (1 + |xa_c|).

    Both points must live on the same index layout.
    """
    if xa.n != xb.n:
        raise ValueError(f"coordinate layouts differ: n = {xa.n} vs {xb.n}")
    return _distance(xa, xb.pairs, xb.triples)


def _distance(xa: TraceCoordinates, pairs, triples) -> float:
    """``coordinate_distance`` to the maps ``pairs`` and ``triples``, in xa's order."""
    return max([abs(va - pairs[key]) / (1.0 + abs(va)) for key, va in xa.pairs.items()]
               + [abs(va - triples[key]) / (1.0 + abs(va)) for key, va in xa.triples.items()])
