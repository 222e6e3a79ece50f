"""Defining polynomial relations of the coordinate image and their residuals.

The image of the trace-coordinate map is cut out by three families of
polynomials:

* type 1: one per unordered pair of ascending index triples (repetition
  allowed), ``s3(t1) s3(t2) + 2 det Z`` over a 3x3 block of ``z`` entries;
* type 2 (n >= 4): one per (index, ascending quadruple), an alternating
  ``z``-weighted sum of ``s3`` values;
* type 3 (n >= 4): the full descending word trace, expanded recursively
  into stored data by ``sl2.four_trace_reduction``, minus the closing trace
  a_{n+1}.

Here z_ij = x_ij - a_i a_j / 2 (z_ii = a_i^2 / 2 - 2) and
s3(i1, i2, i3) = a_i1 x_{i3 i2} + a_i2 x_{i3 i1} + a_i3 x_{i2 i1}
- a_i3 a_i2 a_i1 - 2 x_{i3 i2 i1}.  With M0 = M - (tr M / 2) I the traceless
part, z_ij = tr(M0_i M0_j) is the Gram matrix of the M0_i under the trace form
of the 3-dimensional sl2, and s3(i1, i2, i3) = 2 tr(M0_i1 M0_i2 M0_i3): type 1
is the identity det Z[t1, t2] = -s3(t1) s3(t2) / 2, and type 2 says that four
vectors in a 3-dimensional space are dependent (Goldman, arXiv:0901.1404).

For n = 3 the single type 1 polynomial is the classical cubic relation and
is the whole story.  Enumeration order is fixed: type 1 over lexicographic
unordered pairs of triples, type 2 over lexicographic (i, quadruple),
type 3 last.

Every decision that depends only on n is made once, in the cached plan
``_layout(n)`` (``_word_plan`` per word).  Per point, ``_values`` evaluates
every relation once, reading by slot from the ``z`` matrix and ``s3`` list of
``_tables``, and memoizes the signed values on the point: ``membership`` takes
their magnitudes, and ``type1``/``type2`` look their indices up in the per-n
``_slots`` and, like ``type3``, return their entry.
Type 1 reads each row pair's 2x2 minors of ``z`` against one column table all
row triples share; the determinant's factor 2 rides on a doubled copy of the
first ``z`` row (doubling is exact).

A point whose every stored value and local trace has imaginary part exactly 0
(the real locus; every su2 and su11 sampler point) is evaluated in ``float``:
the tables and type 3 read ``_real_view``, the real parts.  With zero imaginary
parts complex ``+``, ``-`` and ``*`` compute the float result in the real part
(the cross terms are +/-0) and ``abs`` is ``hypot(re, 0) = |re|``, so residuals
are identical, and the public evaluators return ``float`` there; only the sign
of an exact-zero value may differ.  Past an overflow they can differ: complex
arithmetic turns a product with an infinite factor into nan (inf * 0 in a
cross term) where float keeps +/-inf, and type 3, which multiplies such
products again, can then read inf instead of nan.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from itertools import chain, combinations
from math import nan

from .coords import TraceCoordinates
from .errors import BadIndex, NotApplicable
from .sl2 import _record, four_trace_reduction


def _real_view(x: TraceCoordinates) -> tuple:
    """``(a, pairs, triples)``: the 1-based local traces, the stored pairs and the
    triple read map ``x._triples``, as their real parts when every imaginary part
    is exactly 0, else as stored."""
    a, pairs, triples = (0.0,) + x.local.a, x.pairs, x._triples
    if all(v.imag == 0 for v in chain(a, pairs.values(), triples.values())):
        a = tuple(v.real for v in a)
        pairs = {k: v.real for k, v in pairs.items()}
        triples = {k: v.real for k, v in triples.items()}
    return a, pairs, triples


def _tables(x: TraceCoordinates) -> tuple:
    """The per-point tables ``(z, sv, view)``, built from ``view = _real_view(x)``.

    ``z`` is the symmetric (n+1) x (n+1) list of lists of z entries, a_i^2/2 - 2
    on the diagonal and x_ij - a_i a_j / 2 off it, row and column 0 padding.
    ``sv`` lists s3(t) for every ascending triple t, in lexicographic order.
    """
    n = x.n
    view = a, pairs, triples = _real_view(x)
    # Both halves of z are computed, each entry by the formula above, so the
    # kernel reproduces the from-definition values bit for bit.
    z = [[0.0] * (n + 1)]
    for i in range(1, n + 1):
        z.append([0.0] + [
            0.5 * a[i] * a[i] - 2.0 if i == j
            else pairs[(i, j) if i < j else (j, i)] - 0.5 * a[i] * a[j]
            for j in range(1, n + 1)
        ])
    sv = []
    for t in combinations(range(1, n + 1), 3):
        i1, i2, i3 = t
        sv.append(
            a[i1] * pairs[(i2, i3)] + a[i2] * pairs[(i1, i3)] + a[i3] * pairs[(i1, i2)]
            - a[i3] * a[i2] * a[i1]
            - 2.0 * triples[t]
        )
    return z, sv, view


@lru_cache(maxsize=None)
def _layout(n: int) -> tuple:
    """The per-n plan ``(col_pairs, rows, cols, quads)`` of type 1 and 2: a minor
    list holds one slot per column pair of ``col_pairs``; ``rows`` holds
    ``(i0, i1, i2, pos)`` per ascending triple, which reads ``cols[pos:]``, the
    ``(b0, b1, b2, k12, k02, k01)`` entries of the triples b from ``pos`` on,
    ``k12`` the minor slot of columns (b1, b2); ``quads`` lists, per ascending
    quadruple q in order, q + the triple slots of q minus q[0], ..., q[3]."""
    col_pairs = list(combinations(range(1, n + 1), 2))
    slot = {pair: k for k, pair in enumerate(col_pairs)}
    triples = list(combinations(range(1, n + 1), 3))
    rows = [(*t, pos) for pos, t in enumerate(triples)]
    cols = [(b0, b1, b2, slot[(b1, b2)], slot[(b0, b2)], slot[(b0, b1)]) for b0, b1, b2 in triples]
    tslot = {t: k for k, t in enumerate(triples)}
    quads = [q + tuple(tslot[q[:p] + q[p + 1:]] for p in range(4))
             for q in combinations(range(1, n + 1), 4)]
    return col_pairs, rows, cols, quads


@lru_cache(maxsize=None)
def _word_plan(word: tuple[int, ...]) -> tuple:
    """``(a_keys, pair_keys, triple_keys, steps)`` of a checked descending word.  Each
    sub-word it reaches has a slot, shorter first, so the word has the last; words of
    length 1, 2, 3 are read at those keys, and each longer one ``head + (i3, i2, i1)``
    is a step holding the slots of the 14 words ``four_trace_reduction`` reads, in its
    argument order, with (A, B, C, D) = (M_head, M_i3, M_i2, M_i1)."""
    need, parts = {word}, {}
    for size in range(len(word), 3, -1):
        for w in [w for w in need if len(w) == size]:
            head, (i3, i2, i1) = w[:-3], w[-3:]
            parts[w] = (head, (i3,), (i2,), (i1,), head + (i3,), head + (i2,), head + (i1,),
                        (i3, i2), (i3, i1), (i2, i1), head + (i3, i2), head + (i3, i1),
                        head + (i2, i1), (i3, i2, i1))
            need.update(parts[w])
    order = sorted(need, key=lambda w: (len(w), w))
    slot = {w: k for k, w in enumerate(order)}
    return (tuple(w[0] for w in order if len(w) == 1),
            *(tuple(w[::-1] for w in order if len(w) == size) for size in (2, 3)),
            tuple(tuple(map(slot.__getitem__, parts[w])) for w in order if len(w) > 3))


def _word_trace(word: tuple[int, ...], a: tuple, pairs: dict, triples: dict) -> complex:
    """Trace of a checked descending word from the 1-based local traces ``a`` and the
    stored ``pairs`` and ``triples``: a ``four_trace_reduction`` per ``_word_plan`` step."""
    a_keys, pair_keys, triple_keys, steps = _word_plan(word)
    v = [*map(a.__getitem__, a_keys), *map(pairs.__getitem__, pair_keys),
         *map(triples.__getitem__, triple_keys)]
    for ka, kb, kc, kd, kab, kac, kad, kbc, kbd, kcd, kabc, kabd, kacd, kbcd in steps:
        v.append(four_trace_reduction(v[ka], v[kb], v[kc], v[kd], v[kab], v[kac], v[kad],
                                      v[kbc], v[kbd], v[kcd], v[kabc], v[kabd], v[kacd], v[kbcd]))
    return v[-1]


def _values(x: TraceCoordinates) -> tuple:
    """``(type1, type2, type3)``: the signed value of every defining relation at x,
    type 1 and 2 as lists in enumeration order, type 3 None for n = 3.  The one
    evaluation of the relations, memoized on x; indices are checked only by the
    public evaluators' ``_slots`` lookup, never in the loops here."""
    values = x._cache.get("values")
    if values is not None:
        return values
    n = x.n
    z, sv, (a, pairs, triples) = _tables(x)
    col_pairs, rows, cols, quads = _layout(n)
    z2 = [[2.0 * v for v in row] for row in z[:n - 1]]  # the first rows of the triples, doubled
    minors = {}  # per row pair, its 2x2 minors ra[c] rb[d] - ra[d] rb[c], one per (c, d)
    for i1, i2 in combinations(range(2, n + 1), 2):
        ra, rb = z[i1], z[i2]
        minors[(i1, i2)] = [ra[c] * rb[d] - ra[d] * rb[c] for c, d in col_pairs]
    v1: list = []
    for i0, i1, i2, pos in rows:
        r0, mm, s_a = z2[i0], minors[(i1, i2)], sv[pos]
        v1 += [s_a * s_b + (r0[b0] * mm[k12] - r0[b1] * mm[k02] + r0[b2] * mm[k01])
               for (b0, b1, b2, k12, k02, k01), s_b in zip(cols[pos:], sv[pos:])]
    v2: list = []
    v3 = None
    if n > 3:
        terms = [(p0, p1, p2, p3, sv[k0], sv[k1], sv[k2], sv[k3])
                 for p0, p1, p2, p3, k0, k1, k2, k3 in quads]
        for z_i in z[1:]:
            v2 += [z_i[p0] * c0 - z_i[p1] * c1 + z_i[p2] * c2 - z_i[p3] * c3
                   for p0, p1, p2, p3, c0, c1, c2, c3 in terms]
        v3 = _word_trace(tuple(range(n, 0, -1)), a, pairs, triples) - a[n + 1]
    values = x._cache["values"] = (v1, v2, v3)
    return values


def type1_pairs(n: int):
    """Unordered pairs of ascending triples (repetition allowed), lexicographic."""
    triples = list(combinations(range(1, n + 1), 3))
    for pos, ta in enumerate(triples):
        for tb in triples[pos:]:
            yield ta, tb


def type2_terms(n: int):
    """(index, ascending quadruple) in lexicographic order; empty for n = 3."""
    for i in range(1, n + 1):
        for quad in combinations(range(1, n + 1), 4):
            yield i, quad


@lru_cache(maxsize=None)
def _slots(n: int) -> tuple[dict, dict]:
    """``{(ta, tb): slot}`` in ``type1_pairs`` order and ``{(i, quad): slot}`` in
    ``type2_terms`` order: where ``_values`` holds each relation."""
    return ({pair: k for k, pair in enumerate(type1_pairs(n))},
            {term: k for k, term in enumerate(type2_terms(n))})


def type1(x: TraceCoordinates, triple_a, triple_b) -> complex:
    """s3(t1) s3(t2) + 2 det Z with Z[p][q] = z(t1[p], t2[q]), read from ``_values``.

    Symmetric in the two triples; they are canonicalized internally, so the
    swapped call returns the identical value.  Other triples raise BadIndex.
    """
    try:
        slot = _slots(x.n)[0][tuple(sorted((tuple(triple_a), tuple(triple_b))))]
    except (KeyError, TypeError):
        raise BadIndex(f"need ascending triples in 1..{x.n}, got {triple_a}, {triple_b}") from None
    return _values(x)[0][slot]


def type2(x: TraceCoordinates, i: int, quad) -> complex:
    """Alternating sum of z(i, p_k) s3(quadruple minus p_k) over the quadruple,
    read from ``_values``; BadIndex unless 1 <= i <= n and quad ascends in 1..n."""
    if x.n == 3:
        raise NotApplicable("type 2 relations need n >= 4")
    try:
        slot = _slots(x.n)[1][(i, tuple(quad))]
    except (KeyError, TypeError):
        raise BadIndex(f"need i and a quadruple ascending in 1..{x.n}, got {i}, {quad}") from None
    return _values(x)[1][slot]


def type3(x: TraceCoordinates) -> complex:
    """Full descending word trace minus the closing trace a_{n+1}, read from ``_values``."""
    if x.n == 3:
        raise NotApplicable("for n = 3 the single type 1 relation covers closure")
    return _values(x)[2]


class RelationResiduals(_record("RelationResiduals", "type1 type2 type3 max scale normalized")):
    """Magnitudes of every defining relation at a point, grouped by type.

    ``type1`` and ``type2`` are tuples in enumeration order, ``type3`` is
    None for n = 3.  ``max`` is the raw maximum; ``normalized`` divides it
    by ``scale``, the cube of (1 + largest input magnitude).  The scale fits
    no family's degree: type 1 has degree 6 and type 3 degree n.
    """

    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self.type1) + len(self.type2) + (0 if self.type3 is None else 1)


def _magnitudes(values: list) -> tuple[float, ...]:
    """``abs`` of each value.  CPython's complex ``abs`` of a nan raises
    ``OverflowError`` when an earlier overflow left ``ERANGE`` behind; only
    then are the magnitudes retaken, nan as nan, and a real overflow raises."""
    try:
        return tuple(map(abs, values))
    except OverflowError:
        return tuple(nan if cmath.isnan(v) and not cmath.isinf(v) else abs(v) for v in values)


def membership(x: TraceCoordinates) -> RelationResiduals:
    """Evaluate every defining relation at x.

    The magnitudes of ``_values``, the one evaluation the public evaluators
    read too, memoized on the point; each call retakes the magnitudes.
    Reports residual magnitudes only and never fails on large values;
    deciding what counts as "on the variety" is the caller's job.
    """
    v1, v2, v3 = _values(x)
    r1, r2 = _magnitudes(v1), _magnitudes(v2)
    r3 = None if v3 is None else _magnitudes([v3])[0]
    worst = max(max(r1), max(r2, default=0.0), r3 or 0.0)
    scale = (1.0 + x.max_abs()) ** 3
    return RelationResiduals(r1, r2, r3, worst, scale, worst / scale)
