"""Defining polynomial relations of the coordinate image and their residuals.

The image of the trace-coordinate map is cut out by three families of
polynomials:

* type 1: one per unordered pair of ascending index triples (repetition
  allowed), ``s3(t1) s3(t2) + 2 det Z`` over a 3x3 block of ``z`` entries;
* type 2 (n >= 4): one per (index, ascending quadruple), an alternating
  ``z``-weighted sum of ``s3`` values;
* type 3 (n >= 4): the full descending word trace, expanded recursively
  into stored data, minus the closing trace a_{n+1}.

For n = 3 the single type 1 polynomial is the classical cubic relation and
is the whole story.  Enumeration order is fixed: type 1 over lexicographic
unordered pairs of triples, type 2 over lexicographic (i, quadruple),
type 3 last.

Every decision that depends only on n is made once, in the cached plan
``_layout(n)`` (``_word_plan`` per word); per point, the kernels read by slot
from tables memoized on the point, the symmetric ``z`` matrix and every ``s3``.
Type 1 reads each row pair's 2x2 minors of ``z``, built once per ``membership``
call, against one column table all row triples share; the determinant's factor
2 rides on a doubled copy of the first ``z`` row (doubling is exact).  The
public evaluators use the same plans and formulas, and alone check indices.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .coords import TraceCoordinates
from .errors import BadIndex, NotApplicable
from .sl2 import _record


def _check_ascending(x: TraceCoordinates, indices: tuple[int, ...]) -> None:
    if list(indices) != sorted(set(indices)):
        raise BadIndex(f"indices {indices} must be strictly ascending")
    if indices[0] < 1 or indices[-1] > x.n:
        raise BadIndex(f"indices {indices} out of range 1..{x.n}")


def _tables(x: TraceCoordinates) -> tuple:
    """The per-point tables ``(z, s, sv)``, built once and memoized on x.

    ``z`` is the symmetric (n+1) x (n+1) list of lists of ``z_entry``
    values, row and column 0 padding.  ``s`` maps every ascending triple, in
    lexicographic order, to its ``s3`` value; ``sv`` lists those values.
    """
    tables = x._cache.get("tables")
    if tables is not None:
        return tables
    n = x.n
    a = (0.0,) + x.local.a  # 1-based
    pairs = x.pairs
    # Both halves of z are computed, each entry as z_entry defines it, so the
    # kernel reproduces the from-definition values bit for bit.
    z = [[0.0] * (n + 1)]
    for i in range(1, n + 1):
        z.append([0.0] + [
            0.5 * a[i] * a[i] - 2.0 if i == j
            else pairs[(i, j) if i < j else (j, i)] - 0.5 * a[i] * a[j]
            for j in range(1, n + 1)
        ])
    s = {}
    for t in combinations(range(1, n + 1), 3):
        i1, i2, i3 = t
        # the triple trace tr(M_i3 M_i2 M_i1); for n = 3 it is the closing trace
        stored = a[4] if n == 3 else x.triples[t]
        s[t] = (
            a[i1] * pairs[(i2, i3)] + a[i2] * pairs[(i1, i3)] + a[i3] * pairs[(i1, i2)]
            - a[i3] * a[i2] * a[i1]
            - 2.0 * stored
        )
    tables = (z, s, list(s.values()))
    x._cache["tables"] = tables
    return tables


def s3(x: TraceCoordinates, i1: int, i2: int, i3: int) -> complex:
    """a_i1 x_{i3 i2} + a_i2 x_{i3 i1} + a_i3 x_{i2 i1} - a_i3 a_i2 a_i1 - 2 x_{i3 i2 i1}."""
    if not 1 <= i1 < i2 < i3 <= x.n:
        _check_ascending(x, (i1, i2, i3))
    return _tables(x)[1][(i1, i2, i3)]


def z_entry(x: TraceCoordinates, i: int, j: int) -> complex:
    """a_i^2/2 - 2 on the diagonal, x_ij - a_i a_j / 2 off it."""
    if not (1 <= i <= x.n and 1 <= j <= x.n):
        raise BadIndex(f"z entry ({i}, {j}) out of range 1..{x.n}")
    return _tables(x)[0][i][j]


def _minors(ra, rb, col_pairs) -> list[complex]:
    """The 2x2 minors ``ra[c] rb[d] - ra[d] rb[c]`` of two ``z`` rows, one per ``(c, d)``."""
    return [ra[c] * rb[d] - ra[d] * rb[c] for c, d in col_pairs]


def _type1_values(r0, mm, s_a: complex, cols, s_cols) -> list[complex]:
    """type 1 values of a row triple, ``r0`` its first ``z`` row doubled and ``mm``
    the minors of its other rows, against each ``(b0, b1, b2, k12, k02, k01)`` in
    ``cols`` with ``s3(b)`` in ``s_cols``; ``k12`` is the slot in ``mm`` of columns (b1, b2)."""
    return [
        s_a * s_b + (r0[b0] * mm[k12] - r0[b1] * mm[k02] + r0[b2] * mm[k01])
        for (b0, b1, b2, k12, k02, k01), s_b in zip(cols, s_cols)
    ]


def _type2_row(z_i, terms) -> list[complex]:
    """type 2 values at one index for each quadruple term of ``_quad_terms``."""
    return [
        z_i[p0] * c0 - z_i[p1] * c1 + z_i[p2] * c2 - z_i[p3] * c3
        for p0, p1, p2, p3, c0, c1, c2, c3 in terms
    ]


def _quad_terms(sv, quads) -> list[tuple]:
    """Each ``_layout`` quadruple entry with its sub-triples' ``s3`` values from ``sv``."""
    return [(p0, p1, p2, p3, sv[k0], sv[k1], sv[k2], sv[k3])
            for p0, p1, p2, p3, k0, k1, k2, k3 in quads]


@lru_cache(maxsize=None)
def _layout(n: int) -> tuple:
    """The per-n plan ``(col_pairs, rows, cols, quads)`` of type 1 and 2: a minor
    list holds one slot per column pair of ``col_pairs``; ``rows`` holds
    ``(i0, i1, i2, pos)`` per ascending triple, which reads ``cols[pos:]``, the
    ``_type1_values`` entries of the triples from ``pos`` on; ``quads`` maps each
    ascending quadruple q to q + the triple slots of q minus q[0], ..., q[3]."""
    col_pairs = list(combinations(range(1, n + 1), 2))
    slot = {pair: k for k, pair in enumerate(col_pairs)}
    triples = list(combinations(range(1, n + 1), 3))
    rows = [(*t, pos) for pos, t in enumerate(triples)]
    cols = [(b0, b1, b2, slot[(b1, b2)], slot[(b0, b2)], slot[(b0, b1)]) for b0, b1, b2 in triples]
    tslot = {t: k for k, t in enumerate(triples)}
    quads = {q: q + tuple(tslot[q[:p] + q[p + 1:]] for p in range(4))
             for q in combinations(range(1, n + 1), 4)}
    return col_pairs, rows, cols, quads


def type1(x: TraceCoordinates, triple_a, triple_b) -> complex:
    """s3(t1) s3(t2) + 2 det Z with Z[p][q] = z(t1[p], t2[q]).

    Symmetric in the two triples; they are canonicalized internally, so the
    swapped call returns the identical value.
    """
    ta, tb = sorted((tuple(triple_a), tuple(triple_b)))
    for t in (ta, tb):
        if len(t) != 3:
            raise BadIndex(f"need an index triple, got {t}")
        if not 1 <= t[0] < t[1] < t[2] <= x.n:  # the full check names the fault
            _check_ascending(x, t)
    z, s, _ = _tables(x)
    b0, b1, b2 = tb
    mm = _minors(z[ta[1]], z[ta[2]], ((b1, b2), (b0, b2), (b0, b1)))
    r = z[ta[0]]
    r0 = (2.0 * r[b0], 2.0 * r[b1], 2.0 * r[b2])  # the three entries read, doubled
    return _type1_values(r0, mm, s[ta], [(0, 1, 2, 0, 1, 2)], [s[tb]])[0]


def type2(x: TraceCoordinates, i: int, quad) -> complex:
    """Alternating sum of z(i, p_k) s3(quadruple minus p_k) over the quadruple."""
    if x.n == 3:
        raise NotApplicable("type 2 relations need n >= 4")
    quad = tuple(quad)
    if len(quad) != 4:
        raise BadIndex(f"need an index quadruple, got {quad}")
    if not 1 <= quad[0] < quad[1] < quad[2] < quad[3] <= x.n:
        _check_ascending(x, quad)
    if not 1 <= i <= x.n:
        raise BadIndex(f"index {i} out of range 1..{x.n}")
    z, _, sv = _tables(x)
    return _type2_row(z[i], _quad_terms(sv, [_layout(x.n)[3][quad]]))[0]


@lru_cache(maxsize=1024)
def _word_plan(word: tuple[int, ...]) -> tuple:
    """``(a_keys, pair_keys, triple_keys, steps)`` of a checked descending word.  Each
    sub-word it reaches has a slot, shorter first, so the word has the last; words of
    length 1, 2, 3 are read at those keys, and each longer one is a step holding the
    slots of the 14 words its four-factor identity reads, as ``_word_trace`` unpacks them."""
    need, parts = {word}, {}
    for size in range(len(word), 3, -1):
        for w in [w for w in need if len(w) == size]:
            head, (i3, i2, i1) = w[:-3], w[-3:]
            parts[w] = (head, head + (i3,), head + (i1,), head + (i3, i2), head + (i3, i1),
                        head + (i2, i1), head + (i2,), (i3,), (i2,), (i1,), (i2, i1), (i3, i1),
                        (i3, i2), (i3, i2, i1))
            need.update(parts[w])
    order = sorted(need, key=lambda w: (len(w), w))
    slot = {w: k for k, w in enumerate(order)}
    return (tuple(w[0] for w in order if len(w) == 1),
            *(tuple(w[::-1] for w in order if len(w) == size) for size in (2, 3)),
            tuple(tuple(map(slot.__getitem__, parts[w])) for w in order if len(w) > 3))


def _word_trace(word: tuple[int, ...], a: tuple, pairs: dict, triples: dict) -> complex:
    """Trace of a checked descending word from the 1-based local traces ``a`` and
    the stored ``pairs`` and ``triples``, in one pass over its ``_word_plan``."""
    a_keys, pair_keys, triple_keys, steps = _word_plan(word)
    v = [*map(a.__getitem__, a_keys), *map(pairs.__getitem__, pair_keys),
         *map(triples.__getitem__, triple_keys)]
    for kg, kg3, kg1, kg32, kg31, kg21, kg2, k3, k2, k1, k21, k31, k32, kt in steps:
        g, g3, g1, a3, a2, a1 = v[kg], v[kg3], v[kg1], v[k3], v[k2], v[k1]
        x21, x31, x32 = v[k21], v[k31], v[k32]
        v.append(0.5 * (g * a3 * a2 * a1 + g * v[kt] + a1 * v[kg32] + a2 * v[kg31] + a3 * v[kg21]
                        + g3 * x21 - v[kg2] * x31 + g1 * x32 - g * a3 * x21 - g * a1 * x32
                        - g1 * a3 * a2 - g3 * a2 * a1))
    return v[-1]


def g_poly(x: TraceCoordinates, indices) -> complex:
    """Trace of the descending product M_{i_k} ... M_{i_1} in terms of stored data.

    ``indices`` must be strictly descending.  A single index gives the local
    trace, two give the pair trace, three the triple trace; longer words are
    reduced through the four-factor trace identity applied to the lowest
    three indices, each sub-word evaluated once.  After the checks here,
    every value is read straight from the stored coordinates.
    """
    idx = tuple(indices)
    if not idx:
        raise BadIndex("empty index word")
    if list(idx) != sorted(set(idx), reverse=True):
        raise BadIndex(f"indices {idx} must be strictly descending")
    if idx[-1] < 1 or idx[0] > x.n:
        raise BadIndex(f"indices {idx} out of range 1..{x.n}")
    a = (0.0,) + x.local.a  # 1-based
    # for n = 3 the single triple trace is the closing trace a_4
    return _word_trace(idx, a, x.pairs, x.triples or {(1, 2, 3): a[4]})


def type3(x: TraceCoordinates) -> complex:
    """Full descending word trace minus the closing trace a_{n+1}."""
    if x.n == 3:
        raise NotApplicable("for n = 3 the single type 1 relation covers closure")
    return g_poly(x, tuple(range(x.n, 0, -1))) - x.local.trace(x.n + 1)


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


class RelationResiduals(_record("RelationResiduals", "type1 type2 type3 max scale normalized")):
    """Magnitudes of every defining relation at a point, grouped by type.

    ``type1`` and ``type2`` are tuples in enumeration order, ``type3`` is
    None for n = 3.  ``max`` is the raw maximum; ``normalized`` divides it
    by ``scale``, the cube of (1 + largest input magnitude), matching the
    dominant degree of the relations.
    """

    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self.type1) + len(self.type2) + (0 if self.type3 is None else 1)


def membership(x: TraceCoordinates) -> RelationResiduals:
    """Evaluate every defining relation at x.

    The values come from the per-point tables of ``z`` and ``s3`` values
    that the public evaluators share, by the same formulas and the per-n
    plan; indices are checked only at those public entry points, never in
    the loops here.  Reports residual magnitudes only and never fails on
    large values; deciding what counts as "on the variety" is the caller's
    job.  The result is memoized on the (immutable) coordinate point.
    """
    cached = x._cache.get("membership")
    if cached is not None:
        return cached
    n = x.n
    z, _, sv = _tables(x)
    col_pairs, rows, cols, quads = _layout(n)
    z2 = [[2.0 * v for v in row] for row in z[:n - 1]]  # the first rows of the triples, doubled
    minors = {p: _minors(z[p[0]], z[p[1]], col_pairs) for p in combinations(range(2, n + 1), 2)}
    r1: list[float] = []
    for i0, i1, i2, pos in rows:
        r1 += map(abs, _type1_values(z2[i0], minors[(i1, i2)], sv[pos], cols[pos:], sv[pos:]))
    r2: list[float] = []
    r3 = None
    if n > 3:
        terms = _quad_terms(sv, quads.values())
        for i in range(1, n + 1):
            r2 += map(abs, _type2_row(z[i], terms))
        r3 = abs(type3(x))
    worst = max(max(r1), max(r2, default=0.0), r3 or 0.0)
    scale = (1.0 + x.max_abs()) ** 3
    result = RelationResiduals(tuple(r1), tuple(r2), r3, worst, scale, worst / scale)
    x._cache["membership"] = result
    return result
