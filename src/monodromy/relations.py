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

Type 1 and type 2 values are read from per-point tables, built once and
memoized on the point: the symmetric ``z`` matrix and the ``s3`` value of
every ascending triple.  ``membership`` and the public
evaluators share these tables and the one formula for each family; indices
are checked only where the public evaluators are entered.  Type 1 reads
the 2x2 minors of each row pair from a table that ``membership`` builds
once per call and does not keep.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

from .coords import TraceCoordinates
from .errors import BadIndex, NotApplicable
from .sl2 import _record


def psi(s: complex, t: complex, u: complex) -> complex:
    """s^2 + t^2 + u^2 - s t u - 4.

    At (tr(AB), tr(A), tr(B)) this equals tr(A B A^-1 B^-1) - 2, so it
    vanishes exactly when the pair generates a reducible group.
    """
    return s * s + t * t + u * u - s * t * u - 4.0


def _check_ascending(x: TraceCoordinates, indices: tuple[int, ...]) -> None:
    if list(indices) != sorted(set(indices)):
        raise BadIndex(f"indices {indices} must be strictly ascending")
    if indices[0] < 1 or indices[-1] > x.n:
        raise BadIndex(f"indices {indices} out of range 1..{x.n}")


def _tables(x: TraceCoordinates) -> tuple:
    """The per-point tables ``(z, s)``, built once and memoized on x.

    ``z`` is the symmetric (n+1) x (n+1) list of lists of ``z_entry``
    values, row and column 0 padding.  ``s`` maps every ascending triple, in
    lexicographic order, to its ``s3`` value.
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
    tables = (z, s)
    x._cache["tables"] = tables
    return tables


def s3(x: TraceCoordinates, i1: int, i2: int, i3: int) -> complex:
    """a_i1 x_{i3 i2} + a_i2 x_{i3 i1} + a_i3 x_{i2 i1} - a_i3 a_i2 a_i1 - 2 x_{i3 i2 i1}."""
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
    """type 1 values of a row triple, ``z`` row ``r0`` first and the minors ``mm``
    of its other rows, against each ``(b0, b1, b2, k12, k02, k01)`` in ``cols``
    with ``s3(b)`` in ``s_cols``; ``k12`` is the slot in ``mm`` of columns (b1, b2)."""
    return [
        s_a * s_b + 2.0 * (r0[b0] * mm[k12] - r0[b1] * mm[k02] + r0[b2] * mm[k01])
        for (b0, b1, b2, k12, k02, k01), s_b in zip(cols, s_cols)
    ]


@lru_cache(maxsize=None)
def _layout(n: int) -> tuple:
    """``(col_pairs, rows)``: the column pairs (c, d) in the slot order of a minor list,
    and ``(i0, i1, i2, pos, cols)`` per ascending triple, ``cols`` holding the
    ``_type1_values`` entry of each triple from ``pos`` on."""
    col_pairs = list(combinations(range(1, n + 1), 2))
    slot = {pair: k for k, pair in enumerate(col_pairs)}
    triples = list(combinations(range(1, n + 1), 3))
    rows = [
        (*ta, pos, [(b0, b1, b2, slot[(b1, b2)], slot[(b0, b2)], slot[(b0, b1)])
                    for b0, b1, b2 in triples[pos:]])
        for pos, ta in enumerate(triples)
    ]
    return col_pairs, rows


def _type2_row(z_i, terms) -> list[complex]:
    """type 2 values at one index for each quadruple term of ``_quad_terms``."""
    return [
        z_i[p0] * c0 - z_i[p1] * c1 + z_i[p2] * c2 - z_i[p3] * c3
        for p0, p1, p2, p3, c0, c1, c2, c3 in terms
    ]


def _quad_terms(s, quads) -> list[tuple]:
    """Each quadruple with the ``s3`` values of its sub-triples, dropping p0, ..., p3 in turn."""
    return [
        (p0, p1, p2, p3, s[(p1, p2, p3)], s[(p0, p2, p3)], s[(p0, p1, p3)], s[(p0, p1, p2)])
        for p0, p1, p2, p3 in quads
    ]


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
    z, s = _tables(x)
    b0, b1, b2 = tb
    mm = _minors(z[ta[1]], z[ta[2]], ((b1, b2), (b0, b2), (b0, b1)))
    return _type1_values(z[ta[0]], mm, s[ta], [(b0, b1, b2, 0, 1, 2)], [s[tb]])[0]


def type2(x: TraceCoordinates, i: int, quad) -> complex:
    """Alternating sum of z(i, p_k) s3(quadruple minus p_k) over the quadruple."""
    if x.n == 3:
        raise NotApplicable("type 2 relations need n >= 4")
    quad = tuple(quad)
    if len(quad) != 4:
        raise BadIndex(f"need an index quadruple, got {quad}")
    _check_ascending(x, quad)
    if not 1 <= i <= x.n:
        raise BadIndex(f"index {i} out of range 1..{x.n}")
    z, s = _tables(x)
    return _type2_row(z[i], _quad_terms(s, [quad]))[0]


def g_poly(x: TraceCoordinates, indices) -> complex:
    """Trace of the descending product M_{i_k} ... M_{i_1} in terms of stored data.

    ``indices`` must be strictly descending.  A single index gives the local
    trace, two give the pair trace, three the triple trace; longer words are
    reduced through the four-factor trace identity applied to the lowest
    three indices, memoized over sub-words.  After the checks here, every
    value is read straight from the stored coordinates.
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
    return _g(idx, a, x.pairs, x.triples or {(1, 2, 3): a[4]}, {})


def _g(word: tuple[int, ...], a: tuple, pairs: dict, triples: dict, memo: dict) -> complex:
    """Trace of a checked descending word from the 1-based local traces ``a``
    and the stored ``pairs`` and ``triples``, memoized in ``memo``."""
    v = memo.get(word)
    if v is not None:
        return v
    length = len(word)
    if length == 1:
        v = a[word[0]]
    elif length == 2:
        v = pairs[(word[1], word[0])]
    elif length == 3:
        v = triples[(word[2], word[1], word[0])]
    else:
        head = word[:-3]
        i3, i2, i1 = word[-3:]
        a3, a2, a1 = a[i3], a[i2], a[i1]
        x21, x31, x32 = pairs[(i1, i2)], pairs[(i1, i3)], pairs[(i2, i3)]
        g = _g(head, a, pairs, triples, memo)
        g3 = _g(head + (i3,), a, pairs, triples, memo)
        g1 = _g(head + (i1,), a, pairs, triples, memo)
        v = 0.5 * (
            g * a3 * a2 * a1
            + g * triples[(i1, i2, i3)]
            + a1 * _g(head + (i3, i2), a, pairs, triples, memo)
            + a2 * _g(head + (i3, i1), a, pairs, triples, memo)
            + a3 * _g(head + (i2, i1), a, pairs, triples, memo)
            + g3 * x21
            - _g(head + (i2,), a, pairs, triples, memo) * x31
            + g1 * x32
            - g * a3 * x21
            - g * a1 * x32
            - g1 * a3 * a2
            - g3 * a2 * a1
        )
    memo[word] = v
    return v


def type3(x: TraceCoordinates) -> complex:
    """Full descending word trace minus the closing trace a_{n+1}."""
    if x.n == 3:
        raise NotApplicable("for n = 3 the single type 1 relation covers closure")
    return g_poly(x, tuple(range(x.n, 0, -1))) - x.local.trace(x.n + 1)


def relation_count(n: int) -> int:
    """Total number of defining relations: 1 for n = 3, else
    T(T+1)/2 + n C(n,4) + 1 with T = C(n,3)."""
    if n < 3:
        raise ValueError("need n >= 3")
    if n == 3:
        return 1
    t = comb(n, 3)
    return (t * t + t) // 2 + n * comb(n, 4) + 1


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
    that the public evaluators share, by the same formulas; indices are
    checked only at those public entry points, never in the loops here.
    Reports residual magnitudes only and never fails on large values;
    deciding what counts as "on the variety" is the caller's job.  The
    result is memoized on the (immutable) coordinate point.
    """
    cached = x._cache.get("membership")
    if cached is not None:
        return cached
    n = x.n
    z, s = _tables(x)
    col_pairs, rows = _layout(n)
    sv = list(s.values())
    minors = {}  # row pair -> its minor list, for this call only
    r1: list[float] = []
    for i0, i1, i2, pos, cols in rows:
        mm = minors.get((i1, i2))
        if mm is None:
            mm = minors[(i1, i2)] = _minors(z[i1], z[i2], col_pairs)
        r1 += map(abs, _type1_values(z[i0], mm, sv[pos], cols, sv[pos:]))
    r2: list[float] = []
    r3 = None
    if n > 3:
        terms = _quad_terms(s, combinations(range(1, n + 1), 4))
        for i in range(1, n + 1):
            r2 += map(abs, _type2_row(z[i], terms))
        r3 = abs(type3(x))
    worst = max(max(r1), max(r2, default=0.0), r3 or 0.0)
    scale = (1.0 + x.max_abs()) ** 3
    result = RelationResiduals(tuple(r1), tuple(r2), r3, worst, scale, worst / scale)
    x._cache["membership"] = result
    return result
