"""Shared fixtures and independent oracle helpers.

The trace oracle helpers work on plain nested tuples, not on Mat2, so trace
values asserted in tests come from a second arithmetic path.  The relation
oracle evaluates each relation from its definition through the coordinate
accessors, one call per value, in the order of operations the package
kernel must reproduce bit for bit.  The coordinate oracles walk the sorted
``items()``; the package reads the stored dicts directly, in another order.
The chart list and the relation count come from the index set and the closed
formula, not from the package's per-n tables.  The eigenvalues of an invariant
form come from the closed 2x2 formula, not from the package's sign rule.  The
Gram oracle decides signature and reducibility from the inertia of a real
symmetric matrix, without charts, and the Gram rebuild builds a second tuple
in the frame of one triple's traceless parts, without a chart normal form
past n = 3.  The chart oracle writes psi out itself.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, copysign, hypot

import pytest

from monodromy import (
    MINUS,
    PLUS,
    ChartId,
    LocalData,
    Mat2,
    Representation,
    SamplerConfig,
    TraceCoordinates,
    classify_charts,
    close_tuple,
    coordinate_distance,
    phi,
    reconstruct,
    sample_generic,
    sample_su2,
    sample_su11,
    triple_trace,
)
from monodromy.charts import index_set
from monodromy.coords import descending_product
from monodromy.sl2 import IDENTITY, max_entry_diff


# --- plain-tuple 2x2 oracle -------------------------------------------------

def omat(m: Mat2):
    return ((m.m11, m.m12), (m.m21, m.m22))


def omul(p, q):
    return (
        (p[0][0] * q[0][0] + p[0][1] * q[1][0], p[0][0] * q[0][1] + p[0][1] * q[1][1]),
        (p[1][0] * q[0][0] + p[1][1] * q[1][0], p[1][0] * q[0][1] + p[1][1] * q[1][1]),
    )


def otr(p):
    return p[0][0] + p[1][1]


def closure_residual(rep: Representation) -> float:
    """Entrywise norm of M_{n+1} M_n ... M_1 - I, by matrix products."""
    return max_entry_diff(rep.last @ descending_product(rep.mats), IDENTITY)


def commutator_gap(a: Mat2, b: Mat2) -> float:
    """|tr(B A B^-1 A^-1) - 2|, which vanishes exactly when <A, B> is reducible."""
    return abs((b @ a @ b.adjugate() @ a.adjugate()).trace - 2.0)


def oword(rep: Representation, indices) -> complex:
    """Trace of M_{i1} M_{i2} ... (1-based indices, written left to right)."""
    prod = omat(rep.mats[indices[0] - 1])
    for idx in indices[1:]:
        prod = omul(prod, omat(rep.mats[idx - 1]))
    return otr(prod)


# --- from-definition relation oracle ----------------------------------------

def relation_count(n):
    """Total number of defining relations: 1 for n = 3, else
    T(T+1)/2 + n C(n,4) + 1 with T = C(n,3)."""
    if n == 3:
        return 1
    t = comb(n, 3)
    return (t * t + t) // 2 + n * comb(n, 4) + 1


def oracle_s3(x, i1, i2, i3):
    a = x.local.trace
    return (
        a(i1) * x.pair(i3, i2) + a(i2) * x.pair(i3, i1) + a(i3) * x.pair(i2, i1)
        - a(i3) * a(i2) * a(i1)
        - 2.0 * triple_trace(x, i3, i2, i1)
    )


def oracle_z(x, i, j):
    a = x.local.trace
    if i == j:
        return 0.5 * a(i) * a(i) - 2.0
    return x.pair(i, j) - 0.5 * a(i) * a(j)


def _det3(m):
    """The 3x3 determinant, expanded along the first row."""
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def oracle_type1(x, ta, tb):
    """s3(ta) s3(tb) + 2 det over z(ta[p], tb[q]), expanded along the first row."""
    m = [[oracle_z(x, p, q) for q in tb] for p in ta]
    return oracle_s3(x, *ta) * oracle_s3(x, *tb) + 2.0 * _det3(m)


def oracle_type2(x, i, quad):
    """The alternating sum + - + - of z(i, p_k) s3(quad minus p_k)."""
    total = 0.0
    for pos in range(4):
        rest = quad[:pos] + quad[pos + 1:]
        term = oracle_z(x, i, quad[pos]) * oracle_s3(x, *rest)
        total = total - term if pos % 2 else total + term
    return total


def oracle_g(x, word, memo):
    """Trace of a descending word through the coordinate accessors: the
    four-factor recursion on the lowest three indices, memoized in ``memo``,
    written out term for term in the order of ``sl2.four_trace_reduction``
    with (A, B, C, D) = (M_head, M_i3, M_i2, M_i1)."""
    if word in memo:
        return memo[word]
    if len(word) == 1:
        v = x.local.trace(word[0])
    elif len(word) == 2:
        v = x.pair(word[0], word[1])
    elif len(word) == 3:
        v = triple_trace(x, *word)
    else:
        head = word[:-3]
        i3, i2, i1 = word[-3:]
        a = x.local.trace
        p = x.pair

        def g(sub):
            return oracle_g(x, sub, memo)

        v = 0.5 * (
            g(head) * a(i3) * a(i2) * a(i1)
            + g(head) * triple_trace(x, i3, i2, i1)
            + a(i3) * g(head + (i2, i1))
            + a(i2) * g(head + (i3, i1))
            + a(i1) * g(head + (i3, i2))
            + g(head + (i3,)) * p(i2, i1)
            - g(head + (i2,)) * p(i3, i1)
            + g(head + (i1,)) * p(i3, i2)
            - g(head) * a(i3) * p(i2, i1)
            - g(head) * a(i1) * p(i3, i2)
            - a(i3) * a(i2) * g(head + (i1,))
            - a(i1) * a(i2) * g(head + (i3,))
        )
    memo[word] = v
    return v


# --- from-definition chart oracle -------------------------------------------

def psi(s, t, u):
    """s^2 + t^2 + u^2 - s t u - 4: at (tr(AB), tr A, tr B) it equals
    tr(A B A^-1 B^-1) - 2, so it vanishes exactly when the pair is reducible."""
    return s * s + t * t + u * u - s * t * u - 4.0


def charts_for(n):
    """Every chart for tuples of size n, in lexicographic (j, k, i0) order: each
    chart pair with the base anchor 0, then every index outside the pair."""
    return [
        ChartId(j, k, i0)
        for j, k in index_set(n)
        for i0 in range(n + 1)
        if i0 not in (j, k)
    ]


def oracle_chart_psi(x, chart):
    """psi(x_kj, a_k, a_j) on a base chart, psi(x_{k j i0}, x_kj, a_i0) on an
    anchored one, read through the coordinate accessors."""
    a = x.local.trace
    xkj = x.pair(chart.k, chart.j)
    if chart.i0 == 0:
        return psi(xkj, a(chart.k), a(chart.j))
    return psi(triple_trace(x, chart.k, chart.j, chart.i0), xkj, a(chart.i0))


def oracle_chart_entries(x, tol):
    """(chart, value, admissible, psi) per chart and the best admissible chart,
    each value p = (x_kj^2 - 4) psi from ``oracle_chart_psi`` and ``x.pair``;
    admissible means |p| above the zero threshold tol.abs * (1 + |x_kj|^4)."""
    entries = []
    best, best_mag = None, 0.0
    for chart in charts_for(x.n):
        xkj = x.pair(chart.k, chart.j)
        ps = oracle_chart_psi(x, chart)
        value = (xkj * xkj - 4.0) * ps
        admissible = abs(value) > tol.abs * (1.0 + abs(xkj) ** 4)
        entries.append((chart, value, admissible, ps))
        if admissible and abs(value) > best_mag:
            best, best_mag = chart, abs(value)
    return entries, best


# --- references for rebuilt tuples and their forms --------------------------

def branch_gap(x, chart):
    """Coordinate distance between the tuples rebuilt on the two square-root
    branches of ``chart``; they are conjugate, so it must vanish."""
    plus = reconstruct(x, chart, PLUS).rep
    minus = reconstruct(x, chart, MINUS).rep
    return coordinate_distance(phi(plus), phi(minus))


def form_eigenvalues(form) -> tuple[float, float]:
    """Real eigenvalues of a ``HermitianForm`` [[h11, h12], [conj(h12), h22]],
    larger first, from the closed formula for a 2x2 Hermitian matrix."""
    mean = 0.5 * (form.h11 + form.h22)
    radius = (0.25 * (form.h11 - form.h22) ** 2 + abs(form.h12) ** 2) ** 0.5
    return mean + radius, mean - radius


# --- canonical-walk coordinate oracle ----------------------------------------

def oracle_max_abs(x):
    """Largest magnitude over the local traces and the canonical ``items()`` walk."""
    return max(
        max(abs(v) for v in x.local.a),
        max(abs(v) for _, v in x.items()),
    )


def oracle_coordinate_distance(xa, xb):
    """Largest |xa_c - xb_c| / (1 + |xa_c|), pairing both canonical walks by position."""
    if xa.n != xb.n:
        raise ValueError(f"coordinate layouts differ: n = {xa.n} vs {xb.n}")
    worst = 0.0
    for (key, va), (_, vb) in zip(xa.items(), xb.items()):
        worst = max(worst, abs(va - vb) / (1.0 + abs(va)))
    return worst


def oracle_reality_gate(x, tol):
    """Every local trace and canonical-walk coordinate real within tol.abs."""
    values = list(x.local.a) + [v for _, v in x.items()]
    return all(abs(complex(v).imag) <= tol.abs for v in values)


# --- chart-free Gram oracle ----------------------------------------------------
# z_ij = tr(M_i0 M_j0) for the traceless parts M0 = M - (tr M / 2) I: Z is the
# Gram matrix of n vectors of sl2 under its trace form, which has signature
# (0+, 3-) on su(2) and (2+, 1-) on su(1,1); a reducible tuple keeps them in a
# Borel subalgebra, where the form has rank <= 1 (Goldman, arXiv:0901.1404).

def oracle_gram(x):
    """The real n x n matrix Z, z_ii = a_i^2/2 - 2 and z_ij = x_ij - a_i a_j / 2,
    read through the accessors at a real point."""
    a = [complex(v).real for v in x.local.a]
    return [[a[i] * a[i] / 2 - 2 if i == j else complex(x.pair(j + 1, i + 1)).real - a[i] * a[j] / 2
             for j in range(x.n)] for i in range(x.n)]


def oracle_inertia(z, rel=1e-9):
    """(positive, negative, zero) eigenvalue counts of the real symmetric z, by
    cyclic Jacobi rotations; an eigenvalue within rel * max|eigenvalue| is zero."""
    a = [list(row) for row in z]
    n = len(a)
    for _ in range(50):
        off = sum(a[p][q] ** 2 for p in range(n) for q in range(n) if p != q)
        if off <= 1e-32 * sum(v * v for row in a for v in row):
            break
        for p, q in ((p, q) for p in range(n) for q in range(p + 1, n)):
            if a[p][q] == 0.0:
                continue
            theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
            t = copysign(1.0, theta) / (abs(theta) + hypot(theta, 1.0))
            c = 1.0 / hypot(t, 1.0)
            s = t * c
            for row in a:  # columns p and q
                row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
            a[p], a[q] = ([c * u - s * v for u, v in zip(a[p], a[q])],
                          [s * u + c * v for u, v in zip(a[p], a[q])])
    eig = [a[i][i] for i in range(n)]
    zero = rel * max(map(abs, eig))
    return (sum(v > zero for v in eig), sum(v < -zero for v in eig),
            sum(abs(v) <= zero for v in eig))


def oracle_gram_rebuild(x):
    """Worst trace, det and round-trip residual of a second rebuild, in the Gram
    frame of one triple instead of a chart's normal form.

    The pivot t0 maximizes |s3(t)| / (1 + max|z|^(3/2)) over t's 3x3 block of Z
    (det Z[t0, t0] = -s3(t0)^2 / 2 is the frame's volume).  Its three matrices are
    rebuilt as an n = 3 point on that point's best chart; their traceless parts
    M0_m span sl2, so every other M_i = (a_i / 2) I + sum_m c_m M0_m with
    Z[t0, t0] c = Z[t0, i], solved by Cramer's rule.  The tuple is closed with
    the adjugate of M_n ... M_1, as ``reconstruct`` closes it."""
    n, a = x.n, x.local.trace
    z = [[oracle_z(x, i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]

    def relative_s3(t):
        big = max(abs(z[p - 1][q - 1]) for p in t for q in t)
        return abs(oracle_s3(x, *t)) / (1.0 + big ** 1.5)

    t0 = max(combinations(range(1, n + 1), 3), key=relative_s3)
    i1, i2, i3 = t0
    y = TraceCoordinates(
        LocalData((a(i1), a(i2), a(i3), triple_trace(x, i3, i2, i1))),
        {(1, 2): x.pair(i2, i1), (1, 3): x.pair(i3, i1), (2, 3): x.pair(i3, i2)},
    )
    frame = dict(zip(t0, reconstruct(y, classify_charts(y).best).rep.mats))
    basis = [(m.m11 - m.trace / 2, m.m12, m.m21, m.m22 - m.trace / 2) for m in frame.values()]
    gram = [[z[p - 1][q - 1] for q in t0] for p in t0]
    volume = _det3(gram)
    mats = []
    for i in range(1, n + 1):
        if i in frame:
            mats.append(frame[i])
            continue
        col = [z[p - 1][i - 1] for p in t0]
        c = [_det3([[col[r] if s == m else gram[r][s] for s in range(3)] for r in range(3)])
             / volume for m in range(3)]
        e = [sum(cm * b[entry] for cm, b in zip(c, basis)) for entry in range(4)]
        h = 0.5 * a(i)
        mats.append(Mat2(h + e[0], e[1], e[2], h + e[3]))
    rep = Representation(mats, descending_product(mats).adjugate())
    closed = rep.mats + (rep.last,)
    return max(
        max(abs(m.trace - v) for m, v in zip(closed, x.local.a)),
        max(abs(m.det - 1.0) for m in closed),
        coordinate_distance(x, phi(rep)),
    )


# --- canonical fixtures -------------------------------------------------------

# The hand-checked n = 3 tuple with a = (0, 0, 3, -9/2), x = (-5/2, 0, 3/2).
FIXTURE_MATS = (
    Mat2(0.0, 1.0, -1.0, 0.0),
    Mat2(0.0, 2.0, -0.5, 0.0),
    Mat2(2.0, 1.0, 1.0, 1.0),
)

# n = 3 coordinate file with every pair trace at +/-2: every chart polynomial
# vanishes, so no chart is admissible.
FLAT_COORDS = {
    "n": 3,
    "a": [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]],
    "pairs": {"21": [2.0, 0.0], "31": [-2.0, 0.0], "32": [2.0, 0.0]},
    "triples": {},
}

# n = 3 coordinate file whose deciding psi sits within tolerance of zero.
BOUNDARY_COORDS = {
    "n": 3,
    "a": [[(5e-10) ** 0.5, 0.0], [2.0, 0.0], [0.0, 0.0], [2.0, 0.0]],
    "pairs": {"21": [0.0, 0.0], "31": [2.0, 0.0], "32": [2.0, 0.0]},
    "triples": {},
}

# n = 3 coordinate file whose only admissible chart, (1,2,base) with |p| = 8e-8
# and psi = 100, has x_21^2 - 4 = 8e-10: the pair trace sits at 2, a
# degenerate eigenvalue pair.
DEGENERATE_PAIR_COORDS = {
    "n": 3,
    "a": [[5.0, 0.0], [-5.0, 0.0], [0.5, 0.0], [0.3, 0.0]],
    "pairs": {"21": [2.0 + 2e-10, 0.0], "31": [2.0, 0.0], "32": [2.0, 0.0]},
    "triples": {},
}


@pytest.fixture
def fixture_mats():
    return FIXTURE_MATS


@pytest.fixture
def fixture_rep(fixture_mats):
    return close_tuple(fixture_mats)


@pytest.fixture
def fixture_coords(fixture_rep):
    return phi(fixture_rep)


def identity_rep(n: int) -> Representation:
    return close_tuple([Mat2(1.0, 0.0, 0.0, 1.0)] * n)


def generic(n: int, seed: int, **kw) -> Representation:
    return sample_generic(SamplerConfig(seed=seed, n=n, **kw))


def su2(n: int, seed: int, **kw) -> Representation:
    return sample_su2(SamplerConfig(seed=seed, n=n, **kw))


def su11(n: int, seed: int, **kw) -> Representation:
    return sample_su11(SamplerConfig(seed=seed, n=n, **kw))


# sampler families by name; generic16 is generic at entry bound 16
FAMILIES = {
    "su2": su2,
    "su11": su11,
    "generic": generic,
    "generic16": lambda n, seed: generic(n, seed, entry_bound=16.0),
}
