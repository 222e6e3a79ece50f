"""Deterministic seeded generators of test fixtures.

Randomness comes from a self-contained SplitMix64 generator rather than the
standard library, so a config reproduces the same tuple bit for bit on any
platform (and can be reimplemented elsewhere from the documented update
rule).  Three families are provided:

* generic determinant-1 tuples with exactly prescribed traces,
* special unitary tuples (preserving the identity form),
* tuples preserving diag(1, -1).
"""

from __future__ import annotations

import cmath
import math

from .coords import Representation, close_tuple
from .errors import TraceOutOfRange
from .sl2 import Mat2, _record

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64: state += golden ratio; output = xor-shift/multiply mix."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Double in [lo, hi) with 53 random bits."""
        return lo + (hi - lo) * ((self.next_u64() >> 11) * 2.0 ** -53)

    def coin(self) -> int:
        """+1 or -1."""
        return 1 if self.next_u64() & 1 else -1


class SamplerConfig(_record("SamplerConfig", "seed n traces entry_bound")):
    """Seed, tuple size, optional target traces, and conjugator entry cap."""

    __slots__ = ()

    def __new__(cls, seed: int, n: int, traces: tuple[complex, ...] | None = None,
                entry_bound: float = 4.0):
        if n < 3:
            raise ValueError("need n >= 3")
        if not entry_bound > 0:  # NaN would never end the rejection loop
            raise ValueError("entry_bound must be positive")
        # unit-square draws have |det| <= 4, so below 2 the rejection loop
        # (nearly) never draws |det| >= 8 / entry_bound^2
        if not 2.0 <= entry_bound < math.inf:
            raise ValueError(f"entry_bound must be finite and at least 2, got {entry_bound}")
        if traces is not None:
            traces = tuple(traces)
            if len(traces) != n:
                raise ValueError(f"need {n} target traces, got {len(traces)}")
            if not all(map(cmath.isfinite, traces)):
                raise ValueError(f"target traces must be finite, got {traces}")
        return tuple.__new__(cls, (seed, n, traces, entry_bound))


def random_unimodular(rng: SplitMix64, entry_bound: float = 4.0) -> Mat2:
    """Random determinant-1 matrix with entries bounded by entry_bound / 2.

    Draws entries in the unit square and rescales by a square root of the
    determinant; draws with |det| below 8 / entry_bound^2 are rejected to
    keep the rescaled entries bounded.
    """
    min_det = 8.0 / (entry_bound * entry_bound)
    while True:
        e = [
            complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            for _ in range(4)
        ]
        d = e[0] * e[3] - e[1] * e[2]
        if abs(d) >= min_det:
            break
    s = cmath.sqrt(d)
    return Mat2(e[0] / s, e[1] / s, e[2] / s, e[3] / s)


def companion(trace: complex) -> Mat2:
    """[[0, -1], [1, a]]: determinant 1 with the requested trace."""
    return Mat2(0.0, -1.0, 1.0, trace)


def sample_generic(cfg: SamplerConfig) -> Representation:
    """Conjugated companion matrices, one per target trace, closed into a tuple.

    Each matrix is P C(a) P^-1 with a seeded bounded conjugator P, so the
    requested traces are hit exactly up to roundoff.
    """
    rng = SplitMix64(cfg.seed)
    mats = []
    for s in range(cfg.n):
        if cfg.traces is not None:
            a = cfg.traces[s]
        else:
            a = complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
        p = random_unimodular(rng, cfg.entry_bound)
        mats.append(p @ companion(a) @ p.adjugate())
    return close_tuple(mats)


def su2_element(rng: SplitMix64) -> Mat2:
    """Random special unitary matrix [[a, -conj(b)], [b, conj(a)]], |a|^2 + |b|^2 = 1."""
    while True:
        g = [rng.uniform(-1.0, 1.0) for _ in range(4)]
        # left to right, not sum(): its float rounding changed in CPython 3.12
        norm2 = g[0] * g[0] + g[1] * g[1] + g[2] * g[2] + g[3] * g[3]
        if 1e-4 <= norm2 <= 1.0:
            break
    inv = 1.0 / math.sqrt(norm2)
    alpha = complex(g[0], g[1]) * inv
    beta = complex(g[2], g[3]) * inv
    return Mat2(alpha, -beta.conjugate(), beta, alpha.conjugate())


def _real_trace(value: complex, kind: str) -> float:
    value = complex(value)
    if value.imag != 0:
        raise TraceOutOfRange(f"{kind} sampler needs real target traces, got {value!r}")
    return value.real


def sample_su2(cfg: SamplerConfig) -> Representation:
    """Tuple of special unitary matrices with real target traces in (-2, 2).

    Each matrix is U diag(e^{i t}, e^{-i t}) U^-1 with 2 cos t the target
    trace and U seeded special unitary; raises TraceOutOfRange at |a| >= 2.
    """
    rng = SplitMix64(cfg.seed)
    mats = []
    for s in range(cfg.n):
        if cfg.traces is not None:
            a = _real_trace(cfg.traces[s], "special unitary")
        else:
            a = rng.uniform(-1.9, 1.9)
        if not abs(a) < 2.0:
            raise TraceOutOfRange(f"target trace {a!r} not in (-2, 2)")
        theta = math.acos(a / 2.0)
        d = Mat2(cmath.exp(1j * theta), 0.0, 0.0, cmath.exp(-1j * theta))
        u = su2_element(rng)
        mats.append(u @ d @ u.adjugate())
    return close_tuple(mats)


def su11_element(gamma: float, delta: float, t: float) -> Mat2:
    """[[e^{ig} cosh t, e^{id} sinh t], [e^{-id} sinh t, e^{-ig} cosh t]].

    Determinant cosh^2 - sinh^2 = 1; preserves diag(1, -1) by construction.
    The trace is 2 cos(gamma) cosh(t).
    """
    ch, sh = math.cosh(t), math.sinh(t)
    return Mat2(
        cmath.exp(1j * gamma) * ch, cmath.exp(1j * delta) * sh,
        cmath.exp(-1j * delta) * sh, cmath.exp(-1j * gamma) * ch,
    )


def sample_su11(cfg: SamplerConfig) -> Representation:
    """Tuple preserving diag(1, -1) with real target traces (any magnitude).

    cosh t is drawn above max(1, |a|/2) so that gamma = arccos(a / (2 cosh t))
    exists and the trace lands on the target exactly up to roundoff.
    """
    rng = SplitMix64(cfg.seed)
    mats = []
    for s in range(cfg.n):
        if cfg.traces is not None:
            a = _real_trace(cfg.traces[s], "diag(1,-1)")
        else:
            a = rng.uniform(-3.0, 3.0)
        ch = max(1.0, abs(a) / 2.0) * (1.0 + rng.uniform(0.05, 0.6))
        t = math.acosh(ch)
        gamma = rng.coin() * math.acos(a / (2.0 * ch))
        delta = rng.uniform(0.0, 2.0 * math.pi)
        mats.append(su11_element(gamma, delta, t))
    return close_tuple(mats)
