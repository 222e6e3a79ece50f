import pytest

from monodromy import (
    HermitianForm,
    Mat2,
    SamplerConfig,
    TraceOutOfRange,
    Tolerance,
    close_tuple,
    phi,
    sample_generic,
    sample_su11,
    sample_su2,
    verify_invariance,
)
from monodromy.samplers import SplitMix64, companion, random_unimodular, su11_element
from monodromy.sl2 import IDENTITY, max_entry_diff
from monodromy.unitary import reality_gate

from conftest import closure_residual, commutator_gap

I_ONE_ONE = Mat2(1.0, 0.0, 0.0, -1.0)


def test_splitmix64_known_stream():
    # reference values for seed 0 (first outputs of the documented recurrence)
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_uniform_range():
    rng = SplitMix64(99)
    values = [rng.uniform(-2.0, 3.0) for _ in range(1000)]
    assert all(-2.0 <= v < 3.0 for v in values)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(seed=0, n=2)
    with pytest.raises(ValueError):
        SamplerConfig(seed=0, n=4, entry_bound=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(seed=0, n=4, traces=(1.0, 2.0))


def test_companion_matrix_identity():
    for a in (0.0, 1.5, -3.0 + 2.0j):
        c = companion(a)
        assert c.trace == a and c.det == 1.0


def test_random_unimodular_bounds():
    rng = SplitMix64(7)
    for _ in range(200):
        p = random_unimodular(rng)
        assert abs(p.det - 1.0) <= 1e-12
        assert p.max_abs() <= 2.0  # entry_bound 4 caps entries at 2


def test_generic_determinism():
    cfg = SamplerConfig(seed=123456789, n=5)
    a = sample_generic(cfg)
    b = sample_generic(cfg)
    assert a == b  # bitwise-identical dataclasses


def test_generic_prescribed_traces():
    traces = (0.3, -1.2 + 0.5j, 2.5, 0.0)
    rep = sample_generic(SamplerConfig(seed=5, n=4, traces=traces))
    for s, want in enumerate(traces, start=1):
        assert abs(rep.mats[s - 1].trace - want) <= 1e-12


def test_generic_irreducible_and_closed():
    tight = Tolerance(5e-12)
    for seed in range(30):
        rep = sample_generic(SamplerConfig(seed=seed, n=3 + seed % 4))
        close_tuple(rep.mats, tight)  # unimodularity at 1e-11
        assert closure_residual(rep) <= 1e-11
        assert commutator_gap(rep.mats[0], rep.mats[1]) > 1e-6


def test_su2_unitarity():
    for seed in range(20):
        rep = sample_su2(SamplerConfig(seed=seed, n=3 + seed % 3))
        for m in rep.mats:
            assert max_entry_diff(m.conj_transpose() @ m, IDENTITY) <= 1e-12
        assert verify_invariance(rep, HermitianForm(1.0, 1.0)) <= 1e-12


def test_su2_phi_real():
    for seed in range(20):
        x = phi(sample_su2(SamplerConfig(seed=100 + seed, n=4)))
        vals = list(x.local.a) + [v for _, v in x.items()]
        assert max(abs(complex(v).imag) for v in vals) <= 1e-10
        assert reality_gate(x)


def test_su2_trace_zero_target():
    rep = sample_su2(SamplerConfig(seed=3, n=3, traces=(0.0, 0.0, 0.0)))
    for m in rep.mats:
        assert abs(m.trace) <= 1e-13  # conjugates of diag(i, -i)


def test_su2_trace_out_of_range():
    with pytest.raises(TraceOutOfRange):
        sample_su2(SamplerConfig(seed=1, n=3, traces=(0.0, 2.0, 0.0)))
    with pytest.raises(TraceOutOfRange):
        sample_su2(SamplerConfig(seed=1, n=3, traces=(0.0, 0.5j, 0.0)))


def test_su11_element_trivial():
    assert su11_element(0.0, 0.0, 0.0) == IDENTITY


def test_su11_preserves_indefinite_form():
    for seed in range(20):
        rep = sample_su11(SamplerConfig(seed=seed, n=3 + seed % 3))
        for m in rep.mats:
            assert max_entry_diff(m.conj_transpose() @ I_ONE_ONE @ m, I_ONE_ONE) <= 1e-12
        assert verify_invariance(rep, HermitianForm(1.0, -1.0)) <= 1e-12


def test_su11_phi_real():
    for seed in range(20):
        x = phi(sample_su11(SamplerConfig(seed=200 + seed, n=5)))
        vals = list(x.local.a) + [v for _, v in x.items()]
        assert max(abs(complex(v).imag) for v in vals) <= 1e-10
        assert reality_gate(x)


def test_su11_prescribed_traces_any_magnitude():
    traces = (0.7, -2.5, 3.0, 1.9)
    rep = sample_su11(SamplerConfig(seed=8, n=4, traces=traces))
    for s, want in enumerate(traces, start=1):
        assert abs(rep.mats[s - 1].trace - want) <= 1e-12


def test_all_samplers_deterministic_and_closed():
    tight = Tolerance(5e-12)
    for fn in (sample_generic, sample_su2, sample_su11):
        cfg = SamplerConfig(seed=42, n=4)
        assert fn(cfg) == fn(cfg)
        rep = fn(cfg)
        close_tuple(rep.mats, tight)
        assert closure_residual(rep) <= 1e-11
