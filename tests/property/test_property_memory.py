"""Property-based tests: memory-contention fixed point invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.manycore import MemorySystem, MemorySystemParams, default_system


@st.composite
def contention_case(draw):
    n = draw(st.integers(1, 32))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    cfg = default_system(n_cores=n)
    freq = rng.uniform(0.8e9, 2.4e9, n)
    mem = rng.uniform(0.0, 0.03, n)
    bandwidth = draw(st.floats(1e5, 1e10))
    sensitivity = draw(st.floats(0.1, 3.0))
    return cfg, freq, mem, MemorySystemParams(bandwidth=bandwidth, sensitivity=sensitivity)


@given(contention_case())
@settings(max_examples=100, deadline=None)
def test_multiplier_bounds(case):
    cfg, freq, mem, params = case
    ms = MemorySystem(params)
    m = ms.solve_latency_multiplier(cfg, freq, mem)
    upper = 1.0 + params.sensitivity * params.u_max / (1.0 - params.u_max)
    assert 1.0 - 1e-9 <= m <= upper + 1e-9
    _, u = ms._implied_multiplier(cfg, freq, mem, m)
    assert 0.0 <= u <= params.u_max + 1e-12


@given(contention_case())
@settings(max_examples=100, deadline=None)
def test_solution_self_consistent(case):
    cfg, freq, mem, params = case
    ms = MemorySystem(params)
    m = ms.solve_latency_multiplier(cfg, freq, mem)
    g, u = ms._implied_multiplier(cfg, freq, mem, m)
    # Either the fixed point is interior (g == m) or it sits on the
    # saturated boundary where g is clamped.
    assert abs(g - m) < 1e-6 or u >= params.u_max - 1e-9


@given(contention_case(), st.floats(2.0, 100.0))
@settings(max_examples=100, deadline=None)
def test_monotone_in_bandwidth(case, factor):
    cfg, freq, mem, params = case
    tight = MemorySystem(params)
    loose = MemorySystem(
        MemorySystemParams(
            bandwidth=params.bandwidth * factor,
            sensitivity=params.sensitivity,
            u_max=params.u_max,
        )
    )
    m_tight = tight.solve_latency_multiplier(cfg, freq, mem)
    m_loose = loose.solve_latency_multiplier(cfg, freq, mem)
    assert m_loose <= m_tight + 1e-9


@given(contention_case())
@settings(max_examples=100, deadline=None)
def test_deterministic(case):
    cfg, freq, mem, params = case
    a = MemorySystem(params).solve_latency_multiplier(cfg, freq, mem)
    b = MemorySystem(params).solve_latency_multiplier(cfg, freq, mem)
    assert a == b


@given(contention_case())
@settings(max_examples=50, deadline=None)
def test_zero_memory_intensity_uncontended(case):
    cfg, freq, _, params = case
    ms = MemorySystem(params)
    m = ms.solve_latency_multiplier(cfg, freq, np.zeros_like(freq))
    assert m == 1.0
