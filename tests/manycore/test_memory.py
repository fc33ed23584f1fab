"""Tests for repro.manycore.memory (shared-memory contention)."""

import dataclasses

import numpy as np
import pytest

from repro.manycore import (
    ManyCoreChip,
    MemorySystem,
    MemorySystemParams,
    default_memory_system,
    default_system,
)
from repro.workloads import make_benchmark


@pytest.fixture
def cfg():
    return default_system(n_cores=16)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="bandwidth"):
            MemorySystemParams(bandwidth=0.0)
        with pytest.raises(ValueError, match="sensitivity"):
            MemorySystemParams(bandwidth=1e8, sensitivity=-1.0)
        with pytest.raises(ValueError, match="u_max"):
            MemorySystemParams(bandwidth=1e8, u_max=1.0)

    def test_default_factory(self, cfg):
        ms = default_memory_system(cfg)
        assert ms.params.bandwidth == pytest.approx(6e6 * cfg.n_cores)
        with pytest.raises(ValueError, match="per_core_bandwidth"):
            default_memory_system(cfg, per_core_bandwidth=0.0)


class TestFixedPoint:
    def freq_mem(self, cfg, mem_value):
        n = cfg.n_cores
        return np.full(n, cfg.vf_levels[-1][0]), np.full(n, mem_value)

    def test_no_demand_means_unit_multiplier(self, cfg):
        ms = MemorySystem(MemorySystemParams(bandwidth=1e8))
        freq, mem = self.freq_mem(cfg, 0.0)
        m = ms.solve_latency_multiplier(cfg, freq, mem)
        assert m == pytest.approx(1.0)
        assert ms._implied_multiplier(cfg, freq, mem, m)[1] == pytest.approx(0.0)

    def test_multiplier_at_least_one(self, cfg):
        ms = MemorySystem(MemorySystemParams(bandwidth=1e6))
        freq, mem = self.freq_mem(cfg, 0.02)
        m = ms.solve_latency_multiplier(cfg, freq, mem)
        assert m >= 1.0

    def test_monotone_in_bandwidth(self, cfg):
        freq, mem = self.freq_mem(cfg, 0.02)
        mults = []
        for bw in (1e7, 1e8, 1e9):
            ms = MemorySystem(MemorySystemParams(bandwidth=bw))
            mults.append(ms.solve_latency_multiplier(cfg, freq, mem))
        assert mults[0] > mults[1] > mults[2]

    def test_self_consistent_solution(self, cfg):
        # At the solved m, the implied multiplier equals m.
        ms = MemorySystem(MemorySystemParams(bandwidth=5e7))
        freq, mem = self.freq_mem(cfg, 0.02)
        m = ms.solve_latency_multiplier(cfg, freq, mem)
        g, _ = ms._implied_multiplier(cfg, freq, mem, m)
        assert g == pytest.approx(m, rel=1e-6)

    def test_saturation_bounded(self, cfg):
        p = MemorySystemParams(bandwidth=1e3, u_max=0.95, sensitivity=1.0)
        ms = MemorySystem(p)
        freq, mem = self.freq_mem(cfg, 0.03)
        m = ms.solve_latency_multiplier(cfg, freq, mem)
        assert m <= 1.0 + p.sensitivity * p.u_max / (1 - p.u_max) + 1e-9
        assert np.isfinite(m)

    def test_solve_is_pure(self, cfg):
        ms = MemorySystem(MemorySystemParams(bandwidth=1e7))
        freq, mem = self.freq_mem(cfg, 0.02)
        first = ms.solve_latency_multiplier(cfg, freq, mem)
        assert ms.solve_latency_multiplier(cfg, freq, mem) == first
        assert ms == MemorySystem(MemorySystemParams(bandwidth=1e7))
        assert [f.name for f in dataclasses.fields(ms)] == ["params"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            ms.params = MemorySystemParams(bandwidth=1e8)


class TestChipIntegration:
    def test_contention_reduces_throughput(self, cfg):
        wl = make_benchmark("ocean", cfg.n_cores, seed=0)
        top = np.full(cfg.n_cores, cfg.n_levels - 1)
        free = ManyCoreChip(cfg, wl)
        contended = ManyCoreChip(
            cfg, wl, memory_system=MemorySystem(MemorySystemParams(bandwidth=4e6 * cfg.n_cores))
        )
        for _ in range(20):
            obs_free = free.step(top)
            obs_cont = contended.step(top)
        assert obs_cont.chip_instructions < obs_free.chip_instructions

    def test_compute_bound_nearly_unaffected(self, cfg):
        wl = make_benchmark("blackscholes", cfg.n_cores, seed=0)
        top = np.full(cfg.n_cores, cfg.n_levels - 1)
        free = ManyCoreChip(cfg, wl)
        contended = ManyCoreChip(
            cfg, wl, memory_system=default_memory_system(cfg)
        )
        for _ in range(20):
            obs_free = free.step(top)
            obs_cont = contended.step(top)
        assert obs_cont.chip_instructions > 0.95 * obs_free.chip_instructions

    def test_lowering_frequency_relieves_contention(self, cfg):
        # With everyone slower, demand drops and the multiplier shrinks.
        # The multiplier the chip applied is the ratio of its effective
        # memory intensity to an uncontended twin's.
        wl = make_benchmark("ocean", cfg.n_cores, seed=0)
        ms = MemorySystem(MemorySystemParams(bandwidth=4e6 * cfg.n_cores))
        chip = ManyCoreChip(cfg, wl, memory_system=ms)
        free = ManyCoreChip(cfg, wl)
        multipliers = []
        for levels in (np.full(cfg.n_cores, cfg.n_levels - 1), np.zeros(cfg.n_cores, dtype=int)):
            contended = chip.step(levels).mem_intensity
            multipliers.append(float(np.max(contended / free.step(levels).mem_intensity)))
        m_fast, m_slow = multipliers
        assert m_slow < m_fast

    def test_reset_resets_memory_system(self, cfg):
        # The model holds no state: a reset chip sees the same contention.
        wl = make_benchmark("ocean", cfg.n_cores, seed=0)
        chip = ManyCoreChip(cfg, wl, memory_system=default_memory_system(cfg))
        top = np.full(cfg.n_cores, cfg.n_levels - 1)
        first = chip.step(top)
        chip.step(top)
        chip.reset()
        np.testing.assert_array_equal(chip.step(top).mem_intensity, first.mem_intensity)
