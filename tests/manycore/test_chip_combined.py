"""Tests for the chip with all plant extensions composed simultaneously."""

import numpy as np
import pytest

from repro.manycore import (
    ManyCoreChip,
    MemorySystemParams,
    MemorySystem,
    SensorSpec,
    SensorSuite,
    big_little_map,
    default_system,
    sample_variation,
)
from repro.workloads import mixed_workload


@pytest.fixture
def cfg():
    return default_system(n_cores=12, budget_fraction=0.6)


def full_chip(cfg, seed=0):
    return ManyCoreChip(
        cfg,
        mixed_workload(cfg.n_cores, seed=seed),
        sensors=SensorSuite(
            np.random.default_rng(seed),
            power_spec=SensorSpec(relative_noise=0.02, quantum=0.1),
        ),
        variation=sample_variation(cfg, rng=np.random.default_rng(seed)),
        memory_system=MemorySystem(MemorySystemParams(bandwidth=5e6 * cfg.n_cores)),
        hetero=big_little_map(cfg.n_cores, big_fraction=0.5),
    )


class TestComposition:
    def test_all_extensions_coexist(self, cfg):
        chip = full_chip(cfg)
        for _ in range(50):
            obs = chip.step(np.full(cfg.n_cores, cfg.n_levels - 1))
        assert np.all(np.isfinite(obs.power))
        assert np.all(obs.power > 0)
        assert np.all(np.isfinite(obs.instructions))
        # contention only ever inflates the phases' memory intensity
        free = ManyCoreChip(cfg, chip.workload, hetero=chip.hetero)
        for _ in range(50):
            obs_free = free.step(np.full(cfg.n_cores, cfg.n_levels - 1))
        assert np.all(obs.mem_intensity >= obs_free.mem_intensity)

    def test_deterministic_given_seeds(self, cfg):
        a = full_chip(cfg, seed=3)
        b = full_chip(cfg, seed=3)
        rng = np.random.default_rng(0)
        for _ in range(30):
            levels = rng.integers(0, cfg.n_levels, cfg.n_cores)
            oa = a.step(levels)
            ob = b.step(levels)
        assert np.array_equal(oa.power, ob.power)
        assert np.array_equal(oa.sensed_power, ob.sensed_power)

    def test_reset_restores_everything(self, cfg):
        chip = full_chip(cfg)
        for _ in range(80):
            chip.step(np.full(cfg.n_cores, cfg.n_levels - 1))
        chip.reset()
        assert chip.epoch == 0
        assert chip.time == 0.0
        assert np.allclose(chip.thermal.temperatures, cfg.technology.t_ambient)

    def test_odrl_controls_fully_loaded_plant(self, cfg):
        from repro.core import ODRLController
        from repro.sim import simulate

        chip = full_chip(cfg)
        hetero = chip.hetero
        ctl = ODRLController(cfg, hetero=hetero, seed=0)
        result = simulate(chip, ctl, 800)
        tail = result.tail(0.3)
        over = np.maximum(tail.chip_power - cfg.power_budget, 0)
        # Controlled even with variation + contention + heterogeneity +
        # noisy sensors all at once.
        assert over.mean() < 0.05 * cfg.power_budget
        assert tail.chip_power.mean() > 0.4 * cfg.power_budget

    def test_little_cores_see_contention_too(self, cfg):
        chip = full_chip(cfg)
        top = np.full(cfg.n_cores, cfg.n_levels - 1)
        free = ManyCoreChip(cfg, chip.workload, hetero=chip.hetero)
        for _ in range(30):
            obs = chip.step(top)
            obs_free = free.step(top)
        little = chip.hetero.freq_scale < chip.hetero.freq_scale.max()
        assert little.any()
        assert np.all(obs.mem_intensity[little] > obs_free.mem_intensity[little])
