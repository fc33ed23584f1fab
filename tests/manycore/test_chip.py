"""Tests for repro.manycore.chip (the closed-loop plant)."""

import numpy as np
import pytest

from repro.manycore import ManyCoreChip, SensorSuite, SystemConfig, default_system
from repro.workloads import Phase, CorePhaseSequence, Workload, mixed_workload


@pytest.fixture
def cfg():
    return default_system(n_cores=8, n_levels=4)


@pytest.fixture
def chip(cfg):
    return ManyCoreChip(cfg, mixed_workload(8, seed=5))


def constant_workload(n_cores, mem=0.0, comp=0.9):
    seq = CorePhaseSequence([Phase(duration=1.0, mem_intensity=mem, compute_intensity=comp)])
    return Workload([seq] * n_cores, name="const")


class TestConstruction:
    def test_requires_vf_table(self):
        cfg = SystemConfig(n_cores=4, power_budget=10.0)
        with pytest.raises(ValueError, match="VF table"):
            ManyCoreChip(cfg, constant_workload(4))

    def test_requires_budget(self, cfg):
        from dataclasses import replace
        bad = replace(cfg, power_budget=0.0)
        with pytest.raises(ValueError, match="power_budget"):
            ManyCoreChip(bad, constant_workload(8))

    def test_starts_at_top_level(self, chip):
        assert np.all(chip.levels == chip.n_levels - 1)


class TestStep:
    def test_observation_fields_shapes(self, chip):
        obs = chip.step(np.full(8, 2))
        assert obs.power.shape == (8,)
        assert obs.instructions.shape == (8,)
        assert obs.temperature.shape == (8,)
        assert obs.levels.shape == (8,)
        assert obs.epoch == 0
        assert obs.time == pytest.approx(chip.cfg.epoch_time)

    def test_epoch_counter_advances(self, chip):
        chip.step(np.full(8, 1))
        obs = chip.step(np.full(8, 1))
        assert obs.epoch == 1
        assert chip.epoch == 2

    def test_levels_clamped_not_crashed(self, chip):
        obs = chip.step(np.array([-3, 0, 1, 2, 3, 5, 99, 2]))
        assert obs.levels.min() >= 0
        assert obs.levels.max() <= chip.n_levels - 1

    def test_rejects_wrong_shape(self, chip):
        with pytest.raises(ValueError, match="shape"):
            chip.step(np.zeros(4))

    def test_higher_level_more_power_and_throughput(self, cfg):
        wl = constant_workload(8, mem=0.001, comp=0.9)
        low_chip = ManyCoreChip(cfg, wl)
        high_chip = ManyCoreChip(cfg, wl)
        for _ in range(20):
            lo = low_chip.step(np.zeros(8, dtype=int))
            hi = high_chip.step(np.full(8, cfg.n_levels - 1))
        assert hi.chip_power > lo.chip_power
        assert hi.chip_instructions > lo.chip_instructions

    def test_transition_penalty_costs_instructions(self, cfg):
        wl = constant_workload(8)
        stable = ManyCoreChip(cfg, wl)
        switching = ManyCoreChip(cfg, wl)
        for chip in (stable, switching):
            chip.step(np.full(8, 2))  # both step to level 2 first
        obs_stable = stable.step(np.full(8, 2))
        obs_switch = switching.step(np.full(8, 3))  # all cores transition
        # The switching cores lose part of the epoch; at the higher level
        # they'd otherwise retire MORE instructions, so compare per-cycle.
        eff_stable = obs_stable.chip_instructions / cfg.vf_levels[2][0]
        eff_switch = obs_switch.chip_instructions / cfg.vf_levels[3][0]
        assert eff_switch < eff_stable

    def test_memory_bound_workload_draws_less_power(self, cfg):
        compute = ManyCoreChip(cfg, constant_workload(8, mem=0.0, comp=0.9))
        memory = ManyCoreChip(cfg, constant_workload(8, mem=0.02, comp=0.9))
        top = np.full(8, cfg.n_levels - 1)
        for _ in range(10):
            obs_c = compute.step(top)
            obs_m = memory.step(top)
        assert obs_m.chip_power < obs_c.chip_power
        assert obs_m.chip_instructions < obs_c.chip_instructions

    def test_temperature_rises_under_load(self, chip):
        t0 = chip.thermal.temperatures.copy()
        for _ in range(200):
            obs = chip.step(np.full(8, chip.n_levels - 1))
        assert np.all(obs.temperature > t0)

    def test_energy_accounting(self, cfg):
        chip = ManyCoreChip(cfg, constant_workload(8))
        total = 0.0
        for _ in range(10):
            obs = chip.step(np.full(8, 1))
            total += obs.chip_power * cfg.epoch_time
        assert chip.total_energy == pytest.approx(total)

    def test_instruction_accounting(self, cfg):
        chip = ManyCoreChip(cfg, constant_workload(8))
        total = 0.0
        for _ in range(10):
            obs = chip.step(np.full(8, 1))
            total += obs.chip_instructions
        assert chip.total_instructions == pytest.approx(total)

    def test_exact_sensors_match_truth(self, cfg):
        chip = ManyCoreChip(cfg, constant_workload(8), sensors=SensorSuite.exact())
        obs = chip.step(np.full(8, 2))
        assert np.array_equal(obs.sensed_power, obs.power)
        assert np.array_equal(obs.sensed_instructions, obs.instructions)

    def test_reset_restores_initial_state(self, chip):
        for _ in range(50):
            chip.step(np.full(8, 3))
        chip.reset()
        assert chip.epoch == 0
        assert chip.time == 0.0
        assert chip.total_energy == 0.0
        assert np.all(chip.levels == chip.n_levels - 1)
        assert np.allclose(chip.thermal.temperatures, chip.cfg.technology.t_ambient)

    def test_deterministic_replay(self, cfg):
        wl = mixed_workload(8, seed=11)
        a = ManyCoreChip(cfg, wl)
        b = ManyCoreChip(cfg, wl)
        rng = np.random.default_rng(3)
        for _ in range(30):
            levels = rng.integers(0, cfg.n_levels, size=8)
            oa = a.step(levels)
            ob = b.step(levels)
        assert np.array_equal(oa.power, ob.power)
        assert np.array_equal(oa.instructions, ob.instructions)
