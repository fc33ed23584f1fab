"""Tests for repro.baselines.centralized_rl."""

import numpy as np
import pytest

from repro.baselines import CentralizedRLController
from repro.manycore import ManyCoreChip, default_system
from repro.sim import run_controller
from repro.workloads import mixed_workload


@pytest.fixture
def cfg():
    return default_system(n_cores=8, n_levels=8, budget_fraction=0.6)


class TestCentralizedRL:
    def test_single_global_level(self, cfg):
        ctl = CentralizedRLController(cfg, seed=1)
        chip = ManyCoreChip(cfg, mixed_workload(8, seed=1))
        obs = None
        for _ in range(50):
            levels = ctl.decide(obs)
            assert len(np.unique(levels)) == 1
            obs = chip.step(levels)

    def test_learns_budget_tracking(self, cfg):
        ctl = CentralizedRLController(cfg, seed=0)
        result = run_controller(cfg, mixed_workload(8, seed=2), ctl, n_epochs=800)
        tail = result.tail(0.3)
        # Should end up near (but not wildly above) the budget.
        assert tail.chip_power.mean() < 1.05 * cfg.power_budget
        assert tail.chip_power.mean() > 0.5 * cfg.power_budget

    def test_reset(self, cfg):
        ctl = CentralizedRLController(cfg, seed=0)
        run_controller(cfg, mixed_workload(8, seed=2), ctl, n_epochs=50)
        assert ctl.agent.step_counts[0] > 0
        ctl.reset()
        assert ctl.agent.step_counts[0] == 0

    def test_deterministic(self, cfg):
        wl = mixed_workload(8, seed=3)
        r1 = run_controller(cfg, wl, CentralizedRLController(cfg, seed=5), n_epochs=150)
        r2 = run_controller(cfg, wl, CentralizedRLController(cfg, seed=5), n_epochs=150)
        assert np.array_equal(r1.chip_power, r2.chip_power)

    def test_decision_cost_independent_of_cores(self):
        # O(1) in core count: the Q-table has a single agent.
        small = CentralizedRLController(default_system(n_cores=8), seed=0)
        large = CentralizedRLController(default_system(n_cores=256), seed=0)
        assert small.agent.q.shape == large.agent.q.shape
