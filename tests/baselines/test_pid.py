"""Tests for repro.baselines.pid."""

import numpy as np
import pytest

from repro.baselines import PIDCappingController
from repro.manycore import default_system
from repro.sim import run_controller
from repro.workloads import mixed_workload


@pytest.fixture
def cfg():
    return default_system(n_cores=8, n_levels=8, budget_fraction=0.6)


class TestConstruction:
    def test_validation(self, cfg):
        with pytest.raises(ValueError, match="gains"):
            PIDCappingController(cfg, kp=-1.0)
        with pytest.raises(ValueError, match="gain"):
            PIDCappingController(cfg, kp=0.0, ki=0.0)

    def test_first_decision_mid_ladder(self, cfg):
        levels = PIDCappingController(cfg).decide(None)
        assert np.all(levels == round((cfg.n_levels - 1) / 2))


class TestGlobalActuation:
    def test_all_cores_same_level(self, cfg):
        ctl = PIDCappingController(cfg)
        wl = mixed_workload(8, seed=4)
        from repro.manycore import ManyCoreChip
        chip = ManyCoreChip(cfg, wl)
        obs = None
        for _ in range(50):
            levels = ctl.decide(obs)
            assert len(np.unique(levels)) == 1
            obs = chip.step(levels)

    def test_levels_in_range(self, cfg):
        ctl = PIDCappingController(cfg)
        wl = mixed_workload(8, seed=4)
        result = run_controller(cfg, wl, ctl, n_epochs=200)
        assert result.n_epochs == 200


class TestTracking:
    def test_mean_power_tracks_budget(self, cfg):
        ctl = PIDCappingController(cfg)
        result = run_controller(cfg, mixed_workload(8, seed=5), ctl, n_epochs=500)
        tail = result.tail(0.5)
        assert tail.chip_power.mean() == pytest.approx(cfg.power_budget, rel=0.08)

    def test_hunts_around_budget(self, cfg):
        # The PI loop regulates the average: it must spend a nontrivial
        # fraction of epochs above the budget (the overshoot OD-RL removes).
        ctl = PIDCappingController(cfg)
        result = run_controller(cfg, mixed_workload(8, seed=5), ctl, n_epochs=500)
        tail = result.tail(0.5)
        over_frac = np.mean(tail.chip_power > cfg.power_budget)
        assert 0.05 < over_frac < 0.95

    def test_responds_to_budget_change(self, cfg):
        wl = mixed_workload(8, seed=6)
        tight = run_controller(cfg.with_budget(cfg.power_budget * 0.7), wl,
                               PIDCappingController(cfg.with_budget(cfg.power_budget * 0.7)),
                               n_epochs=400)
        loose = run_controller(cfg, wl, PIDCappingController(cfg), n_epochs=400)
        assert tight.tail(0.5).chip_power.mean() < loose.tail(0.5).chip_power.mean()

    def test_reset_clears_state(self, cfg):
        ctl = PIDCappingController(cfg)
        run_controller(cfg, mixed_workload(8, seed=5), ctl, n_epochs=50)
        ctl.reset()
        assert ctl._prev_error is None
        assert np.all(ctl.decide(None) == round((cfg.n_levels - 1) / 2))


class TestOneRowView:
    """The controller is row 0 of its own one-row ``BatchPID``."""

    def test_state_reads_through_the_stack(self, cfg):
        ctl = PIDCappingController(cfg)
        run_controller(cfg, mixed_workload(8, seed=5), ctl, n_epochs=20)
        assert ctl.stack.n_runs == 1
        assert ctl._command == float(ctl.stack._command[0])
        assert ctl._prev_error == float(ctl.stack._prev_error[0])

    def test_pickled_controller_continues_its_run(self, cfg):
        import pickle

        from repro.manycore import ManyCoreChip

        chip = ManyCoreChip(cfg, mixed_workload(8, seed=5))
        ctl = PIDCappingController(cfg)
        obs = None
        for _ in range(10):
            obs = chip.step(ctl.decide(obs))
        twin = pickle.loads(pickle.dumps(ctl))
        assert twin.stack.controllers[0].kp == ctl.kp
        for _ in range(10):
            levels = ctl.decide(obs)
            assert np.array_equal(twin.decide(obs), levels)
            obs = chip.step(levels)
