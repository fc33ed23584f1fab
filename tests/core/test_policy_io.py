"""Tests for repro.core.policy_io (policy checkpointing)."""

import numpy as np
import pytest

from repro.core import ODRLController, load_policy, save_policy
from repro.manycore import default_system
from repro.sim import run_controller
from repro.workloads import mixed_workload


@pytest.fixture
def cfg():
    return default_system(n_cores=8, n_levels=4, budget_fraction=0.6)


@pytest.fixture
def trained(cfg):
    ctl = ODRLController(cfg, seed=1)
    result = run_controller(cfg, mixed_workload(8, seed=1), ctl, n_epochs=400)
    return ctl, result


class TestRoundTrip:
    def test_state_restored_exactly(self, cfg, trained, tmp_path):
        trained, _ = trained
        path = tmp_path / "policy.npz"
        save_policy(trained, path)
        fresh = ODRLController(cfg, seed=99)
        load_policy(fresh, path)
        assert np.array_equal(fresh.q, trained.q)
        assert np.array_equal(fresh.visits, trained.visits)
        assert fresh.step_count == trained.step_count
        assert np.array_equal(fresh.allocation, trained.allocation)
        assert fresh.guard == trained.guard

    def test_warm_start_matches_trained_steady_state(self, cfg, trained, tmp_path):
        trained_ctl, trained_result = trained
        path = tmp_path / "policy.npz"
        save_policy(trained_ctl, path)
        wl = mixed_workload(8, seed=1)

        # run_controller resets the controller, so load after construction
        # and drive the loop manually.
        from repro.manycore import ManyCoreChip
        from repro.sim import simulate

        warm = ODRLController(cfg, seed=5)
        chip = ManyCoreChip(cfg, wl)
        chip.reset()
        warm.reset()
        load_policy(warm, path)
        warm_result = simulate(chip, warm, 150, reset=False)

        # No warm-up transient: from epoch 0 the warm controller performs
        # within 10% of the trained controller's steady band.
        steady_bips = trained_result.tail(0.3).mean_throughput
        assert warm_result.mean_throughput > 0.9 * steady_bips

    def test_loaded_controller_stays_compliant(self, cfg, trained, tmp_path):
        trained_ctl, _ = trained
        path = tmp_path / "policy.npz"
        save_policy(trained_ctl, path)
        from repro.manycore import ManyCoreChip
        from repro.sim import simulate

        warm = ODRLController(cfg, seed=2)
        chip = ManyCoreChip(cfg, mixed_workload(8, seed=1))
        warm.reset()
        load_policy(warm, path)
        result = simulate(chip, warm, 300, reset=False)
        over = np.maximum(result.chip_power - cfg.power_budget, 0)
        assert over.mean() < 0.05 * cfg.power_budget


class TestWindowState:
    def test_v2_roundtrip_restores_realloc_window(self, cfg, trained, tmp_path):
        """Format v2 carries the coarse-level window accumulators so a
        restart resumes mid-window rather than restarting it."""
        trained_ctl, _ = trained
        path = tmp_path / "policy.npz"
        save_policy(trained_ctl, path)
        fresh = ODRLController(cfg, seed=42)
        fresh.reset()
        load_policy(fresh, path)
        assert fresh.checkpoint()["epoch"] == trained_ctl.checkpoint()["epoch"]
        assert np.array_equal(fresh.checkpoint()["window_ipc"], trained_ctl.checkpoint()["window_ipc"])
        assert fresh.checkpoint()["window_epochs"] == trained_ctl.checkpoint()["window_epochs"]
        assert fresh.checkpoint()["window_over_epochs"] == trained_ctl.checkpoint()["window_over_epochs"]

    def test_snapshot_restore_roundtrip_in_memory(self, cfg, trained):
        from repro.core.policy_io import restore_snapshot, snapshot_policy

        trained_ctl, _ = trained
        snapshot = snapshot_policy(trained_ctl)
        fresh = ODRLController(cfg, seed=42)
        fresh.reset()
        restore_snapshot(fresh, snapshot)
        assert np.array_equal(fresh.q, trained_ctl.q)
        assert fresh.guard == trained_ctl.guard
        assert fresh.checkpoint()["epoch"] == trained_ctl.checkpoint()["epoch"]

    def test_format_version_mismatch_rejected(self, cfg, trained):
        from repro.core.policy_io import restore_snapshot, snapshot_policy

        trained_ctl, _ = trained
        snapshot = snapshot_policy(trained_ctl)
        snapshot["format_version"] = np.array(99)
        with pytest.raises(ValueError, match="format version"):
            restore_snapshot(ODRLController(cfg), snapshot)


class TestValidation:
    def test_core_count_mismatch(self, trained, tmp_path):
        trained_ctl, _ = trained
        path = tmp_path / "policy.npz"
        save_policy(trained_ctl, path)
        other = ODRLController(default_system(n_cores=16, n_levels=4))
        with pytest.raises(ValueError, match="n_cores"):
            load_policy(other, path)

    def test_action_mode_mismatch(self, cfg, trained, tmp_path):
        trained_ctl, _ = trained
        path = tmp_path / "policy.npz"
        save_policy(trained_ctl, path)
        other = ODRLController(cfg, action_mode="absolute")
        with pytest.raises(ValueError, match="mismatch"):
            load_policy(other, path)

    def test_state_space_mismatch(self, cfg, trained, tmp_path):
        from repro.core import StateEncoder

        trained_ctl, _ = trained
        path = tmp_path / "policy.npz"
        save_policy(trained_ctl, path)
        other = ODRLController(
            cfg, encoder=StateEncoder.variant("slack", cfg.n_levels)
        )
        with pytest.raises(ValueError, match="n_states"):
            load_policy(other, path)
