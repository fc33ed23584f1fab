"""Tests for repro.sim.simulator and repro.sim.interface."""

import numpy as np
import pytest

from repro.manycore import ManyCoreChip, default_system
from repro.sim import Controller, run_controller, simulate
from repro.workloads import mixed_workload


class FixedController(Controller):
    """Test double: always the same level; counts decide() calls."""

    name = "fixed"

    def __init__(self, cfg, level=1):
        super().__init__(cfg)
        self.level = level
        self.calls = 0
        self.resets = 0

    def reset(self):
        self.resets += 1

    def decide(self, obs):
        self.calls += 1
        return self._full(self.level)


@pytest.fixture
def cfg():
    return default_system(n_cores=4, n_levels=4)


@pytest.fixture
def wl():
    return mixed_workload(4, seed=9)


class TestControllerInterface:
    def test_requires_budget(self, cfg):
        from dataclasses import replace
        with pytest.raises(ValueError, match="budget"):
            FixedController(replace(cfg, power_budget=0.0))

    def test_requires_vf_table(self):
        from repro.manycore import SystemConfig
        with pytest.raises(ValueError, match="VF table"):
            FixedController(SystemConfig(n_cores=4, power_budget=10.0))

    def test_full_helper(self, cfg):
        ctl = FixedController(cfg, level=2)
        assert np.array_equal(ctl._full(2), np.full(4, 2))


class TestSimulate:
    def test_runs_requested_epochs(self, cfg, wl):
        chip = ManyCoreChip(cfg, wl)
        ctl = FixedController(cfg)
        result = simulate(chip, ctl, 25)
        assert result.n_epochs == 25
        assert ctl.calls == 25

    def test_reset_called_by_default(self, cfg, wl):
        chip = ManyCoreChip(cfg, wl)
        ctl = FixedController(cfg)
        simulate(chip, ctl, 5)
        assert ctl.resets == 1
        assert chip.epoch == 5

    def test_no_reset_continues(self, cfg, wl):
        chip = ManyCoreChip(cfg, wl)
        ctl = FixedController(cfg)
        simulate(chip, ctl, 5)
        simulate(chip, ctl, 5, reset=False)
        assert chip.epoch == 10
        assert ctl.resets == 1

    def test_records_metadata(self, cfg, wl):
        chip = ManyCoreChip(cfg, wl)
        result = simulate(chip, FixedController(cfg), 5)
        assert result.controller_name == "fixed"
        assert result.workload_name == "mixed"
        assert result.cfg is cfg

    def test_per_core_recording(self, cfg, wl):
        chip = ManyCoreChip(cfg, wl)
        result = simulate(chip, FixedController(cfg), 7, record_per_core=True)
        assert result.core_power.shape == (7, 4)
        assert result.core_levels.shape == (7, 4)
        assert np.all(result.core_levels == 1)
        # Per-core powers sum to the chip trace.
        assert np.allclose(result.core_power.sum(axis=1), result.chip_power)

    def test_decision_time_positive(self, cfg, wl):
        chip = ManyCoreChip(cfg, wl)
        result = simulate(chip, FixedController(cfg), 5)
        assert np.all(result.decision_time >= 0)

    def test_mismatched_core_counts_rejected(self, cfg, wl):
        chip = ManyCoreChip(cfg, wl)
        other = FixedController(default_system(n_cores=8))
        with pytest.raises(ValueError, match="cores"):
            simulate(chip, other, 5)

    def test_rejects_nonpositive_epochs(self, cfg, wl):
        chip = ManyCoreChip(cfg, wl)
        with pytest.raises(ValueError, match="n_epochs"):
            simulate(chip, FixedController(cfg), 0)


class RaisingController(FixedController):
    """Test double: throws on the epochs in ``fail_epochs``."""

    name = "raising"

    def __init__(self, cfg, fail_epochs, level=1):
        super().__init__(cfg, level=level)
        self.fail_epochs = set(fail_epochs)

    def decide(self, obs):
        epoch = self.calls
        if epoch in self.fail_epochs:
            self.calls += 1
            raise RuntimeError("policy crashed")
        return super().decide(obs)


class TestWatchdogIntegration:
    def test_unprotected_raising_controller_kills_the_run(self, cfg, wl):
        with pytest.raises(RuntimeError, match="policy crashed"):
            run_controller(cfg, wl, RaisingController(cfg, {3}), n_epochs=10)

    def test_watchdog_survives_raising_controller(self, cfg, wl):
        result = run_controller(
            cfg, wl, RaisingController(cfg, {3, 7}), n_epochs=10, watchdog=True
        )
        assert result.n_epochs == 10
        assert result.controller_name == "raising"
        stats = result.extras["watchdog"]
        assert stats["failures"] == 2
        assert stats["recoveries"] == 2
        assert [epoch for epoch, _ in stats["failure_log"]] == [3, 7]

    def test_watchdog_fallback_holds_last_levels(self, cfg, wl):
        result = run_controller(
            cfg, wl, RaisingController(cfg, {4}, level=2), n_epochs=8,
            watchdog=True, record_per_core=True,
        )
        # the failed epoch ran at the held level, not some default
        assert np.all(result.core_levels[4] == 2)

    def test_fault_extras_populated(self, cfg, wl):
        from repro.faults import FaultCampaign

        campaign = FaultCampaign.random(4, 30, rate=0.2, seed=5)
        result = run_controller(
            cfg, wl, FixedController(cfg), n_epochs=30,
            faults=campaign, watchdog=True,
        )
        assert result.extras["faults"]["n_events"] == campaign.n_events
        assert result.extras["watchdog"]["failures"] == 0

    def test_no_faults_no_extras(self, cfg, wl):
        result = run_controller(cfg, wl, FixedController(cfg), n_epochs=5)
        assert result.extras == {}

    def test_crash_epochs_fire_through_run_controller(self, cfg, wl):
        from repro.faults import ControllerCrash, FaultCampaign

        campaign = FaultCampaign(
            n_cores=4, crashes=(ControllerCrash(epoch=2), ControllerCrash(epoch=5))
        )
        ctl = FixedController(cfg)
        result = run_controller(
            cfg, wl, ctl, n_epochs=10, faults=campaign, watchdog=True
        )
        assert result.extras["watchdog"]["crashes"] == 2
        # wrapper construction + the run's reset, plus one per crash
        assert ctl.resets == 2 + 2

    def test_faulted_run_is_reproducible(self, cfg, wl):
        from repro.faults import FaultCampaign

        campaign = FaultCampaign.random(4, 40, rate=0.15, seed=2, n_crashes=1)

        def run():
            return run_controller(
                cfg, wl, FixedController(cfg), n_epochs=40,
                faults=campaign, watchdog=True, checkpoint_period=10,
            )

        a, b = run(), run()
        assert np.array_equal(a.chip_power, b.chip_power)
        assert np.array_equal(a.chip_instructions, b.chip_instructions)


class TestRunController:
    def test_convenience_wrapper(self, cfg, wl):
        result = run_controller(cfg, wl, FixedController(cfg), n_epochs=10)
        assert result.n_epochs == 10

    def test_first_decide_gets_none(self, cfg, wl):
        seen = []

        class Spy(FixedController):
            def decide(self, obs):
                seen.append(obs)
                return super().decide(obs)

        run_controller(cfg, wl, Spy(cfg), n_epochs=3)
        assert seen[0] is None
        assert seen[1] is not None
        assert seen[1].epoch == 0


class TestRunStack:
    """The one control loop, driven directly."""

    def test_vectorized_policy_refuses_harvest(self, cfg, wl):
        from repro.core.controller import ODRLController
        from repro.kernel import EpochKernel
        from repro.kernel.policies import BatchODRL, build_batch_policy
        from repro.obs import BufferRecorder
        from repro.sim.simulator import run_stack

        policy = build_batch_policy([ODRLController(cfg, seed=s) for s in (0, 1)])
        assert isinstance(policy, BatchODRL)
        kernel = EpochKernel([cfg, cfg], [wl, wl])
        # An empty dataset would look like a learner that never updated.
        with pytest.raises(ValueError, match="harvest"):
            run_stack(
                kernel, policy, [5, 5],
                recorders=[BufferRecorder(), BufferRecorder()], harvest=True,
            )

    def test_epoch_counts_and_recorders_must_cover_every_row(self, cfg, wl):
        from repro.kernel import EpochKernel
        from repro.kernel.policies import PerRunPolicy
        from repro.sim.simulator import run_stack

        kernel = EpochKernel([cfg, cfg], [wl, wl])
        policy = PerRunPolicy([FixedController(cfg), FixedController(cfg)])
        with pytest.raises(ValueError, match="2 rows"):
            run_stack(kernel, policy, [5])
        with pytest.raises(ValueError, match="positive"):
            run_stack(kernel, policy, [5, 0])
        with pytest.raises(ValueError, match="1 recorders"):
            run_stack(kernel, policy, [5, 5], recorders=[None])

    def test_serial_controller_keeps_its_state(self, cfg, wl):
        # simulate drives the caller's controller itself, so a learner's
        # tables after the run are the run's tables.
        from repro.core.controller import ODRLController

        ctl = ODRLController(cfg, seed=0)
        simulate(ManyCoreChip(cfg, wl), ctl, 20)
        assert ctl.visits.sum() > 0
        assert ctl.last_update is not None
