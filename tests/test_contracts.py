"""Runtime invariant contracts: each check fires on corrupted input and
stays silent on a clean closed-loop run."""

import numpy as np
import pytest

from repro.contracts import (
    InvariantViolation,
    check_budget_conservation,
    check_level_indices,
    check_observation_sane,
    check_power_samples,
    check_q_table,
    check_time_monotone,
    validation_enabled,
)
from repro.core.agent import QLearningPopulation
from repro.core.budget import reallocate_budget
from repro.core.controller import ODRLController
from repro.manycore.chip import ManyCoreChip
from repro.manycore.config import default_system
from repro.sim.simulator import run_controller, simulate
from repro.workloads.suite import mixed_workload


class TestSwitch:
    def test_kwarg_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        assert validation_enabled(False) is False
        monkeypatch.delenv("REPRO_VALIDATE")
        assert validation_enabled(True) is True

    def test_env_var_truthy_values(self, monkeypatch):
        for value, expected in [
            ("1", True),
            ("true", True),
            ("YES", True),
            ("on", True),
            ("0", False),
            ("", False),
            ("off", False),
        ]:
            monkeypatch.setenv("REPRO_VALIDATE", value)
            assert validation_enabled() is expected, value

    def test_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_VALIDATE", raising=False)
        assert validation_enabled() is False


class TestPowerSamples:
    def test_negative_power_fires_with_core_and_epoch(self):
        with pytest.raises(InvariantViolation) as exc:
            check_power_samples(np.array([1.0, -0.5, 2.0]), epoch=7)
        assert exc.value.core == 1
        assert exc.value.epoch == 7
        assert exc.value.quantity == "power_w"
        assert "epoch 7" in str(exc.value) and "core 1" in str(exc.value)

    def test_nan_and_inf_fire(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvariantViolation):
                check_power_samples(np.array([1.0, bad]))

    def test_clean_power_silent(self):
        check_power_samples(np.array([0.0, 1.5, 3.0]))


class TestBudgetConservation:
    def test_non_conserving_split_fires(self):
        with pytest.raises(InvariantViolation) as exc:
            check_budget_conservation(np.array([10.0, 10.0]), 25.0)
        assert exc.value.quantity == "budget_total_w"
        assert "not conserved" in str(exc.value)

    def test_floor_and_cap_breaches_fire(self):
        with pytest.raises(InvariantViolation):
            check_budget_conservation(
                np.array([1.0, 9.0]), 10.0, floors_w=np.array([2.0, 2.0])
            )
        with pytest.raises(InvariantViolation):
            check_budget_conservation(
                np.array([1.0, 9.0]), 10.0, caps_w=np.array([8.0, 8.0])
            )

    def test_conserving_split_silent(self):
        check_budget_conservation(
            np.array([4.0, 6.0]),
            10.0,
            floors_w=np.array([1.0, 1.0]),
            caps_w=np.array([8.0, 8.0]),
        )

    def test_reallocate_budget_validates_clean_result(self):
        scores = np.array([1.0, 3.0, 0.5, 2.0])
        floors = np.full(4, 0.5)
        caps = np.full(4, 5.0)
        allocation = reallocate_budget(12.0, scores, floors, caps, validate=True)
        assert np.isclose(allocation.sum(), 12.0)


class TestLevelIndices:
    def test_out_of_range_fires(self):
        with pytest.raises(InvariantViolation) as exc:
            check_level_indices(np.array([0, 8, 2]), n_levels=8, epoch=3)
        assert exc.value.core == 1
        assert "VF table" in str(exc.value)

    def test_negative_index_fires(self):
        with pytest.raises(InvariantViolation):
            check_level_indices(np.array([-1, 0]), n_levels=8)

    def test_float_dtype_fires(self):
        with pytest.raises(InvariantViolation):
            check_level_indices(np.array([0.0, 1.0]), n_levels=8)

    def test_valid_levels_silent(self):
        check_level_indices(np.array([0, 3, 7]), n_levels=8)


class TestQTable:
    def test_nan_q_fires_with_agent_index(self):
        q = np.zeros((3, 4, 2))
        q[2, 1, 0] = np.nan
        with pytest.raises(InvariantViolation) as exc:
            check_q_table(q, step=11)
        assert exc.value.core == 2
        assert exc.value.epoch == 11

    def test_finite_q_silent(self):
        check_q_table(np.zeros((2, 3, 4)))

    def test_agent_update_detects_injected_nan(self):
        pop = QLearningPopulation(2, 3, 2, rng=[np.random.default_rng(0)], validate=True)
        pop.q[0, 1, 0, 0] = np.nan
        with pytest.raises(InvariantViolation):
            pop.update(
                states=np.array([[0, 0]]),
                actions=np.array([[0, 0]]),
                rewards=np.array([[0.5, 0.5]]),
                next_states=np.array([[1, 1]]),
            )

    def test_agent_update_without_validation_stays_quiet(self):
        pop = QLearningPopulation(
            2, 3, 2, rng=[np.random.default_rng(0)], validate=False
        )
        pop.q[0, 1, 0, 0] = np.nan
        pop.update(
            states=np.array([[0, 0]]),
            actions=np.array([[0, 0]]),
            rewards=np.array([[0.5, 0.5]]),
            next_states=np.array([[1, 1]]),
        )


class TestObservationSane:
    GOOD = dict(
        sensed_power_w=np.array([2.0, 0.0, 3.0]),  # a dropout zero is valid
        sensed_instructions=np.array([1e9, 0.0, 5e8]),
        sensed_temperature_k=np.array([320.0, 318.0, 0.0]),  # blackout zero
        levels=np.array([0, 1, 2]),
        n_levels=4,
    )

    def test_clean_observation_silent(self):
        check_observation_sane(**self.GOOD)

    def test_negative_sensed_power_fires(self):
        bad = dict(self.GOOD, sensed_power_w=np.array([2.0, -0.1, 3.0]))
        with pytest.raises(InvariantViolation) as exc:
            check_observation_sane(**bad, epoch=4)
        assert exc.value.quantity == "sensed_power_w"
        assert exc.value.core == 1
        assert exc.value.epoch == 4

    def test_nonfinite_instructions_fire(self):
        bad = dict(self.GOOD, sensed_instructions=np.array([1e9, np.nan, 5e8]))
        with pytest.raises(InvariantViolation) as exc:
            check_observation_sane(**bad)
        assert exc.value.quantity == "sensed_instructions"

    def test_negative_instructions_fire(self):
        bad = dict(self.GOOD, sensed_instructions=np.array([1e9, -1.0, 5e8]))
        with pytest.raises(InvariantViolation):
            check_observation_sane(**bad)

    def test_nonfinite_temperature_fires(self):
        bad = dict(self.GOOD, sensed_temperature_k=np.array([320.0, np.inf, 318.0]))
        with pytest.raises(InvariantViolation) as exc:
            check_observation_sane(**bad)
        assert exc.value.quantity == "sensed_temperature_k"

    def test_bad_levels_fire(self):
        bad = dict(self.GOOD, levels=np.array([0, 4, 2]))
        with pytest.raises(InvariantViolation):
            check_observation_sane(**bad)

    def test_validated_faulted_run_is_silent(self):
        """The armed contract tolerates real fault-injected telemetry:
        dropouts and blackouts are faulty *data*, not broken invariants."""
        from repro.faults import FaultCampaign

        cfg = default_system(n_cores=8, budget_fraction=0.6)
        result = run_controller(
            cfg,
            mixed_workload(8, seed=1),
            ODRLController(cfg, seed=1),
            n_epochs=40,
            faults=FaultCampaign.random(8, 40, rate=0.2, seed=4),
            watchdog=True,
            validate=True,
        )
        assert np.all(np.isfinite(result.chip_power))


class TestTimeMonotone:
    def test_stalled_clock_fires(self):
        with pytest.raises(InvariantViolation):
            check_time_monotone(1.0, 1.0, epoch=2)

    def test_backwards_clock_fires(self):
        with pytest.raises(InvariantViolation):
            check_time_monotone(2.0, 1.0)

    def test_advancing_clock_silent(self):
        check_time_monotone(1.0, 1.001)


class TestWiring:
    """The contracts are reachable from the real control loop."""

    def test_clean_16_core_50_epoch_run_is_silent(self):
        cfg = default_system(n_cores=16, budget_fraction=0.6)
        result = run_controller(
            cfg,
            mixed_workload(16, seed=3),
            ODRLController(cfg, seed=3),
            n_epochs=50,
            validate=True,
        )
        assert result.chip_power.shape == (50,)
        assert np.all(np.isfinite(result.chip_power))

    def test_env_var_arms_chip(self, monkeypatch):
        cfg = default_system(n_cores=4, budget_fraction=0.6)
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        chip = ManyCoreChip(cfg, mixed_workload(4, seed=0))
        assert chip.validate is True
        monkeypatch.delenv("REPRO_VALIDATE")
        chip = ManyCoreChip(cfg, mixed_workload(4, seed=0))
        assert chip.validate is False

    def test_simulate_validate_kwarg_overrides_chip(self):
        cfg = default_system(n_cores=4, budget_fraction=0.6)
        chip = ManyCoreChip(cfg, mixed_workload(4, seed=0), validate=False)
        simulate(chip, ODRLController(cfg, seed=0), n_epochs=5, validate=True)
        assert chip.validate is True

    def test_chip_step_catches_corrupted_power(self):
        cfg = default_system(n_cores=4, budget_fraction=0.6)
        chip = ManyCoreChip(cfg, mixed_workload(4, seed=0), validate=True)
        # Corrupt the per-core process-variation multipliers: a negative
        # effective-capacitance factor yields negative dynamic power.
        chip.variation.ceff_mult[0] = -1.0
        with pytest.raises(InvariantViolation) as exc:
            chip.step(np.full(4, cfg.n_levels - 1))
        assert exc.value.core == 0
