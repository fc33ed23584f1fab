"""Unit coverage for the kernel's construction contract.

The conformance matrix exercises the happy paths end to end; these
tests pin the constructor's validation surface — the errors a caller
gets for malformed stacks — and the small accessors the matrix never
touches directly.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.contracts import InvariantViolation
from repro.faults import FaultCampaign
from repro.faults.campaign import CoreDeathFault, TelemetryBlackout
from repro.kernel.epoch import EpochKernel
from repro.manycore import default_system
from repro.manycore.hetero import big_little_map
from repro.manycore.memory import default_memory_system
from repro.manycore.sensors import SensorSuite
from repro.manycore.variation import sample_variation
from repro.obs import PhaseProfiler
from repro.workloads import mixed_workload

N_CORES = 4
CFG = default_system(n_cores=N_CORES, n_levels=3, budget_fraction=0.6)
WL = mixed_workload(N_CORES, seed=0)


def _kernel(n_runs=2, **kwargs):
    return EpochKernel([CFG] * n_runs, [WL] * n_runs, **kwargs)


class TestConstructorValidation:
    def test_rejects_empty_stack(self):
        with pytest.raises(ValueError, match="at least one run"):
            EpochKernel([], [])

    def test_rejects_config_workload_mismatch(self):
        with pytest.raises(ValueError, match="configs but"):
            EpochKernel([CFG, CFG], [WL])

    def test_rejects_empty_vf_table(self):
        bare = dataclasses.replace(CFG, vf_levels=())
        with pytest.raises(ValueError, match="non-empty VF table"):
            EpochKernel([bare], [WL])

    def test_rejects_nonpositive_budget(self):
        broke = dataclasses.replace(CFG, power_budget=0.0)
        with pytest.raises(ValueError, match="power_budget"):
            EpochKernel([broke], [WL])

    def test_rejects_heterogeneous_configs_beyond_budget(self):
        other = default_system(n_cores=8, n_levels=3, budget_fraction=0.6)
        with pytest.raises(ValueError, match="differ only in power_budget"):
            EpochKernel([CFG, other], [WL, mixed_workload(8, seed=0)])

    def test_rejects_wrong_length_component_list(self):
        with pytest.raises(ValueError, match="configs but 1 variations"):
            _kernel(variations=[None])

    def test_rejects_variation_core_mismatch(self):
        eight = default_system(n_cores=8, budget_fraction=0.6)
        wide = sample_variation(eight, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="variation covers 8 cores"):
            _kernel(variations=[wide, None])

    def test_rejects_hetero_core_mismatch(self):
        with pytest.raises(ValueError, match="hetero map covers 8 cores"):
            _kernel(heteros=[big_little_map(8), None])

    def test_rejects_fault_campaign_core_mismatch(self):
        wide = FaultCampaign.random(8, 6, rate=0.2, seed=0)
        with pytest.raises(ValueError, match="fault campaign covers 8 cores"):
            _kernel(faults=[wide, None])

    def test_mixed_fault_rows_allow_none(self):
        campaign = FaultCampaign.random(N_CORES, 6, rate=0.2, seed=0)
        kernel = _kernel(faults=[campaign, None])
        assert kernel.campaigns == [campaign, None]


class TestAccessors:
    def test_observation_reports_stack_width(self):
        kernel = _kernel(n_runs=3)
        obs = kernel.step(np.ones((3, N_CORES), dtype=int))
        assert obs.n_runs == 3

    def test_temperatures_shape_and_reset(self):
        kernel = _kernel(n_runs=2)
        kernel.step(np.ones((2, N_CORES), dtype=int))
        warmed = kernel.temperatures.copy()
        assert warmed.shape == (2, N_CORES)
        assert (warmed > CFG.technology.t_ambient).any()
        kernel.reset()
        assert (kernel.temperatures == CFG.technology.t_ambient).all()
        assert kernel.epoch == 0 and kernel.time == 0.0
        assert (kernel.levels == kernel.n_levels - 1).all()


class TestStepPaths:
    def test_step_rejects_wrong_shape(self):
        kernel = _kernel(n_runs=2)
        with pytest.raises(ValueError, match="levels must have shape"):
            kernel.step(np.zeros((1, N_CORES), dtype=int))

    def test_float_levels_truncate_toward_zero(self):
        # The serial chip applied int(v) per element; the stacked cast
        # must truncate the same way, not round.
        kernel = _kernel(n_runs=2)
        obs = kernel.step(np.full((2, N_CORES), 1.9))
        assert (obs.levels == 1).all()

    def test_dead_core_retires_nothing(self):
        campaign = FaultCampaign(
            n_cores=N_CORES,
            core_deaths=(CoreDeathFault(core=1, start_epoch=0, duration=2),),
        )
        kernel = _kernel(n_runs=2, faults=[campaign, None])
        obs = kernel.step(np.ones((2, N_CORES), dtype=int))
        assert obs.instructions[0, 1] == 0.0
        assert obs.instructions[1, 1] > 0.0
        # leakage still flows: the dead core is warm silicon, not absent
        assert obs.power[0, 1] > 0.0
        assert obs.power[0, 1] < obs.power[1, 1]

    def test_validate_armed_catches_corrupted_power(self):
        kernel = _kernel(n_runs=2, validate=True)
        kernel.step(np.ones((2, N_CORES), dtype=int))
        # the variation rows are live views of the stacked planes, so an
        # in-place corruption must reach the next epoch's power math
        kernel.variations[0].ceff_mult[0] = -1.0
        with pytest.raises(InvariantViolation):
            kernel.step(np.ones((2, N_CORES), dtype=int))

    def test_blackout_zeroes_vectorized_sensor_reads(self):
        campaign = FaultCampaign(
            n_cores=N_CORES,
            blackouts=(TelemetryBlackout(start_epoch=0, duration=1),),
        )
        kernel = _kernel(n_runs=2, faults=[campaign, None])
        obs = kernel.step(np.ones((2, N_CORES), dtype=int))
        assert (obs.sensed_power[0] == 0.0).all()
        assert (obs.sensed_instructions[0] == 0.0).all()
        assert (obs.sensed_temperature[0] == 0.0).all()
        assert (obs.power[0] > 0.0).all()  # ground truth survives
        assert (obs.sensed_power[1] > 0.0).all()

    def test_inactive_rows_read_no_sensors(self):
        suites = [SensorSuite.exact(), SensorSuite.exact()]
        kernel = _kernel(n_runs=2, sensors=suites)
        active = np.array([True, False])
        obs = kernel.step(np.ones((2, N_CORES), dtype=int), active=active)
        assert (obs.sensed_power[1] == 0.0).all()
        assert (obs.sensed_instructions[1] == 0.0).all()
        assert (obs.sensed_temperature[1] == 0.0).all()
        assert (obs.sensed_power[0] > 0.0).all()

    def test_none_suite_reads_exactly(self):
        # A None entry beside a suite reads like SensorSuite.exact(),
        # blackouts included, as the all-None vectorized path does.
        campaign = FaultCampaign(
            n_cores=N_CORES,
            blackouts=(TelemetryBlackout(start_epoch=1, duration=1),),
        )
        kernel = EpochKernel(
            [CFG] * 2, [WL] * 2, sensors=[SensorSuite.exact(), None],
            faults=[campaign, campaign],
        )
        levels = np.ones((2, N_CORES), dtype=int)
        obs = kernel.step(levels)
        assert (obs.sensed_power[1] > 0.0).all()
        for name in ("sensed_power", "sensed_instructions", "sensed_temperature"):
            np.testing.assert_array_equal(getattr(obs, name)[1], getattr(obs, name)[0])
        np.testing.assert_array_equal(obs.sensed_power[1], obs.power[1])
        blind = kernel.step(levels)
        assert (blind.sensed_power == 0.0).all()
        assert (blind.power[1] > 0.0).all()
        finished = kernel.step(levels, active=np.array([True, False]))
        assert (finished.sensed_power[1] == 0.0).all()
        assert (finished.sensed_power[0] > 0.0).all()

    def test_profiler_times_suite_sensor_reads(self):
        kernel = _kernel(n_runs=2, sensors=[SensorSuite.exact(), SensorSuite.exact()])
        profiler = PhaseProfiler()
        kernel.profiler = profiler
        kernel.step(np.ones((2, N_CORES), dtype=int))
        assert "sensor" in profiler.end_epoch()

    def test_memory_contention_runs_live_and_resets(self):
        systems = [default_memory_system(CFG), None]
        kernel = EpochKernel([CFG] * 2, [WL] * 2, memory_systems=systems)
        levels = np.ones((2, N_CORES), dtype=int)
        first = kernel.step(levels)
        # contention inflates run 0's effective memory latency, so the
        # otherwise-identical runs must diverge in retired instructions
        assert not np.array_equal(first.instructions[0], first.instructions[1])
        assert float(np.sum(first.instructions[0])) < float(
            np.sum(first.instructions[1])
        )
        kernel.step(levels)
        kernel.reset()
        replay = kernel.step(levels)
        np.testing.assert_array_equal(replay.instructions, first.instructions)

    def test_memory_systems_rescale_the_phase_stream(self, monkeypatch):
        # Contention rescales its run's row of the step's phases, never the
        # phase block: a row sharing the workload reads unscaled samples,
        # across block edges too.
        monkeypatch.setattr("repro.kernel.epoch._PHASE_BLOCK", 3)
        systems = [default_memory_system(CFG), None]
        contended = EpochKernel([CFG] * 2, [WL] * 2, memory_systems=systems)
        free = EpochKernel([CFG] * 2, [WL] * 2)
        t = 0.0
        for e in range(8):
            levels = np.full((2, N_CORES), e % CFG.n_levels)
            a, b = contended.step(levels), free.step(levels)
            mem, comp = WL.sample(t, N_CORES)
            t += CFG.epoch_time
            for obs in (a, b):
                np.testing.assert_array_equal(obs.mem_intensity[1], mem)
                np.testing.assert_array_equal(obs.compute_intensity[1], comp)
            np.testing.assert_array_equal(b.mem_intensity[0], mem)
            assert (a.mem_intensity[0] >= mem).all() and (a.mem_intensity[0] > mem).any()
            np.testing.assert_array_equal(a.instructions[1], b.instructions[1])
        assert not np.array_equal(a.instructions[0], a.instructions[1])
