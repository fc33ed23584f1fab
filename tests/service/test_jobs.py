"""JobSpec validation, planning, and the result-digest contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.manycore import default_system
from repro.service.jobs import JobSpec, plan_job, result_digest
from repro.sim.results import SimulationResult


def sweep_spec(**overrides):
    fields = dict(
        kind="sweep",
        controllers=("od-rl", "pid"),
        benchmarks=("mixed",),
        budgets=(30.0, 45.0),
        n_cores=4,
        n_epochs=6,
    )
    fields.update(overrides)
    return JobSpec(**fields)


class TestJobSpec:
    def test_defaults_are_a_valid_suite(self):
        spec = JobSpec()
        assert spec.kind == "suite"
        assert spec.cell_count() == 1

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            JobSpec(kind="grid")

    def test_sweep_needs_budgets(self):
        with pytest.raises(ValueError, match="budget"):
            JobSpec(kind="sweep", benchmarks=("mixed",))

    def test_sweep_takes_exactly_one_benchmark(self):
        with pytest.raises(ValueError, match="exactly one benchmark"):
            sweep_spec(benchmarks=("mixed", "fft"))

    def test_suite_forbids_budgets(self):
        with pytest.raises(ValueError, match="budgets"):
            JobSpec(kind="suite", budgets=(30.0,))

    def test_wire_roundtrip(self):
        spec = sweep_spec()
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown JobSpec fields: wat"):
            JobSpec.from_dict({"kind": "suite", "wat": 1})

    def test_from_dict_coerces_sequences(self):
        spec = JobSpec.from_dict(
            {
                "kind": "sweep",
                "controllers": ["od-rl"],
                "benchmarks": ["mixed"],
                "budgets": [30, 45],
            }
        )
        assert spec.budgets == (30.0, 45.0)
        assert spec.controllers == ("od-rl",)

    def test_cell_count(self):
        assert sweep_spec().cell_count() == 4
        assert JobSpec(
            controllers=("od-rl", "pid"), benchmarks=("mixed", "fft")
        ).cell_count() == 4


class TestPlanJob:
    def test_unknown_controller_rejected_at_plan_time(self):
        with pytest.raises(ValueError, match="unknown controllers: nope"):
            plan_job(sweep_spec(controllers=("nope",)))

    def test_unknown_benchmark_rejected_at_plan_time(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            plan_job(sweep_spec(benchmarks=("not-a-benchmark",)))

    def test_sweep_planning_shape(self):
        planned = plan_job(sweep_spec())
        assert len(planned.tasks) == 4
        keys = [t.key for t in planned.tasks]
        # The standard lineup is fully cacheable: every cell gets a key,
        # which is what the scheduler dedups on.
        assert all(key is not None for key in keys)
        assert len(set(keys)) == 4

    def test_identical_specs_plan_identical_keys(self):
        a, b = plan_job(sweep_spec()), plan_job(sweep_spec())
        assert [t.key for t in a.tasks] == [t.key for t in b.tasks]

    def test_seed_perturbs_keys(self):
        a = plan_job(sweep_spec())
        b = plan_job(sweep_spec(seed=7))
        assert {t.key for t in a.tasks}.isdisjoint(t.key for t in b.tasks)


def synthetic_result(**overrides):
    cfg = default_system(n_cores=4, n_levels=3, budget_fraction=0.6)
    rng = np.random.default_rng(3)
    n = 6
    fields = dict(
        cfg=cfg,
        controller_name="od-rl",
        workload_name="mixed",
        chip_power=rng.uniform(1.0, 20.0, n),
        chip_instructions=rng.uniform(1e6, 1e8, n),
        max_temperature=rng.uniform(300.0, 350.0, n),
        decision_time=np.zeros(n),
        extras={"note": "synthetic"},
    )
    fields.update(overrides)
    return SimulationResult(**fields)


class TestResultDigest:
    def test_equal_results_digest_equal(self):
        assert result_digest(synthetic_result()) == result_digest(
            synthetic_result()
        )

    def test_series_bits_perturb_digest(self):
        a = synthetic_result()
        power = a.chip_power.copy()
        power[0] += 1e-12
        b = synthetic_result(chip_power=power)
        assert result_digest(a) != result_digest(b)

    def test_wall_clock_decision_times_are_ignored(self):
        a = synthetic_result()
        b = synthetic_result(decision_time=np.full(6, 0.123))
        assert result_digest(a) == result_digest(b)

    def test_timing_extras_are_ignored(self):
        a = synthetic_result()
        b = synthetic_result(
            extras={"note": "synthetic", "timing": {"wall": 1.23}}
        )
        assert result_digest(a) == result_digest(b)

    def test_other_extras_are_not(self):
        a = synthetic_result()
        b = synthetic_result(extras={"note": "different"})
        assert result_digest(a) != result_digest(b)
