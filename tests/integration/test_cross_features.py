"""Cross-feature integration: the library's orthogonal pieces compose.

Each test wires together features that were developed separately and
asserts the combination behaves — the seams a downstream user will
actually exercise.
"""

import numpy as np

from repro import (
    ODRLController,
    default_system,
    mixed_workload,
    run_controller,
)


class TestIslandsTimesHetero:
    def test_islanded_controller_on_hetero_chip(self):
        # VFI islands over a big.LITTLE die: the wrapper manages the real
        # chip even though its virtual model is homogeneous (conservative).
        from repro.manycore import big_little_map
        from repro.sim import IslandedController

        cfg = default_system(n_cores=12, budget_fraction=0.5)
        hetero = big_little_map(12, big_fraction=0.5)
        ctl = IslandedController(cfg, island_size=4)
        result = run_controller(
            cfg, mixed_workload(12, seed=1), ctl, 600, hetero=hetero
        )
        tail = result.tail(0.3)
        over = np.maximum(tail.chip_power - cfg.power_budget, 0)
        assert over.mean() < 0.05 * cfg.power_budget


class TestPolicyTimesThermal:
    def test_checkpoint_round_trip_with_thermal_limit(self, tmp_path):
        from repro.core import load_policy, save_policy

        cfg = default_system(n_cores=8, budget_fraction=0.9)
        wl = mixed_workload(8, seed=2)
        trained = ODRLController(cfg, thermal_limit=331.0, seed=0)
        run_controller(cfg, wl, trained, 500)
        path = tmp_path / "thermal_policy.npz"
        save_policy(trained, path)
        fresh = ODRLController(cfg, thermal_limit=331.0, seed=9)
        load_policy(fresh, path)
        assert np.array_equal(fresh.q, trained.q)


class TestCompiledTimesContention:
    def test_compiled_workload_with_memory_system(self):
        # Contention rescales the sampled rows in place every epoch: the
        # table-sampled run and a per-core bisect run both reproduce the
        # frozen memory-system golden.
        from repro.manycore import default_memory_system
        from repro.parallel import assert_trace_equal
        from repro.sim.result_io import load_result

        from tests.workloads.helpers import ReferenceWorkload
        from tools.regen_golden import (
            GOLDEN_BUDGET_FRACTION,
            GOLDEN_N_CORES,
            GOLDEN_N_EPOCHS,
            GOLDEN_SEED,
            variant_path,
        )

        cfg = default_system(
            n_cores=GOLDEN_N_CORES, budget_fraction=GOLDEN_BUDGET_FRACTION
        )
        source = mixed_workload(GOLDEN_N_CORES, seed=GOLDEN_SEED)
        golden = load_result(variant_path("memory"))
        for workload in (source, ReferenceWorkload(source)):
            result = run_controller(
                cfg,
                workload,
                ODRLController(cfg, seed=GOLDEN_SEED),
                GOLDEN_N_EPOCHS,
                memory_system=default_memory_system(cfg),
                record_per_core=True,
            )
            assert_trace_equal(result, golden, context=type(workload).__name__)


class TestStatsTimesVariation:
    def test_multi_seed_across_dies(self):
        # run_seeds with a per-seed *die* as well as workload: the
        # controller factory closes over a sampled variation per seed.
        from repro.manycore import sample_variation
        from repro.metrics import throughput_bips
        from repro.sim.simulator import run_controller as run
        from repro.sim.stats import MetricStatistics

        cfg = default_system(n_cores=6)
        values = []
        for seed in (0, 1, 2):
            variation = sample_variation(cfg, rng=np.random.default_rng(seed))
            result = run(
                cfg,
                mixed_workload(6, seed=seed),
                ODRLController(cfg, seed=seed),
                200,
                variation=variation,
            )
            values.append(throughput_bips(result.tail(0.5)))
        stats = MetricStatistics(tuple(values))
        assert stats.n == 3
        assert stats.std / stats.mean < 0.2  # die-to-die spread is bounded


class TestSaveResultTimesExperiment:
    def test_experiment_results_freezable(self, tmp_path):
        from repro.experiments import run_e1
        from repro.sim import load_result, save_result

        e1 = run_e1(n_cores=6, n_epochs=80, controllers=("od-rl", "pid"), n_points=4)
        run = e1.data["results"]["od-rl"]["mixed"]
        path = tmp_path / "e1_odrl.npz"
        save_result(run, path)
        restored = load_result(path)
        assert np.array_equal(restored.chip_power, run.chip_power)
