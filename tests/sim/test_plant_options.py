"""Plant options are values: a run depends only on its own inputs.

A memory system is a frozen value, so its cells stable-hash: they get
cache keys and plan into their group's stack.  A sensor suite is copied
by the epoch kernel, one copy per row, so every entry — two sequential
``run_controller`` calls, an engine cell, two stacked rows sharing the
object — starts from the suite's state and never advances it.
"""

from __future__ import annotations

import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.batch import plan_batches
from repro.kernel.epoch import EpochKernel
from repro.manycore import ManyCoreChip, SensorSpec, SensorSuite, default_system
from repro.manycore.memory import default_memory_system
from repro.parallel import ResultCache, assert_trace_equal, execute_cells
from repro.sim import run_controller, standard_controllers
from repro.sim.runner import build_suite_tasks, run_suite
from repro.workloads import make_benchmark, mixed_workload
from tools.regen_golden import serial_reference

N_CORES = 8
N_EPOCHS = 40
BENCHMARKS = ("fft", "barnes", "ocean", "blackscholes")
CONTROLLERS = ("od-rl", "pid")


def _memory_grid():
    """The 2-controller × 4-workload grid under one memory system."""
    cfg = default_system(n_cores=N_CORES)
    workloads = {name: make_benchmark(name, N_CORES, seed=0) for name in BENCHMARKS}
    lineup = standard_controllers(seed=0)
    controllers = {name: lineup[name] for name in CONTROLLERS}
    sim_kwargs = {"memory_system": default_memory_system(cfg)}
    return cfg, workloads, controllers, sim_kwargs


def _memory_keys():
    """The grid's cell keys (module level: a spawned worker runs it)."""
    cfg, workloads, controllers, sim_kwargs = _memory_grid()
    _, tasks = build_suite_tasks(cfg, workloads, controllers, N_EPOCHS, sim_kwargs)
    return [task.key for task in tasks]


class TestMemorySystemCells:
    def test_grid_plans_one_stack_per_controller(self):
        cfg, workloads, controllers, sim_kwargs = _memory_grid()
        _, tasks = build_suite_tasks(cfg, workloads, controllers, N_EPOCHS, sim_kwargs)
        assert plan_batches(tasks, len(tasks)) == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_cell_keys_are_stable_across_processes(self):
        here = _memory_keys()
        assert len(set(here)) == len(here)
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            assert pool.submit(_memory_keys).result() == here

    def test_batched_suite_matches_serial_reference(self):
        cfg, workloads, controllers, sim_kwargs = _memory_grid()
        _, tasks = build_suite_tasks(cfg, workloads, controllers, N_EPOCHS, sim_kwargs)
        batched = run_suite(
            cfg, workloads, controllers, N_EPOCHS, sim_kwargs=sim_kwargs, batch=True
        )
        for task, want in zip(tasks, serial_reference(tasks)):
            got = batched[task.cell.controller][task.cell.workload]
            assert_trace_equal(want, got, context=task.cell.label())

    def test_second_call_hits_every_cell(self, tmp_path):
        cfg, workloads, controllers, sim_kwargs = _memory_grid()
        cache = ResultCache(tmp_path)
        first = run_suite(
            cfg, workloads, controllers, N_EPOCHS, sim_kwargs=sim_kwargs,
            batch=True, cache=cache,
        )
        assert cache.hits == 0
        again = run_suite(
            cfg, workloads, controllers, N_EPOCHS, sim_kwargs=sim_kwargs,
            batch=True, cache=cache,
        )
        assert cache.hits == len(BENCHMARKS) * len(CONTROLLERS)
        for ctrl in CONTROLLERS:
            for name in BENCHMARKS:
                assert_trace_equal(first[ctrl][name], again[ctrl][name], context=name)


def _noisy_suite():
    noisy = SensorSpec(relative_noise=0.05, quantum=0.1, dropout_rate=0.05, stuck_rate=0.05)
    return SensorSuite(np.random.default_rng(11), power_spec=noisy, temp_spec=noisy)


def _stream_state(suite):
    return suite.power._rng.bit_generator.state


class TestOneSensorSuiteRule:
    def test_every_entry_starts_from_the_suite_and_never_advances_it(self):
        cfg = default_system(n_cores=N_CORES)
        workload = mixed_workload(N_CORES, seed=2)
        factory = standard_controllers(seed=0)["pid"]
        suite = _noisy_suite()
        before = pickle.dumps(_stream_state(suite))

        def direct():
            return run_controller(cfg, workload, factory(cfg), N_EPOCHS, sensors=suite)

        first, second = direct(), direct()
        chip = ManyCoreChip(cfg, workload, sensors=suite)
        assert chip.sensors is chip.kernel.sensors[0] and chip.sensors is not suite
        _, tasks = build_suite_tasks(
            cfg, {workload.name: workload}, {"pid": factory}, N_EPOCHS,
            sim_kwargs={"sensors": suite},
        )
        (cell,) = execute_cells(tasks, jobs=1)
        for other in (second, cell):
            assert_trace_equal(first, other)
            assert first.chip_power.tobytes() == other.chip_power.tobytes()
        assert pickle.dumps(_stream_state(suite)) == before

    @pytest.mark.parametrize("n_runs", [2, 3])
    def test_stacked_rows_sharing_a_suite_each_start_from_its_state(self, n_runs):
        cfg = default_system(n_cores=N_CORES)
        workload = mixed_workload(N_CORES, seed=2)
        suite = _noisy_suite()
        before = pickle.dumps(_stream_state(suite))
        stack = EpochKernel([cfg] * n_runs, [workload] * n_runs, sensors=[suite] * n_runs)
        alone = EpochKernel([cfg], [workload], sensors=[suite])
        assert len({id(s) for s in stack.sensors}) == n_runs
        levels = np.random.default_rng(0).integers(0, cfg.n_levels, (12, N_CORES))
        for row in levels:
            obs = stack.step(np.tile(row, (n_runs, 1)))
            want = alone.step(row[None])
            for r in range(n_runs):
                for field in ("sensed_power", "sensed_instructions", "sensed_temperature"):
                    got = getattr(obs, field)[r]
                    assert got.tobytes() == getattr(want, field)[0].tobytes(), field
        assert pickle.dumps(_stream_state(suite)) == before


class TestFaultsTakeACampaign:
    @pytest.mark.parametrize("entry", [object(), "campaign"])
    def test_every_entry_rejects_anything_else(self, entry):
        cfg = default_system(n_cores=N_CORES)
        workload = mixed_workload(N_CORES, seed=2)
        factory = standard_controllers(seed=0)["pid"]
        with pytest.raises(TypeError, match="FaultCampaign or None"):
            ManyCoreChip(cfg, workload, faults=entry)
        with pytest.raises(TypeError, match="FaultCampaign or None"):
            run_controller(cfg, workload, factory(cfg), N_EPOCHS, faults=entry)
        _, tasks = build_suite_tasks(
            cfg, {workload.name: workload}, {"pid": factory}, N_EPOCHS,
            sim_kwargs={"faults": entry},
        )
        with pytest.raises(TypeError, match="FaultCampaign or None"):
            execute_cells(tasks, jobs=1)
