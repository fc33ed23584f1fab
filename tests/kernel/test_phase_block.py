"""The epoch kernel's one phase lookup, a block of epochs at a time.

``EpochKernel`` keeps ``_PHASE_BLOCK`` epochs of phases per distinct
workload and refills the block at the times its clock will reach when a
step runs off the end.  Most tests here shrink the block to a few epochs,
so every run crosses several block edges, and hold the lookup to
``Workload.sample`` at the kernel's accumulated clock, to one-row and
uninterrupted runs, and to the golden fixtures.  That contention leaves a
row sharing its workload unscaled is pinned in ``test_epoch_unit.py``.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.batch import simulate_batch
from repro.kernel.epoch import EpochKernel
from repro.manycore import ManyCoreChip, default_system
from repro.parallel import CellTask, RunCell, assert_trace_equal
from repro.sim import run_controller, simulate, standard_controllers
from repro.sim.interface import Controller
from repro.sim.result_io import load_result
from repro.workloads import CorePhaseSequence, Phase, Workload, mixed_workload

from tools.regen_golden import (
    baseline_path,
    compute_baseline_results,
    compute_golden_results,
    golden_path,
)

BLOCK = 7
N_CORES = 6
CFG = default_system(n_cores=N_CORES, n_levels=4, budget_fraction=0.6)


@pytest.fixture
def small_block(monkeypatch):
    monkeypatch.setattr("repro.kernel.epoch._PHASE_BLOCK", BLOCK)


def short_phases() -> Workload:
    """Three sequences of millisecond phases tiled over the chip, so the
    phases change every few epochs and wrap within a run."""

    def sequence(*durations):
        return CorePhaseSequence(
            [
                Phase(duration=d, mem_intensity=0.002 * (i + 1), compute_intensity=0.4)
                for i, d in enumerate(durations)
            ]
        )

    return Workload(
        [sequence(0.003, 0.002), sequence(0.001, 0.004, 0.002), sequence(0.005)],
        name="short",
    )


class Cycling(Controller):
    """Steps through the VF ladder on its own clock, whatever it observes,
    so a run split across ``simulate`` calls decides like an unsplit one."""

    name = "cycling"

    def __init__(self, cfg):
        super().__init__(cfg)
        self._k = 0

    def reset(self):
        self._k = 0

    def decide(self, obs):
        self._k += 1
        return np.full(self.n_cores, self._k % self.cfg.n_levels)


#: observation fields a reset kernel must reproduce bit for bit
FIELDS = (
    "mem_intensity", "compute_intensity", "power", "instructions", "temperature",
    "sensed_power",
)


def _levels(e: int, n_runs: int) -> np.ndarray:
    return np.full((n_runs, N_CORES), (3 * e) % CFG.n_levels)


def test_each_step_reads_the_sample_at_the_kernel_clock(small_block, monkeypatch):
    # A chunk budget of a few epochs also puts chunk edges inside a block.
    monkeypatch.setattr("repro.workloads.phases._CHUNK_BYTES", 100)
    short, mixed = short_phases(), mixed_workload(N_CORES, seed=2)
    kernel = EpochKernel([CFG] * 3, [short, mixed, short])
    t = 0.0
    for e in range(3 * BLOCK + 2):
        obs = kernel.step(_levels(e, 3))
        for r, workload in enumerate(kernel.workloads):
            mem, comp = workload.sample(t, N_CORES)
            assert np.array_equal(obs.mem_intensity[r], mem), (e, r)
            assert np.array_equal(obs.compute_intensity[r], comp), (e, r)
        t += CFG.epoch_time
    assert np.array_equal(obs.mem_intensity[0], obs.mem_intensity[2])
    assert not np.array_equal(obs.mem_intensity[0], obs.mem_intensity[1])


def _task(name, frac, n_epochs, workload):
    cfg = CFG.with_budget(CFG.power_budget * frac)
    cell = RunCell(
        controller=name, workload=workload.name, budget=cfg.power_budget,
        seed=0, n_epochs=n_epochs,
    )
    return CellTask(cell, cfg, workload, standard_controllers(seed=0)[name], {})


@pytest.mark.parametrize("name", ["od-rl", "pid"])
def test_ragged_stack_across_block_edges_equals_one_row_runs(small_block, name):
    short, mixed = short_phases(), mixed_workload(N_CORES, seed=1)
    lengths = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]
    fracs = (0.8, 1.0, 1.1, 1.2)
    workloads = (short, mixed, short, short)
    tasks = [_task(name, *row) for row in zip(fracs, lengths, workloads)]
    stacked = simulate_batch(tasks)
    for task, result in zip(tasks, stacked):
        alone = run_controller(
            task.cfg, task.workload, task.factory(task.cfg), task.cell.n_epochs
        )
        assert_trace_equal(result, alone, context=task.cell.label())


@pytest.mark.parametrize("name", ["cycling", "od-rl", "pid"])
def test_continued_chip_equals_one_uninterrupted_run(small_block, name):
    """A run split by ``simulate(..., reset=False)`` continues the plant
    and the controller: a stateful controller decides through its own
    one-row stack, never through a policy rebuilt by each call."""
    factory = Cycling if name == "cycling" else standard_controllers(seed=0)[name]
    # A budget the PI loop hunts around rather than saturating under.
    cfg = CFG.with_budget(0.7 * CFG.power_budget)
    split, whole = ManyCoreChip(cfg, short_phases()), ManyCoreChip(cfg, short_phases())
    ctrl = factory(cfg)
    parts = [simulate(split, ctrl, 5)]
    parts += [simulate(split, ctrl, n, reset=False) for n in (6, 9)]
    full = simulate(whole, factory(cfg), 20)
    for series in ("chip_power", "chip_instructions", "max_temperature"):
        joined = np.concatenate([getattr(p, series) for p in parts])
        assert joined.tobytes() == getattr(full, series).tobytes(), series
    assert split.time == whole.time
    assert split.total_energy == whole.total_energy


def test_reset_mid_block_equals_a_fresh_run(small_block):
    workloads = [short_phases(), mixed_workload(N_CORES, seed=3)]
    used = EpochKernel([CFG] * 2, workloads)
    for e in range(BLOCK + 3):
        used.step(_levels(e + 1, 2))
    used.reset()
    fresh = EpochKernel([CFG] * 2, workloads)
    for e in range(2 * BLOCK - 2):
        a, b = used.step(_levels(e, 2)), fresh.step(_levels(e, 2))
        for field in FIELDS:
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), (e, field)
        assert a.time == b.time


@pytest.mark.parametrize("engine", [False, True], ids=["serial-reference", "engine"])
def test_goldens_reproduce_across_block_edges(small_block, engine):
    # The serial reference runs every cell through ``run_controller``; the
    # engine at ``jobs=1`` stacks them in this process, so both see the
    # shrunk block.
    kwargs = {"jobs": 1, "batch": True} if engine else {}
    results = compute_golden_results(**kwargs)
    for name in ("od-rl", "pid"):
        assert_trace_equal(
            results[name], load_result(golden_path(name)),
            compare_decision_time=True, context=f"golden[{name}]",
        )
    maxbips = compute_baseline_results(**kwargs)[("maxbips", "stock")]
    assert_trace_equal(
        maxbips, load_result(baseline_path("maxbips", "stock")),
        compare_decision_time=True, context="golden[maxbips-stock]",
    )


def test_phase_memory_does_not_grow_with_the_run():
    # One row at 64 cores through the engine's stack path: a run of 1,000
    # epochs peaks within a few per-epoch scalar series of a run of 100,
    # so no phase array sized by the run is ever held.
    n_cores = 64
    cfg = default_system(n_cores=n_cores)
    workload = mixed_workload(n_cores, seed=1)
    factory = standard_controllers(seed=0)["pid"]

    def peak(n_epochs):
        cell = RunCell(
            controller="pid", workload=workload.name, budget=None, seed=0,
            n_epochs=n_epochs,
        )
        tracemalloc.start()
        try:
            simulate_batch([CellTask(cell, cfg, workload, factory, {})])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # compile the phase table and warm lazy caches
    growth = peak(1000) - peak(100)
    one_track = 900 * n_cores * 8  # the 900 extra epochs of one phase array
    assert growth < one_track / 4
