"""Differential matrix: batched backend vs serial vs ``jobs=2``.

The contract under test is the batched backend's whole reason to exist:
for every deterministic output, ``batch=`` is *invisible* — any batch
cap, any jobs count, any scenario produces the same bits as the serial
``run_controller`` run of each cell, outside the engine.  The matrix crosses controllers (the
specialized OD-RL stack, the generic per-run fallback policy, and two
deterministic baselines) with scenarios (clean, fault campaign,
watchdog + crash — batched per run through its serial wrapper) and
batch caps {1, 3, 8} at jobs {1, 2}.

Mixed-batch tests stack cells that differ in budget AND seed — and,
via the kernel's ragged row mask, epoch count — inside one stacked
simulation: the grouping rule's outer limit.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultCampaign
from repro.manycore import default_system
from repro.obs import BufferRecorder
from repro.parallel import CellTask, RunCell, assert_trace_equal, execute_cells
from repro.parallel.cells import merge_suite
from repro.sim import run_suite, standard_controllers
from repro.sim.runner import build_suite_tasks
from repro.workloads import make_benchmark, mixed_workload

from tools.regen_golden import serial_reference

N_CORES = 8
N_EPOCHS = 30
SEED = 0

#: The specialized batch policy (od-rl), the generic per-run fallback
#: (greedy-ascent has no batched implementation), and two deterministic
#: baselines with very different decision structure.
CONTROLLERS = ("od-rl", "pid", "static-uniform", "greedy-ascent")
BATCH_SIZES = (1, 3, 8)
JOBS_MATRIX = (1, 2)
SCENARIOS = ("clean", "faults", "watchdog-crash")


@pytest.fixture(scope="module")
def cfg():
    return default_system(n_cores=N_CORES, n_levels=4, budget_fraction=0.6)


@pytest.fixture(scope="module")
def chosen():
    lineup = standard_controllers(seed=SEED)
    return {name: lineup[name] for name in CONTROLLERS}


@pytest.fixture(scope="module")
def workloads():
    return {
        "mixed": mixed_workload(N_CORES, seed=SEED),
        "fft": make_benchmark("fft", N_CORES, seed=SEED),
        "ocean": make_benchmark("ocean", N_CORES, seed=SEED),
    }


@pytest.fixture(scope="module")
def scenario_kwargs():
    return {
        "clean": {},
        "faults": {
            "faults": FaultCampaign.random(N_CORES, N_EPOCHS, rate=0.1, seed=3),
        },
        # Watchdog runs batch through PerRunPolicy: each run's serial
        # WatchdogController wrapper decides on row views, so the crash /
        # checkpoint-restore path is the serial code path unchanged.
        "watchdog-crash": {
            "faults": FaultCampaign.random(
                N_CORES, N_EPOCHS, rate=0.1, seed=3, n_crashes=1
            ),
            "watchdog": True,
            "checkpoint_period": 10,
        },
    }


@pytest.fixture(scope="module")
def serial_by_scenario(cfg, workloads, chosen, scenario_kwargs):
    """The serial ``run_controller`` reference, once per scenario — the
    referee."""
    suites = {}
    for name in SCENARIOS:
        cells, tasks = build_suite_tasks(
            cfg, workloads, chosen, N_EPOCHS, sim_kwargs=scenario_kwargs[name]
        )
        suites[name] = merge_suite(cells, serial_reference(tasks))
    return suites


@pytest.fixture(scope="module")
def jobs2_by_scenario(cfg, workloads, chosen, scenario_kwargs):
    """The process-pool backend, once per scenario — the second referee."""
    return {
        name: run_suite(
            cfg, workloads, chosen, N_EPOCHS, jobs=2,
            sim_kwargs=scenario_kwargs[name],
        )
        for name in SCENARIOS
    }


def assert_suites_equal(a, b, context):
    assert set(a) == set(b)
    for ctrl in a:
        assert list(a[ctrl]) == list(b[ctrl])
        for wl in a[ctrl]:
            assert_trace_equal(
                a[ctrl][wl], b[ctrl][wl], context=f"{context}[{ctrl}][{wl}]"
            )


class TestDifferentialMatrix:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_jobs2_matches_serial(
        self, serial_by_scenario, jobs2_by_scenario, scenario
    ):
        assert_suites_equal(
            serial_by_scenario[scenario],
            jobs2_by_scenario[scenario],
            f"{scenario} jobs=2",
        )

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("jobs", JOBS_MATRIX)
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_batched_matches_serial_and_jobs2(
        self,
        cfg,
        workloads,
        chosen,
        scenario_kwargs,
        serial_by_scenario,
        jobs2_by_scenario,
        scenario,
        jobs,
        batch,
    ):
        batched = run_suite(
            cfg, workloads, chosen, N_EPOCHS, jobs=jobs, batch=batch,
            sim_kwargs=scenario_kwargs[scenario],
        )
        context = f"{scenario} jobs={jobs} batch={batch}"
        assert_suites_equal(
            serial_by_scenario[scenario], batched, f"{context} vs serial"
        )
        assert_suites_equal(
            jobs2_by_scenario[scenario], batched, f"{context} vs jobs=2"
        )


def _mixed_tasks(base_cfg, workload, factories, fracs):
    """One task per (factory, budget fraction) — all in one batch group."""
    tasks = []
    for i, (factory, frac) in enumerate(zip(factories, fracs)):
        cfg = base_cfg.with_budget(base_cfg.power_budget * frac)
        cell = RunCell(
            controller=f"cell-{i}",
            workload=workload.name,
            budget=cfg.power_budget,
            seed=i,
            n_epochs=N_EPOCHS,
        )
        tasks.append(CellTask(cell, cfg, workload, factory, {}))
    return tasks


def _run_and_compare_mixed(tasks, context):
    """Batched engine run vs the serial reference; return the events."""
    serial = serial_reference(tasks)
    rec = BufferRecorder()
    batched = execute_cells(tasks, jobs=1, batch=True, recorder=rec)
    for i, (a, b) in enumerate(zip(serial, batched)):
        assert_trace_equal(a, b, context=f"{context}[{i}]")
    return rec.events


class TestMixedBatch:
    """Cells differing in budget AND seed stacked into one simulation."""

    FRACS = (0.55, 0.7, 0.9)

    def test_odrl_mixed_budgets_and_seeds(self, cfg, workloads):
        # Different lineup seeds → different derived controller seeds; the
        # grouping rule strips ``seed`` from the factory fingerprint, so
        # all three must land in a single stack.
        factories = [
            standard_controllers(seed=s)["od-rl"] for s in range(len(self.FRACS))
        ]
        tasks = _mixed_tasks(cfg, workloads["mixed"], factories, self.FRACS)
        events = _run_and_compare_mixed(tasks, "od-rl mixed batch")
        batched_events = [e for e in events if e["type"] == "cell_batched"]
        assert [e["size"] for e in batched_events] == [3, 3, 3]
        assert {e["group"] for e in batched_events} == {0}

    def test_maxbips_mixed_budgets(self, cfg, workloads):
        # The DP knapsack policy carries per-run budgets; three budgets in
        # one stack is its hardest case.
        factory = standard_controllers(seed=SEED)["maxbips"]
        tasks = _mixed_tasks(
            cfg, workloads["mixed"], [factory] * len(self.FRACS), self.FRACS
        )
        events = _run_and_compare_mixed(tasks, "maxbips mixed batch")
        assert [e["size"] for e in events if e["type"] == "cell_batched"] == [3, 3, 3]

    def test_per_run_policy_mixed_budgets(self, cfg, workloads):
        # greedy-ascent has no specialized batch policy: the generic
        # per-run fallback must still stack (and match) mixed budgets.
        factory = standard_controllers(seed=SEED)["greedy-ascent"]
        tasks = _mixed_tasks(
            cfg, workloads["mixed"], [factory] * len(self.FRACS), self.FRACS
        )
        _run_and_compare_mixed(tasks, "greedy-ascent mixed batch")

    def test_ragged_epoch_counts_in_one_stack(self, cfg, workloads):
        # Cells differing in n_epochs share a stack: the group is padded
        # to the longest run and finished rows are masked, so each result
        # must still match its own serial run bit for bit.
        factories = [
            standard_controllers(seed=s)["od-rl"] for s in range(3)
        ]
        epoch_counts = (12, 30, 21)
        tasks = []
        for i, (factory, n_e) in enumerate(zip(factories, epoch_counts)):
            cell = RunCell(
                controller=f"ragged-{i}",
                workload=workloads["mixed"].name,
                budget=None,
                seed=i,
                n_epochs=n_e,
            )
            tasks.append(CellTask(cell, cfg, workloads["mixed"], factory, {}))
        events = _run_and_compare_mixed(tasks, "ragged epochs")
        batched_events = [e for e in events if e["type"] == "cell_batched"]
        assert [e["size"] for e in batched_events] == [3, 3, 3]
        assert {e["group"] for e in batched_events} == {0}

    def test_mixed_workloads_in_one_stack(self, cfg, workloads):
        # Same controller, three different workloads: each row reads its
        # own workload's phases from the kernel's block, so these stack too.
        factory = standard_controllers(seed=SEED)["od-rl"]
        tasks = []
        for i, workload in enumerate(workloads.values()):
            cell = RunCell(
                controller="od-rl",
                workload=workload.name,
                budget=None,
                seed=SEED,
                n_epochs=N_EPOCHS,
            )
            tasks.append(CellTask(cell, cfg, workload, factory, {}))
        events = _run_and_compare_mixed(tasks, "mixed workloads")
        assert [e["size"] for e in events if e["type"] == "cell_batched"] == [3, 3, 3]
