"""Regression pin on batch coverage.

Every cell batches: watchdog supervision, process variation,
heterogeneous core maps, ragged epoch counts, noisy sensor suites,
memory systems, pre-built fault injectors and profiling all stack.  This
module pins that won: the standard-controller suite must produce
**zero** serial fallbacks under every scenario, each alone and mixed in
one grid, bit-identical at ``jobs=1``, ``jobs=2`` and ``batch=True``.
It also pins the stack policy a pid group gets: the vectorized
``BatchPID`` for stock controllers in every plant scenario, the serial
decide (``PerRunPolicy``) for watchdog-wrapped or mixed-gain groups; and
the one an od-rl group gets: the stacked learner ``BatchODRL`` for stock,
warm-started and same-``thermal_limit`` controllers, ``PerRunPolicy``
for differing limits and watchdog-wrapped controllers; and the one a
greedy-ascent or steepest-drop group gets: ``BatchGreedy`` for stock
controllers sharing estimator tables, ``PerRunPolicy`` for subclasses,
watchdog-wrapped drivers and differing tables.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.baselines import GreedyAscentController, SteepestDropController
from repro.baselines.pid import PIDCappingController
from repro.batch import plan_batches, simulate_batch
from repro.core import ODRLController
from repro.faults import FaultCampaign
from repro.kernel import EpochKernel
from repro.kernel.policies import (
    BatchGreedy,
    BatchODRL,
    BatchPID,
    PerRunPolicy,
    build_batch_policy,
)
from repro.manycore import ManyCoreChip, SensorSuite, default_system
from repro.manycore.hetero import big_little_map
from repro.manycore.memory import default_memory_system
from repro.manycore.variation import sample_variation
from repro.obs import BufferRecorder
from repro.parallel import CellTask, RunCell, assert_trace_equal, execute_cells
from repro.offline.warmstart import build_warm_controller
from repro.sim import run_controller, standard_controllers
from repro.sim.simulator import run_stack, simulate
from repro.workloads import mixed_workload

N_CORES = 4
N_EPOCHS = 8

#: Upper bound on serial fallbacks for the standard-controller suite
#: across all scenarios.  Every cell batches; any regression (a scenario
#: quietly losing batch support) fails here.
MAX_FALLBACKS = 0

CFG = default_system(n_cores=N_CORES, n_levels=3, budget_fraction=0.6)
WORKLOAD = mixed_workload(N_CORES, seed=0)

SCENARIO_KWARGS = {
    "clean": {},
    "faults": {
        "faults": FaultCampaign.random(N_CORES, N_EPOCHS, rate=0.2, seed=2),
    },
    "watchdog": {
        "faults": FaultCampaign.random(
            N_CORES, N_EPOCHS, rate=0.2, seed=2, n_crashes=1
        ),
        "watchdog": True,
        "checkpoint_period": 3,
    },
    "variation": {
        "variation": sample_variation(
            default_system(n_cores=N_CORES, n_levels=3, budget_fraction=0.6),
            rng=np.random.default_rng(4),
        ),
    },
    "hetero": {"hetero": big_little_map(N_CORES)},
    # The kernel reads each cell's sensor suite through its own copy, so
    # the shared instance below is never advanced by a test.
    "sensors": {"sensors": SensorSuite(np.random.default_rng(3))},
    "memory": {"memory_system": default_memory_system(CFG)},
    # A second, denser campaign, shared by every cell of the scenario.
    "injector": {
        "faults": FaultCampaign.random(N_CORES, N_EPOCHS, rate=0.4, seed=5),
    },
}


def _suite_tasks(sim_kwargs, profile=False):
    tasks = []
    for name, factory in sorted(standard_controllers(seed=0).items()):
        cell = RunCell(
            controller=name,
            workload=WORKLOAD.name,
            budget=None,
            seed=0,
            n_epochs=N_EPOCHS,
        )
        tasks.append(
            CellTask(cell, CFG, WORKLOAD, factory, dict(sim_kwargs), profile=profile)
        )
    return tasks


def _mixed_grid():
    """Every scenario's suite, plus a profiled one, in one task list."""
    tasks = _suite_tasks({}, profile=True)
    for _, kwargs in sorted(SCENARIO_KWARGS.items()):
        tasks.extend(_suite_tasks(kwargs))
    return tasks


def _context(task):
    """Which grid cell a mismatch is in (labels repeat across scenarios)."""
    return f"{task.cell.label()} {sorted(task.sim_kwargs)} profile={task.profile}"


class TestFallbackRegression:
    @pytest.mark.parametrize("scenario", sorted(SCENARIO_KWARGS))
    def test_gate_accepts_standard_suite(self, scenario):
        # The stack's one gate is its argument check: every scenario's
        # planned groups run through simulate_batch without raising.
        tasks = _suite_tasks(SCENARIO_KWARGS[scenario])
        for group in plan_batches(tasks, len(tasks)):
            assert len(simulate_batch([tasks[i] for i in group])) == len(group)

    def test_fallback_count_at_most_pinned(self):
        tasks = _mixed_grid()
        serial = execute_cells(tasks, jobs=1)
        rec = BufferRecorder()
        batched = execute_cells(tasks, jobs=1, batch=True, recorder=rec)
        for task, a, b in zip(tasks, serial, batched):
            assert_trace_equal(a, b, context=_context(task))
        fallbacks = [
            (e["cell"], e["reason"]) for e in rec.events if e["type"] == "cell_fallback"
        ]
        assert len(fallbacks) <= MAX_FALLBACKS, fallbacks
        assert sum(e["type"] == "cell_batched" for e in rec.events) == len(tasks)

    def test_mixed_grid_matches_in_the_pool(self):
        tasks = _mixed_grid()
        serial = execute_cells(tasks, jobs=1)
        pooled = execute_cells(tasks, jobs=2)
        for task, a, b in zip(tasks, serial, pooled):
            assert_trace_equal(a, b, context=_context(task))

    def test_watchdog_and_plant_options_join_batch_groups(self):
        # The headline win: scenarios that used to be PerRunPolicy-only
        # *fallbacks* (serial path) now plan into real batch groups.
        for scenario in ("watchdog", "variation", "hetero", "memory"):
            tasks = [
                _suite_tasks(SCENARIO_KWARGS[scenario])[0] for _ in range(3)
            ]
            assert plan_batches(tasks, 8) == [[0, 1, 2]], scenario


def _pid_tasks(sim_kwargs, factories, controller="pid"):
    """One cell per factory, at budgets spread around the default."""
    tasks = []
    for k, factory in enumerate(factories):
        cfg = CFG.with_budget(CFG.power_budget * (0.8 + 0.2 * k))
        cell = RunCell(
            controller=controller, workload=WORKLOAD.name, budget=cfg.power_budget,
            seed=0, n_epochs=N_EPOCHS - k,
        )
        tasks.append(CellTask(cell, cfg, WORKLOAD, factory, dict(sim_kwargs)))
    return tasks


def _stack_policy(monkeypatch, tasks):
    """The batch policy class :func:`simulate_batch` drives ``tasks`` with."""
    import repro.batch.simulator as batch_simulator

    picked = []
    real = batch_simulator.build_batch_policy

    def spy(drivers, **kwargs):
        policy = real(drivers, **kwargs)
        picked.append(type(policy))
        return policy

    monkeypatch.setattr(batch_simulator, "build_batch_policy", spy)
    simulate_batch(tasks)
    (policy_type,) = picked
    return policy_type


class TestPIDRouting:
    """Stock pid stacks decide through :class:`BatchPID`; anything it does
    not model stays on the serial decide through :class:`PerRunPolicy`."""

    @pytest.mark.parametrize("scenario", ["clean", "faults", "variation", "hetero"])
    def test_stock_pid_groups_get_batch_pid(self, monkeypatch, scenario):
        pid = standard_controllers(seed=0)["pid"]
        tasks = _pid_tasks(SCENARIO_KWARGS[scenario], [pid] * 3)
        assert plan_batches(tasks, 8) == [[0, 1, 2]]
        assert _stack_policy(monkeypatch, tasks) is BatchPID

    def test_watchdog_pid_stays_per_run(self, monkeypatch):
        pid = standard_controllers(seed=0)["pid"]
        tasks = _pid_tasks(SCENARIO_KWARGS["watchdog"], [pid] * 3)
        assert _stack_policy(monkeypatch, tasks) is PerRunPolicy

    def test_mixed_gain_pid_stays_per_run(self, monkeypatch):
        factories = [
            functools.partial(PIDCappingController),
            functools.partial(PIDCappingController, kp=1.0),
        ]
        tasks = _pid_tasks({}, factories)
        assert _stack_policy(monkeypatch, tasks) is PerRunPolicy


#: a limit these short 4-core runs cross within a few epochs, so the DTM
#: reflex fires
THERMAL_LIMIT = CFG.technology.t_ambient + 0.3


def _warm_snapshot(train_epochs, seed=7):
    """A checkpoint of an od-rl learner trained for ``train_epochs``
    epochs: ``train_epochs - 1`` decides with telemetry, so its
    reallocation window holds ``(train_epochs - 1) % 10`` epochs."""
    trainer = ODRLController(CFG, seed=seed)
    run_controller(CFG, WORKLOAD, trainer, train_epochs)
    return trainer.checkpoint()


def _odrl_tasks(sim_kwargs, factories):
    """One od-rl cell per factory, at budgets spread around the default."""
    return _pid_tasks(sim_kwargs, factories, controller="od-rl")


class TestODRLRouting:
    """Every od-rl configuration the stacked learner models decides
    through :class:`BatchODRL`; differing thermal limits and watchdog
    supervision stay on :class:`PerRunPolicy`."""

    @staticmethod
    def _groups():
        snapshot = _warm_snapshot(13)
        return {
            "stock": [standard_controllers(seed=0)["od-rl"]] * 3,
            "warm": [
                functools.partial(build_warm_controller, policy=snapshot, seed=s)
                for s in range(3)
            ],
            "thermal": [
                functools.partial(ODRLController, thermal_limit=THERMAL_LIMIT, seed=s)
                for s in range(3)
            ],
        }

    @pytest.mark.parametrize("group", ["stock", "warm", "thermal"])
    @pytest.mark.parametrize("scenario", ["clean", "faults", "variation", "hetero"])
    def test_odrl_groups_get_batch_odrl(self, monkeypatch, scenario, group):
        tasks = _odrl_tasks(SCENARIO_KWARGS[scenario], self._groups()[group])
        assert _stack_policy(monkeypatch, tasks) is BatchODRL

    def test_differing_thermal_limits_stay_per_run(self, monkeypatch):
        factories = [
            functools.partial(ODRLController, thermal_limit=THERMAL_LIMIT + d)
            for d in (0.0, 5.0)
        ]
        tasks = _odrl_tasks({}, factories)
        assert _stack_policy(monkeypatch, tasks) is PerRunPolicy

    def test_watchdog_odrl_stays_per_run(self, monkeypatch):
        odrl = standard_controllers(seed=0)["od-rl"]
        tasks = _odrl_tasks(SCENARIO_KWARGS["watchdog"], [odrl] * 3)
        assert _stack_policy(monkeypatch, tasks) is PerRunPolicy

    def test_fallbacks_stay_pinned(self):
        assert MAX_FALLBACKS == 0
        for factories in self._groups().values():
            tasks = _odrl_tasks({}, factories)
            serial = execute_cells(tasks, jobs=1)
            rec = BufferRecorder()
            batched = execute_cells(tasks, jobs=1, batch=True, recorder=rec)
            for task, a, b in zip(tasks, serial, batched):
                assert_trace_equal(a, b, context=task.cell.label())
            fallbacks = [e for e in rec.events if e["type"] == "cell_fallback"]
            assert len(fallbacks) <= MAX_FALLBACKS, fallbacks

    @pytest.mark.parametrize("thermal_limit", [None, THERMAL_LIMIT])
    def test_ragged_warm_rows_match_their_one_row_runs(self, thermal_limit):
        """Warm-start rows restoring different reallocation windows stack
        ragged, and each row is bit for bit its own one-row run: the stack
        restores every row's snapshot (step count, guard, window) on reset
        and reallocates each row on its own schedule."""
        snapshots = [_warm_snapshot(n) for n in (13, 17, 21)]
        windows = [int(s["window_epochs"]) for s in snapshots]
        assert len(set(windows)) == 3 and max(windows) > 0
        lengths = [12, 9, 7]
        cfgs = [CFG.with_budget(CFG.power_budget * f) for f in (0.9, 1.0, 1.1)]

        def controllers():
            return [
                ODRLController(cfg, pretrained=snap, thermal_limit=thermal_limit, seed=r)
                for r, (cfg, snap) in enumerate(zip(cfgs, snapshots))
            ]

        kernel = EpochKernel(cfgs, [WORKLOAD] * 3)
        results = run_stack(kernel, BatchODRL(controllers()), lengths, record_per_core=True)
        for r, (ctrl, n) in enumerate(zip(controllers(), lengths)):
            chip = ManyCoreChip(cfgs[r], WORKLOAD)
            alone = simulate(chip, ctrl, n, record_per_core=True)
            assert_trace_equal(results[r], alone, context=f"row {r}")


class _TweakedGreedy(GreedyAscentController):
    pass


#: lineup name -> stock class of the two heap heuristics
HEURISTICS = {
    "greedy-ascent": GreedyAscentController,
    "steepest-drop": SteepestDropController,
}


class TestHeuristicRouting:
    """Stock greedy-ascent and steepest-drop stacks decide through
    :class:`BatchGreedy`; subclasses, watchdog-wrapped drivers and groups
    whose estimator tables differ stay on :class:`PerRunPolicy`."""

    @pytest.mark.parametrize("name", sorted(HEURISTICS))
    @pytest.mark.parametrize("scenario", ["clean", "faults", "variation", "hetero"])
    def test_stock_groups_get_batch_greedy(self, monkeypatch, scenario, name):
        factory = standard_controllers(seed=0)[name]
        tasks = _pid_tasks(SCENARIO_KWARGS[scenario], [factory] * 3, controller=name)
        assert plan_batches(tasks, 8) == [[0, 1, 2]]
        assert _stack_policy(monkeypatch, tasks) is BatchGreedy

    @pytest.mark.parametrize(
        "factories",
        [
            [_TweakedGreedy] * 2,
            [GreedyAscentController, _TweakedGreedy],
            [
                SteepestDropController,
                functools.partial(SteepestDropController, hetero=big_little_map(N_CORES)),
            ],
            [GreedyAscentController, SteepestDropController],
        ],
        ids=["subclass", "mixed-subclass", "estimator-tables", "mixed-heuristics"],
    )
    def test_incompatible_groups_stay_per_run(self, monkeypatch, factories):
        tasks = _pid_tasks({}, factories, controller="heuristic")
        assert _stack_policy(monkeypatch, tasks) is PerRunPolicy

    @pytest.mark.parametrize("name", sorted(HEURISTICS))
    def test_watchdog_heuristics_stay_per_run(self, monkeypatch, name):
        factory = standard_controllers(seed=0)[name]
        tasks = _pid_tasks(SCENARIO_KWARGS["watchdog"], [factory] * 3, controller=name)
        assert _stack_policy(monkeypatch, tasks) is PerRunPolicy

    @pytest.mark.parametrize("name", sorted(HEURISTICS))
    def test_fallbacks_stay_pinned(self, name):
        assert MAX_FALLBACKS == 0
        factory = standard_controllers(seed=0)[name]
        for kwargs in SCENARIO_KWARGS.values():
            tasks = _pid_tasks(kwargs, [factory] * 3, controller=name)
            serial = execute_cells(tasks, jobs=1)
            rec = BufferRecorder()
            batched = execute_cells(tasks, jobs=1, batch=True, recorder=rec)
            for task, a, b in zip(tasks, serial, batched):
                assert_trace_equal(a, b, context=task.cell.label())
            fallbacks = [e for e in rec.events if e["type"] == "cell_fallback"]
            assert len(fallbacks) <= MAX_FALLBACKS, fallbacks

    @pytest.mark.parametrize("name", sorted(HEURISTICS))
    def test_ragged_stack_matches_one_row_runs(self, name):
        """Rows of different budgets and lengths stack ragged, and each row
        is bit for bit its own one-row run: a finished row's scan is
        skipped and its levels freeze."""
        cls = HEURISTICS[name]
        lengths = [12, 9, 7]
        cfgs = [CFG.with_budget(CFG.power_budget * f) for f in (0.7, 1.0, 1.3)]
        kernel = EpochKernel(cfgs, [WORKLOAD] * 3)
        policy = BatchGreedy([cls(cfg) for cfg in cfgs])
        results = run_stack(kernel, policy, lengths, record_per_core=True)
        for r, (cfg, n) in enumerate(zip(cfgs, lengths)):
            alone = simulate(ManyCoreChip(cfg, WORKLOAD), cls(cfg), n, record_per_core=True)
            assert_trace_equal(results[r], alone, context=f"{name} row {r}")
        # the budgets steer the rows apart within the shortest run
        prefixes = {results[r].core_levels[: min(lengths)].tobytes() for r in range(3)}
        assert len(prefixes) == 3


#: plant option -> (EpochKernel keyword, ManyCoreChip keyword, row r's instance)
STATEFUL_ROWS = {
    "memory": (
        "memory_systems", "memory_system", lambda r: default_memory_system(CFG),
    ),
    "sensors": (
        "sensors", "sensors", lambda r: SensorSuite(np.random.default_rng(10 + r)),
    ),
}


class TestStatefulPlantRows:
    """Per-row memory systems and noisy sensor suites in one ragged stack:
    each row is bit for bit its serial chip run, whichever stack policy
    decides."""

    @pytest.mark.parametrize(
        "name", ["od-rl", "pid", "maxbips", "greedy-ascent", "static-uniform"]
    )
    @pytest.mark.parametrize("option", sorted(STATEFUL_ROWS))
    def test_rows_match_their_serial_runs(self, option, name):
        kernel_key, chip_key, make = STATEFUL_ROWS[option]
        lengths = [12, 9, 7]
        cfgs = [CFG.with_budget(CFG.power_budget * f) for f in (0.8, 1.0, 1.2)]
        factory = standard_controllers(seed=0)[name]
        kernel = EpochKernel(
            cfgs, [WORKLOAD] * 3, **{kernel_key: [make(r) for r in range(3)]}
        )
        policy = build_batch_policy([factory(cfg) for cfg in cfgs])
        policy.reset()
        results = run_stack(kernel, policy, lengths, record_per_core=True)
        for r, (cfg, n) in enumerate(zip(cfgs, lengths)):
            chip = ManyCoreChip(cfg, WORKLOAD, **{chip_key: make(r)})
            alone = simulate(chip, factory(cfg), n, record_per_core=True)
            assert_trace_equal(results[r], alone, context=f"{option} {name} row {r}")
