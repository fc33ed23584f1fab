"""Engine behaviour of ``batch=``: grouping, errors, events.

Covers the cells every former fallback reason named (each now stacks),
the batch planner's grouping/chunking rules, the engine's event stream
and counter snapshot, the batch-error split (a failing stack re-runs its
cells one per stack, never losing one), and composition with the result
cache (batch membership stays out of ``cell_key``).  The reference for
every result is the serial ``run_controller`` run of the same cell.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import repro.batch
from repro.baselines import StaticUniformController
from repro.batch import plan_batches
from repro.faults import FaultCampaign
from repro.manycore import SensorSuite, default_system
from repro.manycore.hetero import big_little_map
from repro.manycore.memory import default_memory_system
from repro.manycore.variation import sample_variation
from repro.obs import BufferRecorder
from repro.parallel import (
    CellTask,
    ChaosPolicy,
    ResultCache,
    RetryPolicy,
    RunCell,
    assert_trace_equal,
    execute_cells,
    execute_cells_report,
)
from repro.sim import run_controller, standard_controllers
from repro.workloads import make_benchmark, mixed_workload

from tools.regen_golden import serial_reference

N_CORES = 4
N_EPOCHS = 10


@pytest.fixture(scope="module")
def cfg():
    return default_system(n_cores=N_CORES, n_levels=3, budget_fraction=0.6)


@pytest.fixture(scope="module")
def workload():
    return mixed_workload(N_CORES, seed=0)


@pytest.fixture(scope="module")
def lineup():
    return standard_controllers(seed=0)


def make_task(
    cfg, workload, factory, name="cell", sim_kwargs=None,
    trace=False, profile=False,
):
    cell = RunCell(
        controller=name, workload=workload.name, budget=None, seed=0,
        n_epochs=N_EPOCHS,
    )
    return CellTask(
        cell, cfg, workload, factory, dict(sim_kwargs or {}),
        trace=trace, profile=profile,
    )


def events_of(rec, event_type):
    return [e for e in rec.events if e["type"] == event_type]


def transitions(rec):
    return [
        {k: v for k, v in e.items() if k != "seq"} for e in events_of(rec, "transition")
    ]


def summary_counters(rec):
    (summary,) = events_of(rec, "engine_summary")
    return summary["counters"]


def fail_stacks(real):
    """``simulate_batch`` that raises for a stack of several cells and
    runs one-row stacks for real."""
    def simulate_batch(group, recorders=None):
        if len(group) > 1:
            raise RuntimeError("deliberate batch failure")
        return real(group, recorders)

    return simulate_batch


def assert_batches(tasks):
    """Every task stacks (no ``cell_fallback``) and matches its serial run."""
    serial = serial_reference(tasks)
    rec = BufferRecorder()
    batched = execute_cells(tasks, jobs=1, batch=True, recorder=rec)
    for task, a, b in zip(tasks, serial, batched):
        assert_trace_equal(a, b, context=task.cell.label())
    assert events_of(rec, "cell_fallback") == []
    assert len(events_of(rec, "cell_batched")) == len(tasks)


def plant_option(cfg, key):
    """A real, non-default value of the ``run_controller`` option ``key``."""
    return {
        "sensors": lambda: SensorSuite(np.random.default_rng(5)),
        "memory_system": lambda: default_memory_system(cfg),
        "variation": lambda: sample_variation(cfg, rng=np.random.default_rng(4)),
        "hetero": lambda: big_little_map(N_CORES),
    }[key]()


class TestUnsupportedReasons:
    """The cells behind every reason the retired compatibility gate gave
    (``profile``, ``faults-instance``, ``sim_kwargs:<key>``) and the ones it
    accepted: all now stack.  An option the stack does not model makes the
    stack raise, and the batch-error re-queue gives the serial outcome."""

    def test_batchable_task_has_no_reason(self, cfg, workload, lineup):
        assert_batches([make_task(cfg, workload, lineup["od-rl"])])

    def test_trace(self, cfg, workload, lineup):
        # Traced cells batch: the control loop emits each row's events
        # into that cell's own recorder.
        assert_batches([make_task(cfg, workload, lineup["od-rl"], trace=True)])

    def test_profile(self, cfg, workload, lineup):
        assert_batches([make_task(cfg, workload, lineup["od-rl"], profile=True)])

    def test_watchdog_is_batchable(self, cfg, workload, lineup):
        # Watchdog-supervised cells batch via PerRunPolicy: each run gets
        # its own serial WatchdogController wrapper on row views.
        assert_batches(
            [make_task(cfg, workload, lineup["od-rl"], sim_kwargs={"watchdog": True})]
        )

    def test_watchdog_false_is_batchable(self, cfg, workload, lineup):
        assert_batches(
            [make_task(cfg, workload, lineup["od-rl"], sim_kwargs={"watchdog": False})]
        )

    def test_fault_campaign_is_batchable(self, cfg, workload, lineup):
        campaign = FaultCampaign.random(N_CORES, N_EPOCHS, rate=0.2, seed=1)
        assert_batches(
            [make_task(cfg, workload, lineup["od-rl"], sim_kwargs={"faults": campaign})]
        )

    def test_live_injector_instance_batches(self, cfg, workload, lineup):
        # Two cells sharing one campaign object stack exactly as their
        # serial runs do: the kernel owns each row's fault state.
        campaign = FaultCampaign.random(N_CORES, N_EPOCHS, rate=0.2, seed=1)
        options = {"faults": campaign}
        assert_batches(
            [make_task(cfg, workload, lineup["od-rl"], sim_kwargs=options)] * 2
        )

    def test_unknown_sim_kwarg(self, cfg, workload, lineup):
        # The stack refuses an option it does not model, as run_controller
        # does; a stack of two splits, and each re-run cell fails alike.
        tasks = [
            make_task(cfg, workload, lineup["od-rl"], name=name, sim_kwargs={"bogus": 1})
            for name in ("a", "b")
        ]
        with pytest.raises(TypeError, match="bogus"):
            serial_reference(tasks[:1])
        with pytest.raises(TypeError, match="bogus"):
            execute_cells(tasks[:1], jobs=1)
        rec = BufferRecorder()
        with pytest.raises(TypeError, match="bogus"):
            execute_cells(tasks, jobs=1, batch=True, recorder=rec)
        fallbacks = events_of(rec, "cell_fallback")
        assert [e["reason"] for e in fallbacks] == ["batch-error"] * 2
        assert len(events_of(rec, "cell_failed")) == 2

    def test_harvest_option_stacks(self, cfg, workload, lineup):
        # ``harvest`` stacks through the rows' serial controllers, and a
        # traced row emits the transitions its serial run emits.
        tasks = [
            make_task(
                cfg, workload, standard_controllers(seed=s)["od-rl"], name=f"h{s}",
                sim_kwargs={"harvest": True}, trace=True,
            )
            for s in range(2)
        ]
        assert_batches(tasks)
        rec = BufferRecorder()
        execute_cells(tasks, jobs=1, batch=True, recorder=rec)
        expected = []
        for task in tasks:
            serial = BufferRecorder()
            run_controller(
                task.cfg, task.workload, task.factory(task.cfg), N_EPOCHS,
                recorder=serial, harvest=True,
            )
            expected += transitions(serial)
        assert expected and transitions(rec) == expected

    @pytest.mark.parametrize("key", ["sensors", "memory_system"])
    def test_non_default_plant_option(self, cfg, workload, lineup, key):
        options = {key: plant_option(cfg, key)}
        assert_batches(
            [make_task(cfg, workload, lineup[name], sim_kwargs=options)
             for name in ("od-rl", "pid", "maxbips")]
        )

    @pytest.mark.parametrize("key", ["variation", "hetero"])
    def test_stackable_plant_option_is_batchable(self, cfg, workload, lineup, key):
        # Variation and hetero multipliers stack per run in the kernel.
        options = {key: plant_option(cfg, key)}
        tasks = [make_task(cfg, workload, lineup["od-rl"], sim_kwargs=options)] * 2
        assert plan_batches(tasks, 8) == [[0, 1]]
        assert_batches(tasks)

    @pytest.mark.parametrize(
        "key", ["sensors", "variation", "memory_system", "hetero"]
    )
    def test_explicit_none_plant_option_is_batchable(
        self, cfg, workload, lineup, key
    ):
        assert_batches(
            [make_task(cfg, workload, lineup["od-rl"], sim_kwargs={key: None})]
        )


class TestPlanBatches:
    def test_same_recipe_different_seeds_share_a_group(self, cfg, workload):
        tasks = [
            make_task(cfg, workload, standard_controllers(seed=s)["od-rl"])
            for s in range(3)
        ]
        assert plan_batches(tasks, 8) == [[0, 1, 2]]

    def test_different_controllers_split_groups(self, cfg, workload, lineup):
        tasks = [
            make_task(cfg, workload, lineup["od-rl"]),
            make_task(cfg, workload, lineup["pid"]),
            make_task(cfg, workload, lineup["od-rl"]),
        ]
        assert plan_batches(tasks, 8) == [[0, 2], [1]]

    def test_explicit_none_option_groups_with_absent(self, cfg, workload, lineup):
        tasks = [
            make_task(cfg, workload, lineup["od-rl"]),
            make_task(cfg, workload, lineup["od-rl"], sim_kwargs={"sensors": None}),
        ]
        assert plan_batches(tasks, 8) == [[0, 1]]

    def test_different_n_epochs_share_a_group(self, cfg, workload, lineup):
        # Ragged stacking: epoch count is per-run state (masked rows), not
        # part of the group signature.
        tasks = []
        for n_e in (4, 10, 7):
            cell = RunCell(
                controller="pid", workload=workload.name, budget=None,
                seed=0, n_epochs=n_e,
            )
            tasks.append(CellTask(cell, cfg, workload, lineup["pid"], {}))
        assert plan_batches(tasks, 8) == [[0, 1, 2]]

    def test_max_batch_chunks_contiguously(self, cfg, workload, lineup):
        tasks = [make_task(cfg, workload, lineup["pid"]) for _ in range(5)]
        assert plan_batches(tasks, 2) == [[0, 1], [2, 3], [4]]

    def test_unfingerprintable_factory_gets_singleton_group(self, cfg, workload):
        tasks = [
            make_task(cfg, workload, lambda c: StaticUniformController(c))
            for _ in range(2)
        ]
        assert plan_batches(tasks, 8) == [[0], [1]]

    def test_shared_unfingerprintable_factory_stays_singleton(self, cfg, workload):
        def factory(c):
            return StaticUniformController(c)

        shared = lambda c: factory(c)  # noqa: E731 - no stable identity
        tasks = [make_task(cfg, workload, shared) for _ in range(3)]
        assert plan_batches(tasks, 8) == [[0], [1], [2]]

    def test_shared_inputs_plan_as_fresh_copies(self, cfg, workload, lineup):
        # The planner hashes once per distinct (factory, options, config
        # fields) identity; rebuilding every task from fresh copies must
        # not move a single task between groups.
        options = {"faults": FaultCampaign.random(N_CORES, N_EPOCHS, rate=0.2, seed=1)}
        tasks = [
            make_task(cfg.with_budget(cfg.power_budget * f), workload, lineup[name],
                      sim_kwargs=options)
            for name in ("od-rl", "pid", "maxbips")
            for f in (0.6, 0.9, 1.2)
        ]
        tasks.insert(4, make_task(cfg, workload, lineup["pid"], sim_kwargs={"hetero": None}))
        fresh = [
            dataclasses.replace(
                t,
                cfg=dataclasses.replace(
                    t.cfg, vf_levels=copy.deepcopy(t.cfg.vf_levels),
                    technology=copy.deepcopy(t.cfg.technology),
                ),
                factory=functools.partial(
                    t.factory.func, *t.factory.args, **t.factory.keywords
                ),
                sim_kwargs=dict(t.sim_kwargs),
            )
            for t in tasks
        ]
        plan = plan_batches(tasks, 2)
        assert plan == plan_batches(fresh, 2)
        assert plan == [[0, 1], [2], [3, 4], [5, 6], [7, 8], [9]]

    def test_equal_but_differently_hashed_configs_split(self, cfg, workload, lineup):
        # 0.0 == -0.0, but the signature hashes exact bit patterns.
        tasks = [
            make_task(dataclasses.replace(cfg, mem_latency=m), workload, lineup["pid"])
            for m in (0.0, -0.0, 0.0)
        ]
        assert plan_batches(tasks, 8) == [[0, 2], [1]]

    def test_rejects_nonpositive_max_batch(self, cfg, workload, lineup):
        with pytest.raises(ValueError, match="max_batch"):
            plan_batches([make_task(cfg, workload, lineup["pid"])], 0)


class TestEngineBatchPath:
    def test_rejects_invalid_batch_value(self, cfg, workload, lineup):
        task = make_task(cfg, workload, lineup["pid"])
        with pytest.raises(ValueError, match="batch"):
            execute_cells([task], batch=-1)

    def test_profiled_cells_batch_and_match_serial(self, cfg, workload, lineup):
        tasks = [
            make_task(cfg, workload, lineup["pid"], name="plain"),
            make_task(
                cfg, workload, lineup["pid"], name="profiled", profile=True,
            ),
        ]
        serial = serial_reference(tasks)
        rec = BufferRecorder()
        batched = execute_cells(tasks, jobs=1, batch=True, recorder=rec)
        for a, b in zip(serial, batched):
            assert_trace_equal(a, b, context="profiled mix")
        assert events_of(rec, "cell_fallback") == []
        # Profiled cells stack only with profiled cells.
        assert [e["size"] for e in events_of(rec, "cell_batched")] == [1, 1]
        assert "timing" in batched[1].extras and "timing" not in batched[0].extras
        counters = summary_counters(rec)
        assert counters["engine.cells_batched"] == 2
        assert counters["engine.batch_groups"] == 2
        assert counters["engine.cells_run"] == 2
        assert not [k for k in counters if k.startswith("engine.fallback")]

    def test_watchdog_cells_batch_and_match_serial(self, cfg, workload, lineup):
        campaign = FaultCampaign.random(
            N_CORES, N_EPOCHS, rate=0.0, n_crashes=1, seed=3
        )
        tasks = [
            make_task(
                cfg, workload, lineup["od-rl"], name="dog",
                sim_kwargs={
                    "watchdog": True, "faults": campaign,
                    "checkpoint_period": 4,
                },
            ),
            make_task(
                cfg, workload, lineup["od-rl"], name="dog2",
                sim_kwargs={
                    "watchdog": True, "faults": campaign,
                    "checkpoint_period": 4,
                },
            ),
        ]
        serial = serial_reference(tasks)
        rec = BufferRecorder()
        batched = execute_cells(tasks, jobs=1, batch=True, recorder=rec)
        for a, b in zip(serial, batched):
            assert_trace_equal(a, b, context="batched watchdog")
        assert events_of(rec, "cell_fallback") == []
        counters = summary_counters(rec)
        assert counters["engine.cells_batched"] == 2

    def test_batch_cap_bounds_group_sizes(self, cfg, workload, lineup):
        workloads = [
            mixed_workload(N_CORES, seed=0),
            make_benchmark("fft", N_CORES, seed=0),
            make_benchmark("ocean", N_CORES, seed=0),
            make_benchmark("lu", N_CORES, seed=0),
            make_benchmark("radix", N_CORES, seed=0),
        ]
        tasks = [
            make_task(cfg, wl, lineup["pid"], name=f"pid-{i}")
            for i, wl in enumerate(workloads)
        ]
        rec = BufferRecorder()
        execute_cells(tasks, jobs=1, batch=2, recorder=rec)
        sizes = [e["size"] for e in events_of(rec, "cell_batched")]
        assert sizes == [2, 2, 2, 2, 1]
        counters = summary_counters(rec)
        assert counters["engine.batch_groups"] == 3
        assert counters["engine.cells_batched"] == 5

    def test_batch_error_requeues_to_serial_path(
        self, cfg, workload, lineup, monkeypatch
    ):
        tasks = [
            make_task(cfg, workload, lineup["pid"], name=f"pid-{i}")
            for i in range(2)
        ]
        serial = serial_reference(tasks)
        monkeypatch.setattr(
            "repro.batch.simulate_batch", fail_stacks(repro.batch.simulate_batch)
        )
        rec = BufferRecorder()
        batched = execute_cells(tasks, jobs=1, batch=True, recorder=rec)
        for a, b in zip(serial, batched):
            assert_trace_equal(a, b, context="batch-error requeue")
        reasons = [e["reason"] for e in events_of(rec, "cell_fallback")]
        assert reasons == ["batch-error", "batch-error"]
        counters = summary_counters(rec)
        assert counters["engine.batch_errors"] == 1
        assert not [k for k in counters if k.startswith("engine.fallback")]
        assert counters["engine.cells_run"] == 2
        assert "engine.cells_batched" not in counters

    def test_requeued_cells_keep_task_order(self, cfg, workload, lineup, monkeypatch):
        # A failing group must re-enter the serial path in task order, so
        # results stay aligned with their cells.
        tasks = [
            make_task(cfg, workload, lineup["pid"], name="a"),
            make_task(cfg, workload, lineup["static-uniform"], name="b"),
            make_task(cfg, workload, lineup["pid"], name="c"),
        ]
        serial = serial_reference(tasks)
        monkeypatch.setattr(
            "repro.batch.simulate_batch", fail_stacks(repro.batch.simulate_batch)
        )
        batched = execute_cells(tasks, jobs=1, batch=True)
        for a, b in zip(serial, batched):
            assert_trace_equal(a, b, context="requeue ordering")


class TestCacheComposition:
    def test_batch_populates_cache_serial_replays_it(
        self, cfg, workload, lineup, tmp_path
    ):
        tasks = [
            make_task(cfg, workload, standard_controllers(seed=s)["od-rl"],
                      name=f"od-rl-{s}")
            for s in range(3)
        ]
        serial = serial_reference(tasks)
        cache = ResultCache(tmp_path)
        cold = execute_cells(tasks, jobs=1, cache=cache, batch=True)
        assert (cache.hits, cache.misses) == (0, 3)
        warm = execute_cells(tasks, jobs=1, cache=cache, batch=False)
        assert (cache.hits, cache.misses) == (3, 3)
        for a, b, c in zip(serial, cold, warm):
            assert_trace_equal(a, b, context="cold batch cache")
            assert_trace_equal(a, c, context="warm serial replay")

    def test_serial_cache_replays_into_batch_run(
        self, cfg, workload, lineup, tmp_path
    ):
        tasks = [
            make_task(cfg, workload, lineup["pid"], name=f"pid-{i}")
            for i in range(2)
        ]
        cache = ResultCache(tmp_path)
        cold = execute_cells(tasks, jobs=1, cache=cache)
        rec = BufferRecorder()
        warm = execute_cells(tasks, jobs=1, cache=cache, batch=True, recorder=rec)
        assert cache.hits == 2
        # Everything came from the cache; nothing left to batch.
        assert events_of(rec, "cell_batched") == []
        for a, b in zip(cold, warm):
            assert_trace_equal(a, b, context="warm batch run")


class _FakePool:
    """Stands in for ``ProcessPoolExecutor``: runs each unit where it is
    submitted, except in the first pool built, where a stack of several
    cells either dies (``"die"``: its future raises ``BrokenProcessPool``)
    or stays in flight while a one-row unit's worker dies (``"break"``)."""

    built = 0

    def __init__(self, mode, **_pool_kwargs):
        self.mode = mode if _FakePool.built == 0 else "run"
        _FakePool.built += 1

    def submit(self, fn, tasks, *args):
        future = Future()
        stack = len(tasks) > 1
        if (self.mode == "die" and stack) or (self.mode == "break" and not stack):
            future.set_exception(BrokenProcessPool("worker died"))
        elif not (self.mode == "break" and stack):
            future.set_result(fn(tasks, *args))
        return future

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None


def stack_and_single(cfg, workload, lineup):
    """Two od-rl cells (one stack) and a pid cell (a one-row unit)."""
    return [
        make_task(cfg, workload, standard_controllers(seed=s)["od-rl"], name=f"rl{s}")
        for s in range(2)
    ] + [make_task(cfg, workload, lineup["pid"], name="pid")]


def attempts_by_cell(rec):
    return {e["cell"][:3]: e["attempts"] for e in events_of(rec, "cell_done")}


class TestStacksInWorkers:
    """``jobs > 1`` with ``batch`` runs the planned stacks in the workers;
    a stack's one try is free and untouched by chaos and the deadline."""

    def test_stacks_run_in_workers_bit_identical(self, cfg, workload, lineup, monkeypatch):
        tasks = stack_and_single(cfg, workload, lineup) + [
            make_task(cfg, workload, lineup["pid"], name="pid2", trace=True)
        ]
        reference = execute_cells(tasks, jobs=1, batch=False)
        parent_stacks = []
        real = repro.batch.simulate_batch

        def spy(group, recorders=None):
            parent_stacks.append(len(group))
            return real(group, recorders)

        monkeypatch.setattr("repro.batch.simulate_batch", spy)
        rec = BufferRecorder()
        pooled = execute_cells(tasks, jobs=2, batch=True, recorder=rec)
        assert parent_stacks == []  # every stack ran in a spawned worker
        for task, a, b in zip(tasks, reference, pooled):
            assert_trace_equal(a, b, context=task.cell.label())
        assert [e["size"] for e in events_of(rec, "cell_batched")] == [2, 2, 2, 2]
        assert events_of(rec, "cell_fallback") == []
        assert len(events_of(rec, "run_start")) == 1  # the traced pid2 cell

    @pytest.mark.parametrize("mode", ["raise", "die", "break"])
    def test_failed_stack_splits_uncharged(self, cfg, workload, lineup, monkeypatch, mode):
        tasks = stack_and_single(cfg, workload, lineup)
        _FakePool.built = 0
        pool_mode = "run" if mode == "raise" else mode
        monkeypatch.setattr(
            "repro.parallel.engine.ProcessPoolExecutor",
            functools.partial(_FakePool, pool_mode),
        )
        if mode == "raise":
            monkeypatch.setattr(
                "repro.batch.simulate_batch", fail_stacks(repro.batch.simulate_batch)
            )
        rec = BufferRecorder()
        report = execute_cells_report(tasks, jobs=2, batch=True, recorder=rec)
        assert report.ok
        for task, a, b in zip(tasks, serial_reference(tasks), report.results):
            assert_trace_equal(a, b, context=task.cell.label())
        fallbacks = [e["cell"][:3] for e in events_of(rec, "cell_fallback")]
        assert fallbacks == ["rl0", "rl1"]
        assert report.counters["engine.batch_errors"] == 1
        # The stack's try is free: each member settles on its first attempt.
        retried = [e["cell"][:3] for e in events_of(rec, "cell_retry")]
        assert retried == (["pid"] if mode == "break" else [])
        assert attempts_by_cell(rec) == {
            "rl0": 1, "rl1": 1, "pid": 2 if mode == "break" else 1,
        }

    def test_chaos_never_touches_a_stack(self, cfg, workload, lineup, monkeypatch):
        _FakePool.built = 0
        monkeypatch.setattr(
            "repro.parallel.engine.ProcessPoolExecutor",
            functools.partial(_FakePool, "run"),
        )
        chaos = ChaosPolicy(seed=0, transient_rate=1.0)
        rec = BufferRecorder()
        report = execute_cells_report(
            stack_and_single(cfg, workload, lineup), jobs=2, batch=True,
            chaos=chaos, recorder=rec,
            retry_policy=RetryPolicy(retries=2, base_delay=0.0, max_delay=0.0, jitter=0.0),
        )
        assert report.ok
        # Only the one-row unit draws faults, on both chaos-armed attempts.
        assert chaos.counts == {"transient": 2}
        assert attempts_by_cell(rec) == {"rl0": 1, "rl1": 1, "pid": 3}
        assert events_of(rec, "cell_fallback") == []

    def test_soft_deadline_never_touches_a_stack(self, cfg, workload, monkeypatch):
        # Threads stand in for workers, so the stack is really running
        # past the deadline while the watchdog ticks.
        monkeypatch.setattr(
            "repro.parallel.engine.ProcessPoolExecutor",
            lambda max_workers, mp_context: ThreadPoolExecutor(max_workers),
        )
        tasks = [
            dataclasses.replace(
                make_task(cfg, workload, standard_controllers(seed=s)["od-rl"], name=f"rl{s}"),
                cell=RunCell(controller=f"rl{s}", workload=workload.name, budget=None,
                             seed=s, n_epochs=400),
            )
            for s in range(2)
        ]
        rec = BufferRecorder()
        t0 = time.perf_counter()
        report = execute_cells_report(tasks, jobs=2, batch=True, timeout=0.01, recorder=rec)
        assert time.perf_counter() - t0 > 0.01  # the stack outlived the deadline
        assert report.ok
        assert "engine.timeouts" not in report.counters
        assert events_of(rec, "cell_timeout") == []
        assert attempts_by_cell(rec) == {"rl0": 1, "rl1": 1}
        assert [e["size"] for e in events_of(rec, "cell_batched")] == [2, 2]
