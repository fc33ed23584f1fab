"""Engine behaviour of the ``batch=`` backend: grouping, fallback, events.

Covers the compatibility gate (every stable fallback reason), the batch
planner's grouping/chunking rules, the engine's event stream and counter
snapshot, the batch-error re-queue (a failing stack must degrade to the
serial path, never lose cells), and composition with the result cache
(batch membership stays out of ``cell_key``).
"""

from __future__ import annotations

import pytest

from repro.baselines import StaticUniformController
from repro.batch import batch_unsupported_reason, plan_batches
from repro.faults import FaultCampaign
from repro.faults.injector import FaultInjector
from repro.manycore import default_system
from repro.obs import BufferRecorder
from repro.parallel import (
    CellTask,
    ResultCache,
    RunCell,
    assert_trace_equal,
    execute_cells,
)
from repro.sim import standard_controllers
from repro.workloads import make_benchmark, mixed_workload

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


def summary_counters(rec):
    (summary,) = events_of(rec, "engine_summary")
    return summary["counters"]


class TestUnsupportedReasons:
    """Every stable fallback-reason string, at the gate function."""

    def test_batchable_task_has_no_reason(self, cfg, workload, lineup):
        task = make_task(cfg, workload, lineup["od-rl"])
        assert batch_unsupported_reason(task) is None

    def test_trace(self, cfg, workload, lineup):
        # Traced cells batch: the control loop emits each row's events
        # into that cell's own recorder.
        task = make_task(cfg, workload, lineup["od-rl"], trace=True)
        assert batch_unsupported_reason(task) is None

    def test_profile(self, cfg, workload, lineup):
        task = make_task(cfg, workload, lineup["od-rl"], profile=True)
        assert batch_unsupported_reason(task) == "profile"

    def test_watchdog_is_batchable(self, cfg, workload, lineup):
        # Watchdog-supervised cells batch via PerRunPolicy: each run gets
        # its own serial WatchdogController wrapper on row views.
        task = make_task(
            cfg, workload, lineup["od-rl"], sim_kwargs={"watchdog": True}
        )
        assert batch_unsupported_reason(task) is None

    def test_watchdog_false_is_batchable(self, cfg, workload, lineup):
        task = make_task(
            cfg, workload, lineup["od-rl"], sim_kwargs={"watchdog": False}
        )
        assert batch_unsupported_reason(task) is None

    def test_fault_campaign_is_batchable(self, cfg, workload, lineup):
        campaign = FaultCampaign.random(N_CORES, N_EPOCHS, rate=0.2, seed=1)
        task = make_task(
            cfg, workload, lineup["od-rl"], sim_kwargs={"faults": campaign}
        )
        assert batch_unsupported_reason(task) is None

    def test_live_injector_instance_falls_back(self, cfg, workload, lineup):
        campaign = FaultCampaign.random(N_CORES, N_EPOCHS, rate=0.2, seed=1)
        task = make_task(
            cfg, workload, lineup["od-rl"],
            sim_kwargs={"faults": FaultInjector(campaign)},
        )
        assert batch_unsupported_reason(task) == "faults-instance"

    def test_unknown_sim_kwarg(self, cfg, workload, lineup):
        task = make_task(
            cfg, workload, lineup["od-rl"], sim_kwargs={"bogus": 1}
        )
        assert batch_unsupported_reason(task) == "sim_kwargs:bogus"

    @pytest.mark.parametrize("key", ["sensors", "memory_system"])
    def test_non_default_plant_option(self, cfg, workload, lineup, key):
        task = make_task(
            cfg, workload, lineup["od-rl"], sim_kwargs={key: object()}
        )
        assert batch_unsupported_reason(task) == f"sim_kwargs:{key}"

    @pytest.mark.parametrize("key", ["variation", "hetero"])
    def test_stackable_plant_option_is_batchable(self, cfg, workload, lineup, key):
        # Variation and hetero multipliers stack per run in the kernel;
        # they no longer force the serial plant.
        task = make_task(
            cfg, workload, lineup["od-rl"], sim_kwargs={key: object()}
        )
        assert batch_unsupported_reason(task) is None

    @pytest.mark.parametrize(
        "key", ["sensors", "variation", "memory_system", "hetero"]
    )
    def test_explicit_none_plant_option_is_batchable(
        self, cfg, workload, lineup, key
    ):
        task = make_task(
            cfg, workload, lineup["od-rl"], sim_kwargs={key: None}
        )
        assert batch_unsupported_reason(task) is None


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

    def test_rejects_nonpositive_max_batch(self, cfg, workload, lineup):
        with pytest.raises(ValueError, match="max_batch"):
            plan_batches([make_task(cfg, workload, lineup["pid"])], 0)


class TestEngineBatchPath:
    def test_rejects_invalid_batch_value(self, cfg, workload, lineup):
        task = make_task(cfg, workload, lineup["pid"])
        with pytest.raises(ValueError, match="batch"):
            execute_cells([task], batch=-1)

    def test_fallback_cells_run_and_match_serial(self, cfg, workload, lineup):
        tasks = [
            make_task(cfg, workload, lineup["pid"], name="batched"),
            make_task(
                cfg, workload, lineup["static-uniform"], name="profiled",
                profile=True,
            ),
        ]
        serial = execute_cells(tasks, jobs=1)
        rec = BufferRecorder()
        batched = execute_cells(tasks, jobs=1, batch=True, recorder=rec)
        for a, b in zip(serial, batched):
            assert_trace_equal(a, b, context="fallback mix")
        (fallback,) = events_of(rec, "cell_fallback")
        assert fallback["reason"] == "profile"
        assert fallback["cell"] == tasks[1].cell.label()
        (batched_event,) = events_of(rec, "cell_batched")
        assert batched_event["cell"] == tasks[0].cell.label()
        counters = summary_counters(rec)
        assert counters["engine.cells_batched"] == 1
        assert counters["engine.batch_groups"] == 1
        assert counters["engine.fallback.profile"] == 1
        assert counters["engine.cells_run"] == 2

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
        serial = execute_cells(tasks, jobs=1)
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
        serial = execute_cells(tasks, jobs=1)

        def explode(group, recorders=None):
            raise RuntimeError("deliberate batch failure")

        monkeypatch.setattr("repro.batch.simulate_batch", explode)
        rec = BufferRecorder()
        batched = execute_cells(tasks, jobs=1, batch=True, recorder=rec)
        for a, b in zip(serial, batched):
            assert_trace_equal(a, b, context="batch-error requeue")
        reasons = [e["reason"] for e in events_of(rec, "cell_fallback")]
        assert reasons == ["batch-error", "batch-error"]
        counters = summary_counters(rec)
        assert counters["engine.batch_errors"] == 1
        assert counters["engine.fallback.batch-error"] == 2
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
        serial = execute_cells(tasks, jobs=1)
        monkeypatch.setattr(
            "repro.batch.simulate_batch",
            lambda group, recorders=None: (_ for _ in ()).throw(RuntimeError("boom")),
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
        serial = execute_cells(tasks, jobs=1)
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
