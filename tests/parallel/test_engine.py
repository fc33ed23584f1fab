"""Engine behaviour: crash retry, structured failures, inline execution.

Uses the sentinel-file factories from :mod:`tests.parallel.helpers`
(spawn-importable module-level functions) to inject worker deaths and
in-cell exceptions deterministically.
"""

from __future__ import annotations

import dataclasses
import pickle
import time
import traceback
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import numpy as np
import pytest

from repro.baselines import StaticUniformController
from repro.faults import FaultCampaign
from repro.manycore import SensorSuite, default_system
from repro.manycore.memory import default_memory_system
from repro.obs import BufferRecorder
from repro.parallel import (
    CellFailure,
    CellTask,
    ChaosPolicy,
    ExecutionReport,
    ParallelExecutionError,
    ResultCache,
    RetryPolicy,
    RunCell,
    assert_trace_equal,
    execute_cells,
    execute_cells_report,
)
from repro.parallel import chaos as chaos_module
from repro.parallel import engine as engine_module
from repro.sim import run_suite, standard_controllers
from repro.workloads import make_benchmark, mixed_workload

from tests.parallel import helpers

N_CORES = 4
N_EPOCHS = 5


@pytest.fixture(scope="module")
def cfg():
    return default_system(n_cores=N_CORES, n_levels=3, budget_fraction=0.6)


@pytest.fixture(scope="module")
def workload():
    return mixed_workload(N_CORES, seed=0)


def no_backoff(retries):
    """The engine's default policy shape with a chosen retry budget."""
    return RetryPolicy(retries=retries, base_delay=0.0, max_delay=0.0, jitter=0.0)


def make_task(cfg, workload, factory, name="cell"):
    cell = RunCell(
        controller=name, workload=workload.name, budget=None, seed=0,
        n_epochs=N_EPOCHS,
    )
    return CellTask(cell, cfg, workload, factory)


class TestInlineExecution:
    def test_jobs_one_runs_without_pool(self, cfg, workload):
        task = make_task(cfg, workload, helpers.build_static)
        (result,) = execute_cells([task], jobs=1)
        assert result.n_epochs == N_EPOCHS

    def test_jobs_one_propagates_raw_exception(self, cfg, workload):
        task = make_task(cfg, workload, helpers.always_raise)
        with pytest.raises(ValueError, match="deliberate factory failure"):
            execute_cells([task], jobs=1)

    def test_rejects_invalid_jobs(self, cfg, workload):
        task = make_task(cfg, workload, helpers.build_static)
        with pytest.raises(ValueError, match="jobs"):
            execute_cells([task], jobs=0)

    def test_rejects_negative_retries(self, cfg, workload):
        task = make_task(cfg, workload, helpers.build_static)
        with pytest.raises(ValueError, match="retries"):
            execute_cells([task], retry_policy=no_backoff(-1))


class TestCrashRecovery:
    def test_worker_crash_is_retried_and_succeeds(self, cfg, workload, tmp_path):
        factory = partial(
            helpers.crash_once, sentinel_path=str(tmp_path / "sentinel")
        )
        task = make_task(cfg, workload, factory)
        (result,) = execute_cells([task], jobs=2)
        assert result.n_epochs == N_EPOCHS
        assert (tmp_path / "sentinel").exists()

    def test_persistent_crash_becomes_structured_failure(self, cfg, workload):
        task = make_task(cfg, workload, helpers.always_crash, name="crasher")
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_cells([task], jobs=2, retry_policy=no_backoff(1))
        (failure,) = excinfo.value.failures
        assert failure.cell.controller == "crasher"
        assert failure.error_type == "WorkerCrash"
        assert failure.attempts == 2

    def test_innocent_cell_survives_a_pool_crash(self, cfg, workload, tmp_path):
        # The crashing cell takes the pool down; the healthy cell may be
        # queued or in flight at that moment, but must still complete on
        # the rebuilt pool.
        crash = partial(
            helpers.crash_once, sentinel_path=str(tmp_path / "sentinel")
        )
        tasks = [
            make_task(cfg, workload, crash, name="crasher"),
            make_task(cfg, workload, helpers.build_static, name="healthy"),
        ]
        results = execute_cells(tasks, jobs=2)
        assert len(results) == 2
        assert all(r.n_epochs == N_EPOCHS for r in results)


class TestStructuredFailures:
    def test_worker_exception_ships_back_as_values(self, cfg, workload):
        task = make_task(cfg, workload, helpers.always_raise, name="raiser")
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_cells([task], jobs=2, retry_policy=no_backoff(0))
        (failure,) = excinfo.value.failures
        assert failure.error_type == "ValueError"
        assert "deliberate factory failure" in failure.message
        assert "always_raise" in failure.traceback_text
        assert failure.attempts == 1

    def test_deterministic_exceptions_fail_fast(self, cfg, workload):
        # A ValueError reproduces identically on every attempt; granting
        # it the retry budget only wastes attempts.  One attempt, classified.
        task = make_task(cfg, workload, helpers.always_raise)
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_cells([task], jobs=2, retry_policy=no_backoff(2))
        (failure,) = excinfo.value.failures
        assert failure.attempts == 1
        assert failure.classification == "deterministic"

    def test_one_bad_cell_does_not_hide_good_results_error(self, cfg, workload):
        tasks = [
            make_task(cfg, workload, helpers.build_static, name="good"),
            make_task(cfg, workload, helpers.always_raise, name="bad"),
        ]
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_cells(tasks, jobs=2, retry_policy=no_backoff(0))
        assert [f.cell.controller for f in excinfo.value.failures] == ["bad"]

    def test_unpicklable_factory_fails_structurally(self, cfg, workload):
        task = make_task(cfg, workload, lambda c: None, name="lambda")
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_cells([task], jobs=2, retry_policy=no_backoff(0))
        (failure,) = excinfo.value.failures
        assert failure.cell.controller == "lambda"

    def test_error_message_lists_every_failed_cell(self, cfg, workload):
        tasks = [
            make_task(cfg, workload, helpers.always_raise, name=f"bad-{i}")
            for i in range(2)
        ]
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_cells(tasks, jobs=2, retry_policy=no_backoff(0))
        message = str(excinfo.value)
        assert "bad-0" in message and "bad-1" in message


class TestClassifiedRetry:
    def test_repeated_pool_deaths_are_survived(self, cfg, workload, tmp_path):
        # Two consecutive crashes, two pool rebuilds, success on the third
        # attempt — crash containment must hold across *repeated* deaths.
        factory = partial(
            helpers.crash_n_times, sentinel_dir=str(tmp_path / "marks"), n=2
        )
        task = make_task(cfg, workload, factory)
        (result,) = execute_cells([task], jobs=2, retry_policy=no_backoff(2))
        assert result.n_epochs == N_EPOCHS
        assert len(list((tmp_path / "marks").glob("crash-*"))) == 2

    def test_transient_exception_is_retried(self, cfg, workload, tmp_path):
        factory = partial(
            helpers.transient_then_succeed,
            sentinel_path=str(tmp_path / "tries"),
        )
        task = make_task(cfg, workload, factory)
        (result,) = execute_cells([task], jobs=2, retry_policy=no_backoff(2))
        assert result.n_epochs == N_EPOCHS
        assert (tmp_path / "tries").read_text() == "2"

    def test_identical_failure_twice_is_not_retried_a_third_time(
        self, cfg, workload, tmp_path
    ):
        # Transient-classified, generous budget — but the second verbatim
        # repeat proves the error deterministic in disguise.
        factory = partial(
            helpers.flaky_identical_raise,
            sentinel_path=str(tmp_path / "tries"),
        )
        task = make_task(cfg, workload, factory)
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_cells([task], jobs=2, retry_policy=no_backoff(5))
        (failure,) = excinfo.value.failures
        assert failure.attempts == 2
        assert (tmp_path / "tries").read_text() == "2"

    def test_custom_policy_overrides_retries_argument(self, cfg, workload):
        task = make_task(cfg, workload, helpers.always_crash)
        policy = no_backoff(0)
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_cells([task], jobs=2, retry_policy=policy)
        assert excinfo.value.failures[0].attempts == 1

    def test_inline_retry_with_policy(self, cfg, workload, tmp_path):
        # jobs=1 with an explicit policy opts into the classified-retry
        # machinery instead of raw propagation.
        factory = partial(
            helpers.transient_then_succeed,
            sentinel_path=str(tmp_path / "tries"),
        )
        task = make_task(cfg, workload, factory)
        policy = no_backoff(2)
        (result,) = execute_cells([task], jobs=1, retry_policy=policy)
        assert result.n_epochs == N_EPOCHS
        assert (tmp_path / "tries").read_text() == "2"


class TestWatchdog:
    def test_straggler_is_cancelled_and_retried(self, cfg, workload, tmp_path):
        factory = partial(
            helpers.hang_once,
            sentinel_path=str(tmp_path / "sentinel"),
            seconds=60.0,
        )
        task = make_task(cfg, workload, factory)
        # The deadline clock includes worker spawn/import time (~1-2s in
        # CI), so the soft deadline must sit comfortably above it.
        (result,) = execute_cells(
            [task], jobs=2, retry_policy=no_backoff(1), timeout=5.0
        )
        assert result.n_epochs == N_EPOCHS
        assert (tmp_path / "sentinel").exists()

    def test_persistent_straggler_fails_with_timeout_type(
        self, cfg, workload, tmp_path
    ):
        factory = partial(
            helpers.hang_once,
            sentinel_path=str(tmp_path / "sentinel"),
            seconds=60.0,
        )
        task = make_task(cfg, workload, factory, name="straggler")
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_cells([task], jobs=2, retry_policy=no_backoff(0), timeout=3.0)
        (failure,) = excinfo.value.failures
        assert failure.error_type == "CellTimeout"
        assert failure.classification == "transient"

    def test_innocent_cells_survive_a_watchdog_kill(
        self, cfg, workload, tmp_path
    ):
        # The hung cell trips the watchdog; healthy cells sharing the pool
        # must still complete (re-queued without losing budget).
        hang = partial(
            helpers.hang_once,
            sentinel_path=str(tmp_path / "sentinel"),
            seconds=60.0,
        )
        tasks = [
            make_task(cfg, workload, hang, name="straggler"),
            make_task(cfg, workload, helpers.build_static, name="healthy-0"),
            make_task(cfg, workload, helpers.build_static, name="healthy-1"),
        ]
        results = execute_cells(
            tasks, jobs=2, retry_policy=no_backoff(1), timeout=5.0
        )
        assert len(results) == 3
        assert all(r.n_epochs == N_EPOCHS for r in results)

    def test_rejects_nonpositive_timeout(self, cfg, workload):
        task = make_task(cfg, workload, helpers.build_static)
        with pytest.raises(ValueError, match="timeout"):
            execute_cells([task], jobs=2, timeout=0.0)


class TestPartialResults:
    def test_report_returns_survivors_and_failures(self, cfg, workload):
        tasks = [
            make_task(cfg, workload, helpers.build_static, name="good"),
            make_task(cfg, workload, helpers.always_raise, name="bad"),
        ]
        report = execute_cells_report(tasks, jobs=2, retry_policy=no_backoff(0))
        assert not report.ok
        assert report.results[0] is not None
        assert report.results[1] is None
        assert len(report.completed()) == 1
        (failure,) = report.failures
        assert failure.cell.controller == "bad"
        assert failure.classification == "deterministic"
        assert report.counters["engine.cells_failed"] == 1

    def test_report_all_ok(self, cfg, workload):
        tasks = [
            make_task(cfg, workload, helpers.build_static, name=f"c{i}")
            for i in range(2)
        ]
        report = execute_cells_report(tasks, jobs=2)
        assert report.ok
        assert len(report.completed()) == 2
        assert report.counters["engine.cells_run"] == 2

    def test_report_inline(self, cfg, workload):
        tasks = [
            make_task(cfg, workload, helpers.always_raise, name="bad"),
            make_task(cfg, workload, helpers.build_static, name="good"),
        ]
        report = execute_cells_report(tasks, jobs=1)
        assert [f.cell.controller for f in report.failures] == ["bad"]
        assert len(report.completed()) == 1


def traced(task):
    return dataclasses.replace(task, trace=True)


def cell_sequence(events):
    """``(type, cell)`` per event: the trace's shape without its payloads
    (and so without any wall-clock field)."""
    return [(e["type"], e.get("cell")) for e in events]


class FlushCountingRecorder(BufferRecorder):
    def __init__(self):
        super().__init__()
        self.flushes = 0

    def flush(self):
        self.flushes += 1


class TestOneSettleLoop:
    """``jobs=1`` and ``jobs=2`` share one settle loop; these pin the
    contracts the in-process executor keeps on it."""

    def test_trace_cell_order_matches_across_executors(
        self, cfg, workload, tmp_path
    ):
        def grid(tag):
            flaky = partial(
                helpers.flaky_midrun, sentinel_path=str(tmp_path / f"{tag}-tries")
            )
            return [
                traced(make_task(cfg, workload, flaky, name="flaky")),
                traced(make_task(cfg, workload, helpers.crash_midrun, name="bad")),
                traced(make_task(cfg, workload, helpers.build_static, name="good")),
            ]

        traces = {}
        for jobs in (1, 2):
            rec = BufferRecorder()
            report = execute_cells_report(
                grid(f"jobs{jobs}"), jobs=jobs, recorder=rec,
                retry_policy=no_backoff(1),
            )
            assert [f.cell.controller for f in report.failures] == ["bad"]
            assert report.counters["engine.retries"] == 1
            traces[jobs] = cell_sequence(rec.events)
        assert traces[1] == traces[2]
        types = [t for t, _ in traces[1]]
        assert types.count("cell_retry") == 1
        assert types.count("cell_failed") == 1
        assert types.count("cell_done") == 2

    def test_keyboard_interrupt_propagates_at_once(self, cfg, workload):
        later_calls = []

        def interrupt(c):
            raise KeyboardInterrupt

        def later(c):
            later_calls.append(c)
            return StaticUniformController(c)

        tasks = [
            make_task(cfg, workload, helpers.build_static, name="first"),
            make_task(cfg, workload, interrupt, name="interrupted"),
            make_task(cfg, workload, later, name="later"),
        ]
        rec = FlushCountingRecorder()
        with pytest.raises(KeyboardInterrupt):
            execute_cells_report(tasks, jobs=1, recorder=rec)
        assert later_calls == []
        assert rec.flushes >= 1
        types = [e["type"] for e in rec.events]
        assert "cell_failed" not in types
        assert ("cell_done", tasks[0].cell.label()) in cell_sequence(rec.events)

    def test_settled_cells_flush_before_the_next_cell_runs(self, cfg, workload):
        rec = BufferRecorder()
        seen = []

        def spy(c):
            seen.extend(cell_sequence(rec.events))
            return StaticUniformController(c)

        tasks = [
            traced(make_task(cfg, workload, helpers.build_static, name="first")),
            traced(make_task(cfg, workload, spy, name="second")),
        ]
        execute_cells(tasks, jobs=1, recorder=rec)
        assert ("cell_done", tasks[0].cell.label()) in seen
        assert ("run_end", None) in seen

    def test_jobs_one_reraises_the_original_exception(
        self, cfg, workload, tmp_path
    ):
        tasks = [
            make_task(cfg, workload, helpers.always_raise, name="bad"),
            make_task(cfg, workload, helpers.build_static, name="good"),
        ]
        with pytest.raises(ValueError, match="deliberate factory failure") as excinfo:
            execute_cells(tasks, jobs=1, cache=tmp_path)
        frames = [f.name for f in traceback.extract_tb(excinfo.value.__traceback__)]
        assert "always_raise" in frames
        report = execute_cells_report(tasks, jobs=1, cache=ResultCache(tmp_path))
        assert report.counters["engine.cells_cached"] == 1
        assert report.results[1] is not None

    @pytest.mark.parametrize("option", ["retry_policy", "timeout", "chaos", "journal"])
    def test_any_resilience_option_raises_structured(
        self, cfg, workload, tmp_path, option
    ):
        value = {
            "retry_policy": no_backoff(1),
            "timeout": 30.0,
            "chaos": ChaosPolicy(seed=0),
            "journal": tmp_path / "journal.jsonl",
        }[option]
        task = make_task(cfg, workload, helpers.always_raise, name="bad")
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_cells([task], jobs=1, **{option: value})
        assert excinfo.value.failures[0].error_type == "ValueError"

    def test_chaos_crash_and_hang_never_fire_in_process(
        self, cfg, workload, monkeypatch
    ):
        exits = []
        monkeypatch.setattr(chaos_module.os, "_exit", exits.append)
        chaos = ChaosPolicy(seed=0, crash_rate=1.0, hang_rate=1.0, hang_seconds=30.0)
        task = make_task(cfg, workload, helpers.build_static)
        t0 = time.perf_counter()
        (result,) = execute_cells([task], jobs=1, chaos=chaos)
        assert result.n_epochs == N_EPOCHS
        assert exits == []
        assert "hang" not in chaos.counts
        assert time.perf_counter() - t0 < 10.0

    def test_timeout_arms_only_for_the_pool(self, cfg, workload, tmp_path):
        slow = partial(
            helpers.hang_once, sentinel_path=str(tmp_path / "sentinel"),
            seconds=0.5,
        )
        rec = BufferRecorder()
        report = execute_cells_report(
            [make_task(cfg, workload, slow)], jobs=1, timeout=0.05, recorder=rec
        )
        assert report.ok
        assert "engine.timeouts" not in report.counters
        types = [e["type"] for e in rec.events]
        assert "cell_timeout" not in types
        (done,) = [e for e in rec.events if e["type"] == "cell_done"]
        assert done["attempts"] == 1


class TestReportInvariant:
    def test_hole_without_failure_is_rejected(self):
        with pytest.raises(ValueError, match="engine invariant"):
            ExecutionReport(results=(None,), failures=(), counters={})

    def test_failure_without_hole_is_rejected(self, cfg, workload):
        (result,) = execute_cells([make_task(cfg, workload, helpers.build_static)])
        failure = CellFailure(
            cell=make_task(cfg, workload, helpers.build_static).cell,
            attempts=1, error_type="ValueError", message="x",
        )
        with pytest.raises(ValueError, match="engine invariant"):
            ExecutionReport(results=(result,), failures=(failure,), counters={})


class TestStatefulOptions:
    """Cells sharing a sensor suite, memory system or fault campaign each
    run on their own plant state: the result is a function of the cell's
    inputs whatever ``jobs`` and ``batch`` are, and the caller's instances
    are never advanced."""

    def test_shared_options_give_equal_results_at_every_backend(self):
        cfg = default_system(n_cores=8)
        workloads = {n: make_benchmark(n, 8, seed=0) for n in ("fft", "barnes")}
        controllers = {"pid": standard_controllers(seed=0)["pid"]}
        options = {
            "sensors": SensorSuite(np.random.default_rng(5)),
            "memory_system": default_memory_system(cfg),
            "faults": FaultCampaign.random(8, 40, rate=0.1, seed=1),
        }
        before = {k: pickle.dumps(v) for k, v in options.items()}
        runs = [
            run_suite(cfg, workloads, controllers, 40, sim_kwargs=options, **kw)
            for kw in ({"jobs": 1}, {"jobs": 2}, {"batch": True})
        ]
        for other in runs[1:]:
            for name in workloads:
                assert_trace_equal(runs[0]["pid"][name], other["pid"][name], context=name)
        assert {k: pickle.dumps(v) for k, v in options.items()} == before


class _FakePool:
    """Stands in for ``ProcessPoolExecutor``: the pool built ``broken_at``
    (0-based) refuses its ``refuse_at``-th submission with
    ``BrokenProcessPool`` and leaves earlier futures in flight; every
    other pool runs each call where it is submitted."""

    built = 0

    def __init__(self, broken_at, refuse_at, **_pool_kwargs):
        self.broken = _FakePool.built == broken_at
        _FakePool.built += 1
        self.refuse_at = refuse_at
        self.submitted = 0

    def submit(self, fn, *args):
        future = Future()
        if self.broken:
            self.submitted += 1
            if self.submitted == self.refuse_at:
                raise BrokenProcessPool("pool died under submit")
            return future  # in flight until the pool is given up
        future.set_result(fn(*args))
        return future

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None


class TestBrokenPoolPaths:
    """The settle loop's broken-pool branches, driven by a fake pool."""

    def _run(self, cfg, workload, monkeypatch, refuse_at):
        _FakePool.built = 0
        monkeypatch.setattr(
            engine_module, "ProcessPoolExecutor", partial(_FakePool, 0, refuse_at)
        )
        tasks = [
            make_task(cfg, workload, helpers.build_static, name=f"c{i}") for i in range(2)
        ]
        rec = BufferRecorder()
        pooled = execute_cells(tasks, jobs=2, recorder=rec)
        assert _FakePool.built == 2  # the broken pool, then its rebuild
        for task, a, b in zip(tasks, execute_cells(tasks, jobs=1), pooled):
            assert_trace_equal(a, b, context=task.cell.label())
        return rec

    def test_submit_raising_broken_pool_resubmits_on_a_fresh_pool(
        self, cfg, workload, monkeypatch
    ):
        rec = self._run(cfg, workload, monkeypatch, refuse_at=1)
        # Nothing was in flight, so nothing was charged.
        assert [e for e in rec.events if e["type"] == "cell_retry"] == []
        done = [e["attempts"] for e in rec.events if e["type"] == "cell_done"]
        assert done == [1, 1]

    def test_cell_in_flight_when_the_pool_breaks_is_charged_a_crash(
        self, cfg, workload, monkeypatch
    ):
        rec = self._run(cfg, workload, monkeypatch, refuse_at=2)
        (retry,) = [e for e in rec.events if e["type"] == "cell_retry"]
        assert retry["cell"].startswith("c0/")
        assert retry["error_type"] == "WorkerCrash"
        done = {e["cell"][:2]: e["attempts"] for e in rec.events if e["type"] == "cell_done"}
        assert done == {"c0": 2, "c1": 1}


class TestCacheQuarantine:
    def test_corrupt_entry_emits_quarantine_and_recomputes(
        self, cfg, workload, tmp_path
    ):
        task = make_task(cfg, workload, helpers.build_static)
        cache = ResultCache(tmp_path)
        (cold,) = execute_cells([task], cache=cache)
        (entry,) = cache.iter_entries()
        entry.write_bytes(b"not a result")
        rec = BufferRecorder()
        (warm,) = execute_cells([task], cache=cache, recorder=rec)
        assert_trace_equal(cold, warm)
        (event,) = [e for e in rec.events if e["type"] == "cache_quarantine"]
        assert event["key"] == entry.stem
        (summary,) = [e for e in rec.events if e["type"] == "engine_summary"]
        assert summary["counters"]["engine.cache_quarantines"] == 1
        assert summary["counters"]["engine.cells_run"] == 1
