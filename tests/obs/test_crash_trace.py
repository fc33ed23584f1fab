"""A run that dies mid-epoch must leave a valid, flushed trace.

``JsonlRecorder`` buffers writes; a controller raising mid-run used to
abandon the buffered tail (and, on the worker path, the failed cell's
partial events), leaving a trace that lied about how far the run got.
The engine now flushes the recorder in a ``finally`` and workers ship
partial event buffers home with the failure, so a post-mortem reads the
truth: every event through the last completed epoch, no torn tail.
"""

from __future__ import annotations

import json

import pytest

from repro.manycore import default_system
from repro.obs import JsonlRecorder
from repro.parallel import ParallelExecutionError, RetryPolicy, execute_cells
from repro.sim.runner import build_suite_tasks, run_suite
from repro.workloads import mixed_workload

from tests.parallel import helpers

N_CORES = 4
N_EPOCHS = 6
FAIL_AFTER = 2  # the crashing controller survives exactly 2 epochs


@pytest.fixture(scope="module")
def cfg():
    return default_system(n_cores=N_CORES, n_levels=3, budget_fraction=0.6)


@pytest.fixture(scope="module")
def workloads():
    wl = mixed_workload(N_CORES, seed=0)
    return {wl.name: wl}


def controllers():
    # Insertion order matters: the well-behaved cell runs first, so the
    # crashing cell's partial events form the trace's tail.
    return {
        "good": helpers.build_static,
        "crasher": lambda cfg: helpers.crash_midrun(cfg, FAIL_AFTER),
    }


def spawn_safe_controllers():
    # The pool path pickles factories across the spawn boundary, so no
    # lambdas: crash_midrun's default fail_after must equal FAIL_AFTER.
    assert helpers.MidRunDeterministicCrash(
        default_system(n_cores=2, n_levels=2),
    ).fail_after == FAIL_AFTER
    return {"good": helpers.build_static, "crasher": helpers.crash_midrun}


def read_trace(path):
    """Parse every line; a torn tail fails the json.loads loudly."""
    lines = path.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert lines, "trace must not be empty"
    return records


def epochs_after_last_run_start(records):
    starts = [i for i, r in enumerate(records) if r["type"] == "run_start"]
    tail = records[starts[-1]:]
    return [r["epoch"] for r in tail if r["type"] == "epoch"]


class TestCrashLeavesValidTrace:
    def test_serial_raw_path(self, cfg, workloads, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder = JsonlRecorder(str(path))
        try:
            with pytest.raises(ValueError, match="deliberate mid-run crash"):
                run_suite(
                    cfg, workloads, controllers(), N_EPOCHS,
                    jobs=1, recorder=recorder,
                )
        finally:
            recorder.close()
        records = read_trace(path)
        types = [r["type"] for r in records]
        # The good cell completed entirely...
        assert types.count("run_end") == 1
        assert types.count("cell_done") == 1
        # ...and the crashing cell's trace reaches exactly the epochs
        # that completed before the raise — buffered tail included.
        assert types.count("run_start") == 2
        assert epochs_after_last_run_start(records) == list(range(FAIL_AFTER))

    def test_inline_resilient_path(self, cfg, workloads, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder = JsonlRecorder(str(path))
        try:
            _, tasks = build_suite_tasks(
                cfg, workloads, controllers(), N_EPOCHS, trace=True,
            )
            with pytest.raises(ParallelExecutionError):
                execute_cells(
                    tasks, jobs=1, recorder=recorder,
                    retry_policy=RetryPolicy(retries=1, base_delay=0.0),
                )
        finally:
            recorder.close()
        records = read_trace(path)
        types = [r["type"] for r in records]
        assert types.count("cell_done") == 1
        # Permanent failure is recorded as such, with the partial epochs
        # preserved ahead of it.
        failed = [r for r in records if r["type"] == "cell_failed"]
        assert len(failed) == 1
        assert failed[0]["error_type"] == "ValueError"
        assert epochs_after_last_run_start(records) == list(range(FAIL_AFTER))

    def test_worker_pool_path(self, cfg, workloads, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder = JsonlRecorder(str(path))
        try:
            with pytest.raises(ParallelExecutionError):
                run_suite(
                    cfg, workloads, spawn_safe_controllers(), N_EPOCHS,
                    jobs=2, recorder=recorder,
                )
        finally:
            recorder.close()
        records = read_trace(path)
        types = [r["type"] for r in records]
        assert types.count("cell_done") == 1
        failed = [r for r in records if r["type"] == "cell_failed"]
        assert len(failed) == 1
        assert failed[0]["error_type"] == "ValueError"
        # The worker shipped its partial event buffer home with the
        # failure: the crashed cell still shows its completed epochs.
        assert epochs_after_last_run_start(records) == list(range(FAIL_AFTER))
