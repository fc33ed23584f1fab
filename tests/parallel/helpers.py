"""Spawn-importable controller factories for engine failure tests.

These must live in a real module (not a test function body, not
``__main__``): worker processes started with the ``spawn`` method import
the factory's module fresh, so closures and locals cannot cross the
process boundary.  Crash coordination goes through sentinel files because
the crashing attempt and the retry may land in different worker
processes.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.baselines import StaticUniformController

#: Arbitrary nonzero status so a deliberate kill is distinguishable from
#: an interpreter error in worker logs.
CRASH_EXIT_CODE = 43


def build_static(cfg):
    """A well-behaved factory (the success case)."""
    return StaticUniformController(cfg)


def crash_once(cfg, sentinel_path: str):
    """Kill the worker process on the first call; succeed on the retry."""
    sentinel = Path(sentinel_path)
    if not sentinel.exists():
        sentinel.write_text("first attempt crashed")
        os._exit(CRASH_EXIT_CODE)
    return StaticUniformController(cfg)


def always_crash(cfg):
    """Kill the worker process on every call (exhausts the attempt budget)."""
    os._exit(CRASH_EXIT_CODE)


def always_raise(cfg):
    """Raise an ordinary exception (structured failure, pool survives)."""
    raise ValueError("deliberate factory failure")


def crash_n_times(cfg, sentinel_dir: str, n: int):
    """Kill the worker on each of the first ``n`` calls; then succeed.

    Each crash drops a numbered sentinel file first, so repeated pool
    deaths are countable from the parent.
    """
    marks = Path(sentinel_dir)
    marks.mkdir(parents=True, exist_ok=True)
    crashed = len(list(marks.glob("crash-*")))
    if crashed < n:
        (marks / f"crash-{crashed}").write_text("crashed")
        os._exit(CRASH_EXIT_CODE)
    return StaticUniformController(cfg)


def transient_then_succeed(cfg, sentinel_path: str):
    """Raise a transient-classified error on the first call, then succeed.

    The message includes the attempt count so the identical-failure
    cutoff never triggers (this models a genuinely flaky resource).
    """
    sentinel = Path(sentinel_path)
    tries = int(sentinel.read_text()) if sentinel.exists() else 0
    sentinel.write_text(str(tries + 1))
    if tries == 0:
        raise ConnectionResetError(f"injected transient fault, attempt {tries + 1}")
    return StaticUniformController(cfg)


def flaky_identical_raise(cfg, sentinel_path: str):
    """Raise the *same* transient-classified error on every call.

    Exercises the identical-failure cutoff: despite a generous retry
    budget, the second verbatim repeat must end the retries.
    """
    sentinel = Path(sentinel_path)
    tries = int(sentinel.read_text()) if sentinel.exists() else 0
    sentinel.write_text(str(tries + 1))
    raise ConnectionResetError("identical transient fault")


class MidRunFlaky(StaticUniformController):
    """Raises a transient error *mid-run* (after ``fail_after`` decisions)
    on the first attempt; behaves like the static baseline afterwards.

    Exercises trace-buffer hygiene: the failed attempt has already emitted
    epoch events into its worker-side buffer, and none of them may leak
    into the parent's trace when the retry succeeds.
    """

    def __init__(self, cfg, sentinel_path: str, fail_after: int = 2):
        super().__init__(cfg)
        self.sentinel_path = sentinel_path
        self.fail_after = fail_after
        self.calls = 0

    def decide(self, obs):
        self.calls += 1
        sentinel = Path(self.sentinel_path)
        if not sentinel.exists() and self.calls > self.fail_after:
            sentinel.write_text("failed mid-run")
            raise ConnectionResetError("mid-run transient fault, first attempt")
        return super().decide(obs)


def flaky_midrun(cfg, sentinel_path: str, fail_after: int = 2):
    """Factory for :class:`MidRunFlaky` (module-level, spawn-safe)."""
    return MidRunFlaky(cfg, sentinel_path, fail_after)


def transient_storm(cfg, sentinel_path: str, n: int = 2):
    """Raise a transient error on each of the first ``n`` calls, with a
    distinct message every time (so the identical-failure cutoff never
    fires), then succeed.

    The backoff-stall regression tests park this cell in retry backoff
    repeatedly while independent cells must keep completing.
    """
    sentinel = Path(sentinel_path)
    tries = int(sentinel.read_text()) if sentinel.exists() else 0
    sentinel.write_text(str(tries + 1))
    if tries < n:
        raise ConnectionResetError(f"injected storm fault, attempt {tries + 1}")
    return StaticUniformController(cfg)


class MidRunDeterministicCrash(StaticUniformController):
    """Raises a *deterministic* error after ``fail_after`` decisions, on
    every attempt.

    Unlike :class:`MidRunFlaky` there is no recovery: the cell fails
    permanently, which is how the crash-trace tests check that a run
    dying mid-epoch still leaves a valid, flushed trace through the last
    completed epoch.
    """

    def __init__(self, cfg, fail_after: int = 2):
        super().__init__(cfg)
        self.fail_after = fail_after
        self.calls = 0

    def decide(self, obs):
        self.calls += 1
        if self.calls > self.fail_after:
            raise ValueError("deliberate mid-run crash")
        return super().decide(obs)


def crash_midrun(cfg, fail_after: int = 2):
    """Factory for :class:`MidRunDeterministicCrash` (module-level,
    spawn-safe)."""
    return MidRunDeterministicCrash(cfg, fail_after)


def hang_once(cfg, sentinel_path: str, seconds: float = 30.0):
    """Stall the worker on the first call (a straggler for the watchdog);
    succeed on the retry."""
    sentinel = Path(sentinel_path)
    if not sentinel.exists():
        sentinel.write_text("first attempt hung")
        time.sleep(seconds)
    return StaticUniformController(cfg)


def hetero_cell_key(n_cores: int) -> str:
    """The cell key of a pid cell on a big.LITTLE map, as a spawned
    process computes it (cross-process key stability)."""
    from repro.manycore import default_system
    from repro.manycore.hetero import big_little_map
    from repro.sim.runner import build_suite_tasks, standard_controllers
    from repro.workloads import mixed_workload

    _, (task,) = build_suite_tasks(
        default_system(n_cores=n_cores),
        {"m": mixed_workload(n_cores, seed=0)},
        {"pid": standard_controllers()["pid"]},
        5,
        sim_kwargs={"hetero": big_little_map(n_cores)},
    )
    return task.key
