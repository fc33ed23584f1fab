"""Process-pool execution of run cells.

The engine takes an ordered list of :class:`CellTask`s (a
:class:`~repro.parallel.cells.RunCell` plus everything needed to run it),
executes them across ``jobs`` worker processes, and returns results in
task order.  Four properties drive the design:

**Determinism.**  Workers are started with the ``spawn`` method, so a
worker inherits no forked interpreter state — in particular no RNG state
— from the parent.  Every cell rebuilds its controller inside the worker
from the factory's explicit seed, making a parallel cell's trajectory
bit-identical to the same cell run serially (see
:mod:`repro.parallel.compare` for the one wall-clock exception).

**Crash containment.**  A worker that dies mid-cell (OOM kill, segfault,
``os._exit``) breaks the whole :class:`~concurrent.futures.ProcessPoolExecutor`;
the engine rebuilds the pool and resubmits the unfinished cells.
Ordinary exceptions inside a cell are caught in the worker and shipped
back as values, so only hard crashes ever break a pool.

**Graceful degradation.**  Every unsuccessful attempt is *classified* by
a :class:`~repro.parallel.retry.RetryPolicy`: transient infrastructure
faults (worker crash, straggler timeout, IPC error) are retried with
bounded, seeded backoff; deterministic failures (a bad config, a contract
violation) fail fast — the first attempt already proved the outcome — and
a "transient" error that reproduces verbatim twice is treated as
deterministic in disguise.  A per-cell soft deadline (``timeout``) arms a
hung-worker watchdog that cancels stragglers and re-queues innocent
bystanders without charging their attempt budgets.  Cache writes are
best-effort (:meth:`~repro.parallel.cache.ResultCache.put_safe`): a full
disk costs a recompute later, never the run.  A cell that exhausts its
budget is recorded as a structured :class:`CellFailure`;
:func:`execute_cells` raises them together as
:class:`ParallelExecutionError`, while :func:`execute_cells_report`
returns partial results plus the failure report instead of raising.

**Caching and resume.**  With a
:class:`~repro.parallel.cache.ResultCache`, each cell's
:func:`~repro.parallel.cache.cell_key` is probed before any work is
scheduled and computed results are persisted by the parent (workers never
touch the cache, so there are no write races between processes).  Reads
verify integrity: a corrupt entry is quarantined — surfaced as a
``cache_quarantine`` event and counted in the engine summary — and the
cell recomputed.  With a :class:`~repro.parallel.journal.CampaignJournal`,
every settlement is checkpointed so a killed campaign resumes completing
only the missing cells, bit-identical to an uninterrupted run.

**One settle loop.**  Every cell runs as a row of a stack
(:func:`~repro.batch.simulate_batch`); the loop submits, retries and
settles stacks, one per cell or, with ``batch``, those of
:func:`~repro.batch.plan_batches`.  A stack of several cells gets one
free try, without chaos or soft deadline; if it fails in any way its
cells re-enter the loop alone, as charged attempts.  ``jobs=1`` swaps
the process pool for an in-process executor that runs each stack where
it is submitted and hands back an already-completed future, so both
executors feed the same loop: classification, backoff, cache writes,
journal records and task-ordered event emission live in one place.  A
settled cell's events are emitted as soon as every earlier cell has
settled.  Two things stay pool-only: worker crash and hang injection
(the calling process cannot kill or preempt itself) and the
soft-deadline watchdog.  ``jobs=1`` without a resilience option keeps
one more contract: :func:`execute_cells` re-raises the first failed
cell's original exception, traceback included.
"""

from __future__ import annotations

import bisect
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.manycore.config import SystemConfig
from repro.obs import (
    NULL_RECORDER,
    BufferRecorder,
    CounterRegistry,
    Recorder,
    replay_events,
)
from repro.obs.metrics import Number
from repro.parallel.cache import ResultCache, cell_key
from repro.parallel.cells import RunCell
from repro.parallel.chaos import ChaosPolicy
from repro.parallel.journal import CampaignJournal, campaign_id
from repro.parallel.retry import RetryPolicy
from repro.sim.results import SimulationResult
from repro.workloads.phases import Workload

__all__ = [
    "CellTask",
    "CellFailure",
    "ExecutionReport",
    "ParallelExecutionError",
    "execute_cells",
    "execute_cells_report",
]

CacheLike = Union[ResultCache, str, Path, None]
JournalLike = Union[CampaignJournal, str, Path, None]
#: The settle loop's unit of work: task indices run as one stack, in
#: task order (a single cell is a one-row unit).
Unit = Tuple[int, ...]


@dataclass(frozen=True)
class CellTask:
    """A run cell bundled with everything a worker needs to execute it.

    ``cfg`` must already carry the cell's effective power budget (the
    planners apply :attr:`RunCell.budget` overrides before building
    tasks).  For ``jobs > 1`` the whole task is pickled to the worker, so
    ``factory`` must be picklable — the ``functools.partial`` factories
    from :func:`repro.sim.runner.standard_controllers` are; lambdas are
    not.
    """

    cell: RunCell
    cfg: SystemConfig
    workload: Workload
    factory: Any
    sim_kwargs: Mapping[str, Any] = field(default_factory=dict)
    #: Observability switches.  Deliberately *outside* ``sim_kwargs`` so
    #: they never enter :func:`~repro.parallel.cache.cell_key` — tracing
    #: or profiling a run must not change its cache identity (the
    #: trajectory is bit-identical either way).  With ``trace``, the
    #: worker collects the run's events in a
    #: :class:`~repro.obs.BufferRecorder` and ships them back with the
    #: result for task-ordered replay in the parent.
    trace: bool = False
    profile: bool = False

    @property
    def key(self) -> str:
        """The cell's :func:`~repro.parallel.cache.cell_key`, computed once
        per task: the service dedups on it at plan time and the engine
        probes the cache with the same digest.  Memoised in the instance
        ``__dict__`` rather than by ``functools.cached_property``, whose
        class-wide lock (Python < 3.12) would serialise the service's
        concurrent off-loop planners."""
        key = self.__dict__.get("key")
        if key is None:
            key = cell_key(
                self.cell, self.cfg, self.workload, self.factory, self.sim_kwargs
            )
            self.__dict__["key"] = key
        return key


@dataclass(frozen=True)
class CellFailure:
    """Structured record of a cell whose attempts were exhausted or cut off.

    Attributes
    ----------
    cell:
        The failed cell.
    attempts:
        Unsuccessful attempts consumed (includes pool-crash casualties).
    error_type:
        Qualified exception type name of the *latest* failure;
        ``"WorkerCrash"`` when the worker process died without raising,
        ``"CellTimeout"`` when the soft-deadline watchdog cancelled it.
    message:
        The exception message (or crash/timeout description).
    traceback_text:
        Formatted traceback of the latest failure when one exists, else
        ``""``.
    classification:
        ``"transient"`` or ``"deterministic"`` per the run's
        :class:`~repro.parallel.retry.RetryPolicy` — deterministic
        failures fail fast without consuming the retry budget.
    exception:
        The latest failure's exception object, traceback attached, when
        the attempt ran in-process (``jobs=1``); ``None`` for a worker.
    """

    cell: RunCell
    attempts: int
    error_type: str
    message: str
    traceback_text: str = ""
    classification: str = "deterministic"
    exception: Optional[BaseException] = field(
        default=None, repr=False, compare=False
    )

    def __str__(self) -> str:
        return (
            f"{self.cell.label()}: {self.error_type}: {self.message} "
            f"({self.classification}, after {self.attempts} attempts)"
        )


@dataclass(frozen=True)
class ExecutionReport:
    """Outcome of one engine invocation, failures included.

    Returned by :func:`execute_cells_report` (partial-results mode): the
    caller gets every completed cell *and* a structured account of every
    failure instead of an exception that discards the survivors.

    Attributes
    ----------
    results:
        Per-task results in task order; ``None`` where the cell failed.
    failures:
        Every :class:`CellFailure`, in task order: exactly one per
        ``None`` result, so the ``k``-th failure belongs to the ``k``-th
        hole (checked at construction).
    counters:
        The invocation's counter snapshot (what ``engine_summary`` emits).
    campaign:
        Content-addressed campaign id when a journal was used.
    resumed:
        Cells the journal reported already completed on entry.
    """

    results: Tuple[Optional[SimulationResult], ...]
    failures: Tuple[CellFailure, ...]
    counters: Dict[str, Number]
    campaign: Optional[str] = None
    resumed: int = 0

    def __post_init__(self) -> None:
        holes = sum(1 for r in self.results if r is None)
        if holes != len(self.failures):
            raise ValueError(
                f"engine invariant violated: {holes} cell(s) without a "
                f"result but {len(self.failures)} failure(s) recorded"
            )

    @property
    def ok(self) -> bool:
        return not self.failures

    def completed(self) -> List[SimulationResult]:
        """The successful results, in task order."""
        return [r for r in self.results if r is not None]


class ParallelExecutionError(RuntimeError):
    """One or more cells failed after retries; carries every failure."""

    def __init__(self, failures: Sequence[CellFailure]) -> None:
        self.failures: Tuple[CellFailure, ...] = tuple(failures)
        lines = "\n  ".join(str(f) for f in self.failures)
        super().__init__(
            f"{len(self.failures)} cell(s) failed after retries:\n  {lines}"
        )


#: ``execute_cells``' default: one extra attempt, no backoff.
_DEFAULT_POLICY = RetryPolicy(retries=1, base_delay=0.0, max_delay=0.0, jitter=0.0)

#: The cache counters whose per-invocation deltas the summary reports.
_CACHE_COUNTERS = ("hits", "misses", "corrupt", "quarantined", "put_errors")


def _run_unit(
    tasks: Sequence[CellTask],
    chaos: Optional[ChaosPolicy] = None,
    attempt: int = 1,
    in_process: bool = False,
) -> Tuple[str, Any]:
    """One attempt at a unit — a stack of cells, run by
    :func:`~repro.batch.simulate_batch` — for either executor: failures
    come back as values.

    In a worker, returning ``("error", ...)`` instead of raising keeps
    ordinary cell failures (bad config, contract violation) out of the
    pool's exception machinery, so only hard process death ever breaks
    the pool.  The ``"ok"`` payload holds ``(result, events)`` per task,
    ``events`` being a traced run's buffered events.  The ``"error"``
    payload is ``(error_type, message, traceback_text, events,
    exception)``: a one-row unit's *partial* event buffer, so a cell that
    fails for good still leaves a trace through its last completed epoch,
    and, in-process only, the exception object itself (a worker's may not
    pickle).

    ``chaos`` injects its faults before the cell simulates, keyed by the
    cell label and the 1-based ``attempt``, so injection decisions are
    identical across the spawn boundary and across runs.  In-process,
    only the faults safe in the calling process fire
    (:meth:`~repro.parallel.chaos.ChaosPolicy.inline_cell_start`), and
    only ``Exception`` is caught: ``KeyboardInterrupt`` and
    ``SystemExit`` stop the calling process at once.
    """
    # Imported here, not at module level: repro.batch pulls in the full
    # plant + controller stack, and worker processes import this module
    # on spawn.
    from repro.batch import simulate_batch

    buffers = [BufferRecorder() if task.trace else None for task in tasks]
    try:
        if chaos is not None:
            start = chaos.inline_cell_start if in_process else chaos.at_cell_start
            start(tasks[0].cell.label(), attempt)
        results = simulate_batch(tasks, buffers)
        return "ok", [
            (result, buffer.events if buffer is not None else None)
            for result, buffer in zip(results, buffers)
        ]
    except BaseException as exc:  # returned to the settle loop as a value
        if in_process and not isinstance(exc, Exception):
            raise
        partial = buffers[0] if len(tasks) == 1 else None
        return "error", (
            type(exc).__qualname__,
            str(exc),
            traceback.format_exc(),
            partial.events if partial is not None and partial.events else None,
            exc if in_process else None,
        )


class _InProcessExecutor:
    """``jobs=1``'s executor: :meth:`submit` runs the call where it is
    submitted and returns an already-completed future, so the settle loop
    serves it exactly as it serves the process pool.  Nothing is pickled;
    nothing runs concurrently."""

    def submit(self, fn: Any, *args: Any) -> "Future[Any]":
        future: "Future[Any]" = Future()
        future.set_result(fn(*args))
        return future

    def __enter__(self) -> "_InProcessExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


def _terminate_pool_processes(pool: ProcessPoolExecutor) -> None:
    """Kill a pool's worker processes (the watchdog's cancel mechanism).

    ``ProcessPoolExecutor`` has no public per-future cancel for running
    work, so the watchdog terminates the workers and lets the engine's
    broken-pool path rebuild and resubmit.  Accessing ``_processes`` is
    deliberate and defensive: if the attribute moves in a future Python,
    the watchdog degrades to waiting out the straggler instead of
    crashing the campaign.
    """
    processes = getattr(pool, "_processes", None)
    if not processes:
        return
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except Exception:
            # Already-reaped process or platform refusal: the rebuild
            # path below handles stragglers either way.
            continue


class _Invocation:
    """One engine invocation's state: results and cache keys, counters,
    the settle loop's per-cell bookkeeping, and the task-ordered emission
    of every settled cell's deferred events."""

    def __init__(
        self,
        tasks: Sequence[CellTask],
        store: Optional[ResultCache],
        jour: Optional[CampaignJournal],
        rec: Recorder,
        policy: RetryPolicy,
        jobs: int,
    ) -> None:
        self.tasks = tasks
        self.store = store
        self.jour = jour
        self.rec = rec
        self.policy = policy
        self.metrics = CounterRegistry()
        self.metrics.set_gauge("engine.jobs", jobs)
        self.metrics.set_gauge("engine.cells_total", len(tasks))
        self.results: List[Optional[SimulationResult]] = [None] * len(tasks)
        self.keys: List[Optional[str]] = [
            t.key if store is not None else None for t in tasks
        ]
        self.cache0: Dict[str, int] = {}
        if store is not None:
            self.cache0 = {name: getattr(store, name) for name in _CACHE_COUNTERS}
        self.q_cursor = len(store.quarantine_log) if store is not None else 0
        #: Settle-loop state per cell: attempts made and ``(error_type,
        #: message)`` history; ``waiting`` holds the unsubmitted units
        #: (ready or backing off) in task order, each with its backoff
        #: deadline in ``not_before``; ``groups`` maps a cell to its plan
        #: group while its planned stack stands.
        self.attempts: Dict[int, int] = {}
        self.history: Dict[int, List[Tuple[str, str]]] = {}
        self.not_before: Dict[Unit, float] = {}
        self.waiting: List[Unit] = []
        self.groups: Dict[int, int] = {}
        self.failures: Dict[int, CellFailure] = {}
        #: Deferred per-cell emission: notes (stack routing and the retry
        #: stack) and run events, emitted by :meth:`flush` in task order.
        self.notes: Dict[int, List[Tuple[str, Dict[str, Any]]]] = {}
        self.events: Dict[int, Any] = {}
        self.cursor = 0

    def drain_quarantine(self) -> None:
        """Emit ``cache_quarantine`` events for new quarantine-log entries
        (the engine owns emission, so the cache stays recorder-free)."""
        store = self.store
        if store is None:
            return
        while self.q_cursor < len(store.quarantine_log):
            key, reason = store.quarantine_log[self.q_cursor]
            self.q_cursor += 1
            self.metrics.inc("engine.cache_quarantines")
            if self.rec.enabled:
                self.rec.emit("cache_quarantine", key=key, reason=reason)

    def complete(self, i: int, result: SimulationResult) -> None:
        """Store a computed result: counter, best-effort cache write,
        journal record."""
        self.results[i] = result
        self.metrics.inc("engine.cells_run")
        key = self.keys[i]
        if self.store is not None and key is not None:
            self.store.put_safe(key, result)
            if self.jour is not None:
                self.jour.record_done(i, key)

    def enqueue(self, unit: Unit, delay: float = 0.0) -> None:
        """Put ``unit`` among the waiting units, ready after ``delay``."""
        self.not_before[unit] = time.monotonic() + delay if delay else 0.0
        bisect.insort(self.waiting, unit)

    def note(self, i: int, kind: str, **payload: Any) -> None:
        self.notes.setdefault(i, []).append((kind, payload))

    def fail(
        self,
        unit: Unit,
        error: Tuple[str, str, str],
        events: Any = None,
        exception: Optional[BaseException] = None,
    ) -> None:
        """Book an unsuccessful attempt at ``unit``.  A stack's try is
        free: each member notes ``cell_fallback`` (reason ``batch-error``)
        and re-enters as a one-row unit.  A one-row unit's cell is charged
        an attempt: re-queued behind its backoff when the policy grants a
        retry, else settled as a :class:`CellFailure` (noting
        ``cell_abandoned`` when budget remained unspent)."""
        if len(unit) > 1:
            self.metrics.inc("engine.batch_errors")
            for i in unit:
                del self.groups[i]
                self.note(i, "cell_fallback", reason="batch-error")
                self.enqueue((i,))
            return
        (i,) = unit
        error_type, message, tb_text = error
        self.attempts[i] += 1
        attempt = self.attempts[i]
        self.history[i].append((error_type, message))
        classification = self.policy.classify(error_type, message)
        if self.policy.should_retry(attempt, self.history[i]):
            delay = self.policy.delay_before(attempt + 1, self.tasks[i].cell.label())
            self.metrics.inc("engine.retries")
            self.note(
                i,
                "cell_retry",
                attempt=attempt,
                error_type=error_type,
                classification=classification,
                delay=delay,
            )
            self.enqueue((i,), delay)
            return
        if attempt <= self.policy.retries:
            self.metrics.inc("engine.cells_abandoned")
            self.note(
                i,
                "cell_abandoned",
                attempts=attempt,
                error_type=error_type,
                classification=classification,
            )
        self.metrics.inc("engine.cells_failed")
        self.failures[i] = CellFailure(
            cell=self.tasks[i].cell,
            attempts=attempt,
            error_type=error_type,
            message=message,
            traceback_text=tb_text,
            classification=classification,
            exception=exception,
        )
        if events:
            # Permanent failure: keep the last attempt's partial trace
            # through its final completed epoch.
            self.events[i] = events
        key = self.keys[i]
        if self.jour is not None and key is not None:
            self.jour.record_failed(i, key, error_type, attempt)

    def settle(self, unit: Unit, status: str, payload: Any) -> None:
        """Book a returned attempt at ``unit`` (see :func:`_run_unit`):
        each member of a successful unit completes, noting
        ``cell_batched`` when the unit is its planned stack."""
        if status != "ok":
            error_type, message, tb_text, events, exception = payload
            self.fail(unit, (error_type, message, tb_text), events, exception)
            return
        planned = unit[0] in self.groups
        if planned:
            self.metrics.inc("engine.batch_groups")
        for i, (result, events) in zip(unit, payload):
            self.attempts[i] += 1
            if planned:
                self.metrics.inc("engine.cells_batched")
                self.note(i, "cell_batched", group=self.groups[i], size=len(unit))
            if events:
                self.events[i] = events
            self.complete(i, result)

    def flush(self) -> None:
        """Emit the deferred events of every settled cell not preceded by
        an unsettled one — notes, run events, then ``cell_done`` or
        ``cell_failed`` — so the trace's cell order is a function of the
        task list alone.  Cached cells emitted theirs earlier and are
        skipped."""
        rec = self.rec
        while self.cursor < len(self.tasks):
            i = self.cursor
            failure = self.failures.get(i)
            if failure is None and self.results[i] is None:
                return
            self.cursor += 1
            notes = self.notes.pop(i, ())
            events = self.events.pop(i, None)
            if not rec.enabled or i not in self.attempts:
                continue
            label = self.tasks[i].cell.label()
            for kind, payload in notes:
                rec.emit(kind, cell=label, **payload)
            if events:
                replay_events(rec, events)
            if failure is None:
                rec.emit("cell_done", cell=label, attempts=self.attempts[i])
            else:
                rec.emit(
                    "cell_failed",
                    cell=label,
                    attempts=failure.attempts,
                    error_type=failure.error_type,
                )

    def counters(self) -> Dict[str, Number]:
        """The invocation's counter snapshot, with this invocation's cache
        deltas folded in — what ``engine_summary`` emits and
        :attr:`ExecutionReport.counters` carries."""
        counters = self.metrics.snapshot()
        for name, start in self.cache0.items():
            counters[f"cache.{name}"] = getattr(self.store, name) - start
        return counters


def execute_cells(
    tasks: Sequence[CellTask],
    jobs: int = 1,
    cache: CacheLike = None,
    recorder: Optional[Recorder] = None,
    batch: Union[bool, int] = False,
    retry_policy: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
    chaos: Optional[ChaosPolicy] = None,
    journal: JournalLike = None,
) -> List[SimulationResult]:
    """Execute every task and return the results in task order.

    :func:`execute_cells_report` plus one raise: takes the same
    parameters and raises when any cell failed.

    Raises
    ------
    Exception
        With ``jobs=1`` and no resilience option (``retry_policy``,
        ``timeout``, ``chaos``, ``journal``): the first failed cell's
        original exception object, traceback included.  Later cells
        still ran, and their results are cached.
    ParallelExecutionError
        Otherwise, if any cell exhausted its attempts; carries the full
        failure list.
    """
    report = execute_cells_report(
        tasks,
        jobs=jobs,
        cache=cache,
        recorder=recorder,
        batch=batch,
        retry_policy=retry_policy,
        timeout=timeout,
        chaos=chaos,
        journal=journal,
    )
    if report.failures:
        first = report.failures[0].exception
        options = (retry_policy, timeout, chaos, journal)
        if jobs == 1 and all(o is None for o in options) and first is not None:
            raise first
        raise ParallelExecutionError(report.failures)
    return report.completed()


def execute_cells_report(
    tasks: Sequence[CellTask],
    jobs: int = 1,
    cache: CacheLike = None,
    recorder: Optional[Recorder] = None,
    batch: Union[bool, int] = False,
    retry_policy: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
    chaos: Optional[ChaosPolicy] = None,
    journal: JournalLike = None,
) -> ExecutionReport:
    """Execute every task, in parallel when ``jobs > 1``, with caching;
    never raise for a cell failure.

    The returned :class:`ExecutionReport` carries every completed result
    (in task order, ``None`` where a cell failed) alongside the
    structured failure list, so a campaign with one poisoned cell still
    delivers the other results — and, with a journal, the failed cells
    stay pending for the next resume.

    Parameters
    ----------
    tasks:
        The cells to run; results come back in the same order.
    jobs:
        Worker process count.  ``1`` runs each stack in the calling
        process (no pool, no pickling), one at a time, through the same
        settle loop as the pool.
    cache:
        A :class:`ResultCache`, a directory path to open one at, or
        ``None`` to disable caching.  Hits skip execution entirely;
        computed cells are persisted for the next invocation.  Reads are
        integrity-verified: corrupt entries are quarantined (emitting
        ``cache_quarantine``) and recomputed; writes are best-effort, so
        a full disk costs a recompute later, never the run.
    recorder:
        Optional event sink (see :mod:`repro.obs`).  The engine emits
        cell lifecycle events (``cell_start`` / ``cell_cached`` /
        ``cell_batched`` / ``cell_fallback`` / ``cell_done`` /
        ``cell_failed``), retry-stack incidents
        (``cell_retry`` / ``cell_timeout`` / ``cell_abandoned``), cache
        integrity incidents (``cache_quarantine``), ``campaign_resume``
        when a journal resumes, and a closing ``engine_summary``.  Per-run
        events (for tasks with ``trace=True``) are buffered per attempt
        and emitted with the cell's settle event once every earlier cell
        has settled, so the trace is a function of the task list alone,
        whatever the worker scheduling.
    batch:
        Stack compatible cache-missed cells (:func:`~repro.batch.plan_batches`)
        instead of running each as a one-row stack, in the calling process
        or, with ``jobs > 1``, in the workers.  ``True`` stacks each
        compatible group whole; an integer caps the runs per stack.  Mixed
        budgets, seeds, epoch counts, fault campaigns, variation/hetero
        maps, watchdog supervision, sensor suites and memory systems all
        stack; traced cells stream each run's events as a lone run does,
        and profiled cells (stacked only with each other) get their row's
        share of the stack's timing.  The cells of a stack that fails
        re-run one per stack after a ``cell_fallback`` event with reason
        ``batch-error``; results are bit-identical either way.  Batch
        membership never enters :func:`~repro.parallel.cache.cell_key`.
    retry_policy:
        Transient/deterministic error classification, the
        identical-failure cutoff, and bounded exponential backoff with
        seeded jitter (see :class:`~repro.parallel.retry.RetryPolicy`).
        ``None`` grants one extra attempt with no backoff.
    timeout:
        Per-cell soft deadline in seconds, armed for the pool only (a
        cell running in-process cannot be preempted).  A cell still
        running past it is cancelled by the hung-worker watchdog — its
        workers are terminated, the straggler is charged an attempt
        (error type ``CellTimeout``, transient), and innocent in-flight
        cells are re-queued *without* consuming their budgets.  The
        clock starts when the pool marks the cell running, which
        includes fresh-worker spawn/import time (seconds on a cold
        machine): pick deadlines comfortably above worker spin-up.
    chaos:
        A :class:`~repro.parallel.chaos.ChaosPolicy` injecting seeded,
        deterministic infrastructure faults (worker crash/hang/transient
        at cell start — transient only in-process; cache
        corruption/truncation/disk-full around writes).  Test and soak
        harness use only; ``None`` injects nothing.
    journal:
        A :class:`~repro.parallel.journal.CampaignJournal` (or a path to
        create one at) checkpointing every cell settlement.  Requires
        cacheable tasks; when ``cache`` is ``None`` a sibling cache
        directory is derived from the journal path.  Re-running with the
        same journal and cache completes only the missing cells and is
        bit-identical to an uninterrupted run.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if batch is not True and batch is not False and int(batch) < 1:
        raise ValueError(f"batch must be a bool or a positive int, got {batch}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be > 0 seconds, got {timeout}")
    store = ResultCache.coerce(cache)
    jour: Optional[CampaignJournal] = None
    if journal is not None:
        jour = (
            journal
            if isinstance(journal, CampaignJournal)
            else CampaignJournal(journal)
        )
        if store is None:
            # A journal without a cache could checkpoint but never resume
            # (results would be lost); derive a sibling store instead.
            store = ResultCache(jour.path.parent / (jour.path.name + ".cache"))
    if chaos is not None and store is not None and store.chaos is None:
        store.chaos = chaos

    rec: Recorder = recorder if recorder is not None else NULL_RECORDER
    policy = retry_policy if retry_policy is not None else _DEFAULT_POLICY
    run = _Invocation(tasks, store, jour, rec, policy, jobs)
    try:
        campaign: Optional[str] = None
        resumed = 0
        if jour is not None:
            campaign = campaign_id([k for k in run.keys if k is not None])
            journal_completed = jour.begin(campaign, len(tasks))
            resumed = sum(1 for k in run.keys if k in journal_completed)
            if resumed:
                run.metrics.set_gauge("engine.cells_resumed", resumed)
                if rec.enabled:
                    rec.emit(
                        "campaign_resume",
                        campaign=campaign,
                        total=len(tasks),
                        completed=resumed,
                        pending=len(tasks) - resumed,
                    )

        pending: List[int] = []
        for i, task in enumerate(tasks):
            if rec.enabled:
                rec.emit("cell_start", cell=task.cell.label())
            key = run.keys[i]
            if store is not None and key is not None:
                hit = store.get(key)
                run.drain_quarantine()
                if hit is not None:
                    run.results[i] = hit
                    run.metrics.inc("engine.cells_cached")
                    if rec.enabled:
                        rec.emit("cell_cached", cell=task.cell.label())
                    if jour is not None:
                        jour.record_done(i, key, cached=True)
                    continue
            pending.append(i)

        if pending:
            _run_pool(run, pending, batch, jobs, timeout, chaos)
        run.drain_quarantine()
        counters = run.counters()
        if rec.enabled:
            rec.emit("engine_summary", counters=counters)
        return ExecutionReport(
            results=tuple(run.results),
            failures=tuple(run.failures[i] for i in sorted(run.failures)),
            counters=counters,
            campaign=campaign,
            resumed=resumed,
        )
    finally:
        if jour is not None:
            jour.close()
        # Durability on the unhappy path: a run that raises mid-campaign
        # must not lose the recorder's buffered tail.  ``getattr`` keeps
        # third-party recorders that predate ``flush`` working.
        flush = getattr(rec, "flush", None)
        if callable(flush):
            flush()


def _run_pool(
    run: _Invocation,
    pending: List[int],
    batch: Union[bool, int],
    jobs: int,
    timeout: Optional[float],
    chaos: Optional[ChaosPolicy],
) -> None:
    """The settle loop: plan, submit, watch, classify, retry or settle.

    The only place a cell is attempted, always in a unit run by
    :func:`_run_unit`: the cache-missed cells ``pending`` one per unit,
    or with ``batch`` the stacks of :func:`~repro.batch.plan_batches` of
    at most ``batch`` runs (``True``: no cap).  A stack of several cells
    gets one try that costs no attempt and sees no chaos or soft
    deadline; if it fails in any way (it raises, its worker dies, its
    pool breaks) its cells re-enter as one-row units, each an attempt
    under the retry policy (:meth:`_Invocation.fail`).  ``jobs=1`` runs
    on an :class:`_InProcessExecutor`, one unit at a time, so every unit
    settles — and its events are emitted — before the next one starts;
    ``jobs > 1`` on a spawn-started process pool, rebuilt whenever a
    worker death or the watchdog breaks it.

    Backoff never blocks dispatch: a retried cell waits aside behind its
    ``not_before`` deadline while ready units are submitted and the
    hung-worker watchdog keeps ticking; the loop sleeps only when nothing
    is in flight and every waiting unit is backing off.
    """
    units: List[Unit] = [(i,) for i in pending]
    if batch:
        # Imported here, not at module level: repro.batch pulls in the
        # full plant + controller stack (workers import this module).
        from repro.batch import plan_batches

        max_batch = len(pending) if batch is True else int(batch)
        plan = plan_batches([run.tasks[i] for i in pending], max_batch)
        units = [tuple(pending[j] for j in members) for members in plan]
        run.groups = {i: group for group, unit in enumerate(units) for i in unit}
    in_process = jobs == 1
    for unit in units:
        for i in unit:
            run.attempts[i] = 0
            run.history[i] = []
        run.enqueue(unit)
    while run.waiting:
        executor: Any = (
            _InProcessExecutor()
            if in_process
            else ProcessPoolExecutor(
                max_workers=min(jobs, len(run.waiting)),
                mp_context=get_context("spawn"),
            )
        )
        with executor as pool:
            live: Dict[Any, Unit] = {}
            running_since: Dict[Any, float] = {}
            broken = False
            watchdog_broke = False
            while (live or run.waiting) and not broken:
                now = time.monotonic()
                ripe = [u for u in run.waiting if run.not_before[u] <= now]
                for unit in ripe[:1] if in_process else ripe:
                    try:
                        fut = pool.submit(
                            _run_unit,
                            [run.tasks[i] for i in unit],
                            chaos if len(unit) == 1 else None,
                            run.attempts[unit[0]] + 1,
                            in_process,
                        )
                    except BrokenProcessPool:
                        # The pool died under us: unsubmitted units keep
                        # their deadlines for the next pool.
                        broken = True
                        break
                    run.waiting.remove(unit)
                    live[fut] = unit
                if broken:
                    break
                if not live:
                    # Every waiting unit is backing off: sleep to the
                    # nearest deadline.
                    wake_at = min(run.not_before[u] for u in run.waiting)
                    time.sleep(max(0.0, wake_at - time.monotonic()))
                    continue
                # Poll when a watchdog deadline or a backoff is armed; a
                # plain blocking wait otherwise, so neither costs anything
                # when unused.
                ticks: List[float] = []
                if timeout is not None:
                    ticks.append(max(0.01, min(0.05, timeout / 5.0)))
                if run.waiting:
                    wake_at = min(run.not_before[u] for u in run.waiting)
                    ticks.append(max(0.01, wake_at - time.monotonic()))
                done, _ = wait(
                    live,
                    timeout=min(ticks) if ticks else None,
                    return_when=FIRST_COMPLETED,
                )
                for fut in done:
                    unit = live.pop(fut)
                    try:
                        status, payload = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        run.fail(
                            unit,
                            (
                                "WorkerCrash",
                                "worker process died before returning a result",
                                "",
                            ),
                        )
                        continue
                    except Exception as exc:
                        # Submission-side errors (e.g. an unpicklable lambda
                        # factory) surface here rather than in the worker;
                        # they count as an attempt like any other failure.
                        run.fail(
                            unit,
                            (type(exc).__qualname__, str(exc), traceback.format_exc()),
                        )
                        continue
                    run.settle(unit, status, payload)
                run.flush()
                if broken or timeout is None or not live:
                    continue
                # Soft-deadline watchdog (pool only: an in-process future is
                # complete when submitted, so ``live`` is empty here; one-
                # row units only): charge stragglers, kill the pool, and let
                # the broken-pool path re-queue the innocents for free
                # (their budgets are untouched).
                now = time.monotonic()
                for fut, unit in live.items():
                    if len(unit) == 1 and fut.running() and fut not in running_since:
                        running_since[fut] = now
                expired = [
                    fut
                    for fut in live
                    if fut in running_since and now - running_since[fut] >= timeout
                ]
                if expired:
                    broken = True
                    watchdog_broke = True
                    for fut in expired:
                        (i,) = live.pop(fut)
                        run.metrics.inc("engine.timeouts")
                        run.note(
                            i,
                            "cell_timeout",
                            attempt=run.attempts[i] + 1,
                            deadline=timeout,
                        )
                        run.fail(
                            (i,),
                            (
                                "CellTimeout",
                                f"cell exceeded its soft deadline of {timeout}s",
                                "",
                            ),
                        )
                    _terminate_pool_processes(pool)
            if broken:
                for fut, unit in live.items():
                    fut.cancel()
                    if watchdog_broke and len(unit) == 1:
                        # Innocent bystander of a watchdog kill: re-queued
                        # at once, its attempt budget untouched.
                        run.metrics.inc("engine.requeued")
                        run.enqueue(unit)
                    else:
                        # Casualties of a genuine crash (and every stack):
                        # an attempt each, then resubmitted to a fresh pool.
                        run.fail(
                            unit,
                            (
                                "WorkerCrash",
                                "worker pool broke while the cell was queued/in flight",
                                "",
                            ),
                        )
                run.flush()
