"""Continuous-batching scheduler: many jobs, shared engine rounds.

The design mirrors an inference server's continuous batcher.  Every job's
cells enter per-job queues; a single runner coroutine assembles *rounds*
by round-robin draining one cell per active job per pass (fair share: a
1000-cell sweep and a 1-cell probe each contribute one cell per pass, so
the probe finishes after the first round instead of queueing behind the
sweep).  Rounds run one at a time: the runner awaits each round, which
executes as one :func:`~repro.parallel.engine.execute_cells_report` call
in a worker thread — cells from *different* clients land in the same
engine invocation, where ``batch=True`` stacks the compatible ones into
shared kernel batches (``plan_batches``).  Arrivals during a round simply
queue and join the next one: batching is continuous, not windowed.

Dedup happens at three levels, cheapest first:

* **memo** — an in-memory map of the last :data:`MEMO_LIMIT` settled
  results; an identical cell re-submitted after completion is answered at
  submit time without touching the scheduler (``service.dedup_memo``).
* **in-flight** — a cell identical (by its content-addressed
  :attr:`~repro.parallel.engine.CellTask.key`, computed once at plan
  time) to one already queued or running *attaches* to the existing
  :class:`CellRecord` as an extra waiter; one simulation settles every
  waiter (``service.dedup_inflight``).
* **cache** — the shared :class:`~repro.parallel.cache.ResultCache` is
  probed by the engine inside each round (with the same cached key), so
  results survive process restarts and are shared with library-path
  runs.

All scheduler state is mutated only on the event loop thread; the only
cross-thread object is each job's :class:`~repro.service.events.EventHub`
(the engine's round recorder publishes into hubs from the worker thread).
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import CounterRegistry, Number
from repro.parallel.cache import ResultCache
from repro.parallel.engine import (
    CellFailure,
    CellTask,
    execute_cells_report,
)
from repro.service.events import EventHub
from repro.service.jobs import PlannedJob
from repro.sim.results import SimulationResult

__all__ = ["ServiceError", "Job", "CellRecord", "ContinuousScheduler"]

#: Settled results the memo keeps; past it, the oldest entry is evicted.
MEMO_LIMIT = 4096
#: Terminal jobs the job table keeps; past it, the job that ended first
#: is evicted (its id then reads as unknown).  Running jobs always stay.
JOB_RETENTION = 4096


class ServiceError(RuntimeError):
    """A service-level request error (unknown job, bad state, ...)."""


class CellRecord:
    """One unit of scheduled work, shared by every job waiting on it."""

    __slots__ = ("task", "waiters", "settled")

    def __init__(self, task: CellTask) -> None:
        self.task = task
        #: ``(job, index)`` pairs to deliver the settlement to.
        self.waiters: List[Tuple["Job", int]] = []
        self.settled = False


class Job:
    """One submission's runtime state (slots fill as records settle)."""

    def __init__(
        self, job_id: str, client: str, planned: PlannedJob, hub: EventHub
    ) -> None:
        self.id = job_id
        self.client = client
        self.planned = planned
        self.hub = hub
        self.state = "queued"
        self.slots: List[Optional[SimulationResult]] = [None] * len(planned.tasks)
        self.failures: Dict[int, CellFailure] = {}
        self.pending = len(planned.tasks)
        #: Per-index record each cell is waiting on (``None`` once it was
        #: answered from the memo at submit time).
        self.records: List[Optional[CellRecord]] = [None] * len(planned.tasks)
        self.done_event = asyncio.Event()
        self.submitted_at = time.perf_counter()
        self.finished_at: Optional[float] = None

    @property
    def cells(self) -> int:
        return len(self.planned.tasks)

    @property
    def completed(self) -> int:
        return sum(1 for slot in self.slots if slot is not None)

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

    @property
    def elapsed_s(self) -> float:
        end = (
            self.finished_at
            if self.finished_at is not None
            else time.perf_counter()
        )
        return end - self.submitted_at


class _RoundRecorder:
    """Engine recorder that fans cell-scoped events out to waiter hubs.

    Runs on the engine's worker thread; hub publishing is the designed
    cross-thread seam.  Events without a ``cell`` field (the engine
    summary) are per-round internals, not part of any one job's story,
    and are dropped from job streams.
    """

    enabled = True

    def __init__(self, records: Sequence[CellRecord]) -> None:
        self._by_label: Dict[str, List[CellRecord]] = {}
        for record in records:
            self._by_label.setdefault(record.task.cell.label(), []).append(record)

    def emit(self, event_type: str, **fields: Any) -> None:
        label = fields.get("cell")
        if not isinstance(label, str):
            return
        for record in self._by_label.get(label, ()):
            for job, _index in list(record.waiters):
                job.hub.publish(event_type, **fields)

    def flush(self) -> None:
        return None


class ContinuousScheduler:
    """Fair-share round assembly + shared-round execution + dedup.

    Parameters
    ----------
    cache:
        Shared :class:`ResultCache` (or ``None``): probed by the engine
        inside every round and shared across jobs and with library runs.
    engine_jobs:
        Worker process count per round (``1`` executes rounds inline in
        the worker thread — no process pool, which is the fast path when
        ``batch`` carries the round).
    batch:
        Forwarded to the engine: stack the cells of a round into kernel
        batches.  ``True`` (default) is what makes cross-client
        continuous batching real.
    round_size:
        Cell budget per round.  Larger rounds batch better; smaller
        rounds re-assess fairness more often.
    timeout:
        Forwarded to the engine per round; rounds use the engine's
        default retry policy.

    Rounds run one at a time, so everything arriving during a round
    joins the next; the memo keeps the last :data:`MEMO_LIMIT` results,
    and :attr:`jobs` every running job plus the last
    :data:`JOB_RETENTION` to end.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        engine_jobs: int = 1,
        batch: Union[bool, int] = True,
        round_size: int = 64,
        timeout: Optional[float] = None,
    ) -> None:
        if engine_jobs < 1:
            raise ValueError(f"engine_jobs must be >= 1, got {engine_jobs}")
        if round_size < 1:
            raise ValueError(f"round_size must be >= 1, got {round_size}")
        self.cache = cache
        self.engine_jobs = engine_jobs
        self.batch = batch
        self.round_size = round_size
        self.timeout = timeout
        self.metrics = CounterRegistry()
        #: Engine counters summed across every round this scheduler ran
        #: (``engine.cells_batched``, ``cache.hits``, ...).
        self.engine_totals: Dict[str, Number] = {}
        self.jobs: Dict[str, Job] = {}
        #: ids of the terminal jobs in :attr:`jobs`, oldest end first
        self._ended: Deque[str] = deque()
        self._queues: "OrderedDict[str, Deque[CellRecord]]" = OrderedDict()
        self._inflight: Dict[str, CellRecord] = {}
        self._memo: "OrderedDict[str, SimulationResult]" = OrderedDict()
        self._rr_offset = 0
        self._wake: Optional[asyncio.Event] = None
        self._runner: Optional["asyncio.Task[None]"] = None
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Start the runner on the current event loop (idempotent)."""
        if self._runner is not None and not self._runner.done():
            return
        loop = asyncio.get_running_loop()
        self._stopping = False
        self._wake = asyncio.Event()
        self._runner = loop.create_task(self._run_loop())
        self._kick()

    async def stop(self) -> None:
        """Let the executing round finish, stop the runner, cancel
        leftover jobs.

        The round already executing completes (its waiters settle); jobs
        with cells still queued are finalized as cancelled so no waiter
        hangs forever.  Leaves zero tasks and zero worker processes.
        """
        self._stopping = True
        self._kick()
        if self._runner is not None:
            await self._runner
            self._runner = None
        for job in list(self.jobs.values()):
            if not job.terminal:
                self.cancel_job(job)

    def _kick(self) -> None:
        if self._wake is not None:
            self._wake.set()

    # -- submission (event-loop thread) ------------------------------------
    def enqueue_job(self, job: Job) -> None:
        """Register a job and queue its not-yet-deduplicated cells."""
        if job.id in self.jobs:
            raise ServiceError(f"duplicate job id {job.id!r}")
        self.jobs[job.id] = job
        queue: Deque[CellRecord] = deque()
        self._queues[job.id] = queue
        self.metrics.inc("service.jobs_submitted")
        job.state = "running"
        for index, task in enumerate(job.planned.tasks):
            key = task.key
            if key in self._memo:
                job.slots[index] = self._memo[key]
                job.pending -= 1
                self.metrics.inc("service.dedup_memo")
                job.hub.publish(
                    "cell_attached", cell=task.cell.label(), origin="memo"
                )
                continue
            existing = self._inflight.get(key)
            if existing is not None and not existing.settled:
                existing.waiters.append((job, index))
                job.records[index] = existing
                self.metrics.inc("service.dedup_inflight")
                job.hub.publish(
                    "cell_attached", cell=task.cell.label(), origin="inflight"
                )
                continue
            record = CellRecord(task)
            record.waiters.append((job, index))
            job.records[index] = record
            self._inflight[key] = record
            queue.append(record)
            self.metrics.inc("service.cells_enqueued")
        if job.pending == 0:
            # Every cell was answered from the memo.
            self._finalize(job)
        self._kick()

    def cancel_job(self, job: Job) -> bool:
        """Detach a job from its records and finalize it as cancelled.

        Records other jobs still wait on keep running; records only this
        job wanted are dropped when the round assembler reaches them.
        Returns ``False`` when the job was already terminal.
        """
        if job.terminal:
            return False
        for record in job.records:
            if record is not None and not record.settled:
                record.waiters = [
                    (waiter, index)
                    for (waiter, index) in record.waiters
                    if waiter is not job
                ]
        self._finalize(job, status="cancelled")
        return True

    # -- round assembly ----------------------------------------------------
    def _gather_round(self) -> List[CellRecord]:
        """Fair-share pick: one cell per active job per pass, rotating the
        starting job between rounds, until ``round_size`` or dry."""
        active = [job_id for job_id, queue in self._queues.items() if queue]
        if not active:
            return []
        picked: List[CellRecord] = []
        n = len(active)
        start = self._rr_offset % n
        self._rr_offset += 1
        exhausted = False
        while len(picked) < self.round_size and not exhausted:
            exhausted = True
            for k in range(n):
                queue = self._queues[active[(start + k) % n]]
                while queue:
                    record = queue.popleft()
                    if not record.waiters:
                        # Every submitter cancelled while it was queued.
                        self._inflight.pop(record.task.key, None)
                        record.settled = True
                        continue
                    picked.append(record)
                    exhausted = False
                    break
                if len(picked) >= self.round_size:
                    break
        for job_id in [
            job_id
            for job_id, queue in self._queues.items()
            if not queue and (job_id not in self.jobs or self.jobs[job_id].terminal)
        ]:
            del self._queues[job_id]
        return picked

    async def _run_loop(self) -> None:
        assert self._wake is not None
        while not self._stopping:
            await self._wake.wait()
            self._wake.clear()
            while not self._stopping:
                records = self._gather_round()
                if not records:
                    break
                await self._round(records)

    # -- round execution ---------------------------------------------------
    async def _round(self, records: List[CellRecord]) -> None:
        try:
            await self._execute_round(records)
        except Exception as exc:  # pragma: no cover — defensive
            # A scheduler defect must fail the round's jobs loudly, never
            # strand their waiters.
            for record in records:
                if not record.settled:
                    self._settle(
                        record,
                        None,
                        CellFailure(
                            cell=record.task.cell,
                            attempts=0,
                            error_type=type(exc).__qualname__,
                            message=str(exc),
                        ),
                    )

    async def _execute_round(self, records: List[CellRecord]) -> None:
        tasks = [record.task for record in records]
        waiting_jobs = {
            job.id for record in records for (job, _) in record.waiters
        }
        waiting_clients = {
            job.client for record in records for (job, _) in record.waiters
        }
        self.metrics.inc("service.rounds")
        if len(waiting_jobs) > 1:
            self.metrics.inc("service.rounds_multi_job")
        if len(waiting_clients) > 1:
            self.metrics.inc("service.rounds_cross_client")
        recorder = _RoundRecorder(records)
        report = await asyncio.to_thread(
            execute_cells_report,
            tasks,
            jobs=self.engine_jobs,
            cache=self.cache,
            recorder=recorder,
            batch=self.batch,
            timeout=self.timeout,
        )
        for key, value in report.counters.items():
            if key == "engine.jobs":
                continue
            self.engine_totals[key] = self.engine_totals.get(key, 0) + value
        failures = iter(report.failures)
        for record, result in zip(records, report.results):
            failure = next(failures) if result is None else None
            self._settle(record, result, failure)

    # -- settlement --------------------------------------------------------
    def _settle(
        self,
        record: CellRecord,
        result: Optional[SimulationResult],
        failure: Optional[CellFailure],
    ) -> None:
        if record.settled:
            return
        record.settled = True
        self._inflight.pop(record.task.key, None)
        if result is not None:
            self._memo[record.task.key] = result
            while len(self._memo) > MEMO_LIMIT:
                self._memo.popitem(last=False)
        for job, index in record.waiters:
            if job.terminal:
                continue
            if result is not None:
                job.slots[index] = result
            elif failure is not None:
                job.failures[index] = failure
            job.pending -= 1
            if job.pending == 0:
                self._finalize(job)

    def _finalize(self, job: Job, status: Optional[str] = None) -> None:
        if job.terminal:
            return
        job.state = (
            status
            if status is not None
            else ("failed" if job.failures else "done")
        )
        job.finished_at = time.perf_counter()
        self.metrics.inc(f"service.jobs_{job.state}")
        queue = self._queues.get(job.id)
        if queue is not None and not queue:
            del self._queues[job.id]
        job.hub.publish(
            "job_done",
            job=job.id,
            status=job.state,
            completed=job.completed,
            failed=len(job.failures),
        )
        job.hub.close()
        job.done_event.set()
        self._ended.append(job.id)
        while len(self._ended) > JOB_RETENTION:
            del self.jobs[self._ended.popleft()]

    # -- introspection -----------------------------------------------------
    def counters(self) -> Dict[str, Number]:
        """Service metrics plus summed engine totals, one flat snapshot."""
        merged: Dict[str, Number] = dict(self.metrics.snapshot())
        merged.update(self.engine_totals)
        return merged
