"""The in-process service facade: submit / status / cancel / wait / results.

:class:`ExperimentService` owns a :class:`~repro.service.scheduler.ContinuousScheduler`
and gives it a job-oriented API.  It runs embedded in any asyncio program
— the TCP server (:mod:`repro.service.server`) is one such program, the
load harness (``tools/service_load.py``) another, and tests drive it
directly.

Submission planning (workload construction, cell keying) runs in a
worker thread so a thousand concurrent ``submit`` calls do not serialize
on the event loop; all scheduler mutation happens on the loop.
"""

from __future__ import annotations

import asyncio
import itertools
from pathlib import Path
from typing import Any, AsyncIterator, Dict, List, Mapping, Optional, Union

from repro.obs.metrics import Number
from repro.parallel.cache import ResultCache
from repro.service.events import EventHub
from repro.service.jobs import JobSpec, plan_job, result_digest
from repro.service.scheduler import ContinuousScheduler, Job, ServiceError
from repro.sim.results import SimulationResult

__all__ = ["ExperimentService"]

CacheLike = Union[ResultCache, str, Path, None]


class ExperimentService:
    """Async job API over the continuous-batching scheduler.

    Construction does not start anything: jobs submitted before
    :meth:`start` queue up and run once the scheduler starts (tests use
    this to assemble deterministic fairness scenarios).  The options are
    the scheduler's (see :class:`ContinuousScheduler`); ``cache`` may also
    be a directory path.  :meth:`stop` lets the executing round finish and
    leaves zero tasks and zero worker processes.
    """

    def __init__(
        self,
        cache: CacheLike = None,
        engine_jobs: int = 1,
        batch: Union[bool, int] = True,
        round_size: int = 64,
        timeout: Optional[float] = None,
    ) -> None:
        self._scheduler = ContinuousScheduler(
            cache=ResultCache.coerce(cache),
            engine_jobs=engine_jobs,
            batch=batch,
            round_size=round_size,
            timeout=timeout,
        )
        self._ids = itertools.count(1)
        self._started = False

    @property
    def started(self) -> bool:
        return self._started

    @property
    def scheduler(self) -> ContinuousScheduler:
        return self._scheduler

    @property
    def cache(self) -> Optional[ResultCache]:
        return self._scheduler.cache

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Start scheduling (idempotent); binds event hubs to this loop."""
        loop = asyncio.get_running_loop()
        for job in self._scheduler.jobs.values():
            job.hub.bind(loop)
        self._scheduler.start()
        self._started = True

    async def stop(self) -> None:
        """Finish the executing round and stop; pending jobs are cancelled."""
        await self._scheduler.stop()
        self._started = False

    # -- job API -----------------------------------------------------------
    async def submit(
        self,
        spec: Union[JobSpec, Mapping[str, Any]],
        client: str = "",
    ) -> str:
        """Plan and enqueue one job; returns its id immediately.

        Planning (workload construction, content-addressed cell keying)
        runs off-loop; invalid specs raise ``ValueError`` here, before
        anything is queued.
        """
        job_spec = (
            spec if isinstance(spec, JobSpec) else JobSpec.from_dict(spec)
        )
        planned = await asyncio.to_thread(plan_job, job_spec)
        job_id = f"j{next(self._ids):06d}"
        hub = EventHub()
        hub.bind(asyncio.get_running_loop())
        job = Job(job_id, client, planned, hub)
        hub.publish(
            "job_submitted",
            job=job_id,
            kind=job_spec.kind,
            cells=len(planned.tasks),
        )
        self._scheduler.enqueue_job(job)
        return job_id

    def _job(self, job_id: str) -> Job:
        job = self._scheduler.jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return job

    def status(self, job_id: str) -> Dict[str, Any]:
        """Point-in-time view of one job."""
        job = self._job(job_id)
        payload: Dict[str, Any] = {
            "job": job.id,
            "state": job.state,
            "client": job.client,
            "kind": job.planned.spec.kind,
            "cells": job.cells,
            "completed": job.completed,
            "failed": len(job.failures),
            "elapsed_s": job.elapsed_s,
        }
        if job.failures:
            payload["failures"] = [
                {
                    "cell": failure.cell.label(),
                    "error_type": failure.error_type,
                    "message": failure.message,
                }
                for failure in job.failures.values()
            ]
        return payload

    async def wait(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Block until the job reaches a terminal state; returns status."""
        job = self._job(job_id)
        if timeout is None:
            await job.done_event.wait()
        else:
            await asyncio.wait_for(job.done_event.wait(), timeout)
        return self.status(job_id)

    async def cancel(self, job_id: str) -> bool:
        """Cancel a job; ``False`` when it already reached a terminal state.

        Cells shared with other jobs keep running for them; cells only
        this job wanted are dropped before they execute.
        """
        return self._scheduler.cancel_job(self._job(job_id))

    def results(
        self, job_id: str
    ) -> Dict[str, Dict[Any, SimulationResult]]:
        """The finished job's merged results (``controller → benchmark``
        for suites, ``controller → budget`` for sweeps).

        Raises :class:`ServiceError` unless the job state is ``done`` —
        a failed or cancelled job has holes the nested mapping cannot
        represent honestly (its failures are in :meth:`status`).
        """
        job = self._job(job_id)
        if job.state != "done":
            raise ServiceError(
                f"job {job_id} is {job.state!r}, not 'done'; results are "
                "only available for fully completed jobs"
            )
        flat: List[SimulationResult] = []
        for slot in job.slots:
            assert slot is not None  # state == "done" guarantees it
            flat.append(slot)
        return job.planned.merge(flat)

    def result_digests(self, job_id: str) -> Dict[str, Dict[str, str]]:
        """Per-cell content digests of a finished job's results — equal
        digests iff trace-equal results (see
        :func:`repro.service.jobs.result_digest`)."""
        merged = self.results(job_id)
        return {
            ctrl: {str(key): result_digest(res) for key, res in inner.items()}
            for ctrl, inner in merged.items()
        }

    def events(
        self, job_id: str, start: int = 0
    ) -> AsyncIterator[Dict[str, Any]]:
        """Live event stream for one job, replaying from ``start``."""
        return self._job(job_id).hub.stream(start)

    def counters(self) -> Dict[str, Number]:
        """Scheduler + engine + cache counters, one flat snapshot."""
        merged = self._scheduler.counters()
        store = self._scheduler.cache
        if store is not None:
            for name in (
                "hits",
                "misses",
                "corrupt",
                "quarantined",
                "put_errors",
                "put_contended",
            ):
                merged[f"cache_total.{name}"] = getattr(store, name)
        return merged

    def job_ids(self) -> List[str]:
        """Ids of every job this service has accepted, in submit order."""
        return list(self._scheduler.jobs)
