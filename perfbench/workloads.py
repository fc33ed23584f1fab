"""The benchmark's four workloads.

Each workload builds its inputs from the workload seed alone (``__init__``
is the set-up), then repeats one *job* — the unit a user waits for —
until the run's time is up.  Jobs of one run are identical in size, so a
run's job count, job latencies and simulated work compare across runs and
seeds:

* ``stack-sweep``    — a job is one ``run_budget_sweep(batch=True)`` call;
* ``baseline-suite`` — a job is one ``run_suite(batch=True)`` call;
* ``serial-chip``    — a job is one serial ``run_controller`` call;
* ``service-mix``    — a job is one ``ExperimentService`` submission,
  timed from ``submit`` until ``wait`` returns.

Every workload also re-checks its outputs outside the timed region
(:meth:`Workload.check`) and supplies the serial ``decision_time`` series
its decide metrics come from (:meth:`Workload.decide_series`).  Batched
``decision_time`` is never read: it is the whole stack's decide time
copied into every row, so on the batched workloads the series come from
the serial re-runs of the output check.

Each workload keeps a :class:`hostspeed.SpeedLog`, sampled between jobs
and between serial runs (on a timer for the service), so every time it
reports can be scaled to the reference host speed.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from hostspeed import SpeedLog
from repro.experiments.e2_overshoot import DEFAULT_BENCHMARKS
from repro.faults.campaign import FaultCampaign
from repro.manycore.config import default_system
from repro.parallel.cache import ResultCache
from repro.parallel.compare import assert_trace_equal
from repro.parallel.engine import execute_cells
from repro.service import ExperimentService, JobSpec, result_digest
from repro.service.jobs import plan_job
from repro.sim.runner import run_budget_sweep, run_suite, standard_controllers
from repro.sim.simulator import run_controller
from repro.workloads import make_benchmark, mixed_workload

clock = time.perf_counter
#: serial references run between the jobs of a pass take this share of
#: the time the jobs take
REFERENCE_SHARE = 0.25


def _seeds(seed: int, n: int) -> List[int]:
    """``n`` independent sub-seeds of the workload seed."""
    return [
        int(child.generate_state(1)[0])
        for child in np.random.SeedSequence(seed).spawn(n)
    ]


def _fractions_of_default(n_cores: int, fractions: Sequence[float]) -> List[float]:
    """Absolute budgets (W) as fractions of ``default_system(n_cores)``'s.

    An absolute budget below the per-core power floors makes every
    controller raise at construction, so budgets are never absolute.
    """
    base = default_system(n_cores).power_budget
    return [float(f * base) for f in fractions]


def _report_failure(what: str) -> None:
    print(f"[perfbench] {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


@dataclass
class Outcome:
    """One timed pass: when each job ran, and the work the jobs did."""

    #: (start, end) clock readings of every job, in completion order
    intervals: List[Tuple[float, float]] = field(default_factory=list)
    t0: float = 0.0
    wall_s: float = 0.0
    #: simulated cells x cores x epochs
    sim_core_epochs: float = 0.0
    failed: int = 0
    #: intervals in which the program was at work, for the job rate
    busy: List[Tuple[float, float]] = field(default_factory=list)
    #: the host-speed samples the pass's times are scaled by
    speed: SpeedLog = field(default_factory=SpeedLog)
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def jobs(self) -> int:
        return len(self.intervals)

    @property
    def latencies(self) -> List[float]:
        return [end - start for start, end in self.intervals]


class Workload:
    """Shared job loop; subclasses build their inputs in ``__init__``."""

    name = ""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.scratch = scratch
        self.speed = SpeedLog()
        #: per controller, (decision_time, start, end) of every serial run
        self._decide: Dict[str, List[Tuple[np.ndarray, float, float]]] = {}
        #: cells the output check re-runs serially, and the results so far
        self._refs: List[Tuple[str, Any]] = []
        self._serial: Dict[Tuple[str, Any], Any] = {}
        self._turn = 0

    def job(self) -> float:
        """Run one job; return its simulated cells x cores x epochs."""
        raise NotImplementedError

    def run(
        self, seconds: float = 0.0, n_jobs: Optional[int] = None, references: bool = False
    ) -> Outcome:
        """Repeat :meth:`job` for ``seconds`` (finishing the last), or
        ``n_jobs`` times, sampling the host speed before each job and
        after the last.

        With ``references``, serial references (in turn, round and round)
        also run after each job, outside the job's interval, until they
        have taken ``REFERENCE_SHARE`` of the time the jobs took, so the
        decide samples spread over the whole pass and no one spell of the
        host catches all of them.
        """
        out = Outcome()
        try:  # untimed warm-up: lazy imports, first allocations
            self.job()
        except Exception:
            _report_failure(f"{self.name} warm-up job")
            out.failed += 1
        t0 = out.t0 = clock()
        reference_s = 0.0
        while True:
            if n_jobs is not None and out.jobs >= n_jobs:
                break
            if n_jobs is None and out.jobs and clock() - t0 >= seconds:
                break
            self.speed.sample()
            start = clock()
            try:
                out.sim_core_epochs += self.job()
            except Exception:  # a failed job is counted, never fatal
                _report_failure(f"{self.name} job")
                out.failed += 1
            out.intervals.append((start, clock()))
            job_s = sum(out.latencies)
            while references and self._refs and reference_s < REFERENCE_SHARE * job_s:
                self.speed.sample()
                start = clock()
                self._run_reference(self._refs[self._turn % len(self._refs)])
                reference_s += clock() - start
                self._turn += 1
        self.speed.sample()
        out.wall_s = clock() - t0
        out.busy = list(out.intervals)
        out.speed = self.speed
        return out

    def _run_reference(self, ref: Tuple[str, Any]) -> None:
        """Run one serial reference; the output check uses its first run."""
        self._serial.setdefault(ref, self._reference(ref))

    def run_references(self) -> None:
        """Run every serial reference not run yet, sampling the host speed
        before each and after the last."""
        for ref in self._refs:
            if ref not in self._serial:
                self.speed.sample()
                self._run_reference(ref)
        self.speed.sample()

    def check(self) -> Tuple[int, int]:
        """Each serial reference against the pass's batched result:
        (attempted, failed)."""
        self.run_references()
        attempted = failed = 0
        for ref in self._refs:
            attempted += 1
            batched = self._batched(ref)
            if batched is None:
                failed += 1
            else:
                failed += self._differs(batched, self._serial[ref], f"{ref[0]} @ {ref[1]}")
        return attempted, failed

    def _reference(self, ref: Tuple[str, Any]) -> Any:
        """Run one serial reference cell, recording its decide series."""
        raise NotImplementedError

    def _batched(self, ref: Tuple[str, Any]) -> Any:
        """The last timed job's result for ``ref`` (``None`` if there is none)."""
        raise NotImplementedError

    def _serial_run(self, name: str, run: Any) -> Any:
        """Call ``run()``, a serial run of controller ``name``, and keep
        its decide series with the run's clock interval."""
        start = clock()
        result = run()
        self._decide.setdefault(name, []).append((result.decision_time, start, clock()))
        return result

    def decide_series(self) -> Dict[str, List[np.ndarray]]:
        """Serial per-epoch decide seconds at the reference host speed, per
        controller, one array per run."""
        # A serial run is short and its probes bracket it closely: the two
        # nearest read the spell it ran in better than a wider median.
        return {
            name: [
                series * self.speed.factor(start, end, nearest=2)
                for series, start, end in runs
            ]
            for name, runs in self._decide.items()
        }

    def instrument(self, tracer: Any) -> None:
        """Add workload-specific spans before a traced pass (default: none)."""

    def close(self) -> None:
        """Release what set-up created (default: nothing)."""

    def _differs(self, batched: Any, serial: Any, context: str) -> int:
        """1 if the two results differ on any deterministic output, else 0."""
        try:
            assert_trace_equal(batched, serial, context=context)
        except AssertionError:
            _report_failure(f"output check {context}")
            return 1
        return 0


class StackSweep(Workload):
    """od-rl and pid x 32 budgets on ``mixed`` at 64 cores, faults on every cell."""

    name = "stack-sweep"
    N_CORES = 64
    N_EPOCHS = 100
    CONTROLLERS = ("od-rl", "pid")
    FRACTIONS = tuple(float(f) for f in np.linspace(0.5, 1.5, 32))
    FAULT_RATE = 0.05
    #: the output check re-runs, per controller, one seeded budget from each
    #: of this many equal slices of the budget range (decide cost grows
    #: with the budget, so slices keep the decide figures comparable
    #: across seeds)
    CHECK_CELLS = 8

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        wl_seed, lineup_seed, fault_seed, check_seed = _seeds(seed, 4)
        self.cfg = default_system(self.N_CORES)
        self.budgets = _fractions_of_default(self.N_CORES, self.FRACTIONS)
        self.workload = mixed_workload(self.N_CORES, seed=wl_seed)
        lineup = standard_controllers(seed=lineup_seed)
        self.controllers = {name: lineup[name] for name in self.CONTROLLERS}
        self.campaign = FaultCampaign.random(
            self.N_CORES, self.N_EPOCHS, rate=self.FAULT_RATE, seed=fault_seed
        )
        self.last: Optional[Dict[str, Dict[float, Any]]] = None
        rng = np.random.default_rng(check_seed)
        width = len(self.budgets) // self.CHECK_CELLS
        self._refs = [
            (name, budget)
            for budget in (
                self.budgets[k * width + int(rng.integers(width))]
                for k in range(self.CHECK_CELLS)
            )
            for name in self.CONTROLLERS
        ]

    def job(self) -> float:
        self.last = run_budget_sweep(
            self.cfg, self.budgets, self.workload, self.controllers,
            self.N_EPOCHS, sim_kwargs={"faults": self.campaign}, batch=True,
        )
        return len(self.controllers) * len(self.budgets) * self.N_CORES * self.N_EPOCHS

    def _reference(self, ref: Tuple[str, Any]) -> Any:
        name, budget = ref
        cfg = self.cfg.with_budget(budget)
        return self._serial_run(name, lambda: run_controller(
            cfg, self.workload, self.controllers[name](cfg), self.N_EPOCHS,
            faults=self.campaign,
        ))

    def _batched(self, ref: Tuple[str, Any]) -> Any:
        return None if self.last is None else self.last[ref[0]][ref[1]]


class BaselineSuite(Workload):
    """Heuristic and DP baselines on the six E2 benchmarks at 32 cores."""

    name = "baseline-suite"
    N_CORES = 32
    N_EPOCHS = 100
    CONTROLLERS = ("greedy-ascent", "steepest-drop", "maxbips")

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        *wl_seeds, lineup_seed = _seeds(seed, len(DEFAULT_BENCHMARKS) + 1)
        self.cfg = default_system(self.N_CORES)
        self.workloads = {
            name: make_benchmark(name, self.N_CORES, seed=s)
            for name, s in zip(DEFAULT_BENCHMARKS, wl_seeds)
        }
        lineup = standard_controllers(seed=lineup_seed)
        self.controllers = {name: lineup[name] for name in self.CONTROLLERS}
        self.last: Optional[Dict[str, Dict[str, Any]]] = None
        # The grid is small: the output check re-runs every cell.
        self._refs = [(name, bench) for bench in self.workloads for name in self.CONTROLLERS]

    def job(self) -> float:
        self.last = run_suite(
            self.cfg, self.workloads, self.controllers, self.N_EPOCHS, batch=True
        )
        return len(self.controllers) * len(self.workloads) * self.N_CORES * self.N_EPOCHS

    def _reference(self, ref: Tuple[str, Any]) -> Any:
        name, bench = ref
        return self._serial_run(name, lambda: run_controller(
            self.cfg, self.workloads[bench], self.controllers[name](self.cfg), self.N_EPOCHS
        ))

    def _batched(self, ref: Tuple[str, Any]) -> Any:
        return None if self.last is None else self.last[ref[0]][ref[1]]


class SerialChip(Workload):
    """od-rl runs on ``mixed`` at 256 cores through the serial loop.

    The jobs cycle through ``POOL`` seeded ``mixed`` workloads, so a run's
    figures average over several inputs rather than follow one draw.
    """

    name = "serial-chip"
    N_CORES = 256
    #: short jobs, so each is scaled by the host speed of its own moment
    N_EPOCHS = 250
    POOL = 4

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        *wl_seeds, lineup_seed = _seeds(seed, self.POOL + 1)
        self.cfg = default_system(self.N_CORES)
        self.workloads = [mixed_workload(self.N_CORES, seed=s) for s in wl_seeds]
        self.factory = standard_controllers(seed=lineup_seed)["od-rl"]
        self.jobs_run = 0
        self.last: Optional[Tuple[Any, Any]] = None

    def job(self) -> float:
        workload = self.workloads[self.jobs_run % self.POOL]
        self.jobs_run += 1
        result = self._serial_run("od-rl", lambda: run_controller(
            self.cfg, workload, self.factory(self.cfg), self.N_EPOCHS
        ))
        self.last = (workload, result)
        return self.N_CORES * self.N_EPOCHS

    def check(self) -> Tuple[int, int]:
        """The last timed run against a one-row batched run of the same cell."""
        if self.last is None:
            return 1, 1
        workload, serial = self.last
        batched = run_suite(
            self.cfg, {workload.name: workload}, {"od-rl": self.factory},
            self.N_EPOCHS, batch=True,
        )["od-rl"][workload.name]
        return 1, self._differs(batched, serial, "od-rl one-row batch")


class ServiceMix(Workload):
    """Closed-loop clients submitting suite and sweep jobs to one service.

    The job sequence is fixed in shape and seeded in content.  Three jobs in
    ten repeat one of the last ``REPEAT_WINDOW`` jobs (answered by the memo,
    or attached to the cell while it is in flight); the others are fresh
    specs cycling through ``TEMPLATES`` (kind, controllers, and how many
    benchmarks or budgets), with the benchmarks, the budgets and a spec seed
    unique to the job drawn from the workload seed.  Fresh jobs so share no
    cells by accident, and every seed offers the same mix of work.  The
    cells of a seeded ``PREWARM_SHARE`` of the first ``PREWARM_HORIZON``
    fresh jobs are simulated into a template cache during set-up; every
    pass serves from its own copy of that template, so passes do not warm
    each other.
    """

    name = "service-mix"
    N_CORES = 16
    N_EPOCHS = 100
    CLIENTS = 8
    SEQUENCE = 4000
    #: positions, out of every ten jobs, that repeat a recent job
    REPEAT_SLOTS = (2, 5, 8)
    REPEAT_WINDOW = 16
    PREWARM_SHARE = 0.1
    PREWARM_HORIZON = 300
    TEMPLATES = (
        ("suite", ("od-rl",), 2),
        ("sweep", ("pid", "greedy-ascent"), 3),
        ("suite", ("maxbips",), 1),
        ("sweep", ("od-rl",), 2),
        ("suite", ("greedy-ascent", "steepest-drop"), 1),
        ("sweep", ("pid", "maxbips"), 2),
        ("suite", ("od-rl", "steepest-drop"), 2),
        ("sweep", ("greedy-ascent",), 3),
    )
    CONTROLLERS = ("od-rl", "pid", "greedy-ascent", "steepest-drop", "maxbips")
    BENCHMARKS = DEFAULT_BENCHMARKS + ("mixed",)
    FRACTIONS = (0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2)
    CHECK_JOBS = 4
    #: serial decide runs: runs per controller, and epochs per run
    DECIDE_RUNS = 8
    DECIDE_EPOCHS = 200
    #: seconds between host-speed samples during the pass
    SAMPLE_EVERY_S = 0.25
    WAIT_TIMEOUT_S = 120.0

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        seq_seed, warm_seed, self._check_seed = _seeds(seed, 3)
        self.budgets = _fractions_of_default(self.N_CORES, self.FRACTIONS)
        self.sequence, fresh = self._make_sequence(np.random.default_rng(seq_seed))
        self.template = Path(tempfile.mkdtemp(prefix="cache-", dir=scratch))
        self._prewarm(fresh[: self.PREWARM_HORIZON], np.random.default_rng(warm_seed))
        self.service: Optional[ExperimentService] = None
        self.records: List[Tuple[int, str, float, float, str]] = []
        self._rounds: List[Tuple[float, int, frozenset]] = []
        self._refs = [(name, k) for k in range(self.DECIDE_RUNS) for name in self.CONTROLLERS]

    # -- set-up --------------------------------------------------------------
    def _fresh_spec(self, k: int, rng: np.random.Generator, seed_base: int) -> JobSpec:
        kind, controllers, width = self.TEMPLATES[k % len(self.TEMPLATES)]
        common: Dict[str, Any] = {
            "controllers": controllers,
            "n_cores": self.N_CORES,
            "n_epochs": self.N_EPOCHS,
            "seed": seed_base + k,
        }
        if kind == "suite":
            picked = rng.choice(len(self.BENCHMARKS), width, replace=False)
            benchmarks = tuple(self.BENCHMARKS[i] for i in sorted(picked))
            return JobSpec(kind="suite", benchmarks=benchmarks, **common)
        picked = rng.choice(len(self.budgets), width, replace=False)
        return JobSpec(
            kind="sweep",
            benchmarks=(self.BENCHMARKS[int(rng.integers(len(self.BENCHMARKS)))],),
            budgets=tuple(self.budgets[i] for i in sorted(picked)),
            **common,
        )

    def _make_sequence(self, rng: np.random.Generator) -> Tuple[List[JobSpec], List[JobSpec]]:
        """(every job in submission order, the fresh jobs among them)."""
        seed_base = int(rng.integers(2**31))
        sequence: List[JobSpec] = []
        fresh: List[JobSpec] = []
        for i in range(self.SEQUENCE):
            if i % 10 in self.REPEAT_SLOTS:
                earlier = int(rng.integers(max(0, i - self.REPEAT_WINDOW), i))
                sequence.append(sequence[earlier])
            else:
                fresh.append(self._fresh_spec(len(fresh), rng, seed_base))
                sequence.append(fresh[-1])
        return sequence, fresh

    def _prewarm(self, specs: Sequence[JobSpec], rng: np.random.Generator) -> None:
        """Simulate into the template cache the cells of a seeded share of
        ``specs``, the same share of each template, so every seed warms
        the same number of cells of each shape."""
        n_templates = len(self.TEMPLATES)
        chosen: List[int] = []
        for t in range(n_templates):
            of_template = range(t, len(specs), n_templates)
            k = round(self.PREWARM_SHARE * len(of_template))
            chosen.extend(int(i) for i in rng.choice(of_template, k, replace=False))
        tasks = []
        for index in sorted(chosen):
            tasks.extend(plan_job(specs[index]).tasks)
        execute_cells(tasks, cache=ResultCache(self.template), batch=True)

    # -- timed pass ------------------------------------------------------------
    def run(
        self, seconds: float = 0.0, n_jobs: Optional[int] = None, references: bool = False
    ) -> Outcome:
        """One closed-loop pass.  With ``references``, every other serial
        decide run is made before the pass (the rest in the check), as
        the service's own pass leaves no gaps for them."""
        if references:
            for ref in self._refs[::2]:
                self.speed.sample()
                self._run_reference(ref)
        cache_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=self.scratch)) / "cache"
        shutil.copytree(self.template, cache_dir)
        try:
            return asyncio.run(self._drive(cache_dir, seconds, n_jobs))
        finally:
            shutil.rmtree(cache_dir.parent, ignore_errors=True)

    async def _drive(self, cache_dir: Path, seconds: float, n_jobs: Optional[int]) -> Outcome:
        service = self.service = ExperimentService(cache=str(cache_dir))
        self.records = []
        self._rounds = []
        # The pass is scaled as a whole, by the median of all its probes:
        # the probe runs on the event loop while the service's worker
        # thread runs rounds, so it reads the host as the service finds it
        # (the two share the interpreter lock and the caches), but one
        # probe reads that share too noisily to scale the job beside it.
        # Probes taken only between quiet segments of the pass tracked the
        # service's speed worse.  A probe blocks the loop for a few
        # milliseconds, the same share of every run.
        out = Outcome(speed=SpeedLog(nearest=len(self.sequence)))
        indices = iter(range(len(self.sequence)))
        await service.start()
        out.speed.sample()
        t0 = out.t0 = clock()

        async def sampler() -> None:
            while True:
                await asyncio.sleep(self.SAMPLE_EVERY_S)
                out.speed.sample()

        async def client(k: int) -> None:
            for i in indices:
                if n_jobs is not None and i >= n_jobs:
                    return
                if n_jobs is None and clock() - t0 >= seconds:
                    return
                start = clock()
                job_id = ""
                try:
                    job_id = await service.submit(self.sequence[i], client=f"c{k}")
                    status = await service.wait(job_id, timeout=self.WAIT_TIMEOUT_S)
                    state = status["state"]
                except (asyncio.TimeoutError, ValueError):
                    _report_failure(f"service job {i}")
                    state = "error"
                self.records.append((i, job_id, start, clock(), state))

        sampling = asyncio.ensure_future(sampler())
        try:
            await asyncio.gather(*(client(k) for k in range(self.CLIENTS)))
            out.wall_s = clock() - t0
            counters = service.counters()
        finally:
            sampling.cancel()
            await asyncio.gather(sampling, return_exceptions=True)
            out.speed.sample()
            # The caller removes the cache directory next: stop first, so
            # no round is still writing into it.
            await service.stop()
        leaked_tasks = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
        leaked_procs = multiprocessing.active_children()
        if leaked_tasks or leaked_procs:
            print(
                f"[perfbench] leaked {len(leaked_tasks)} asyncio tasks and "
                f"{len(leaked_procs)} worker processes",
                file=sys.stderr,
            )
        out.intervals = [(start, end) for _i, _j, start, end, _s in self.records]
        out.busy = [(t0, t0 + out.wall_s)]
        out.failed = sum(1 for *_rest, state in self.records if state != "done")
        out.failed += int(bool(leaked_tasks)) + int(bool(leaked_procs))
        simulated = int(counters.get("engine.cells_run", 0))
        out.sim_core_epochs = float(simulated * self.N_CORES * self.N_EPOCHS)
        out.extra = {
            "cells_submitted": sum(
                self.sequence[i].cell_count() for i, *_rest in self.records
            ),
            "cells_simulated": simulated,
            "dedup_memo": int(counters.get("service.dedup_memo", 0)),
            "dedup_inflight": int(counters.get("service.dedup_inflight", 0)),
            "retries": int(counters.get("engine.retries", 0)),
            "queue_waits": self._queue_waits(service),
            "round_cells": [n for _t, n, _ids in self._rounds],
        }
        return out

    def instrument(self, tracer: Any) -> None:
        """Time the scheduler's engine calls as ``service.round`` spans and
        remember which cells each round held (for queue-wait times)."""
        from repro.service import scheduler

        def on_round(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any,
                     start: float, end: float) -> None:
            tasks = args[0] if args else kwargs["tasks"]
            self._rounds.append((start, len(tasks), frozenset(id(t) for t in tasks)))

        tracer.observe("service.round", on_round)
        tracer.rebind(scheduler, "execute_cells_report", "service.round")

    def _queue_waits(self, service: ExperimentService) -> List[float]:
        """Per job: submit until the first round holding one of its cells.

        Jobs answered entirely from the memo never wait for a round and are
        left out; a job attached to a cell that is already running waits 0.
        """
        if not self._rounds:
            return []
        waits = []
        for _i, job_id, start, _end, _state in self.records:
            job = service.scheduler.jobs.get(job_id)
            if job is None:
                continue
            ids = {id(r.task) for r in job.records if r is not None}
            first = next((t for t, _n, held in self._rounds if ids & held), None)
            if first is not None:
                waits.append(max(0.0, first - start))
        return waits

    # -- checks ----------------------------------------------------------------
    def check(self) -> Tuple[int, int]:
        """Sampled jobs' digests against library runs, plus the decide probe."""
        attempted = failed = 0
        service = self.service
        done = [(i, job_id) for i, job_id, _s, _e, state in self.records if state == "done"]
        rng = np.random.default_rng(self._check_seed)
        for k in sorted(rng.choice(len(done), min(self.CHECK_JOBS, len(done)), replace=False)):
            i, job_id = done[k]
            attempted += 1
            try:
                assert service is not None
                if service.result_digests(job_id) != self._library_digests(self.sequence[i]):
                    print(f"[perfbench] digest mismatch for job {job_id}", file=sys.stderr)
                    failed += 1
            except Exception:
                _report_failure(f"service check of job {job_id}")
                failed += 1
        self.run_references()
        return attempted, failed

    def _library_digests(self, spec: JobSpec) -> Dict[str, Dict[str, str]]:
        """The spec's cells through the serial library entry points."""
        cfg = default_system(n_cores=spec.n_cores, budget_fraction=spec.budget_fraction)
        lineup = standard_controllers(seed=spec.seed)
        controllers = {name: lineup[name] for name in spec.controllers}
        workloads = {
            name: mixed_workload(spec.n_cores, seed=spec.seed)
            if name == "mixed"
            else make_benchmark(name, spec.n_cores, seed=spec.seed)
            for name in spec.benchmarks
        }
        results: Dict[str, Dict[Any, Any]]
        if spec.kind == "sweep":
            results = run_budget_sweep(
                cfg, list(spec.budgets), workloads[spec.benchmarks[0]],
                controllers, spec.n_epochs,
            )
        else:
            results = run_suite(cfg, workloads, controllers, spec.n_epochs)
        return {
            ctrl: {str(key): result_digest(res) for key, res in inner.items()}
            for ctrl, inner in results.items()
        }

    def _reference(self, ref: Tuple[str, Any]) -> Any:
        """One serial decide run: the decide latency of a controller the
        service runs (the service itself only runs stacks)."""
        name, k = ref
        cfg = default_system(self.N_CORES)
        workload = mixed_workload(self.N_CORES, seed=self._check_seed + k)
        factory = standard_controllers(seed=self._check_seed)[name]
        return self._serial_run(
            name, lambda: run_controller(cfg, workload, factory(cfg), self.DECIDE_EPOCHS)
        )

    def close(self) -> None:
        shutil.rmtree(self.template, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (StackSweep, BaselineSuite, SerialChip, ServiceMix)}
