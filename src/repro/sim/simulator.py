"""Closed-loop simulation driver: the one per-epoch control loop.

:func:`run_stack` runs the paper's closed loop — per-core decide, chip
epoch, telemetry — over every row of an
:class:`~repro.kernel.epoch.EpochKernel`, a
:class:`~repro.kernel.policies.BatchPolicy` deciding all rows' VF levels.
:func:`simulate` runs one chip as a one-row stack (the chip's own
kernel); :func:`repro.batch.simulate_batch` stacks a group of run cells.
Both take the policy :func:`~repro.kernel.policies.build_batch_policy`
picks, so a run decides through the same code whichever entry runs it.
Decision latency is timed around ``decide`` only — that wall time is
itself an evaluation output (the paper's scalability claim C3).

Observability (:mod:`repro.obs`) is strictly write-only: per-row
recorders receive the typed event stream (run manifest, epoch records,
fault/sanitizer/watchdog incidents, checkpoint saves/restores) and a
profiler collects the per-phase timing into ``result.extras["timing"]``;
the trajectory is bit-identical either way, which the golden-trace
tests enforce.  Incident events are *polled* from the subsystems'
cumulative counters between epochs, so the kernel's fault state, the
sanitizer and the watchdog never learn that a recorder exists.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.faults.campaign import FaultCampaign
    from repro.kernel.epoch import EpochKernel
    from repro.kernel.policies import BatchPolicy

import numpy as np

from repro.contracts import check_observation_sane, check_time_monotone
from repro.manycore.chip import ManyCoreChip
from repro.manycore.config import SystemConfig
from repro.manycore.hetero import HeterogeneousMap
from repro.manycore.memory import MemorySystem
from repro.manycore.sensors import SensorSuite
from repro.manycore.variation import CoreVariation
from repro.obs import PhaseProfiler, Recorder, SCHEMA_VERSION
from repro.sim.interface import Controller
from repro.sim.results import SimulationResult
from repro.workloads.phases import Workload

__all__ = ["simulate", "run_controller", "run_stack"]

#: watchdog counter attribute -> emitted incident, polled between epochs
_WATCHDOG_INCIDENTS = (
    ("recoveries", "recovery"),
    ("resets", "reset"),
    ("crashes", "crash"),
)


def simulate(
    chip: ManyCoreChip,
    controller: Controller,
    n_epochs: int,
    record_per_core: bool = False,
    reset: bool = True,
    validate: Optional[bool] = None,
    watchdog: bool = False,
    checkpoint_period: int = 0,
    recorder: Optional[Recorder] = None,
    profile: bool = False,
    harvest: bool = False,
) -> SimulationResult:
    """Run the closed control loop for ``n_epochs``.

    Parameters
    ----------
    chip:
        The plant; its config must match the controller's.
    controller:
        The policy under test.
    n_epochs:
        Number of control epochs to simulate.
    record_per_core:
        Also record per-core power and level series (memory:
        ``2 * E * n_cores`` doubles).
    reset:
        Reset both plant and controller first.  Pass ``False`` to continue
        a run (e.g. to measure post-convergence behaviour separately).
    validate:
        Arm the runtime invariant contracts (see :mod:`repro.contracts`)
        for this run by setting the chip's ``validate`` switch, which
        both the chip step and the loop read.  ``None`` (default) keeps
        the chip's switch, which deferred to the ``REPRO_VALIDATE``
        environment variable when the chip was built.
    watchdog:
        Wrap the controller in a
        :class:`~repro.faults.watchdog.WatchdogController` before running:
        controller exceptions become recorded recoveries with a fallback
        action, and any :class:`~repro.faults.campaign.ControllerCrash`
        events in the chip's fault campaign are simulated (crash/restart
        with checkpoint recovery).  Watchdog counters land in
        ``result.extras["watchdog"]``.
    checkpoint_period:
        With ``watchdog``, checkpoint the controller every this many
        epochs (``0`` disables; crashes then restart cold).
    recorder:
        Event sink for the structured trace (see :mod:`repro.obs`);
        ``None`` uses the zero-overhead null recorder.  Wall-clock fields
        live only in trace events — the deterministic result series are
        bit-identical with any recorder attached.
    profile:
        Collect the per-phase timing breakdown
        (decide / plant / sensor / contracts / sanitizer / watchdog) into
        ``result.extras["timing"]`` and, with a recorder, into each epoch
        event.  Pure wall-clock measurement; never feeds back into the
        simulation.
    harvest:
        With a recorder, also emit one ``transition`` event per TD update
        the controller performs — the raw material of offline-RL replay
        datasets (see :mod:`repro.offline`).  The controller must expose
        ``last_update`` (an RL learner does), else it is a ``ValueError``,
        not a silently empty dataset.  Off by default so ordinary traces
        stay byte-stable and inside the tracing overhead budget.

    Returns
    -------
    SimulationResult
    """
    # Imported here: repro.kernel.policies imports the controller layer,
    # which imports this package, so a module-level import would cycle.
    from repro.kernel.policies import build_batch_policy

    if n_epochs <= 0:
        raise ValueError(f"n_epochs must be positive, got {n_epochs}")
    if chip.cfg.n_cores != controller.cfg.n_cores:
        raise ValueError(
            f"chip has {chip.cfg.n_cores} cores but controller was built "
            f"for {controller.cfg.n_cores}"
        )
    if watchdog:
        controller = supervise(controller, chip.faults, checkpoint_period=checkpoint_period)
    policy = build_batch_policy([controller], harvest=harvest)
    if reset:
        chip.reset()
        policy.reset()
    if validate is not None:
        chip.validate = validate
    (result,) = run_stack(
        chip.kernel,
        policy,
        [n_epochs],
        record_per_core=record_per_core,
        recorders=[recorder],
        profiler=PhaseProfiler() if profile else None,
        harvest=harvest,
    )
    return result


def supervise(
    controller: Controller,
    campaign: Optional["FaultCampaign"],
    checkpoint_period: int = 0,
) -> Controller:
    """``controller`` wrapped in a
    :class:`~repro.faults.watchdog.WatchdogController`.

    The watchdog replays the controller crashes of ``campaign`` (none
    without one), resets the controller after the
    watchdog's default run of consecutive decide failures, and
    checkpoints it every ``checkpoint_period`` epochs (``0`` disables).
    """
    # Imported here: repro.faults.watchdog depends on this package's
    # Controller interface, so a module-level import would cycle.
    from repro.faults.watchdog import WatchdogController

    crash_epochs = campaign.crash_epochs if campaign is not None else ()
    return WatchdogController(
        controller, crash_epochs=crash_epochs, checkpoint_period=checkpoint_period
    )


def run_stack(
    kernel: "EpochKernel",
    policy: "BatchPolicy",
    n_epochs: Sequence[int],
    record_per_core: bool = False,
    recorders: Optional[Sequence[Optional[Recorder]]] = None,
    profiler: Optional[PhaseProfiler] = None,
    harvest: bool = False,
) -> List[SimulationResult]:
    """Run the closed loop over every row of ``kernel``; one result per row.

    ``policy.controllers[r]`` drives row ``r`` for ``n_epochs[r]`` epochs.
    Neither the kernel nor the policy is reset here — the callers decide
    that.  The first decide sees ``kernel.last_observation`` (``None`` on
    a fresh or reset kernel), so a run split across calls decides as one.
    Rows may differ in length: the stack runs to the longest and finished
    rows are masked through the kernel's ``active`` row mask, holding
    their last levels, so a shorter row sees exactly the operation
    sequence of a shorter stack.  Each result is sliced back to its own
    length.  With ``kernel.validate`` armed, the loop checks the clock and
    each live row's observation after the kernel's own checks.

    ``recorders`` holds one optional event sink per row; ``profiler``
    times the decide / plant / contracts phases of the whole stack (and,
    attached to the kernel and the drivers, their sensor, sanitizer and
    watchdog phases).  Each row's ``extras["timing"]`` and epoch
    ``phases`` hold its share: its own ``decision_time`` as ``decide``,
    every other phase divided by the epoch's live rows, so a phase summed
    over the rows gives the stack's time.  ``harvest`` emits
    ``transition`` events from each traced row's controller's
    ``last_update``, so it needs the serial controllers of a
    :class:`~repro.kernel.policies.PerRunPolicy`: a vectorized policy
    decides without them, and is a ``ValueError`` rather than an empty
    dataset.
    """
    from repro.kernel.policies import PerRunPolicy

    n_runs = kernel.n_runs
    lengths = np.asarray(n_epochs, dtype=int)
    if lengths.shape != (n_runs,) or policy.n_runs != n_runs:
        raise ValueError(
            f"kernel has {n_runs} rows but got {lengths.size} epoch counts "
            f"and {policy.n_runs} controllers"
        )
    if (lengths <= 0).any():
        raise ValueError(f"n_epochs must be positive, got {lengths.tolist()}")
    if recorders is not None and len(recorders) != n_runs:
        raise ValueError(f"kernel has {n_runs} rows but got {len(recorders)} recorders")
    drivers = policy.controllers
    inners = [getattr(driver, "inner", driver) for driver in drivers]
    if harvest:
        if not isinstance(policy, PerRunPolicy):
            raise ValueError(
                f"harvest needs per-run controllers; the {policy.kind} batch "
                "policy decides without them"
            )
        for inner in inners:
            if not hasattr(inner, "last_update"):
                raise ValueError(
                    "harvest=True requires a controller exposing last_update "
                    f"(an RL learner); {type(inner).__name__} does not"
                )
    traces = {
        r: _RowTrace(rec, kernel, policy, r, int(lengths[r]), harvest)
        for r, rec in enumerate(recorders or ())
        if rec is not None and rec.enabled
    }
    validating = kernel.validate
    max_epochs = int(lengths.max())
    ragged = bool((lengths != max_epochs).any())

    chip_power = np.empty((max_epochs, n_runs))
    chip_instructions = np.empty((max_epochs, n_runs))
    max_temperature = np.empty((max_epochs, n_runs))
    decision_time = np.empty((max_epochs, n_runs))
    #: KernelObservation field -> (epoch, row, core) series, when recorded
    per_core: Dict[str, Any] = {}
    if record_per_core:
        shape = (max_epochs, n_runs, kernel.n_cores)
        per_core = {
            "power": np.empty(shape),
            "levels": np.empty(shape, dtype=int),
            "instructions": np.empty(shape),
        }

    # Duck-typed attachment: the kernel times its sensor reads, the OD-RL
    # learner (a stacked policy, or each driver's one-row stack) its
    # sanitizer pass, the watchdog its wrapper overhead — each only if it
    # carries a ``profiler`` attribute.  Drivers are timed only when they
    # decide: a vectorized policy decides without them.
    profiled: List[Any] = []
    #: each row's share of the stack's phases (see PhaseProfiler.end_share)
    row_profilers: List[PhaseProfiler] = []
    if profiler is not None:
        row_profilers = [PhaseProfiler() for _ in range(n_runs)]
        profiled = [kernel]
        if isinstance(policy, PerRunPolicy):
            profiled += [*drivers, *(i for i, d in zip(inners, drivers) if i is not d)]
        elif hasattr(policy, "profiler"):
            profiled.append(policy)
    for target in profiled:
        target.profiler = profiler
    try:
        obs = kernel.last_observation
        last_time_s = float("-inf")
        for e in range(max_epochs):
            active = lengths > e if ragged else None
            t0 = time.perf_counter()
            levels = policy.decide(obs, active)
            t1 = time.perf_counter()
            # Per-run decide cost as the policy attributes it (wall clock,
            # excluded from trace_equal as measurement jitter).
            decision_time[e] = policy.decide_seconds(t1 - t0, active)
            if active is not None:
                # Finished rows hold their last level: no transition stall,
                # no actuator command.  np.where (not in-place assignment)
                # because a policy may return an array it keeps as state.
                levels = np.where(active[:, None], levels, kernel.levels)
            obs = kernel.step(levels, active=active)
            t2 = time.perf_counter() if profiler is not None else 0.0
            if validating:
                check_time_monotone(last_time_s, obs.time, epoch=e)
                for r in range(n_runs):
                    if active is not None and not active[r]:
                        continue
                    check_observation_sane(
                        obs.sensed_power[r],
                        obs.sensed_instructions[r],
                        obs.sensed_temperature[r],
                        obs.levels[r],
                        kernel.n_levels,
                        epoch=e,
                    )
                last_time_s = obs.time
            # Recording is unmasked — finished rows record dead (but
            # finite) state that the per-row slicing below never reads.
            chip_power[e] = obs.chip_power
            chip_instructions[e] = obs.chip_instructions
            max_temperature[e] = obs.temperature.max(axis=1)
            for name, series in per_core.items():
                series[e] = getattr(obs, name)

            phases: Dict[int, Dict[str, float]] = {}
            if profiler is not None:
                t3 = time.perf_counter()
                live = list(range(n_runs)) if active is None else np.flatnonzero(active).tolist()
                row_s = decision_time[e].tolist()
                # The decide phase IS the decision_time measurement (C3).
                profiler.add("decide", sum(row_s[r] for r in live))
                profiler.add("plant", t2 - t1)
                profiler.add("contracts", t3 - t2)
                stack_phases = profiler.end_epoch()
                for r in live:
                    phases[r] = row_profilers[r].end_share(stack_phases, row_s[r], len(live))
            for r, trace in traces.items():
                if active is None or active[r]:
                    trace.epoch(
                        phases.get(r),
                        epoch=e,
                        chip_power=float(chip_power[e, r]),
                        chip_instructions=float(chip_instructions[e, r]),
                        max_temperature=max_temperature[e, r],
                        decision_time=float(decision_time[e, r]),
                    )
    finally:
        for target in profiled:
            target.profiler = None

    results: List[SimulationResult] = []
    for r in range(n_runs):
        n_e = int(lengths[r])
        extras = _result_extras(kernel, policy, r)
        timing = row_profilers[r].breakdown().as_dict() if row_profilers else None
        if timing is not None:
            extras["timing"] = timing
        if r in traces:
            traces[r].end(n_e, timing)
        results.append(
            SimulationResult(
                cfg=kernel.cfgs[r],
                controller_name=drivers[r].name,
                workload_name=kernel.workloads[r].name,
                chip_power=chip_power[:n_e, r].copy(),
                chip_instructions=chip_instructions[:n_e, r].copy(),
                max_temperature=max_temperature[:n_e, r].copy(),
                decision_time=decision_time[:n_e, r].copy(),
                extras=extras,
                **{f"core_{k}": v[:n_e, r].copy() for k, v in per_core.items()},
            )
        )
    return results


class _RowTrace:
    """One row's event stream: manifest, epochs, incidents and totals.

    Incident events come from *polling* the row's cumulative counters —
    its kernel fault counts, its sanitizer counters as the policy
    reports them (so vectorized rows report too), and its watchdog's
    recovery/checkpoint counters — and emitting one event per counter
    that moved during the epoch.  Polling keeps the subsystems
    recorder-free: they cannot behave differently under observation
    because they never see the recorder.
    """

    def __init__(
        self,
        rec: Recorder,
        kernel: "EpochKernel",
        policy: "BatchPolicy",
        run: int,
        n_epochs: int,
        harvest: bool,
    ) -> None:
        self._rec = rec
        self._kernel = kernel
        self._policy = policy
        self._run = run
        driver = policy.controllers[run]
        inner = getattr(driver, "inner", driver)
        #: the controller whose TD updates become ``transition`` events
        self._learner = inner if harvest else None
        self._faulty = kernel.campaigns[run] is not None
        self._watchdog = driver if inner is not driver else None
        rec.emit("run_start", **self._manifest(driver, inner, n_epochs))
        self._fault_prev = kernel.fault_counts(run) if self._faulty else {}
        self._san_prev = self._sanitizer_counts()
        self._wd_prev = self._watchdog_counts()

    def _manifest(
        self, driver: Controller, inner: Controller, n_epochs: int
    ) -> Dict[str, object]:
        """The ``run_start`` payload: everything needed to identify the run.

        Under harvest mode the manifest also carries the learner's
        state/action geometry (events are open records), so replay
        ingestion can size its tables from the trace alone.
        """
        # Imported lazily: repro.parallel imports this package, so a
        # module-level import of the one code-version salt would cycle.
        from repro.parallel.cache import CACHE_SALT

        cfg = self._kernel.cfgs[self._run]
        seed = getattr(inner, "_seed", None)
        manifest: Dict[str, object] = {
            "schema_version": SCHEMA_VERSION,
            "controller": driver.name,
            "workload": self._kernel.workloads[self._run].name,
            "n_cores": cfg.n_cores,
            "n_epochs": n_epochs,
            "code_salt": CACHE_SALT,
            "power_budget": cfg.power_budget,
            "epoch_time": cfg.epoch_time,
            "seed": int(seed) if isinstance(seed, (int, np.integer)) else None,
            "watchdog": inner is not driver,
        }
        if self._learner is not None:
            manifest["harvest"] = True
            manifest["rl_n_states"] = int(getattr(inner, "n_states"))
            manifest["rl_n_actions"] = int(getattr(inner, "n_actions"))
            manifest["rl_gamma"] = float(getattr(inner, "gamma"))
            manifest["rl_action_mode"] = str(getattr(inner, "action_mode", ""))
        return manifest

    def epoch(self, phases: Optional[Dict[str, float]], **fields: Any) -> None:
        """The ``epoch`` record, then the TD update the learner made, then
        the epoch's incidents.  ``fields`` are native floats, which keep
        the hot-path JSON encode off the slow ``default=`` fallback."""
        if phases is not None:
            fields["phases"] = phases
        self._rec.emit("epoch", **fields)
        epoch = fields["epoch"]
        update = getattr(self._learner, "last_update", None)
        if update is not None:
            # .tolist() up front: native ints/floats/bools keep the JSON
            # encode off the slow default= fallback, and floats round-trip
            # bit-exactly through repr.
            self._rec.emit(
                "transition",
                epoch=epoch,
                states=update["states"].tolist(),
                actions=update["actions"].tolist(),
                rewards=update["rewards"].tolist(),
                next_states=update["next_states"].tolist(),
                next_actions=update["next_actions"].tolist(),
                mask=update["mask"].tolist(),
            )
        self._poll(epoch)

    def end(self, n_epochs: int, timing: Optional[Dict[str, Any]]) -> None:
        """The ``run_end`` event with the row's kernel totals."""
        fields: Dict[str, object] = {
            "n_epochs": n_epochs,
            "total_energy_j": float(self._kernel.total_energy[self._run]),
            "total_instructions": float(self._kernel.total_instructions[self._run]),
        }
        if timing is not None:
            fields["timing"] = timing
        self._rec.emit("run_end", **fields)

    def _sanitizer_counts(self) -> Optional[Tuple[int, int]]:
        degradation = self._policy.degradation_extras(self._run)
        if degradation is None:
            return None
        return (degradation["rejected_samples"], degradation["fallback_samples"])

    def _watchdog_counts(self) -> Dict[str, int]:
        if self._watchdog is None:
            return {}
        names = [attr for attr, _ in _WATCHDOG_INCIDENTS] + ["checkpoints", "restores"]
        return {n: int(getattr(self._watchdog, n, 0)) for n in names}

    @staticmethod
    def _diff(now: int, prev: int) -> int:
        """Restart-aware counter delta.

        A cumulative counter can shrink mid-run when its subsystem is
        reset (a controller crash resets the inner policy, which resets
        the sanitizer's tallies).  A drop means the counter restarted
        from zero, so the epoch's increment is the new value itself.
        """
        return now if now < prev else now - prev

    def _poll(self, epoch: int) -> None:
        rec = self._rec
        if self._faulty:
            now = self._kernel.fault_counts(self._run)
            for kind, value in now.items():
                diff = self._diff(value, self._fault_prev.get(kind, 0))
                if diff:
                    rec.emit("fault", epoch=epoch, kind=kind, count=diff)
            self._fault_prev = now
        if self._san_prev is not None:
            counts = self._sanitizer_counts()
            assert counts is not None
            d_rej = self._diff(counts[0], self._san_prev[0])
            d_fb = self._diff(counts[1], self._san_prev[1])
            if d_rej or d_fb:
                rec.emit("sanitizer", epoch=epoch, rejected=d_rej, fallback=d_fb)
            self._san_prev = counts
        if self._watchdog is not None:
            now_wd = self._watchdog_counts()
            for attr, incident in _WATCHDOG_INCIDENTS:
                diff = self._diff(now_wd[attr], self._wd_prev.get(attr, 0))
                if diff:
                    rec.emit("watchdog", epoch=epoch, event=incident, count=diff)
            for attr, action in (("checkpoints", "save"), ("restores", "restore")):
                diff = self._diff(now_wd.get(attr, 0), self._wd_prev.get(attr, 0))
                for _ in range(diff):
                    rec.emit("checkpoint", epoch=epoch, action=action)
            self._wd_prev = now_wd


def _result_extras(kernel: "EpochKernel", policy: "BatchPolicy", run: int) -> dict:
    """Row ``run``'s fault-injection and degradation counters for
    ``result.extras``.

    Duck-typed so memoryless baselines (no sanitizer, no watchdog wrapper)
    contribute nothing; keys appear only when the matching machinery ran.
    """
    extras: dict = {}
    campaign = kernel.campaigns[run]
    if campaign is not None and campaign.n_events > 0:
        extras["faults"] = {"n_events": campaign.n_events, **kernel.fault_counts(run)}
    driver = policy.controllers[run]
    stats = getattr(driver, "stats", None)
    if stats is not None and getattr(driver, "inner", driver) is not driver:
        extras["watchdog"] = stats
    degradation = policy.degradation_extras(run)
    if degradation is not None:
        extras["degradation"] = degradation
    return extras


def run_controller(
    cfg: SystemConfig,
    workload: Workload,
    controller: Controller,
    n_epochs: int,
    sensors: Optional[SensorSuite] = None,
    record_per_core: bool = False,
    variation: Optional[CoreVariation] = None,
    memory_system: Optional[MemorySystem] = None,
    hetero: Optional[HeterogeneousMap] = None,
    validate: Optional[bool] = None,
    faults: Optional["FaultCampaign"] = None,
    watchdog: bool = False,
    checkpoint_period: int = 0,
    recorder: Optional[Recorder] = None,
    profile: bool = False,
    harvest: bool = False,
) -> SimulationResult:
    """Convenience wrapper: build the chip, run, return the result.

    ``faults`` attaches a fault campaign to the chip; ``watchdog`` and
    ``checkpoint_period`` are forwarded to :func:`simulate` (checkpoint
    cadence in epochs), as are ``recorder``,
    ``profile`` and ``harvest`` (see :mod:`repro.obs` and
    :mod:`repro.offline`).
    """
    chip = ManyCoreChip(
        cfg,
        workload,
        sensors=sensors,
        variation=variation,
        memory_system=memory_system,
        hetero=hetero,
        validate=validate,
        faults=faults,
    )
    return simulate(
        chip,
        controller,
        n_epochs,
        record_per_core=record_per_core,
        validate=validate,
        watchdog=watchdog,
        checkpoint_period=checkpoint_period,
        recorder=recorder,
        profile=profile,
        harvest=harvest,
    )
