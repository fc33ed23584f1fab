"""Batched execution of run-cell groups.

:func:`simulate_batch` is the batched mirror of
:func:`repro.sim.simulator.simulate`: it stacks a group of independent
run cells into one :class:`~repro.batch.chip.BatchChip` (the epoch
kernel) plus one :class:`~repro.kernel.policies.BatchPolicy` and advances
every run with a single array epoch step, returning one ordinary
:class:`~repro.sim.results.SimulationResult` per cell.  The loop body is
a line-for-line transcription of the serial loop — same contract checks,
same per-epoch reductions (row views of C-contiguous stacks, so NumPy's
pairwise summation order per run is the serial order), same
``result.extras`` gates — which is what the conformance suite in
``tests/kernel/`` verifies bit for bit.

Runs in one stack may differ in power budget, seed, workload recipe,
fault campaign, and epoch count: a *ragged* group is padded to the
longest run and finished rows are masked out via the kernel's ``active``
row mask, so shorter runs see exactly the operation sequence of a
shorter batch.  Watchdog-supervised cells batch too — each run gets its
own :class:`~repro.faults.watchdog.WatchdogController` wrapper, driven
per run by :class:`~repro.kernel.policies.PerRunPolicy`.

:func:`batch_unsupported_reason` is the compatibility gate: tasks that
trace, profile, or carry plant options the batched chip does not model
fall back to the serial/pool path, with the reason recorded by the
engine.  :func:`plan_batches` groups the remaining tasks by everything
that must be uniform inside one stack (controller recipe modulo seed,
config modulo budget, simulation options modulo fault campaign) —
budgets, seeds, workloads, campaigns and epoch counts may differ between
the runs of one batch.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.batch.chip import BatchChip, BatchObservation
from repro.kernel.policies import build_batch_policy
from repro.contracts import (
    check_observation_sane,
    check_power_samples,
    check_time_monotone,
    validation_enabled,
)
from repro.faults.campaign import FaultCampaign
from repro.sim.results import SimulationResult

if TYPE_CHECKING:
    from repro.parallel.engine import CellTask

__all__ = ["batch_unsupported_reason", "plan_batches", "simulate_batch"]

#: ``run_controller`` keyword arguments the batched path understands.
#: Anything else is a new simulator feature the batch backend has not been
#: taught about — fall back rather than silently ignore it.
_KNOWN_KEYS = frozenset(
    {
        "sensors",
        "record_per_core",
        "variation",
        "memory_system",
        "hetero",
        "validate",
        "faults",
        "watchdog",
        "checkpoint_period",
        "max_strikes",
    }
)

#: Plant options the batched chip pins to their defaults (exact sensors,
#: no memory contention).  A task that overrides either needs the serial
#: plant: noisy sensor suites are stateful per-run RNG consumers the
#: vectorized sensor path does not model, and memory contention needs the
#: live phase path.  Variation and hetero maps batch fine — the kernel
#: stacks their multipliers per run.
_DEFAULT_ONLY_KEYS = ("sensors", "memory_system")


def batch_unsupported_reason(task: "CellTask") -> Optional[str]:
    """Why ``task`` cannot join a batch, or ``None`` if it can.

    The reasons are stable strings (``"trace"``, ``"profile"``,
    ``"faults-instance"``, ``"sim_kwargs:<key>"``) recorded in
    ``cell_fallback`` events and engine counters.
    """
    if task.trace:
        return "trace"
    if task.profile:
        return "profile"
    kwargs = dict(task.sim_kwargs)
    for key in kwargs:
        if key not in _KNOWN_KEYS:
            return f"sim_kwargs:{key}"
    faults = kwargs.get("faults")
    if faults is not None and not isinstance(faults, FaultCampaign):
        # A pre-built (possibly stateful, possibly shared) injector
        # instance cannot be safely re-seated on the batched chip.
        return "faults-instance"
    for key in _DEFAULT_ONLY_KEYS:
        if kwargs.get(key) is not None:
            return f"sim_kwargs:{key}"
    return None


def _seedless(factory: Any) -> Any:
    """``factory`` with any bound ``seed`` keyword removed, so controllers
    differing only by RNG stream land in the same batch group."""
    import functools

    if isinstance(factory, functools.partial):
        keywords = {k: v for k, v in (factory.keywords or {}).items() if k != "seed"}
        return functools.partial(factory.func, *factory.args, **keywords)
    return factory


def _option_token(key: str, value: Any) -> Any:
    """A stable-hashable stand-in for one simulation option value.

    :class:`~repro.manycore.hetero.HeterogeneousMap` is a plain class
    (not a dataclass), so :func:`~repro.parallel.cache.stable_hash`
    cannot key it directly; its per-core scale arrays carry its full
    identity, so hash those instead of demoting hetero cells to
    singleton groups.
    """
    from repro.manycore.hetero import HeterogeneousMap

    if isinstance(value, HeterogeneousMap):
        return (
            "hetero-map",
            value.freq_scale,
            value.ceff_scale,
            value.cpi_scale,
            value.leak_scale,
        )
    return value


def _group_signature(task: "CellTask", index: int) -> str:
    """Hash of everything that must be uniform within one batch group.

    Budgets are stripped from the config and ``faults`` from the options:
    those may vary per run inside a stack, as may seeds, workloads, and
    — since the kernel masks finished rows — epoch counts.  Factories
    that cannot be fingerprinted (lambdas, closures) get a per-task
    signature, i.e. a singleton group — still batched, just alone.
    """
    from repro.parallel.cache import (
        CacheKeyError,
        controller_fingerprint,
        stable_hash,
    )

    # ``None`` values mean "the default" for every supported option
    # (sensors, validate, …), so they normalize away: a task passing an
    # explicit ``sensors=None`` stacks with one that omits the key.
    options = {
        k: _option_token(k, v)
        for k, v in dict(task.sim_kwargs).items()
        if k != "faults" and v is not None
    }
    try:
        token = controller_fingerprint(_seedless(task.factory))
        return stable_hash((token, task.cfg.with_budget(1.0), options))
    except CacheKeyError:
        return f"<singleton:{index}>"


def plan_batches(tasks: Sequence["CellTask"], max_batch: int) -> List[List[int]]:
    """Group task indices into batch stacks of at most ``max_batch`` runs.

    Groups form in first-appearance order and each group is chunked
    contiguously, so the plan — and therefore every run's batch
    neighbours — is a deterministic function of the task list.
    """
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    groups: Dict[str, List[int]] = {}
    order: List[str] = []
    for i, task in enumerate(tasks):
        sig = _group_signature(task, i)
        if sig not in groups:
            groups[sig] = []
            order.append(sig)
        groups[sig].append(i)
    plan: List[List[int]] = []
    for sig in order:
        members = groups[sig]
        for start in range(0, len(members), max_batch):
            plan.append(members[start : start + max_batch])
    return plan


def simulate_batch(tasks: Sequence["CellTask"]) -> List[SimulationResult]:
    """Run a batch-compatible task group in one stacked simulation.

    Every task must have passed :func:`batch_unsupported_reason` and the
    group must satisfy the uniformity of :func:`_group_signature` (the
    :class:`BatchChip` re-checks config compatibility).  Epoch counts may
    differ: the stack is padded to the longest run and finished rows are
    masked via the kernel's ``active`` mask, with each result sliced back
    to its own length.  Results come back in task order, each
    indistinguishable from the serial run of the same cell
    (``assert_trace_equal`` holds bit for bit).
    """
    if not tasks:
        return []
    for task in tasks:
        reason = batch_unsupported_reason(task)
        if reason is not None:
            raise ValueError(
                f"task {task.cell.label()} is not batch-compatible: {reason}"
            )
    kwargs0: Mapping[str, Any] = dict(tasks[0].sim_kwargs)
    record_per_core = bool(kwargs0.get("record_per_core", False))
    validate = kwargs0.get("validate", None)
    watchdog = bool(kwargs0.get("watchdog", False))
    checkpoint_period = int(kwargs0.get("checkpoint_period", 0))
    max_strikes = int(kwargs0.get("max_strikes", 3))

    n_epochs_arr = np.array([task.cell.n_epochs for task in tasks], dtype=int)
    max_epochs = int(n_epochs_arr.max())
    ragged = bool((n_epochs_arr != max_epochs).any())

    controllers = [task.factory(task.cfg) for task in tasks]
    campaigns = [dict(task.sim_kwargs).get("faults") for task in tasks]
    variations = [dict(task.sim_kwargs).get("variation") for task in tasks]
    heteros = [dict(task.sim_kwargs).get("hetero") for task in tasks]
    chip = BatchChip(
        [task.cfg for task in tasks],
        [task.workload for task in tasks],
        max_epochs,
        faults=campaigns,
        validate=validate,
        variations=(
            variations if any(v is not None for v in variations) else None
        ),
        heteros=heteros if any(h is not None for h in heteros) else None,
    )
    drivers: List[Any]
    if watchdog:
        # Imported here, not at module level: repro.faults.watchdog
        # depends on the controller interface this package adapts.
        from repro.faults.watchdog import WatchdogController

        # Per-run wrappers, exactly as the serial simulator builds them
        # (crash schedule from each run's own campaign).  Watchdog-wrapped
        # drivers batch via PerRunPolicy: each run's decide is the serial
        # wrapper call on a row view, so crash/restore checkpointing is
        # the serial code path unchanged.
        drivers = []
        for ctrl, injector in zip(controllers, chip.faults):
            crash_epochs = (
                injector.campaign.crash_epochs if injector is not None else ()
            )
            drivers.append(
                WatchdogController(
                    ctrl,
                    max_strikes=max_strikes,
                    crash_epochs=crash_epochs,
                    checkpoint_period=checkpoint_period,
                )
            )
    else:
        drivers = list(controllers)
    policy = build_batch_policy(drivers)
    policy.reset()

    n_runs, n_cores = chip.n_runs, chip.n_cores
    validating = validation_enabled(validate)
    chip_power = np.empty((max_epochs, n_runs))
    chip_instructions = np.empty((max_epochs, n_runs))
    max_temperature = np.empty((max_epochs, n_runs))
    decision_time = np.empty((max_epochs, n_runs))
    core_power = (
        np.empty((max_epochs, n_runs, n_cores)) if record_per_core else None
    )
    core_levels = (
        np.empty((max_epochs, n_runs, n_cores), dtype=int)
        if record_per_core
        else None
    )
    core_instructions = (
        np.empty((max_epochs, n_runs, n_cores)) if record_per_core else None
    )

    obs: Optional[BatchObservation] = None
    last_time_s = float("-inf")
    for e in range(max_epochs):
        active = n_epochs_arr > e if ragged else None
        t0 = time.perf_counter()
        levels = policy.decide(obs, active)
        t1 = time.perf_counter()
        # Per-run decide cost as the policy attributes it (wall clock,
        # excluded from trace_equal like the serial measurement jitter).
        decision_time[e] = policy.decide_seconds(t1 - t0, active)
        if active is not None:
            # Finished rows hold their last level: no transition stall, no
            # actuator command.  np.where (not in-place assignment) because
            # a policy may return an array it also keeps as learner state.
            levels = np.where(active[:, None], levels, chip.levels)
        obs = chip.step(levels, active=active)
        if validating:
            for r in range(n_runs):
                if active is None or active[r]:
                    check_power_samples(obs.power[r], epoch=e)
            check_time_monotone(last_time_s, obs.time, epoch=e)
            for r in range(n_runs):
                if active is None or active[r]:
                    check_observation_sane(
                        obs.sensed_power[r],
                        obs.sensed_instructions[r],
                        obs.sensed_temperature[r],
                        obs.levels[r],
                        chip.cfg.n_levels,
                        epoch=e,
                    )
            last_time_s = obs.time
        # Recording is unmasked — finished rows record dead (but finite)
        # state that the per-run slicing below never reads.
        for r in range(n_runs):
            chip_power[e, r] = obs.chip_power(r)
            chip_instructions[e, r] = obs.chip_instructions(r)
            max_temperature[e, r] = float(np.max(obs.temperature[r]))
        if record_per_core:
            assert core_power is not None
            assert core_levels is not None
            assert core_instructions is not None
            core_power[e] = obs.power
            core_levels[e] = obs.levels
            core_instructions[e] = obs.instructions

    results: List[SimulationResult] = []
    for r, task in enumerate(tasks):
        n_e = int(n_epochs_arr[r])
        extras: dict = {}
        injector = chip.faults[r]
        if injector is not None and injector.campaign.n_events > 0:
            extras["faults"] = {
                "n_events": injector.campaign.n_events,
                **injector.counts,
            }
        driver = drivers[r]
        stats = getattr(driver, "stats", None)
        if stats is not None and getattr(driver, "inner", driver) is not driver:
            extras["watchdog"] = stats
        degradation = policy.degradation_extras(r)
        if degradation is not None:
            extras["degradation"] = degradation
        results.append(
            SimulationResult(
                cfg=task.cfg,
                controller_name=drivers[r].name,
                workload_name=task.workload.name,
                chip_power=chip_power[:n_e, r].copy(),
                chip_instructions=chip_instructions[:n_e, r].copy(),
                max_temperature=max_temperature[:n_e, r].copy(),
                decision_time=decision_time[:n_e, r].copy(),
                core_power=(
                    core_power[:n_e, r].copy() if core_power is not None else None
                ),
                core_levels=(
                    core_levels[:n_e, r].copy()
                    if core_levels is not None
                    else None
                ),
                core_instructions=(
                    core_instructions[:n_e, r].copy()
                    if core_instructions is not None
                    else None
                ),
                extras=extras,
            )
        )
    return results
