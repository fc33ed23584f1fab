"""Stacked execution of run-cell groups.

:func:`simulate_batch` stacks a group of independent run cells into one
:class:`~repro.kernel.epoch.EpochKernel` plus one
:class:`~repro.kernel.policies.BatchPolicy` and hands both to
:func:`repro.sim.simulator.run_stack` — the loop and policy choice of
the serial :func:`~repro.sim.simulator.simulate` — which returns one
ordinary :class:`~repro.sim.results.SimulationResult` and, given a
recorder, one serial-identical event trace per cell.  It is how the
engine runs every cell (a lone cell is a one-row stack).  The
conformance suite in ``tests/kernel/`` verifies the results bit for bit.

Runs in one stack may differ in power budget, seed, workload recipe,
fault campaign, and epoch count: a *ragged* group is padded to the
longest run and finished rows are masked out via the kernel's ``active``
row mask, so shorter runs see exactly the operation sequence of a
shorter batch.  Watchdog-supervised cells batch too — each run gets its
own :class:`~repro.faults.watchdog.WatchdogController` wrapper, driven
per run by :class:`~repro.kernel.policies.PerRunPolicy`.

:func:`plan_batches` groups tasks by everything that must be uniform
inside one stack (controller recipe modulo seed, config modulo budget,
simulation options modulo fault campaign, profiling) — budgets, seeds,
workloads, campaigns and epoch counts may differ between the runs of
one batch.  Every cell stacks; if a stack of several cells raises, the
engine re-runs its cells one per stack.
"""

from __future__ import annotations

import inspect
from dataclasses import fields
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.kernel.epoch import EpochKernel
from repro.kernel.policies import build_batch_policy
from repro.obs import PhaseProfiler, Recorder
from repro.sim.results import SimulationResult
from repro.sim.simulator import run_controller, run_stack, supervise

if TYPE_CHECKING:
    from repro.parallel.engine import CellTask

__all__ = ["plan_batches", "simulate_batch"]

#: The :func:`~repro.sim.simulator.run_controller` options a stack
#: understands: its keywords after the run's own arguments, less the
#: observability switches the engine threads outside ``sim_kwargs``.
#: Anything else is an unexpected keyword: :func:`simulate_batch` raises
#: rather than silently ignore it.
_KNOWN_KEYS = frozenset(inspect.signature(run_controller).parameters) - {
    "cfg",
    "workload",
    "controller",
    "n_epochs",
    "recorder",
    "profile",
}


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


def _group_signature(task: "CellTask") -> Optional[str]:
    """Hash of everything that must be uniform within one batch group.

    Budgets are stripped from the config and ``faults`` from the options:
    those may vary per run inside a stack, as may seeds, workloads, and
    — since the kernel masks finished rows — epoch counts.  Profiling is
    part of the signature: one profiler times a whole stack.  ``None``
    for tasks that cannot be fingerprinted (lambda or closure factories,
    sensor suites): the planner gives those a per-task signature, i.e. a
    singleton group — still batched, just alone.
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
        return stable_hash((token, task.cfg.with_budget(1.0), options, task.profile))
    except CacheKeyError:
        return None


def _signature_inputs(task: "CellTask") -> Tuple[Any, ...]:
    """Identity of every input of :func:`_group_signature`, budget aside
    (the profiling flag by value).

    Tasks of one grid share their factory and options objects, and their
    configs are ``with_budget`` copies of one base that share every other
    field object.  Equal identities mean equal inputs, hence an equal
    signature, so the planner hashes once per distinct identity.  (Equal
    *values* are not enough: ``0.0 == -0.0`` but the two hash apart.)
    """
    cfg = task.cfg
    return (
        task.profile,
        id(task.factory),
        id(task.sim_kwargs),
        id(type(cfg)),
        *(id(getattr(cfg, f.name)) for f in fields(cfg) if f.name != "power_budget"),
    )


def plan_batches(tasks: Sequence["CellTask"], max_batch: int) -> List[List[int]]:
    """Group task indices into batch stacks of at most ``max_batch`` runs.

    Groups form in first-appearance order and each group is chunked
    contiguously, so the plan — and therefore every run's batch
    neighbours — is a deterministic function of the task list.
    """
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    # Keyed by object identities, valid while ``tasks`` holds the objects.
    signatures: Dict[Tuple[Any, ...], Optional[str]] = {}
    groups: Dict[str, List[int]] = {}
    for i, task in enumerate(tasks):
        key = _signature_inputs(task)
        if key not in signatures:
            signatures[key] = _group_signature(task)
        sig = signatures[key] or f"<singleton:{i}>"
        groups.setdefault(sig, []).append(i)
    plan: List[List[int]] = []
    for members in groups.values():
        for start in range(0, len(members), max_batch):
            plan.append(members[start : start + max_batch])
    return plan


def simulate_batch(
    tasks: Sequence["CellTask"],
    recorders: Optional[Sequence[Optional[Recorder]]] = None,
) -> List[SimulationResult]:
    """Run a task group in one stacked simulation.

    The group must satisfy the uniformity of :func:`_group_signature`
    (the kernel re-checks config compatibility).  Epoch counts may
    differ: the stack is padded to the longest run and finished rows are
    masked via the kernel's ``active`` mask, with each result sliced back
    to its own length.  The kernel owns each row's plant state (it
    copies sensor suites per row), as a serial cell's does.
    ``recorders`` holds one optional event sink per task, which receives
    that run's trace exactly as the serial run would emit it.  Results
    come back in task order, each indistinguishable from the serial run
    of the same cell (``assert_trace_equal`` holds bit for bit).

    With ``harvest``, the rows decide through their own controllers, whose
    TD updates a traced row emits as ``transition`` events.

    Raises
    ------
    TypeError
        When a task carries a ``sim_kwargs`` key that is not a
        :func:`~repro.sim.simulator.run_controller` option.
    """
    if not tasks:
        return []
    for task in tasks:
        unknown = sorted(set(task.sim_kwargs) - _KNOWN_KEYS)
        if unknown:
            raise TypeError(
                f"task {task.cell.label()}: unexpected simulation options {unknown}"
            )
    options = [task.sim_kwargs for task in tasks]
    kwargs0 = options[0]
    n_epochs = [task.cell.n_epochs for task in tasks]

    drivers = [task.factory(task.cfg) for task in tasks]
    kernel = EpochKernel(
        [task.cfg for task in tasks],
        [task.workload for task in tasks],
        faults=[o.get("faults") for o in options],
        validate=kwargs0.get("validate"),
        sensors=[o.get("sensors") for o in options],
        variations=[o.get("variation") for o in options],
        memory_systems=[o.get("memory_system") for o in options],
        heteros=[o.get("hetero") for o in options],
    )
    if kwargs0.get("watchdog", False):
        # Watchdog drivers decide through PerRunPolicy, so crash/restore
        # checkpointing is the wrapper's own code path.
        drivers = [
            supervise(driver, campaign, checkpoint_period=int(kwargs0.get("checkpoint_period", 0)))
            for driver, campaign in zip(drivers, kernel.campaigns)
        ]
    harvest = bool(kwargs0.get("harvest", False))
    policy = build_batch_policy(drivers, harvest=harvest)
    policy.reset()
    return run_stack(
        kernel,
        policy,
        n_epochs,
        record_per_core=bool(kwargs0.get("record_per_core", False)),
        recorders=recorders,
        profiler=PhaseProfiler() if tasks[0].profile else None,
        harvest=harvest,
    )
