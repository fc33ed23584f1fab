"""Experiment runner: controller factories and sweep helpers.

The evaluation compares the same controller set across many workloads,
budgets, and core counts.  This module centralizes the controller lineup
(so every experiment uses identical configurations) and the grid
bookkeeping.  Every grid runs through the :mod:`repro.parallel` engine:
in-process one cell at a time by default, sharded across worker
processes with ``jobs=N``, with content-addressed result caching under
``cache=`` — bit-identical on every deterministic output whatever the
options (see ``docs/parallel.md``).

Controller factories are ``functools.partial`` objects over module-level
builders rather than lambdas: partials pickle into spawned workers and
carry an introspectable construction recipe, which is what the result
cache fingerprints.
"""

from __future__ import annotations

import importlib
from functools import partial
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.manycore.config import SystemConfig
from repro.obs import Recorder
from repro.sim.interface import Controller
from repro.sim.results import SimulationResult
from repro.workloads.phases import Workload

if TYPE_CHECKING:
    from repro.parallel.cells import RunCell
    from repro.parallel.engine import CellTask

__all__ = [
    "ControllerFactory",
    "derive_controller_seeds",
    "standard_controllers",
    "build_suite_tasks",
    "build_sweep_tasks",
    "run_suite",
    "run_budget_sweep",
]

ControllerFactory = Callable[[SystemConfig], Controller]

#: Canonical lineup order and construction recipe: name -> (class path,
#: takes_seed).  Order matters for table output: the contribution first,
#: then the reactive/optimizing baselines, then the static anchors.
_LINEUP: Dict[str, tuple] = {
    "od-rl": ("repro.core.ODRLController", True),
    "pid": ("repro.baselines.PIDCappingController", False),
    "greedy-ascent": ("repro.baselines.GreedyAscentController", False),
    "steepest-drop": ("repro.baselines.SteepestDropController", False),
    "max-swap": ("repro.baselines.MaxSwapController", False),
    "maxbips": ("repro.baselines.MaxBIPSController", False),
    "centralized-rl": ("repro.baselines.CentralizedRLController", True),
    "static-uniform": ("repro.baselines.StaticUniformController", False),
    "uncapped": ("repro.baselines.UncappedController", False),
}


def _construct_controller(
    cls_path: str, cfg: SystemConfig, seed: Optional[int] = None
) -> Controller:
    """Import ``cls_path`` and build it over ``cfg`` (module-level so the
    ``partial`` factories built on it pickle into spawned workers)."""
    module_name, _, cls_name = cls_path.rpartition(".")
    cls = getattr(importlib.import_module(module_name), cls_name)
    controller: Controller = cls(cfg, seed=seed) if seed is not None else cls(cfg)
    return controller


def _construct_warm_controller(
    policy_path: str,
    policy_digest: str,
    cfg: SystemConfig,
    seed: Optional[int] = None,
) -> Controller:
    """Build the ``od-rl-warm`` lineup member from an offline policy file.

    ``policy_digest`` rides in the partial's positional args so the
    result cache fingerprints *which* policy the run used; the builder
    re-verifies it at construction, so a cache hit can never pair stale
    results with an edited policy file.
    """
    from repro.offline.warmstart import build_warm_controller

    return build_warm_controller(
        cfg, policy_path, seed=seed if seed is not None else 0,
        expected_digest=policy_digest,
    )


def _construct_linear_controller(
    policy_path: str, policy_digest: str, cfg: SystemConfig
) -> Controller:
    """Build the ``linear-q`` lineup member from an offline policy file."""
    from repro.offline.warmstart import build_linear_controller

    return build_linear_controller(
        cfg, policy_path, expected_digest=policy_digest
    )


#: offline lineup name -> module-level builder (see standard_controllers)
_OFFLINE_BUILDERS: Dict[str, Callable[..., Controller]] = {
    "od-rl-warm": _construct_warm_controller,
    "linear-q": _construct_linear_controller,
}


def derive_controller_seeds(seed: int, names: Sequence[str]) -> Dict[str, int]:
    """Independent per-controller seeds derived from one lineup seed.

    Each name gets its own :class:`numpy.random.SeedSequence` child (via
    ``spawn``), so two seeded controllers in the same lineup can never
    share an RNG stream — handing the raw ``seed`` to both OD-RL and
    centralized RL would make their exploration draws identical, silently
    correlating the contribution with its own baseline.  The mapping is a
    pure function of ``(seed, position in names)``.
    """
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {
        name: int(child.generate_state(1, np.uint64)[0])
        for name, child in zip(names, children)
    }


def standard_controllers(
    seed: int = 0,
    offline: Optional[Mapping[str, Union[str, Path]]] = None,
) -> Dict[str, ControllerFactory]:
    """The evaluation's controller lineup, as picklable factories over a config.

    Seeded controllers (``od-rl``, ``centralized-rl``) receive distinct
    seeds derived from ``seed`` via :func:`derive_controller_seeds`; the
    deterministic baselines take none.  Every factory is a
    ``functools.partial`` over a module-level builder, so the lineup can be
    shipped to spawned worker processes and fingerprinted by the result
    cache.

    ``offline`` appends offline-pretrained members: a mapping from lineup
    name (``"od-rl-warm"`` or ``"linear-q"``) to a policy ``.npz`` path
    written by :mod:`repro.offline.warmstart`.  The file's content digest
    is baked into the factory, so cached results are keyed to the exact
    policy.  Appending never changes the base lineup's derived seeds
    (seed children are keyed by position, and the offline names come
    last).  In the batched harness an ``od-rl-warm`` controller is a stock
    :class:`~repro.core.controller.ODRLController` with a ``pretrained``
    snapshot, so it stacks into ``BatchODRL``, which restores each row's
    snapshot on reset; ``linear-q`` decides per run through
    ``PerRunPolicy``.
    """
    seeded = [name for name, (_, takes_seed) in _LINEUP.items() if takes_seed]
    offline_names = sorted(offline) if offline else []
    for name in offline_names:
        if name not in _OFFLINE_BUILDERS:
            raise ValueError(
                f"unknown offline controller {name!r}; available: "
                f"{', '.join(sorted(_OFFLINE_BUILDERS))}"
            )
        if name in _LINEUP:
            raise ValueError(f"offline name {name!r} collides with the base lineup")
    seeds = derive_controller_seeds(seed, seeded + ["od-rl-warm"])
    lineup: Dict[str, ControllerFactory] = {}
    for name, (cls_path, takes_seed) in _LINEUP.items():
        if takes_seed:
            lineup[name] = partial(_construct_controller, cls_path, seed=seeds[name])
        else:
            lineup[name] = partial(_construct_controller, cls_path)
    if offline:
        from repro.offline.warmstart import policy_file_digest

        for name in offline_names:
            path = str(offline[name])
            digest = policy_file_digest(path)
            if name == "od-rl-warm":
                lineup[name] = partial(
                    _construct_warm_controller, path, digest,
                    seed=seeds["od-rl-warm"],
                )
            else:
                lineup[name] = partial(_construct_linear_controller, path, digest)
    return lineup


def _factory_seed(factory: ControllerFactory) -> int:
    """The seed a factory will hand its controller, when recoverable (else 0)."""
    keywords = getattr(factory, "keywords", None)
    if keywords:
        seed = keywords.get("seed")
        if isinstance(seed, (int, np.integer)):
            return int(seed)
    return 0


def build_suite_tasks(
    cfg: SystemConfig,
    workloads: Mapping[str, Workload],
    controllers: Mapping[str, ControllerFactory],
    n_epochs: int,
    sim_kwargs: Optional[Mapping[str, Any]] = None,
    trace: bool = False,
    profile: bool = False,
) -> Tuple[List["RunCell"], List["CellTask"]]:
    """The controller × workload grid as engine tasks, in grid order.

    This is the *single* decomposition both :func:`run_suite` and the
    experiment service (:mod:`repro.service`) build their cells from —
    sharing it is what guarantees a service-submitted suite addresses the
    same cache keys and produces bit-identical results to a library call,
    by construction rather than by parallel maintenance of two builders.
    """
    from repro.parallel.cells import RunCell
    from repro.parallel.engine import CellTask

    extra = dict(sim_kwargs or {})
    cells: List[RunCell] = []
    tasks: List[CellTask] = []
    for ctrl_name, factory in controllers.items():
        for wl_name, workload in workloads.items():
            cell = RunCell(
                controller=ctrl_name,
                workload=wl_name,
                budget=None,
                seed=_factory_seed(factory),
                n_epochs=n_epochs,
            )
            cells.append(cell)
            tasks.append(
                CellTask(
                    cell, cfg, workload, factory, extra,
                    trace=trace, profile=profile,
                )
            )
    return cells, tasks


def build_sweep_tasks(
    base_cfg: SystemConfig,
    budgets: Sequence[float],
    workload: Workload,
    controllers: Mapping[str, ControllerFactory],
    n_epochs: int,
    sim_kwargs: Optional[Mapping[str, Any]] = None,
    trace: bool = False,
    profile: bool = False,
) -> Tuple[List["RunCell"], List["CellTask"]]:
    """The controller × budget grid as engine tasks, in grid order (the
    sweep-shaped counterpart of :func:`build_suite_tasks`)."""
    from repro.parallel.cells import RunCell
    from repro.parallel.engine import CellTask

    extra = dict(sim_kwargs or {})
    cells: List[RunCell] = []
    tasks: List[CellTask] = []
    for ctrl_name, factory in controllers.items():
        for budget in budgets:
            cfg = base_cfg.with_budget(budget)
            cell = RunCell(
                controller=ctrl_name,
                workload=workload.name,
                budget=float(budget),
                seed=_factory_seed(factory),
                n_epochs=n_epochs,
            )
            cells.append(cell)
            tasks.append(
                CellTask(
                    cell, cfg, workload, factory, extra,
                    trace=trace, profile=profile,
                )
            )
    return cells, tasks


def run_suite(
    cfg: SystemConfig,
    workloads: Mapping[str, Workload],
    controllers: Mapping[str, ControllerFactory],
    n_epochs: int,
    jobs: int = 1,
    cache: Union[str, Path, Any, None] = None,
    sim_kwargs: Optional[Mapping[str, Any]] = None,
    recorder: Optional[Recorder] = None,
    profile: bool = False,
    batch: Union[bool, int] = False,
    timeout: Optional[float] = None,
    journal: Union[str, Path, Any, None] = None,
) -> Dict[str, Dict[str, SimulationResult]]:
    """Run every controller on every workload.

    The grid goes through :func:`~repro.parallel.engine.execute_cells`
    whatever the options; the defaults run it in-process, one cell at a
    time, and re-raise a failing cell's original exception once the
    other cells have run.

    Parameters
    ----------
    jobs:
        Worker process count.  The default ``1`` runs every cell in the
        calling process; ``jobs > 1`` shards the controller × workload
        grid across spawned workers (factories must then be picklable —
        the standard lineup is).
    cache:
        Optional result cache: a directory path or a
        :class:`repro.parallel.ResultCache`.  Cells whose content-addressed
        key is already cached are loaded instead of re-simulated.
    sim_kwargs:
        Extra keyword arguments forwarded to
        :func:`~repro.sim.simulator.run_controller` for every cell
        (``record_per_core``, ``faults``, ``watchdog`` …), picklable for
        ``jobs > 1``.  The options are values: the epoch kernel copies
        a sensor suite per run, so sharing one between cells gives the
        same results at every ``jobs`` and ``batch`` value, and as a
        direct :func:`~repro.sim.simulator.run_controller` call, and
        never advances it.
    recorder, profile:
        Observability switches (see :mod:`repro.obs`), threaded as
        explicit parameters — never through ``sim_kwargs`` — so they stay
        out of cache keys and worker pickles.  Each cell's events are
        buffered and emitted in task order as cells settle; the engine
        flushes the recorder on the way out, also when a cell raises.
    batch:
        Stack compatible cells (:mod:`repro.batch`) and advance each
        stack with one NumPy epoch step; without it every cell is a
        one-row stack.  ``True`` batches each compatible group whole; an
        integer caps the stack size.  Results are bit-identical to the
        unbatched run; every cell stacks, and a profiled cell's timing is
        its row's share of its stack's.  Composes with ``cache=``
        (batching never changes a cell's cache key) and with ``jobs=``,
        whose workers run the stacks.
    timeout, journal:
        A per-cell soft deadline in seconds (armed for ``jobs > 1``
        only) and a campaign journal path (or
        :class:`~repro.parallel.CampaignJournal`) enabling
        checkpoint/resume, forwarded to
        :func:`~repro.parallel.engine.execute_cells`.  With either set,
        or with ``jobs > 1``, a failing cell raises
        :class:`~repro.parallel.ParallelExecutionError` instead of its
        original exception (see ``docs/parallel.md``).

    Returns
    -------
    dict
        ``results[controller_name][workload_name] -> SimulationResult``.
    """
    if n_epochs <= 0:
        raise ValueError(f"n_epochs must be positive, got {n_epochs}")
    from repro.parallel.cells import merge_suite
    from repro.parallel.engine import execute_cells

    cells, tasks = build_suite_tasks(
        cfg, workloads, controllers, n_epochs, sim_kwargs=sim_kwargs,
        trace=recorder is not None and recorder.enabled, profile=profile,
    )
    flat = execute_cells(
        tasks, jobs=jobs, cache=cache, recorder=recorder, batch=batch,
        timeout=timeout, journal=journal,
    )
    return merge_suite(cells, flat)


def run_budget_sweep(
    base_cfg: SystemConfig,
    budgets: Sequence[float],
    workload: Workload,
    controllers: Mapping[str, ControllerFactory],
    n_epochs: int,
    jobs: int = 1,
    cache: Union[str, Path, Any, None] = None,
    sim_kwargs: Optional[Mapping[str, Any]] = None,
    recorder: Optional[Recorder] = None,
    profile: bool = False,
    batch: Union[bool, int] = False,
    timeout: Optional[float] = None,
    journal: Union[str, Path, Any, None] = None,
) -> Dict[str, Dict[float, SimulationResult]]:
    """Run every controller at each absolute budget (watts) on one workload.

    ``jobs``, ``cache``, ``sim_kwargs``, ``recorder``, ``profile``,
    ``batch``, ``timeout`` and ``journal`` behave as in
    :func:`run_suite` — a budget sweep is the batched backend's best
    case, since one controller's cells at different budgets stack into a
    single tensor simulation.

    Returns
    -------
    dict
        ``results[controller_name][budget] -> SimulationResult``.
    """
    if not budgets:
        raise ValueError("budgets must be non-empty")
    if n_epochs <= 0:
        raise ValueError(f"n_epochs must be positive, got {n_epochs}")
    from repro.parallel.cells import merge_sweep
    from repro.parallel.engine import execute_cells

    cells, tasks = build_sweep_tasks(
        base_cfg, budgets, workload, controllers, n_epochs,
        sim_kwargs=sim_kwargs,
        trace=recorder is not None and recorder.enabled, profile=profile,
    )
    flat = execute_cells(
        tasks, jobs=jobs, cache=cache, recorder=recorder, batch=batch,
        timeout=timeout, journal=journal,
    )
    merged = merge_sweep(cells, flat)
    # Budget keys must be the caller's original float objects/ordering.
    return {
        ctrl: {b: merged[ctrl][float(b)] for b in budgets} for ctrl in controllers
    }
