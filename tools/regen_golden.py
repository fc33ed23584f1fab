"""Regenerate the golden-trace fixtures under ``tests/golden/``.

The golden suite pins exact controller trajectories: a small, fast grid
(16 cores, 50 epochs, mixed workload, four representative controllers)
whose every deterministic output — power, instructions, temperature,
per-core series, extras — must stay bit-for-bit stable across refactors.
``decision_time`` is wall-clock measurement noise, not simulated
behaviour, so fixtures store it zeroed and the tests exclude it.

Beside that grid, :data:`GOLDEN_VARIANTS` pins one od-rl run per learner
branch the stock run does not take (TD rule, action mode, faults, thermal
limit, big.LITTLE, warm start, watchdog crash), so a refactor of the
learner is checked against frozen data rather than a second copy of it.
Two more pin the live phase lookup where the stock run does not reach:
a shared-memory system that rescales the sampled rows, and a workload of
three short sequences tiled over the chip and run past its phase cycles.
:data:`GOLDEN_BASELINES` pins the model-based baselines the same way:
each one stock, on a big.LITTLE map and under faulted telemetry, so the
serial and the stacked decides of each are checked against one frozen
trajectory.  :data:`GOLDEN_PID_VARIANTS` pins the PI power cap under
faults, non-default gains, sensor noise and a watchdog crash.

Regenerate (only after an *intentional* behaviour change, with the diff
explained in the commit message)::

    python -m tools.regen_golden        # or: make golden

The spec constants below are imported by ``tests/golden/`` so the tests
always rebuild exactly what this tool froze.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.manycore.config import SystemConfig, default_system
from repro.sim.result_io import save_result
from repro.sim.results import SimulationResult
from repro.sim.runner import build_suite_tasks, run_suite, standard_controllers
from repro.sim.simulator import run_controller
from repro.workloads.phases import CorePhaseSequence, Phase, Workload
from repro.workloads.suite import mixed_workload
from repro.workloads.synthetic import bursty_sequence

if TYPE_CHECKING:
    from repro.faults.campaign import FaultCampaign
    from repro.parallel.engine import CellTask

__all__ = [
    "GOLDEN_DIR",
    "GOLDEN_N_CORES",
    "GOLDEN_N_EPOCHS",
    "GOLDEN_SEED",
    "GOLDEN_BUDGET_FRACTION",
    "GOLDEN_CONTROLLERS",
    "GOLDEN_HARVEST_PATH",
    "golden_path",
    "serial_reference",
    "compute_golden_results",
    "compute_golden_harvest_events",
    "GOLDEN_VARIANTS",
    "GOLDEN_THERMAL_LIMIT",
    "variant_path",
    "variant_warm_snapshot",
    "tiled_workload",
    "compute_variant_result",
    "GOLDEN_BASELINES",
    "GOLDEN_BASELINE_VARIANTS",
    "baseline_path",
    "compute_baseline_results",
    "GOLDEN_PID_VARIANTS",
    "pid_path",
    "compute_pid_results",
    "main",
]

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"
GOLDEN_N_CORES = 16
GOLDEN_N_EPOCHS = 50
GOLDEN_SEED = 0
GOLDEN_BUDGET_FRACTION = 0.6
GOLDEN_CONTROLLERS = ("od-rl", "pid", "static-uniform", "centralized-rl")

#: Golden harvest trace: the od-rl learner's run above re-recorded with
#: ``harvest=True``, pinning the transition-event stream the offline
#: pipeline ingests (see ``tests/offline/test_conformance.py``).
GOLDEN_HARVEST_PATH = GOLDEN_DIR / "harvest-od-rl.jsonl"


#: OD-RL variant fixtures: the golden od-rl run with one learner branch
#: switched on each (see :func:`compute_variant_result`).  They pin the
#: branches the stock run never takes: the SARSA and absolute-action
#: rules, a disabled coarse level, the sanitizer under faults (and the raw
#: arm without it), the thermal penalty and DTM reflex, big.LITTLE power
#: bounds, a warm start mid-window, and a watchdog crash/restore.  The
#: last two pin the live phase lookup: ``memory`` runs a contended memory
#: system, which rescales the sampled intensities in place, and ``tiled``
#: runs :func:`tiled_workload`, which wraps its phase cycles.
GOLDEN_VARIANTS = (
    "sarsa",
    "absolute",
    "no-realloc",
    "faults",
    "faults-raw",
    "thermal",
    "hetero",
    "warm",
    "watchdog",
    "memory",
    "tiled",
)
#: combined fault density of the ``faults`` and ``faults-raw`` campaigns,
#: whose blackouts outlast the sanitizer's 5-epoch hold, so its fallback
#: estimate fires too
_FAULT_RATE = 0.2
_BLACKOUT_WINDOW = (6, 7)
#: kelvin; the golden run's hottest core crosses it, so the DTM fires
GOLDEN_THERMAL_LIMIT = 320.0
#: the ``watchdog`` variant's controller crash, and its checkpoint cadence
_CRASH_EPOCH = 30
_CHECKPOINT_PERIOD = 10
#: epochs the ``warm`` variant's snapshot was trained for: not a multiple
#: of the reallocation period, so the snapshot restores a partial window
_WARM_TRAIN_EPOCHS = 23

#: Model-based baseline fixtures: each controller on the golden spec
#: (``stock``), with per-core estimator tables from a big.LITTLE map
#: (``hetero``), and under the ``faults`` variants' random campaign, whose
#: blackouts feed the estimator zeroed telemetry (``faults``).
GOLDEN_BASELINES = ("greedy-ascent", "steepest-drop", "maxbips")
GOLDEN_BASELINE_VARIANTS = ("stock", "hetero", "faults")

#: PI power-cap fixtures beside the stock ``pid`` run: under the
#: ``faults`` campaign (blackouts read zero power), with gains that are
#: not the defaults (``gains``) and with no proportional term (``p-zero``),
#: behind a noisy sensor suite (``noisy``), and under a watchdog whose
#: controller crashes mid run and restarts cold (``watchdog``).
GOLDEN_PID_VARIANTS = ("faults", "gains", "p-zero", "noisy", "watchdog")
#: ``(kp, ki)`` of the ``gains`` and ``p-zero`` variants
_PID_GAINS = {"gains": (0.75, 0.5), "p-zero": (0.0, 1.25)}
#: relative power-meter noise of the ``noisy`` variant's sensor suite
_PID_NOISE = 0.05


def golden_path(controller: str) -> Path:
    """Fixture file for one controller's golden trace."""
    return GOLDEN_DIR / f"{controller}.npz"


def serial_reference(tasks: Sequence["CellTask"]) -> List[SimulationResult]:
    """Each task run alone by :func:`~repro.sim.simulator.run_controller`,
    outside the engine: the serial chip under its serial controller, the
    reference every engine run and every stack must reproduce bit for
    bit."""
    return [
        run_controller(
            task.cfg,
            task.workload,
            task.factory(task.cfg),
            task.cell.n_epochs,
            profile=task.profile,
            **task.sim_kwargs,
        )
        for task in tasks
    ]


def compute_golden_results(
    jobs: Optional[int] = None, cache: object = None, batch: Union[bool, int] = False
) -> Dict[str, SimulationResult]:
    """Run the golden grid and return ``{controller: result}``.

    Results carry per-core series (``record_per_core=True``) and a zeroed
    ``decision_time`` so the return value is a pure function of the spec
    constants — identical bytes on every machine and every run.  With the
    defaults every cell runs through :func:`serial_reference`; passing
    ``jobs``, ``cache`` or ``batch`` runs the grid through the engine
    (``run_suite``, ``jobs`` defaulting to 1), which must reproduce the
    same bytes.
    """
    cfg = default_system(
        n_cores=GOLDEN_N_CORES, budget_fraction=GOLDEN_BUDGET_FRACTION
    )
    workload = mixed_workload(GOLDEN_N_CORES, seed=GOLDEN_SEED)
    lineup = standard_controllers(seed=GOLDEN_SEED)
    chosen = {name: lineup[name] for name in GOLDEN_CONTROLLERS}
    workloads = {workload.name: workload}
    sim_kwargs = {"record_per_core": True}
    if jobs is None and cache is None and not batch:
        _, tasks = build_suite_tasks(
            cfg, workloads, chosen, GOLDEN_N_EPOCHS, sim_kwargs=sim_kwargs
        )
        results = dict(zip(chosen, serial_reference(tasks)))
    else:
        suite = run_suite(
            cfg,
            workloads,
            chosen,
            GOLDEN_N_EPOCHS,
            jobs=jobs or 1,
            cache=cache,
            batch=batch,
            sim_kwargs=sim_kwargs,
        )
        results = {name: suite[name][workload.name] for name in chosen}
    return {name: _zero_decision_time(results[name]) for name in GOLDEN_CONTROLLERS}


def compute_golden_harvest_events() -> List[Dict[str, Any]]:
    """Events of the golden harvest run: od-rl with ``harvest=True``.

    A standalone :class:`~repro.core.controller.ODRLController` seeded
    with ``GOLDEN_SEED`` on the golden workload — the same trajectory the
    od-rl ``.npz`` fixture freezes, plus the per-epoch transition events
    the offline pipeline ingests.  ``decision_time`` on epoch events is
    wall-clock measurement noise and is zeroed, mirroring the zeroed
    ``decision_time`` arrays in the ``.npz`` fixtures.
    """
    from repro.core.controller import ODRLController
    from repro.obs.recorder import BufferRecorder

    cfg = default_system(
        n_cores=GOLDEN_N_CORES, budget_fraction=GOLDEN_BUDGET_FRACTION
    )
    workload = mixed_workload(GOLDEN_N_CORES, seed=GOLDEN_SEED)
    controller = ODRLController(cfg, seed=GOLDEN_SEED)
    rec = BufferRecorder()
    run_controller(
        cfg, workload, controller, GOLDEN_N_EPOCHS, recorder=rec, harvest=True
    )
    events: List[Dict[str, Any]] = []
    for event in rec.events:
        if event.get("type") == "epoch":
            event = dict(event, decision_time=0.0)
        events.append(event)
    return events


def variant_path(variant: str) -> Path:
    """Fixture file for one OD-RL variant's golden trace."""
    return GOLDEN_DIR / f"od-rl-{variant}.npz"


def _golden_setup() -> Tuple[SystemConfig, Workload]:
    cfg = default_system(
        n_cores=GOLDEN_N_CORES, budget_fraction=GOLDEN_BUDGET_FRACTION
    )
    return cfg, mixed_workload(GOLDEN_N_CORES, seed=GOLDEN_SEED)


def variant_warm_snapshot() -> Dict[str, np.ndarray]:
    """The ``warm`` variant's pretrained snapshot: an od-rl learner (seed
    ``GOLDEN_SEED + 1``) checkpointed after ``_WARM_TRAIN_EPOCHS`` epochs
    of the golden workload, mid reallocation window."""
    from repro.core.controller import ODRLController
    from repro.sim.simulator import run_controller

    cfg, workload = _golden_setup()
    trainer = ODRLController(cfg, seed=GOLDEN_SEED + 1)
    run_controller(cfg, workload, trainer, _WARM_TRAIN_EPOCHS)
    return trainer.checkpoint()


def tiled_workload() -> Workload:
    """The ``tiled`` variant's workload: three short-cycle sequences
    round-robin over the golden chip (16 cores).

    Each cycle is at most 16 ms, so the 50-epoch run passes several full
    cycles.  Whole-millisecond phase ends put some epoch start times on a
    cumulative end or an exact multiple of the cycle total; the second
    sequence has a single phase.
    """
    return Workload(
        [
            CorePhaseSequence(
                [Phase(0.004, 0.012, 0.4), Phase(0.003, 0.001, 0.9)]
            ),
            CorePhaseSequence([Phase(0.005, 0.02, 0.3)]),
            bursty_sequence(
                np.random.default_rng(GOLDEN_SEED), n_phases=4, mean_duration=0.002
            ),
        ],
        name="tiled",
    )


def _golden_campaign() -> FaultCampaign:
    """The random fault campaign of the ``faults`` variants."""
    from repro.faults.campaign import FaultCampaign

    return FaultCampaign.random(
        GOLDEN_N_CORES,
        GOLDEN_N_EPOCHS,
        rate=_FAULT_RATE,
        seed=GOLDEN_SEED,
        blackout_window=_BLACKOUT_WINDOW,
    )


def _zero_decision_time(result: SimulationResult) -> SimulationResult:
    return dataclasses.replace(
        result, decision_time=np.zeros_like(result.decision_time)
    )


def compute_variant_result(variant: str) -> SimulationResult:
    """Run one OD-RL variant of :data:`GOLDEN_VARIANTS` serially.

    Per-core series are recorded and ``decision_time`` is zeroed, as in
    :func:`compute_golden_results`.
    """
    from repro.core.controller import ODRLController
    from repro.faults.campaign import ControllerCrash, FaultCampaign
    from repro.manycore.hetero import big_little_map
    from repro.manycore.memory import default_memory_system
    from repro.offline.warmstart import build_warm_controller

    cfg, workload = _golden_setup()
    n = GOLDEN_N_CORES
    run_kwargs: Dict[str, Any] = {}
    controller_kwargs: Dict[str, Any] = {}
    if variant == "sarsa":
        controller_kwargs["td_rule"] = "sarsa"
    elif variant == "absolute":
        controller_kwargs["action_mode"] = "absolute"
    elif variant == "no-realloc":
        controller_kwargs["realloc_period"] = 0
    elif variant in ("faults", "faults-raw"):
        run_kwargs["faults"] = _golden_campaign()
        controller_kwargs["degradation"] = variant == "faults"
    elif variant == "thermal":
        controller_kwargs["thermal_limit"] = GOLDEN_THERMAL_LIMIT
    elif variant == "hetero":
        run_kwargs["hetero"] = controller_kwargs["hetero"] = big_little_map(n)
    elif variant == "watchdog":
        run_kwargs["faults"] = FaultCampaign(
            n_cores=n, crashes=(ControllerCrash(epoch=_CRASH_EPOCH),)
        )
        run_kwargs["watchdog"] = True
        run_kwargs["checkpoint_period"] = _CHECKPOINT_PERIOD
    elif variant == "memory":
        run_kwargs["memory_system"] = default_memory_system(cfg)
    elif variant == "tiled":
        workload = tiled_workload()
    elif variant != "warm":
        raise ValueError(f"unknown od-rl variant {variant!r}")
    if variant == "warm":
        controller = build_warm_controller(
            cfg, variant_warm_snapshot(), seed=GOLDEN_SEED
        )
    else:
        controller = ODRLController(cfg, seed=GOLDEN_SEED, **controller_kwargs)
    result = run_controller(
        cfg,
        workload,
        controller,
        GOLDEN_N_EPOCHS,
        record_per_core=True,
        **run_kwargs,
    )
    return _zero_decision_time(result)


def baseline_path(controller: str, variant: str) -> Path:
    """Fixture file for one model-based baseline's golden trace."""
    return GOLDEN_DIR / f"{controller}-{variant}.npz"


def compute_baseline_results(
    batch: Union[bool, int] = False, jobs: Optional[int] = None
) -> Dict[Tuple[str, str], SimulationResult]:
    """Run every ``(controller, variant)`` baseline cell and return
    ``{(controller, variant): result}``.

    With the defaults every cell runs through :func:`serial_reference`;
    passing ``batch`` or ``jobs`` runs the cells through the engine
    (``jobs`` defaulting to 1).  With batching, the ``stock`` and
    ``faults`` cells of a controller stack (campaigns may differ per
    row), the ``hetero`` cell is a stack of its own.  Per-core series are
    recorded and ``decision_time`` is zeroed, as in
    :func:`compute_golden_results`.
    """
    from repro.baselines import (
        GreedyAscentController,
        MaxBIPSController,
        SteepestDropController,
    )
    from repro.manycore.hetero import big_little_map
    from repro.parallel.cells import RunCell
    from repro.parallel.engine import CellTask, execute_cells

    cfg, workload = _golden_setup()
    classes = {
        "greedy-ascent": GreedyAscentController,
        "steepest-drop": SteepestDropController,
        "maxbips": MaxBIPSController,
    }
    hetero = big_little_map(GOLDEN_N_CORES)
    variant_kwargs: Dict[str, Dict[str, Any]] = {
        "stock": {},
        "hetero": {"hetero": hetero},
        "faults": {"faults": _golden_campaign()},
    }
    keys: List[Tuple[str, str]] = []
    tasks: List[CellTask] = []
    for controller in GOLDEN_BASELINES:
        for variant in GOLDEN_BASELINE_VARIANTS:
            factory = classes[controller]
            if variant == "hetero":
                factory = functools.partial(factory, hetero=hetero)
            cell = RunCell(
                controller=controller,
                workload=workload.name,
                budget=None,
                seed=GOLDEN_SEED,
                n_epochs=GOLDEN_N_EPOCHS,
            )
            sim_kwargs = dict(variant_kwargs[variant], record_per_core=True)
            keys.append((controller, variant))
            tasks.append(CellTask(cell, cfg, workload, factory, sim_kwargs))
    if jobs is None and not batch:
        results = serial_reference(tasks)
    else:
        results = execute_cells(tasks, jobs=jobs or 1, batch=batch)
    return {key: _zero_decision_time(r) for key, r in zip(keys, results)}


def pid_path(variant: str) -> Path:
    """Fixture file for one PI power-cap variant's golden trace."""
    return GOLDEN_DIR / f"pid-{variant}.npz"


def compute_pid_results(
    batch: Union[bool, int] = False, jobs: Optional[int] = None
) -> Dict[str, SimulationResult]:
    """Run every :data:`GOLDEN_PID_VARIANTS` cell and return
    ``{variant: result}``.

    With the defaults every cell runs through :func:`serial_reference`;
    passing ``batch`` or ``jobs`` runs the cells through the engine
    (``jobs`` defaulting to 1).  Per-core series are recorded and
    ``decision_time`` is zeroed, as in :func:`compute_golden_results`.
    """
    from repro.baselines.pid import PIDCappingController
    from repro.faults.campaign import ControllerCrash, FaultCampaign
    from repro.manycore.sensors import SensorSpec, SensorSuite
    from repro.parallel.cells import RunCell
    from repro.parallel.engine import CellTask, execute_cells

    cfg, workload = _golden_setup()
    tasks: List[CellTask] = []
    for variant in GOLDEN_PID_VARIANTS:
        factory: Any = PIDCappingController
        sim_kwargs: Dict[str, Any] = {"record_per_core": True}
        if variant == "faults":
            sim_kwargs["faults"] = _golden_campaign()
        elif variant in _PID_GAINS:
            kp, ki = _PID_GAINS[variant]
            factory = functools.partial(PIDCappingController, kp=kp, ki=ki)
        elif variant == "noisy":
            sim_kwargs["sensors"] = SensorSuite(
                np.random.default_rng(GOLDEN_SEED),
                power_spec=SensorSpec(relative_noise=_PID_NOISE, quantum=0.1),
            )
        elif variant == "watchdog":
            sim_kwargs["faults"] = FaultCampaign(
                n_cores=GOLDEN_N_CORES, crashes=(ControllerCrash(epoch=_CRASH_EPOCH),)
            )
            sim_kwargs["watchdog"] = True
        cell = RunCell(
            controller="pid",
            workload=workload.name,
            budget=None,
            seed=GOLDEN_SEED,
            n_epochs=GOLDEN_N_EPOCHS,
        )
        tasks.append(CellTask(cell, cfg, workload, factory, sim_kwargs))
    if jobs is None and not batch:
        results = serial_reference(tasks)
    else:
        results = execute_cells(tasks, jobs=jobs or 1, batch=batch)
    return {v: _zero_decision_time(r) for v, r in zip(GOLDEN_PID_VARIANTS, results)}


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, result in compute_golden_results().items():
        path = golden_path(name)
        save_result(result, path)
        print(f"wrote {path} ({path.stat().st_size} bytes)")
    for variant in GOLDEN_VARIANTS:
        path = variant_path(variant)
        save_result(compute_variant_result(variant), path)
        print(f"wrote {path} ({path.stat().st_size} bytes)")
    for (controller, variant), result in compute_baseline_results().items():
        path = baseline_path(controller, variant)
        save_result(result, path)
        print(f"wrote {path} ({path.stat().st_size} bytes)")
    for variant, result in compute_pid_results().items():
        path = pid_path(variant)
        save_result(result, path)
        print(f"wrote {path} ({path.stat().st_size} bytes)")
    events = compute_golden_harvest_events()
    GOLDEN_HARVEST_PATH.write_text(
        "".join(json.dumps(e, sort_keys=True) + "\n" for e in events),
        encoding="utf-8",
    )
    print(
        f"wrote {GOLDEN_HARVEST_PATH} "
        f"({GOLDEN_HARVEST_PATH.stat().st_size} bytes, {len(events)} events)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
