"""Job specifications and their planning into engine tasks.

A :class:`JobSpec` is the wire-level description of one submission — a
controller × workload suite or a controller × budget sweep over the
standard lineup.  :func:`plan_job` expands it into the exact
:class:`~repro.parallel.engine.CellTask` list a library call would build,
via the *shared* builders in :mod:`repro.sim.runner`
(:func:`~repro.sim.runner.build_suite_tasks` /
:func:`~repro.sim.runner.build_sweep_tasks`), which is what makes
service-returned results bit-identical to ``run_suite`` /
``run_budget_sweep`` by construction: same cells, same configs, same
factories, same cache keys.

:func:`result_digest` hashes exactly the deterministic fields
:func:`repro.parallel.compare.trace_equal` compares (wall-clock
``decision_time`` values and the ``extras["timing"]`` profile excluded),
so two digests are equal iff the results are trace-equal — a cheap
wire-transportable identity check.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.manycore.config import SystemConfig, default_system
from repro.parallel.cache import stable_hash
from repro.parallel.cells import RunCell, merge_suite, merge_sweep
from repro.parallel.engine import CellTask
from repro.sim.result_io import _jsonable
from repro.sim.results import SimulationResult
from repro.sim.runner import (
    build_suite_tasks,
    build_sweep_tasks,
    standard_controllers,
)
from repro.workloads import benchmark_names, make_benchmark, mixed_workload
from repro.workloads.phases import Workload

__all__ = ["JobSpec", "PlannedJob", "plan_job", "result_digest"]

_KINDS = ("suite", "sweep")


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One submission: which cells to run, as plain wire-safe data.

    ``kind="suite"`` runs every controller on every benchmark at the
    config's default budget; ``kind="sweep"`` runs every controller at
    each absolute budget (watts) on exactly one benchmark.  Benchmarks
    are named: ``"mixed"`` or any :func:`repro.workloads.benchmark_names`
    entry; controllers come from the standard lineup
    (:func:`repro.sim.runner.standard_controllers`).
    """

    kind: str = "suite"
    controllers: Tuple[str, ...] = ("od-rl",)
    benchmarks: Tuple[str, ...] = ("mixed",)
    budgets: Tuple[float, ...] = ()
    n_cores: int = 8
    n_epochs: int = 40
    seed: int = 0
    budget_fraction: float = 0.6

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not self.controllers:
            raise ValueError("controllers must be non-empty")
        if not self.benchmarks:
            raise ValueError("benchmarks must be non-empty")
        if self.n_cores < 1:
            raise ValueError(f"n_cores must be >= 1, got {self.n_cores}")
        if self.n_epochs < 1:
            raise ValueError(f"n_epochs must be >= 1, got {self.n_epochs}")
        if self.kind == "sweep":
            if not self.budgets:
                raise ValueError("a sweep needs at least one budget")
            if len(self.benchmarks) != 1:
                raise ValueError(
                    f"a sweep runs exactly one benchmark, got {len(self.benchmarks)}"
                )
        elif self.budgets:
            raise ValueError("budgets only apply to kind='sweep'")

    def to_dict(self) -> Dict[str, Any]:
        """Wire form (plain JSON-safe types)."""
        return {
            "kind": self.kind,
            "controllers": list(self.controllers),
            "benchmarks": list(self.benchmarks),
            "budgets": [float(b) for b in self.budgets],
            "n_cores": self.n_cores,
            "n_epochs": self.n_epochs,
            "seed": self.seed,
            "budget_fraction": self.budget_fraction,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        """Build from wire form; unknown fields are rejected loudly."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown JobSpec fields: {', '.join(unknown)}")
        fields = dict(data)
        for name in ("controllers", "benchmarks"):
            if name in fields:
                fields[name] = tuple(str(v) for v in fields[name])
        if "budgets" in fields:
            fields["budgets"] = tuple(float(v) for v in fields["budgets"])
        return cls(**fields)

    def cell_count(self) -> int:
        """Cells this spec expands to (without planning it)."""
        per_controller = (
            len(self.budgets) if self.kind == "sweep" else len(self.benchmarks)
        )
        return len(self.controllers) * per_controller


@dataclasses.dataclass
class PlannedJob:
    """A spec expanded into engine tasks (grid order) plus merge metadata.

    Every task's content-addressed
    :attr:`~repro.parallel.engine.CellTask.key` is computed at plan time
    (the standard lineup is always cacheable) — the scheduler dedups on
    it, and the engine's cache probe reads the same cached digest.
    """

    spec: JobSpec
    cfg: SystemConfig
    cells: List[RunCell]
    tasks: List[CellTask]

    def merge(
        self, flat: Sequence[SimulationResult]
    ) -> Dict[str, Dict[Any, SimulationResult]]:
        """Fold task-ordered results back into the nested mapping the
        library entry points return (``controller → benchmark`` for a
        suite, ``controller → budget`` for a sweep)."""
        if self.spec.kind == "sweep":
            merged_sweep = merge_sweep(self.cells, list(flat))
            return {
                ctrl: dict(by_budget) for ctrl, by_budget in merged_sweep.items()
            }
        merged = merge_suite(self.cells, list(flat))
        return {ctrl: dict(by_wl) for ctrl, by_wl in merged.items()}


@functools.lru_cache(maxsize=256)
def _workload(name: str, n_cores: int, seed: int) -> Workload:
    """Build (and memoize) one named workload.

    Workloads are treated as immutable after construction, so sharing one
    object across concurrent jobs is safe — and saves rebuilding the same
    phase sequences for every one of a thousand identical submissions.
    """
    if name == "mixed":
        return mixed_workload(n_cores, seed=seed)
    if name in benchmark_names():
        return make_benchmark(name, n_cores, seed=seed)
    raise ValueError(
        f"unknown benchmark {name!r}; expected 'mixed' or one of: "
        f"{', '.join(benchmark_names())}"
    )


def plan_job(spec: JobSpec) -> PlannedJob:
    """Expand a spec into engine tasks via the shared runner builders.

    Raises ``ValueError`` for unknown controllers or benchmarks — at
    submit time, before anything is queued.
    """
    cfg = default_system(
        n_cores=spec.n_cores, budget_fraction=spec.budget_fraction
    )
    lineup = standard_controllers(seed=spec.seed)
    unknown = [c for c in spec.controllers if c not in lineup]
    if unknown:
        raise ValueError(
            f"unknown controllers: {', '.join(unknown)}; available: "
            f"{', '.join(lineup)}"
        )
    controllers = {name: lineup[name] for name in spec.controllers}
    if spec.kind == "sweep":
        workload = _workload(spec.benchmarks[0], spec.n_cores, spec.seed)
        cells, tasks = build_sweep_tasks(
            cfg, list(spec.budgets), workload, controllers, spec.n_epochs
        )
    else:
        workloads = {}
        for name in spec.benchmarks:
            wl = _workload(name, spec.n_cores, spec.seed)
            workloads[wl.name] = wl
        cells, tasks = build_suite_tasks(
            cfg, workloads, controllers, spec.n_epochs
        )
    for task in tasks:
        task.key  # hash off the event loop; the scheduler reads the cache
    return PlannedJob(spec=spec, cfg=cfg, cells=cells, tasks=tasks)


def _canonical_extras(result: SimulationResult) -> Any:
    """``extras`` minus wall-clock keys, normalised through JSON — the
    same canonicalisation :func:`repro.parallel.compare.trace_equal`
    applies, so in-memory and disk-round-tripped results digest equal."""
    extras = {k: v for k, v in result.extras.items() if k != "timing"}
    return json.loads(json.dumps(extras, sort_keys=True, default=_jsonable))


def result_digest(result: SimulationResult) -> str:
    """Content digest of a result's deterministic fields.

    Two results digest equal iff :func:`~repro.parallel.compare.trace_equal`
    holds: configuration, names, every chip-level and per-core series
    (exact bit patterns), the ``decision_time`` length (values are
    wall-clock), and ``extras`` up to JSON canonicalisation minus
    ``timing``.
    """
    series: List[Any] = []
    for name in (
        "chip_power",
        "chip_instructions",
        "max_temperature",
        "core_power",
        "core_levels",
        "core_instructions",
    ):
        value = getattr(result, name)
        series.append(None if value is None else np.asarray(value))
    return stable_hash(
        (
            "result-digest-v1",
            result.controller_name,
            result.workload_name,
            result.cfg,
            series,
            int(result.decision_time.shape[0]),
            _canonical_extras(result),
        )
    )
