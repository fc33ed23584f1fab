"""Cell decomposition of experiment grids.

A sweep such as :func:`repro.sim.runner.run_suite` is a dense grid —
controller × workload (× budget) × epochs — whose cells are mutually
independent closed-loop runs.  This module gives that grid an explicit,
hashable unit of work, :class:`RunCell`, plus the pure bookkeeping that
merges per-cell results back into the exact nested-dict shapes the
serial runner returns.

Everything here is deliberately free of process machinery (that lives in
:mod:`repro.parallel.engine`), so merging can be tested in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.sim.results import SimulationResult

__all__ = [
    "RunCell",
    "merge_suite",
    "merge_sweep",
]


@dataclass(frozen=True)
class RunCell:
    """One independent simulation run inside a sweep grid.

    Attributes
    ----------
    controller:
        Controller name (the key of the controller mapping given to the
        runner; for the standard lineup, e.g. ``"od-rl"``).
    workload:
        Workload name (the key of the workload mapping, or the single
        workload's own name in a budget sweep).
    budget:
        Absolute power budget override in watts, or ``None`` to run at the
        budget already carried by the sweep's :class:`SystemConfig`
        (suite mode).
    seed:
        The seed the cell's controller was derived from (``0`` when the
        factory carries no recoverable seed).  Recorded so cache keys and
        failure reports identify the RNG stream.
    n_epochs:
        Number of control epochs the cell simulates.
    """

    controller: str
    workload: str
    budget: Optional[float]
    seed: int
    n_epochs: int

    def __post_init__(self) -> None:
        if self.n_epochs <= 0:
            raise ValueError(f"n_epochs must be positive, got {self.n_epochs}")
        if self.budget is not None and self.budget <= 0:
            raise ValueError(f"budget must be positive watts, got {self.budget}")

    def label(self) -> str:
        """Human-readable cell identifier for logs and failure reports."""
        budget = "" if self.budget is None else f"@{self.budget:.3g}W"
        return (
            f"{self.controller}/{self.workload}{budget}"
            f"[seed={self.seed},epochs={self.n_epochs}]"
        )


def merge_suite(
    cells: Sequence[RunCell], results: Sequence[SimulationResult]
) -> Dict[str, Dict[str, SimulationResult]]:
    """Merge per-cell results into ``{controller: {workload: result}}``.

    Insertion order follows the cell order, so cells in controller-major
    order reproduce the serial runner's dict layout exactly.
    """
    if len(cells) != len(results):
        raise ValueError(f"{len(cells)} cells but {len(results)} results")
    merged: Dict[str, Dict[str, SimulationResult]] = {}
    for cell, result in zip(cells, results):
        merged.setdefault(cell.controller, {})[cell.workload] = result
    return merged


def merge_sweep(
    cells: Sequence[RunCell], results: Sequence[SimulationResult]
) -> Dict[str, Dict[float, SimulationResult]]:
    """Merge per-cell results into ``{controller: {budget: result}}``."""
    if len(cells) != len(results):
        raise ValueError(f"{len(cells)} cells but {len(results)} results")
    merged: Dict[str, Dict[float, SimulationResult]] = {}
    for cell, result in zip(cells, results):
        if cell.budget is None:
            raise ValueError(f"sweep cell {cell.label()} has no budget")
        merged.setdefault(cell.controller, {})[cell.budget] = result
    return merged
