"""Per-epoch phase timing and its aggregation.

The control loop is split into named phases (:data:`PHASES`):

``decide``
    The controller's ``decide`` call — the quantity behind the paper's
    scalability claim C3.  The profiler reuses the same ``perf_counter``
    pair the simulator already takes for ``decision_time``, so profiling
    adds no measurement overhead to the number the paper reports.
``plant``
    The chip step: power/performance evaluation plus thermal integration.
``sensor``
    Telemetry assembly inside the chip step (subset of ``plant``).
``contracts``
    Runtime invariant checks in the simulate loop.
``sanitizer``
    Telemetry sanitization inside ``decide`` (subset of ``decide``).
``watchdog``
    Watchdog wrapper overhead around the inner controller (subset of
    ``decide``).

A :class:`PhaseProfiler` accumulates one duration row per epoch; the
final :class:`TimingBreakdown` carries totals, per-epoch means, and the
epoch count, and serializes to a plain dict for ``result.extras`` and the
``run_end`` trace event.  All numbers are wall-clock seconds and live
only in extras/traces — never in the deterministic simulation series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

__all__ = ["PHASES", "PhaseProfiler", "TimingBreakdown"]

#: Phase names in canonical display order.
PHASES: Tuple[str, ...] = (
    "decide",
    "plant",
    "sensor",
    "contracts",
    "sanitizer",
    "watchdog",
)

#: Phases measured inside another phase; their exclusive parent time is
#: reported as ``parent - sum(children)`` by the summary renderer.
NESTED_IN: Dict[str, str] = {
    "sensor": "plant",
    "sanitizer": "decide",
    "watchdog": "decide",
}


@dataclass
class TimingBreakdown:
    """Aggregated wall-clock split of a run's control loop.

    Attributes
    ----------
    totals:
        Cumulative seconds per phase over the run.
    n_epochs:
        Number of epochs aggregated.
    """

    totals: Dict[str, float]
    n_epochs: int

    def mean(self, phase: str) -> float:
        """Mean seconds per epoch for ``phase`` (0 when no epochs ran)."""
        if self.n_epochs == 0:
            return 0.0
        return self.totals.get(phase, 0.0) / self.n_epochs

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable form stored under ``extras['timing']``."""
        return {
            "n_epochs": self.n_epochs,
            "totals": {p: self.totals.get(p, 0.0) for p in PHASES},
            "means": {p: self.mean(p) for p in PHASES},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TimingBreakdown":
        totals = data.get("totals")
        n_epochs = data.get("n_epochs")
        if not isinstance(totals, Mapping) or not isinstance(n_epochs, int):
            raise ValueError("not a serialized TimingBreakdown")
        return cls(
            totals={str(k): float(v) for k, v in totals.items()},  # type: ignore[arg-type]
            n_epochs=n_epochs,
        )


@dataclass
class PhaseProfiler:
    """Accumulates per-phase durations epoch by epoch.

    The simulate loop (and, via duck-typed attributes, the chip and the
    controller wrappers) call :meth:`add` with measured durations, then
    :meth:`end_epoch` once per control epoch.  ``add`` accepts repeated
    calls for the same phase within an epoch and sums them — the thermal
    substep structure makes that the natural contract.

    The profiler is observability state only: it must never feed values
    back into the simulation, so everything it stores is write-only until
    :meth:`breakdown`.
    """

    _totals: Dict[str, float] = field(default_factory=dict)
    _epoch_row: Dict[str, float] = field(default_factory=dict)
    _n_epochs: int = 0

    def add(self, phase: str, seconds: float) -> None:
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}; known: {PHASES}")
        self._epoch_row[phase] = self._epoch_row.get(phase, 0.0) + float(seconds)

    def end_epoch(self) -> Dict[str, float]:
        """Close the current epoch; returns its phase->seconds row."""
        row = self._epoch_row
        for phase, seconds in row.items():
            self._totals[phase] = self._totals.get(phase, 0.0) + seconds
        self._epoch_row = {}
        self._n_epochs += 1
        return row

    def end_share(
        self, stack_row: Mapping[str, float], decide: float, n_rows: int
    ) -> Dict[str, float]:
        """Close an epoch holding one row's share of a stack's epoch.

        ``stack_row`` is the epoch of a whole stack of ``n_rows`` live
        runs.  The row keeps its own ``decide`` seconds (its
        ``decision_time``) and an equal share of every other phase, so
        the rows of an epoch sum to the stack's epoch and a one-row stack
        keeps its row unchanged.
        """
        for phase, seconds in stack_row.items():
            self.add(phase, decide if phase == "decide" else seconds / n_rows)
        return self.end_epoch()

    @property
    def n_epochs(self) -> int:
        return self._n_epochs

    def breakdown(self) -> TimingBreakdown:
        """Aggregate everything recorded so far."""
        return TimingBreakdown(totals=dict(self._totals), n_epochs=self._n_epochs)
