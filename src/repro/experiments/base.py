"""Common experiment plumbing.

Every reconstructed experiment (E1–E8, see DESIGN.md) returns an
:class:`ExperimentResult`: a machine-readable ``data`` payload for tests
plus a rendered ``report`` string with the same rows/series the paper's
table or figure presents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.obs import Recorder

__all__ = ["ExperimentResult", "GridOptions"]


@dataclass(frozen=True)
class GridOptions:
    """How an experiment executes its simulation grid.

    Threaded from the CLI's ``--jobs`` / ``--cache`` / ``--trace`` /
    ``--profile`` flags into every experiment that sweeps a grid through
    :func:`repro.sim.runner.run_suite` / ``run_budget_sweep``.  The
    default (``jobs=1``, no cache, no observability) runs every cell in
    the calling process, one at a time, and a failing cell re-raises its
    original exception once the rest of the grid has run.

    Attributes
    ----------
    jobs:
        Worker process count for grid cells (``1`` = in-process).
    cache:
        Result-cache directory (or a
        :class:`repro.parallel.ResultCache`); ``None`` disables caching.
    recorder:
        Optional :class:`repro.obs.Recorder` receiving the run's typed
        event stream (the CLI passes a ``JsonlRecorder`` for ``--trace``).
    profile:
        Collect the per-epoch phase timing breakdown into
        ``result.extras["timing"]`` (wall clock only; never affects the
        simulated trajectories).
    batch:
        Stack compatible grid cells into shared kernel stacks (CLI
        ``--batch``), run in the calling process or, with ``jobs > 1``,
        in the workers: ``False`` runs each cell as a one-row stack,
        ``True`` stacks each compatible group whole, an integer caps the
        stack size.  Bit-identical either way.
    journal:
        Campaign journal path (CLI ``--journal``): checkpoints every
        completed grid cell so a killed campaign resumes where it left
        off, recomputing only the missing cells.  ``None`` disables.
    timeout:
        Per-cell soft deadline in seconds (CLI ``--timeout``): a cell
        still running past it is cancelled, charged an attempt, and
        retried within the attempt budget.  Armed for ``jobs > 1`` only
        (a cell running in-process cannot be preempted); ``None``
        disables the watchdog.  The clock includes worker spawn/import
        time, so keep it comfortably above pool spin-up (~seconds).
    """

    jobs: int = 1
    cache: Optional[Union[str, Path, Any]] = None
    recorder: Optional[Recorder] = None
    profile: bool = False
    batch: Union[bool, int] = False
    journal: Optional[Union[str, Path, Any]] = None
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.batch is not True and self.batch is not False and int(self.batch) < 1:
            raise ValueError(
                f"batch must be a bool or a positive int, got {self.batch}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")

    def runner_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for ``run_suite`` / ``run_budget_sweep``."""
        return {
            "jobs": self.jobs,
            "cache": self.cache,
            "recorder": self.recorder,
            "profile": self.profile,
            "batch": self.batch,
            "journal": self.journal,
            "timeout": self.timeout,
        }


@dataclass
class ExperimentResult:
    """Output of one experiment run.

    Attributes
    ----------
    experiment_id:
        "E1" … "E8".
    title:
        Human-readable description of the reconstructed table/figure.
    report:
        Rendered plain-text table(s)/series — what the bench harness
        prints.
    data:
        Structured values for programmatic checks (tests assert the
        paper-shape claims on these, e.g. "OD-RL's overshoot is the
        smallest column").
    """

    experiment_id: str
    title: str
    report: str
    data: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"[{self.experiment_id}] {self.title}\n{self.report}"
