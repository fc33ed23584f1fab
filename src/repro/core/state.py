"""State-space discretization for the per-core RL agents.

The agent's state must be computable from telemetry alone (model-free).
Three observables are available per core per epoch:

* **power slack** — ``(allocated_budget - measured_power) / allocated_budget``,
  how far the core is from its share of the chip budget;
* **IPC** — retired instructions per cycle, a direct proxy for how
  memory-bound the current phase is (low IPC ⇒ stalled on memory ⇒ extra
  frequency is wasted);
* **current VF level** — the action currently in force.

The encoder discretizes these into a single integer state index.  Which of
the three components are included is configurable — that is ablation E8's
state-encoding axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

__all__ = ["StateEncoder", "DEFAULT_SLACK_EDGES", "DEFAULT_IPC_EDGES"]

#: Slack bin edges as fractions of the core's allocated budget.  Negative
#: slack means the core is over its share.  The edges concentrate resolution
#: near zero where control decisions flip.
DEFAULT_SLACK_EDGES: Tuple[float, ...] = (-0.25, -0.05, 0.05, 0.25)

#: IPC bin edges (instructions per cycle).  With base CPI 1.0 the maximum
#: achievable IPC is 1.0; memory-bound phases land well below 0.5.
DEFAULT_IPC_EDGES: Tuple[float, ...] = (0.3, 0.55, 0.8)


@dataclass(frozen=True)
class StateEncoder:
    """Maps per-core telemetry to discrete state indices, vectorized.

    Parameters
    ----------
    n_levels:
        Size of the VF ladder (needed when the level is part of the state).
    slack_edges:
        Ascending bin edges for the power-slack fraction; ``k`` edges make
        ``k + 1`` bins.
    ipc_edges:
        Ascending bin edges for IPC, or ``()`` to drop IPC from the state.
    include_level:
        Whether the current VF level is part of the state.
    """

    n_levels: int
    slack_edges: Tuple[float, ...] = DEFAULT_SLACK_EDGES
    ipc_edges: Tuple[float, ...] = DEFAULT_IPC_EDGES
    include_level: bool = False

    def __post_init__(self) -> None:
        if self.n_levels < 1:
            raise ValueError(f"n_levels must be >= 1, got {self.n_levels}")
        if not self.slack_edges:
            raise ValueError("slack_edges must be non-empty — slack is the core signal")
        if list(self.slack_edges) != sorted(self.slack_edges):
            raise ValueError(f"slack_edges must be ascending, got {self.slack_edges}")
        if self.ipc_edges and list(self.ipc_edges) != sorted(self.ipc_edges):
            raise ValueError(f"ipc_edges must be ascending, got {self.ipc_edges}")

    # The edges as arrays, converted once (encode runs every decide).  Not
    # fields: equality and cache keys see the tuples alone.
    @cached_property
    def _slack_bins(self) -> np.ndarray:
        return np.asarray(self.slack_edges, dtype=float)

    @cached_property
    def _ipc_bins(self) -> np.ndarray:
        return np.asarray(self.ipc_edges, dtype=float)

    @property
    def n_slack_bins(self) -> int:
        return len(self.slack_edges) + 1

    @property
    def n_ipc_bins(self) -> int:
        return len(self.ipc_edges) + 1 if self.ipc_edges else 1

    @property
    def n_states(self) -> int:
        """Total size of the discrete state space."""
        n = self.n_slack_bins * self.n_ipc_bins
        if self.include_level:
            n *= self.n_levels
        return n

    def encode(
        self,
        power: np.ndarray,
        allocation: np.ndarray,
        ipc: np.ndarray,
        levels: np.ndarray,
    ) -> np.ndarray:
        """Vectorized encoding of per-core telemetry to state indices.

        Parameters
        ----------
        power:
            Measured per-core power, watts.
        allocation:
            Per-core power budget shares, watts (must be positive).
        ipc:
            Measured instructions per cycle.
        levels:
            Current VF level indices.

        Returns
        -------
        numpy.ndarray
            Integer state indices in ``[0, n_states)``.
        """
        power = np.asarray(power, dtype=float)
        allocation = np.asarray(allocation, dtype=float)
        ipc = np.asarray(ipc, dtype=float)
        levels = np.asarray(levels)
        if np.any(allocation <= 0):
            raise ValueError("allocation must be positive for all cores")
        slack = (allocation - power) / allocation
        # np.digitize on ascending edges is this searchsorted call, less
        # its per-call edge conversion and monotonicity check.
        idx = np.searchsorted(self._slack_bins, slack, side="right")
        if self.ipc_edges:
            ipc_bin = np.searchsorted(self._ipc_bins, ipc, side="right")
            idx = idx * self.n_ipc_bins + ipc_bin
        if self.include_level:
            lv = np.clip(levels.astype(int), 0, self.n_levels - 1)
            idx = idx * self.n_levels + lv
        return idx.astype(int)

    @classmethod
    def variant(cls, kind: str, n_levels: int) -> "StateEncoder":
        """Named encoder variants used in ablation E8.

        ``"slack"`` — power slack only; ``"slack_ipc"`` — the default
        two-signal encoding; ``"slack_ipc_level"`` — also folds in the
        current VF level.
        """
        if kind == "slack":
            return cls(n_levels=n_levels, ipc_edges=(), include_level=False)
        if kind == "slack_ipc":
            return cls(n_levels=n_levels, include_level=False)
        if kind == "slack_ipc_level":
            return cls(n_levels=n_levels, include_level=True)
        raise ValueError(
            f"unknown encoder variant {kind!r}; expected 'slack', 'slack_ipc', "
            f"or 'slack_ipc_level'"
        )
