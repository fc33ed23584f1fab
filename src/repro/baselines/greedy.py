"""Greedy model-based allocation baselines.

Two classic heuristics from the power-capping literature, both driven by
the on-line model of :class:`~repro.baselines.estimator.PowerPerfEstimator`:

* :class:`GreedyAscentController` — start every core at the bottom level;
  repeatedly grant the single level upgrade with the best predicted
  marginal throughput per watt, while the predicted chip power fits the
  budget.  (The "maximize-then-swap"/marginal-utility family.)
* :class:`SteepestDropController` — start every core at the top; while the
  predicted chip power exceeds the budget, take the single downgrade that
  sheds the most power per unit of predicted throughput lost.  (The
  steepest-drop heuristic of Winter et al.)

Both build each core's step tables (power delta and heap key per level
step) once per epoch as O(n·L) array operations, then run a heap-driven
pass over plain Python floats: O(n·L log n) decision cost.  Their
weakness versus OD-RL is the model itself — the activity/leakage inversion
drifts with die temperature, so "fits the budget" in the model can overshoot
in reality, every epoch, systematically.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

from repro.baselines.estimator import LevelPredictions, PowerPerfEstimator
from repro.manycore.chip import EpochObservation
from repro.manycore.config import SystemConfig
from repro.manycore.hetero import HeterogeneousMap
from repro.sim.interface import Controller

__all__ = ["GreedyAscentController", "SteepestDropController"]


def _step_tables(
    pred: LevelPredictions, negate: bool
) -> Tuple[List[List[float]], List[List[float]]]:
    """Per-core step tables as Python lists: ``d_power[i][k]`` is the power
    of stepping core ``i`` from level ``k`` to ``k + 1``, and ``keys[i][k]``
    is that step's heap key, ``(∓)d_ips / max(d_power, 1e-12)`` — the same
    IEEE operations the per-step scalar code performed."""
    power, ips = pred.power, pred.ips
    d_power = power[:, 1:] - power[:, :-1]
    d_ips = ips[:, 1:] - ips[:, :-1]
    keys = (-d_ips if negate else d_ips) / np.maximum(d_power, 1e-12)
    return d_power.tolist(), keys.tolist()


def _greedy_ascent(pred: LevelPredictions, budget: float) -> np.ndarray:
    """Bottom-up marginal-utility allocation.  Shared by controllers/tests."""
    n, n_levels = pred.power.shape
    levels = [0] * n
    total = float(np.sum(pred.power[:, 0]))
    d_power, keys = _step_tables(pred, negate=True)
    # Best marginal throughput per watt first -> most negative key; each
    # core has exactly one entry on the heap, its next upgrade.
    heap = [(keys[i][0], i, 1) for i in range(n)] if n_levels > 1 else []
    heapq.heapify(heap)
    while heap:
        _, i, lvl = heapq.heappop(heap)
        dp = d_power[i][lvl - 1]
        if total + dp > budget:
            continue  # this upgrade does not fit; others may
        levels[i] = lvl
        total += dp
        if lvl + 1 < n_levels:
            heapq.heappush(heap, (keys[i][lvl], i, lvl + 1))
    return np.array(levels, dtype=int)


def _steepest_drop(pred: LevelPredictions, budget: float) -> np.ndarray:
    """Top-down power shedding.  Shared by controllers/tests."""
    n, n_levels = pred.power.shape
    top = n_levels - 1
    levels = [top] * n
    total = float(np.sum(pred.power[:, -1]))
    d_power, keys = _step_tables(pred, negate=False)
    # Most power shed per throughput lost first -> smallest dips/dp; each
    # core has exactly one entry on the heap, its next downgrade.
    heap = [(keys[i][top - 1], i, top) for i in range(n)] if top > 0 else []
    heapq.heapify(heap)
    while total > budget and heap:
        _, i, lvl = heapq.heappop(heap)
        levels[i] = lvl - 1
        total -= d_power[i][lvl - 1]
        if lvl > 1:
            heapq.heappush(heap, (keys[i][lvl - 2], i, lvl - 1))
    return np.array(levels, dtype=int)


class GreedyAscentController(Controller):
    """Per-epoch bottom-up marginal-utility allocation on model predictions."""

    name = "greedy-ascent"

    def __init__(self, cfg: SystemConfig, hetero: HeterogeneousMap | None = None) -> None:
        super().__init__(cfg)
        self._estimator = PowerPerfEstimator(cfg, hetero=hetero)

    def decide(self, obs: Optional[EpochObservation]) -> np.ndarray:
        if obs is None:
            pred = self._estimator.cold_predictions(self.n_cores)
        else:
            pred = self._estimator.predict(obs)
        return _greedy_ascent(pred, self.cfg.power_budget)


class SteepestDropController(Controller):
    """Per-epoch top-down steepest-drop power shedding on model predictions."""

    name = "steepest-drop"

    def __init__(self, cfg: SystemConfig, hetero: HeterogeneousMap | None = None) -> None:
        super().__init__(cfg)
        self._estimator = PowerPerfEstimator(cfg, hetero=hetero)

    def decide(self, obs: Optional[EpochObservation]) -> np.ndarray:
        if obs is None:
            pred = self._estimator.cold_predictions(self.n_cores)
        else:
            pred = self._estimator.predict(obs)
        return _steepest_drop(pred, self.cfg.power_budget)
