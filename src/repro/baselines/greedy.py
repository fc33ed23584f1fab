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

Each heuristic is one heap pass over per-core step tables (power delta
and heap key per level step), which :func:`step_tables` builds as O(n·L)
array operations; the pass itself runs over plain Python floats, O(n·L
log n).  The step tables are elementwise, so a batched decide builds them
for a whole stack of runs in one call and then runs each run's heap pass:
the serial controller and the stack run the same pass
(:class:`~repro.kernel.policies.BatchGreedy`).  Their weakness versus
OD-RL is the model itself — the activity/leakage inversion drifts with die
temperature, so "fits the budget" in the model can overshoot in reality,
every epoch, systematically.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.baselines.estimator import LevelPredictions, PowerPerfEstimator
from repro.manycore.chip import EpochObservation
from repro.manycore.config import SystemConfig
from repro.manycore.hetero import HeterogeneousMap
from repro.sim.interface import Controller

__all__ = ["GreedyAscentController", "SteepestDropController", "Heuristic", "step_tables"]

#: One run's step tables as Python lists, ``[core][step]``.
Steps = List[List[float]]


def step_tables(
    power: np.ndarray, ips: np.ndarray, negate: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Step tables of ``(..., n_cores, n_levels)`` predictions:
    ``d_power[..., i, k]`` is the power of stepping core ``i`` from level
    ``k`` to ``k + 1``, and ``keys[..., i, k]`` is that step's heap key,
    ``(∓)d_ips / max(d_power, 1e-12)`` — the same IEEE operations the
    per-step scalar code performed.  Every operation is elementwise, so
    each row of a stacked call equals a one-run call."""
    d_power = power[..., 1:] - power[..., :-1]
    d_ips = ips[..., 1:] - ips[..., :-1]
    keys = (-d_ips if negate else d_ips) / np.maximum(d_power, 1e-12)
    return d_power, keys


def _ascend(d_power: Steps, keys: Steps, total: float, budget: float) -> List[int]:
    """Bottom-up marginal-utility pass from the all-bottom assignment,
    whose chip power is ``total``."""
    n_steps = len(keys[0])
    levels = [0] * len(keys)
    # Best marginal throughput per watt first -> most negative key; each
    # core has exactly one entry on the heap, its next upgrade.
    heap = [(k[0], i, 1) for i, k in enumerate(keys)] if n_steps else []
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        _, i, lvl = pop(heap)
        dp = d_power[i][lvl - 1]
        if total + dp > budget:
            continue  # this upgrade does not fit; others may
        levels[i] = lvl
        total += dp
        if lvl < n_steps:
            push(heap, (keys[i][lvl], i, lvl + 1))
    return levels


def _drop(d_power: Steps, keys: Steps, total: float, budget: float) -> List[int]:
    """Top-down power-shedding pass from the all-top assignment, whose
    chip power is ``total``."""
    top = len(keys[0])
    levels = [top] * len(keys)
    # Most power shed per throughput lost first -> smallest dips/dp; each
    # core has exactly one entry on the heap, its next downgrade.
    heap = [(k[top - 1], i, top) for i, k in enumerate(keys)] if top else []
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while total > budget and heap:
        _, i, lvl = pop(heap)
        levels[i] = lvl - 1
        total -= d_power[i][lvl - 1]
        if lvl > 1:
            push(heap, (keys[i][lvl - 2], i, lvl - 1))
    return levels


class Heuristic(NamedTuple):
    """A heap heuristic: its key sign, the level column its starting
    assignment takes (``0`` all-bottom, ``-1`` all-top), and its pass
    ``run(d_power, keys, total, budget) -> levels`` over one run's step
    tables."""

    negate: bool
    start: int
    run: Callable[[Steps, Steps, float, float], List[int]]

    def levels(self, pred: LevelPredictions, budget: float) -> np.ndarray:
        """One run's levels from its predictions."""
        d_power, keys = step_tables(pred.power, pred.ips, self.negate)
        total = float(np.sum(pred.power[:, self.start]))
        return np.array(
            self.run(d_power.tolist(), keys.tolist(), total, budget), dtype=int
        )


GREEDY_ASCENT = Heuristic(negate=True, start=0, run=_ascend)
STEEPEST_DROP = Heuristic(negate=False, start=-1, run=_drop)


class GreedyAscentController(Controller):
    """Per-epoch bottom-up marginal-utility allocation on model predictions."""

    name = "greedy-ascent"
    heuristic = GREEDY_ASCENT

    def __init__(self, cfg: SystemConfig, hetero: HeterogeneousMap | None = None) -> None:
        super().__init__(cfg)
        self._estimator = PowerPerfEstimator(cfg, hetero=hetero)

    def decide(self, obs: Optional[EpochObservation]) -> np.ndarray:
        if obs is None:
            pred = self._estimator.cold_predictions(self.n_cores)
        else:
            pred = self._estimator.predict(obs)
        return self.heuristic.levels(pred, self.cfg.power_budget)


class SteepestDropController(Controller):
    """Per-epoch top-down steepest-drop power shedding on model predictions."""

    name = "steepest-drop"
    heuristic = STEEPEST_DROP

    def __init__(self, cfg: SystemConfig, hetero: HeterogeneousMap | None = None) -> None:
        super().__init__(cfg)
        self._estimator = PowerPerfEstimator(cfg, hetero=hetero)

    def decide(self, obs: Optional[EpochObservation]) -> np.ndarray:
        if obs is None:
            pred = self._estimator.cold_predictions(self.n_cores)
        else:
            pred = self._estimator.predict(obs)
        return self.heuristic.levels(pred, self.cfg.power_budget)
