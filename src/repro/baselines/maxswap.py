"""Maximize-then-swap baseline (the Procrustes/ILP-heuristic family).

The algorithm published as an efficient near-optimal alternative to ILP
solvers for power-constrained performance maximization:

1. **Maximize** — greedily upgrade the best marginal-utility levels until
   no further upgrade fits the budget (the greedy-ascent pass).
2. **Swap** — repeatedly look for a *pair* move: downgrade one core to free
   watts that let a different core upgrade for a net predicted-throughput
   gain.  Pure ascent cannot find these because the upgrade alone does not
   fit; the swap phase recovers most of the gap to the ILP optimum.

Each swap round costs O(n log n) (sort the downgrade candidates by power
freed, suffix-minimum of their throughput losses, then one binary search
per upgrade candidate); rounds are capped linearly in n.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.baselines.estimator import LevelPredictions, PowerPerfEstimator
from repro.baselines.greedy import GREEDY_ASCENT
from repro.manycore.chip import EpochObservation
from repro.manycore.config import SystemConfig
from repro.manycore.hetero import HeterogeneousMap
from repro.sim.interface import Controller

__all__ = ["solve_max_swap", "MaxSwapController"]


def _best_swap(
    power: np.ndarray,
    ips: np.ndarray,
    levels: np.ndarray,
    headroom: float,
) -> Optional[Tuple[float, int, int]]:
    """Find the best feasible (downgrade i, upgrade j) pair.

    Returns ``(gain, i, j)`` or ``None`` when no pair improves predicted
    throughput.
    """
    n, n_levels = power.shape
    cores = np.arange(n)
    can_up = levels < n_levels - 1
    can_dn = levels > 0
    if not np.any(can_up) or not np.any(can_dn):
        return None
    up_j = cores[can_up]
    dp_up = power[up_j, levels[up_j] + 1] - power[up_j, levels[up_j]]
    dips_up = ips[up_j, levels[up_j] + 1] - ips[up_j, levels[up_j]]
    dn_i = cores[can_dn]
    dp_dn = power[dn_i, levels[dn_i]] - power[dn_i, levels[dn_i] - 1]
    dips_dn = ips[dn_i, levels[dn_i]] - ips[dn_i, levels[dn_i] - 1]

    # Sort downgrade candidates by the power they free; the suffix minimum
    # of their throughput losses tells us, for any required amount of freed
    # power, the cheapest loss achieving at least that.
    order = np.argsort(dp_dn)
    dp_sorted = dp_dn[order]
    loss_sorted = dips_dn[order]
    m = len(order)
    # Two cheapest-loss downgrade candidates per suffix, so an upgrader
    # whose own downgrade is the cheapest still has an alternative partner.
    suffix_best1 = np.empty(m)
    suffix_arg1 = np.empty(m, dtype=int)
    suffix_best2 = np.empty(m)
    suffix_arg2 = np.empty(m, dtype=int)
    b1, a1, b2, a2 = np.inf, -1, np.inf, -1
    for k in range(m - 1, -1, -1):
        loss = loss_sorted[k]
        if loss < b1:
            b2, a2 = b1, a1
            b1, a1 = loss, k
        elif loss < b2:
            b2, a2 = loss, k
        suffix_best1[k], suffix_arg1[k] = b1, a1
        suffix_best2[k], suffix_arg2[k] = b2, a2

    best_gain = 0.0
    best_pair = None
    for idx, j in enumerate(up_j):
        need = dp_up[idx] - headroom
        k = int(np.searchsorted(dp_sorted, need, side="left"))
        if k >= m:
            continue
        i = dn_i[order[suffix_arg1[k]]]
        loss = suffix_best1[k]
        if i == j:
            if suffix_arg2[k] < 0:
                continue
            i = dn_i[order[suffix_arg2[k]]]
            loss = suffix_best2[k]
        gain = dips_up[idx] - loss
        if gain > best_gain + 1e-12:
            best_gain = gain
            best_pair = (float(gain), int(i), int(j))
    return best_pair


def solve_max_swap(
    pred: LevelPredictions, budget: float, max_rounds: Optional[int] = None
) -> np.ndarray:
    """Maximize-then-swap level assignment under ``budget``.

    Parameters
    ----------
    pred:
        Per-(core, level) power/throughput predictions.
    budget:
        Chip power budget, watts.
    max_rounds:
        Swap-round cap; defaults to ``4 * n_cores``.
    """
    power, ips = pred.power, pred.ips
    n = power.shape[0]
    levels = GREEDY_ASCENT.levels(pred, budget)
    total = float(np.sum(power[np.arange(n), levels]))
    rounds = 0
    cap = 4 * n if max_rounds is None else max_rounds
    while rounds < cap:
        rounds += 1
        pair = _best_swap(power, ips, levels, budget - total)
        if pair is None:
            break
        _, i, j = pair
        total -= power[i, levels[i]] - power[i, levels[i] - 1]
        levels[i] -= 1
        total += power[j, levels[j] + 1] - power[j, levels[j]]
        levels[j] += 1
        # Swaps can open direct-upgrade headroom; re-run the cheap ascent.
        upgraded = _greedy_ascent_from(pred, budget, levels, total)
        levels, total = upgraded
    return levels


def _greedy_ascent_from(
    pred: LevelPredictions,
    budget: float,
    levels: np.ndarray,
    total: float,
) -> Tuple[np.ndarray, float]:
    """Continue greedy ascent from an existing assignment."""
    power, ips = pred.power, pred.ips
    n, n_levels = power.shape
    improved = True
    while improved:
        improved = False
        best_ratio = 0.0
        best_j = -1
        for j in range(n):
            lvl = levels[j]
            if lvl + 1 >= n_levels:
                continue
            dp = power[j, lvl + 1] - power[j, lvl]
            if total + dp > budget:
                continue
            dips = ips[j, lvl + 1] - ips[j, lvl]
            ratio = dips / max(dp, 1e-12)
            if dips > 0 and ratio > best_ratio:
                best_ratio = ratio
                best_j = j
        if best_j >= 0:
            total += power[best_j, levels[best_j] + 1] - power[best_j, levels[best_j]]
            levels[best_j] += 1
            improved = True
    return levels, total


class MaxSwapController(Controller):
    """Per-epoch maximize-then-swap allocation on model predictions."""

    name = "max-swap"

    def __init__(self, cfg: SystemConfig, hetero: HeterogeneousMap | None = None) -> None:
        super().__init__(cfg)
        self._estimator = PowerPerfEstimator(cfg, hetero=hetero)

    def decide(self, obs: Optional[EpochObservation]) -> np.ndarray:
        if obs is None:
            pred = self._estimator.cold_predictions(self.n_cores)
        else:
            pred = self._estimator.predict(obs)
        return solve_max_swap(pred, self.cfg.power_budget)
