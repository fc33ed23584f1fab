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

Each heuristic is defined by a heap pass over per-core step tables (power
delta and heap key per level step), which :func:`step_tables` builds as
elementwise array operations.  :func:`sorted_scan` computes that pass's
result for a whole stack of runs without a heap: one stable sort of every
step of every core, then cumulative sums along the sorted steps.  A
directly called controller runs it on one row, a batched decide on the
whole stack (:class:`~repro.kernel.policies.BatchGreedy`), so both run the
same code.  Their weakness versus OD-RL is the model itself — the
activity/leakage inversion drifts with die temperature, so "fits the
budget" in the model can overshoot in reality, every epoch,
systematically.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.baselines.estimator import LevelPredictions, PowerPerfEstimator
from repro.manycore.chip import EpochObservation
from repro.manycore.config import SystemConfig
from repro.manycore.hetero import HeterogeneousMap
from repro.sim.interface import Controller

__all__ = [
    "GreedyAscentController",
    "SteepestDropController",
    "Heuristic",
    "sorted_scan",
    "step_tables",
]


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


def sorted_scan(
    d_power: np.ndarray,
    keys: np.ndarray,
    totals: np.ndarray,
    budgets: np.ndarray,
    top_down: bool,
) -> np.ndarray:
    """Each row's levels after its heap pass, for a stack of step tables
    ``d_power``/``keys`` of shape ``(n_rows, n_cores, n_steps)``, starting
    chip powers ``totals`` and ``budgets`` (both ``(n_rows,)``).

    The heap pass it computes: every core keeps one entry ``(key, core,
    level)`` on a min-heap, its next step.  Greedy ascent
    (``top_down=False``) starts all-bottom, pops steps ``0..n_steps-1``,
    grants each that fits (``total + dp <= budget``, then ``total += dp``
    and the core's next step enters) and drops the core at the first that
    does not.  Steepest drop (``top_down=True``) starts all-top, pops
    steps ``n_steps-1..0`` and takes each (``total -= dp``, the core's
    next step enters) while ``total > budget``.

    **Order lemma.**  A core's next step enters the heap only when its
    previous step pops, so the heap pops the steps in the order of a
    *stable* sort of all ``n_cores * n_steps`` of them, in pass direction,
    by the running maximum of each core's keys: ties fall to the lower
    core, then the earlier step — the heap tuple's ``(key, core, level)``
    tie-break.  (Induction on pops: let the popped steps be a prefix of
    the sorted order and ``s`` the next step in it.  The head of any other
    core has a key equal to its running maximum: otherwise that maximum
    is the key of an earlier, popped step of the core, which sorts before
    ``s``, and so would the head.  ``s``'s key is at most its own running
    maximum, so ``s`` has the smallest ``(key, core)`` on the heap and
    pops next.)  A core that greedy ascent drops pushes no later step,
    and the order of the rest does not depend on it, so the pass is a
    scan of that sorted order.

    * Steepest drop takes a prefix of it: ``np.subtract.accumulate``
      over ``[total, dp...]`` is the sequence of ``total -= dp`` values,
      and the pass stops at the first that is not ``> budget``.
    * Greedy ascent grants every step before the first whose
      ``np.add.accumulate`` total (the same ``total += dp`` additions)
      exceeds the budget; from there on a Python scan grants or drops
      steps and skips the later steps of a dropped core.

    **NaN keys.**  ``argsort`` sorts NaN last and the running maximum
    carries a NaN forward, so from a core's first NaN key on, its steps
    come after every step with a number key, in core-then-step order.
    The heap's order under NaN keys is whatever its comparisons (all
    false) happened to give; results for NaN predictions may differ from
    it, results for number keys are the heap's, bit for bit.
    """
    n_rows, n_cores, n_steps = keys.shape
    size = n_cores * n_steps
    if size == 0:
        return np.zeros((n_rows, n_cores), dtype=int)
    if top_down:
        keys, d_power = keys[..., ::-1], d_power[..., ::-1]
    order = np.argsort(
        np.maximum.accumulate(keys, axis=-1).reshape(n_rows, size),
        axis=1,
        kind="stable",
    )
    # Flat indices into the stack, so a step's core is ``order // n_steps``
    # (``row * n_cores + core``).
    order += np.arange(0, n_rows * size, size)[:, None]
    cores = order // n_steps
    steps = np.empty((n_rows, size + 1))
    steps[:, 0] = totals
    steps[:, 1:] = np.take(d_power, order)
    if top_down:
        # A step pops while the total before it, and before every earlier
        # step, is over the budget.
        running = np.subtract.accumulate(steps[:, :-1], axis=1)
        taken = np.logical_and.accumulate(running > budgets[:, None], axis=1)
    else:
        running = np.add.accumulate(steps, axis=1)
        over = running[:, 1:] > budgets[:, None]
        taken = ~np.logical_or.accumulate(over, axis=1)
        for r in np.flatnonzero(~taken[:, -1]):
            first = int(over[r].argmax())
            tail = _ascent_tail(
                cores[r, first:].tolist(),
                steps[r, first + 1 :].tolist(),
                float(running[r, first]),
                float(budgets[r]),
            )
            taken[r, first:][tail] = True
    moved = np.bincount(cores[taken], minlength=n_rows * n_cores)
    moved = moved.reshape(n_rows, n_cores)
    return n_steps - moved if top_down else moved


def _ascent_tail(
    cores: List[int], d_power: List[float], total: float, budget: float
) -> List[int]:
    """Positions of the steps greedy ascent grants in a tail of the sorted
    order whose first step does not fit, from chip power ``total``."""
    granted = []
    dropped = set()
    for k, (i, dp) in enumerate(zip(cores, d_power)):
        if i in dropped:
            continue
        if total + dp > budget:
            dropped.add(i)
            continue
        total += dp
        granted.append(k)
    return granted


class Heuristic(NamedTuple):
    """A heap heuristic: its key sign and its pass direction (greedy ascent
    from all-bottom, or steepest drop from all-top, see
    :func:`sorted_scan`)."""

    negate: bool
    top_down: bool

    def stack_levels(
        self, power: np.ndarray, ips: np.ndarray, budgets: np.ndarray
    ) -> np.ndarray:
        """Levels of a stack of predictions, ``power`` (watts) and ``ips``
        of shape ``(n_rows, n_cores, n_levels)``, under per-row ``budgets``
        (watts)."""
        d_power, keys = step_tables(power, ips, self.negate)
        # A C-contiguous axis-1 sum: each row's pairwise np.sum.
        start = np.ascontiguousarray(power[..., -1 if self.top_down else 0])
        return sorted_scan(d_power, keys, start.sum(axis=1), budgets, self.top_down)

    def levels(self, pred: LevelPredictions, budget: float) -> np.ndarray:
        """One run's levels from its predictions."""
        budgets = np.array([budget], dtype=float)
        return self.stack_levels(pred.power[None], pred.ips[None], budgets)[0]


GREEDY_ASCENT = Heuristic(negate=True, top_down=False)
STEEPEST_DROP = Heuristic(negate=False, top_down=True)


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
