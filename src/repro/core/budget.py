"""Global power-budget reallocation — the coarse-grained level of OD-RL.

Periodically the chip budget is re-divided among cores so that watts flow
to the cores that convert them into the most throughput.  Each core gets a
*score*: its measured marginal usefulness of power (in this implementation,
windowed IPC — compute-bound cores, whose throughput scales with frequency,
score high; memory-bound cores score low).  The allocation is then a
floor-and-cap proportional share:

    b_i = floor_i + (B - sum(floors)) * score_i / sum(scores)

subject to ``b_i <= cap_i`` (a core can never use more than its top-level
power draw, so allocating beyond it is waste).  Cores that hit their cap
return the excess to the pool, which is re-shared among the rest — a
water-filling loop that terminates in at most ``n`` rounds and runs in
O(n) per round with numpy.  This near-linear cost is the paper's
scalability argument: the global step is trivial next to the per-core RL,
and both are far below the combinatorial search baselines.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.contracts import check_budget_conservation, validation_enabled

__all__ = ["reallocate_budget", "reallocate_budgets", "uniform_allocation"]

_MAX_ROUNDS_SAFETY = 10_000


def uniform_allocation(total_budget: float, n_cores: int) -> np.ndarray:
    """The starting allocation: every core gets an equal share."""
    if total_budget <= 0:
        raise ValueError(f"total_budget must be positive, got {total_budget}")
    if n_cores <= 0:
        raise ValueError(f"n_cores must be positive, got {n_cores}")
    return np.full(n_cores, total_budget / n_cores)


def reallocate_budget(
    total_budget: float,
    scores: np.ndarray,
    floors: np.ndarray,
    caps: np.ndarray,
    validate: Optional[bool] = None,
) -> np.ndarray:
    """Divide ``total_budget`` across cores by score, respecting bounds.

    Parameters
    ----------
    total_budget:
        Chip power budget in watts.
    scores:
        Non-negative per-core usefulness scores; all-zero scores degrade to
        a uniform split of the distributable budget.
    floors:
        Minimum watts each core must receive (at least its unavoidable
        power at the bottom VF level — an allocation below that is
        unactionable).
    caps:
        Maximum useful watts per core (its top-VF draw).  ``caps >= floors``
        required.
    validate:
        Arm the watt-conservation contract on the result (see
        :mod:`repro.contracts`); ``None`` defers to ``REPRO_VALIDATE``.

    Returns
    -------
    numpy.ndarray
        Allocation summing to ``min(total_budget, sum(caps))``, with
        ``floors <= allocation <= caps`` elementwise.

    Raises
    ------
    ValueError
        If the budget cannot cover the floors (infeasible: even all cores
        at the bottom VF level would exceed TDP).
    """
    scores = np.asarray(scores, dtype=float)
    floors = np.asarray(floors, dtype=float)
    caps = np.asarray(caps, dtype=float)
    n = scores.shape[0]
    if floors.shape != (n,) or caps.shape != (n,):
        raise ValueError("scores, floors and caps must have identical shapes")
    if np.any(scores < 0):
        raise ValueError("scores must be non-negative")
    # Scores are relative weights.  Normalize by the maximum so subnormal or
    # astronomically large inputs cannot lose precision in the proportional
    # division below.
    score_max = float(np.max(scores)) if n else 0.0
    if score_max > 0:
        scores = scores / score_max
    if np.any(floors < 0) or np.any(caps < floors):
        raise ValueError("need 0 <= floors <= caps elementwise")
    floor_total = float(np.sum(floors))
    if total_budget < floor_total - 1e-9:
        raise ValueError(
            f"budget {total_budget:.3f} W cannot cover allocation floors "
            f"totalling {floor_total:.3f} W — the TDP is infeasible for this chip"
        )

    allocation = floors.copy()
    remaining = min(total_budget, float(np.sum(caps))) - floor_total
    headroom = caps - allocation
    active = headroom > 1e-12
    rounds = 0
    while remaining > 1e-12 and np.any(active):
        rounds += 1
        if rounds > _MAX_ROUNDS_SAFETY:  # pragma: no cover - defensive
            raise RuntimeError("water-filling failed to converge")
        weights = np.where(active, scores, 0.0)
        total_weight = float(np.sum(weights))
        if total_weight <= 0:
            # No informative scores among active cores: share uniformly.
            weights = active.astype(float)
            total_weight = float(np.sum(weights))
        # Normalize before scaling: `remaining * weights` first would
        # underflow subnormal weights to zero and strand their share.
        grant = remaining * (weights / total_weight)
        overflow_mask = grant >= headroom
        grant = np.minimum(grant, headroom)
        allocation += grant
        remaining -= float(np.sum(grant))
        headroom = caps - allocation
        # Cores that hit the cap leave the pool; if none did, the grant was
        # fully absorbed and we are done.
        if not np.any(overflow_mask & active):
            break
        active = headroom > 1e-12
    if validation_enabled(validate):
        check_budget_conservation(
            allocation,
            min(total_budget, float(np.sum(caps))),
            floors_w=floors,
            caps_w=caps,
        )
    return allocation


def reallocate_budgets(
    total_budgets: np.ndarray,
    scores: np.ndarray,
    floors: np.ndarray,
    caps: np.ndarray,
    validate: Optional[bool] = None,
) -> np.ndarray:
    """:func:`reallocate_budget` for a stack of runs sharing floors and caps.

    Row ``r`` of the result is ``reallocate_budget(total_budgets[r],
    scores[r], floors, caps)`` bit for bit: every water-filling round is
    the serial elementwise arithmetic on the rows still filling, the
    per-row sums are ``axis=1`` reductions of C-contiguous stacks (the
    serial pairwise order), and each row leaves the loop on exactly the
    round its serial run would.

    Parameters
    ----------
    total_budgets:
        ``(n_runs,)`` chip budgets in watts.
    scores:
        ``(n_runs, n_cores)`` non-negative usefulness scores.
    floors, caps:
        ``(n_cores,)`` bounds shared by every run.
    validate:
        Arm the watt-conservation contract on every row.
    """
    totals = np.asarray(total_budgets, dtype=float)
    scores = np.array(scores, dtype=float)
    floors = np.asarray(floors, dtype=float)
    caps = np.asarray(caps, dtype=float)
    n_runs, n = scores.shape
    if totals.shape != (n_runs,):
        raise ValueError("total_budgets needs one budget per row of scores")
    if floors.shape != (n,) or caps.shape != (n,):
        raise ValueError("scores rows, floors and caps must have identical shapes")
    if n_runs == 1:
        # One row: the serial loop's scalar bookkeeping costs less than
        # the stack's per-round gathers, and the row is the same bits.
        return reallocate_budget(float(totals[0]), scores[0], floors, caps, validate)[None]
    if np.any(scores < 0):
        raise ValueError("scores must be non-negative")
    if n:
        score_max = scores.max(axis=1)
        norm = score_max > 0
        scores[norm] = scores[norm] / score_max[norm, None]
    if np.any(floors < 0) or np.any(caps < floors):
        raise ValueError("need 0 <= floors <= caps elementwise")
    floor_total = float(np.sum(floors))
    short = totals < floor_total - 1e-9
    if short.any():
        raise ValueError(
            f"budget {totals[short][0]:.3f} W cannot cover allocation floors "
            f"totalling {floor_total:.3f} W — the TDP is infeasible for this chip"
        )

    cap_total = float(np.sum(caps))
    granted = np.where(cap_total < totals, cap_total, totals)
    allocation = np.tile(floors, (n_runs, 1))
    remaining = granted - floor_total
    headroom = caps - allocation
    active = headroom > 1e-12
    filling = np.flatnonzero((remaining > 1e-12) & active.any(axis=1))
    rounds = 0
    while filling.size:
        rounds += 1
        if rounds > _MAX_ROUNDS_SAFETY:  # pragma: no cover - defensive
            raise RuntimeError("water-filling failed to converge")
        live = active[filling]
        weights = np.where(live, scores[filling], 0.0)
        total_weight = weights.sum(axis=1)
        flat = total_weight <= 0
        if flat.any():
            # No informative scores among active cores: share uniformly.
            weights[flat] = live[flat].astype(float)
            total_weight[flat] = weights[flat].sum(axis=1)
        grant = remaining[filling, None] * (weights / total_weight[:, None])
        room = headroom[filling]
        overflow = grant >= room
        grant = np.minimum(grant, room)
        allocation[filling] += grant
        remaining[filling] -= grant.sum(axis=1)
        room = caps - allocation[filling]
        headroom[filling] = room
        live_after = room > 1e-12
        active[filling] = live_after
        # A row whose grant was fully absorbed (no active core hit its
        # cap) is done, as is one with nothing left to give.
        more = (
            (overflow & live).any(axis=1)
            & (remaining[filling] > 1e-12)
            & live_after.any(axis=1)
        )
        filling = filling[more]
    if validation_enabled(validate):
        for row, total in zip(allocation, granted.tolist()):
            check_budget_conservation(row, total, floors_w=floors, caps_w=caps)
    return allocation
