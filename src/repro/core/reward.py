"""Reward shaping for the per-core agents.

The reward makes the paper's objective local: maximize throughput subject
to the core's share of the power budget.  Per core and epoch:

    r = throughput_norm - lambda * overshoot_frac

where ``throughput_norm`` is retired instructions normalized by the most a
core could retire in one epoch (top frequency, zero stalls) and
``overshoot_frac = max(0, (P - allocation) / allocation)`` is the relative
budget violation.

A second, *shared* penalty term handles homogeneous workloads: when every
core is near its individual share simultaneously, per-core compliance no
longer implies chip compliance (there is no statistical multiplexing to
absorb the fluctuations).  The chip-level relative overshoot — one scalar,
broadcast to all agents exactly like the budget shares the global level
already distributes — is subtracted with its own weight, so all agents feel
pressure to back off together when the *chip* is over TDP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

from repro.manycore.config import SystemConfig

__all__ = ["RewardParams", "compute_reward", "max_epoch_instructions", "reward_rows"]


@dataclass(frozen=True)
class RewardParams:
    """Weights of the per-core reward.

    Attributes
    ----------
    overshoot_weight:
        ``lambda`` — relative-overshoot penalty multiplier.  The default of
        1.0 makes a 100 % budget violation as bad as losing all throughput;
        empirically it holds chip-level overshoot at zero in steady state
        (per-core shares multiplex statistically) while keeping ~90 %
        budget utilization.  Larger values buy stricter per-core compliance
        at the cost of utilization — the trade-off ablation E8 sweeps.
    chip_overshoot_weight:
        Weight of the broadcast chip-level relative overshoot, applied to
        every agent identically.  Zero disables the shared term.
    energy_weight:
        ``eta`` — weight of an energy-consciousness term, the fraction of
        the core's budget share it is drawing (``power / allocation``).
        Zero (default) reproduces the paper's objective: maximize
        performance *under* the budget, indifferent to energy below it.
        Positive values buy energy efficiency with throughput — the
        frontier experiment E14 sweeps this knob.
    """

    overshoot_weight: float = 1.0
    chip_overshoot_weight: float = 4.0
    energy_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.overshoot_weight < 0:
            raise ValueError(
                f"overshoot_weight must be >= 0, got {self.overshoot_weight}"
            )
        if self.chip_overshoot_weight < 0:
            raise ValueError(
                f"chip_overshoot_weight must be >= 0, got {self.chip_overshoot_weight}"
            )
        if self.energy_weight < 0:
            raise ValueError(
                f"energy_weight must be >= 0, got {self.energy_weight}"
            )


def max_epoch_instructions(cfg: SystemConfig) -> float:
    """The most instructions one core can retire in one epoch: top frequency,
    base CPI, no stalls.  Used to normalize the throughput reward term."""
    f_top = cfg.vf_levels[-1][0]
    return f_top / cfg.base_cpi * cfg.epoch_time


def compute_reward(
    params: RewardParams,
    instructions: np.ndarray,
    power: np.ndarray,
    allocation: np.ndarray,
    instructions_scale: float,
    chip_budget: float = 0.0,
) -> np.ndarray:
    """Vectorized per-core reward.

    Parameters
    ----------
    params:
        Reward weights.
    instructions:
        Instructions retired this epoch per core.
    power:
        Measured power per core, watts.
    allocation:
        Per-core budget shares, watts (positive).
    instructions_scale:
        Normalizer, typically :func:`max_epoch_instructions`.
    chip_budget:
        Chip power budget in watts for the shared chip-overshoot term;
        ``0`` (or a zero ``chip_overshoot_weight``) disables it.

    Returns
    -------
    numpy.ndarray
        Rewards; at most 1.0, unbounded below as violations grow.
    """
    instructions = np.asarray(instructions, dtype=float)
    power = np.asarray(power, dtype=float)
    allocation = np.asarray(allocation, dtype=float)
    if instructions_scale <= 0:
        raise ValueError(
            f"instructions_scale must be positive, got {instructions_scale}"
        )
    if chip_budget < 0:
        raise ValueError(f"chip_budget must be >= 0, got {chip_budget}")
    if np.any(allocation <= 0):
        raise ValueError("allocation must be positive for all cores")
    chip: Tuple[Any, Any] = (
        (np.sum(power), np.asarray(chip_budget)) if chip_budget > 0 else (None, None)
    )
    return reward_rows(params, instructions, power, allocation, instructions_scale, *chip)


def reward_rows(
    params: RewardParams,
    instructions: np.ndarray,
    power: np.ndarray,
    allocation: np.ndarray,
    instructions_scale: float,
    chip_power: Optional[np.ndarray] = None,
    chip_budget: Optional[np.ndarray] = None,
) -> np.ndarray:
    """:func:`compute_reward` without its argument checks, on
    ``(n_runs, n_agents)`` rows of instructions, power (watts) and
    allocation (watts).

    ``chip_power`` and ``chip_budget`` (watts, positive) hold one value
    per row for the shared chip-overshoot term; ``None`` disables it.
    The stacked OD-RL decide calls this form every epoch on inputs it
    built itself.
    """
    throughput_norm = instructions / instructions_scale
    overshoot = np.maximum(0.0, (power - allocation) / allocation)
    reward = throughput_norm - params.overshoot_weight * overshoot
    if params.energy_weight > 0:
        reward = reward - params.energy_weight * (power / allocation)
    if chip_power is not None and chip_budget is not None and params.chip_overshoot_weight > 0:
        # max(0, x) as where(x > 0, x, 0): NaN maps to 0 either way.
        chip_over = (chip_power - chip_budget) / chip_budget
        chip_over = np.where(chip_over > 0.0, chip_over, 0.0)
        reward = reward - params.chip_overshoot_weight * chip_over[..., None]
    return reward
