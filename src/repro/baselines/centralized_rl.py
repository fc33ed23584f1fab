"""Centralized Q-learning baseline.

A single chip-level RL agent.  The honest joint formulation — one action
per *assignment* of levels to cores — has ``L**n`` actions and is hopeless
beyond a handful of cores; what a practical centralized agent does instead
is collapse the action space to one global level for all cores.  That is
what this baseline implements:

* state: chip power slack bin × mean-IPC bin,
* action: the single VF level applied to every core.

It learns to track the budget about as well as OD-RL's agents do, but it
cannot differentiate cores, so — like the PID baseline — it leaves the
throughput of heterogeneous workloads on the table.  Its per-decision cost
is O(1) in core count, which makes it a useful scalability control in E5
(fast but weak, versus MaxBIPS: strong but slow, versus OD-RL: both).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.agent import QLearningPopulation
from repro.core.reward import RewardParams, compute_reward, max_epoch_instructions
from repro.core.state import StateEncoder
from repro.manycore.chip import EpochObservation
from repro.manycore.config import SystemConfig
from repro.sim.interface import Controller

__all__ = ["CentralizedRLController"]


class CentralizedRLController(Controller):
    """One tabular Q-learning agent choosing a single global VF level.

    Parameters
    ----------
    cfg:
        System under control.
    gamma, seed:
        Q-learning discount and RNG seed, as for OD-RL.
    """

    name = "centralized-rl"

    def __init__(self, cfg: SystemConfig, gamma: float = 0.5, seed: int = 0) -> None:
        super().__init__(cfg)
        self.encoder = StateEncoder.variant("slack_ipc", cfg.n_levels)
        self.reward_params = RewardParams()
        self.agent = QLearningPopulation(
            n_agents=1,
            n_states=self.encoder.n_states,
            n_actions=cfg.n_levels,
            gamma=gamma,
            rng=[np.random.default_rng(seed)],
        )
        self._freqs = np.array([f for f, _ in cfg.vf_levels])
        self._instr_scale = max_epoch_instructions(cfg) * cfg.n_cores
        self.reset()

    def reset(self) -> None:
        self.agent.reset()
        self._prev_state: Optional[np.ndarray] = None
        self._prev_action: Optional[np.ndarray] = None

    def decide(self, obs: Optional[EpochObservation]) -> np.ndarray:
        if obs is None:
            start = self.n_levels // 2
            self._prev_action = np.array([[start]])
            return self._full(start)

        chip_power = float(np.sum(obs.sensed_power))
        chip_instr = float(np.sum(obs.sensed_instructions))
        freq = self._freqs[obs.levels]
        cycles = float(np.sum(freq)) * self.cfg.epoch_time
        mean_ipc = chip_instr / max(cycles, 1.0)

        state = self.encoder.encode(
            np.array([[chip_power]]),
            np.array([[self.cfg.power_budget]]),
            np.array([[mean_ipc]]),
            np.array([[int(obs.levels[0])]]),
        )
        reward = compute_reward(
            self.reward_params,
            np.array([[chip_instr]]),
            np.array([[chip_power]]),
            np.array([[self.cfg.power_budget]]),
            self._instr_scale,
        )
        if self._prev_state is not None and self._prev_action is not None:
            self.agent.update(self._prev_state, self._prev_action, reward, state)
        action = self.agent.act(state)
        self._prev_state = state
        self._prev_action = action
        return self._full(int(action[0, 0]))
