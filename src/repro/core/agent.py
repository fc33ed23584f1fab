"""Tabular Q-learning, vectorized over a population of independent agents.

The paper runs one agent per core, each with its own Q-table over shared
state/action spaces.  This population is the per-agent reference learner
(centralized-rl runs it); OD-RL runs the same act/update rules on stacks
of runs in :class:`repro.kernel.policies.BatchODRL`.

Two temporal-difference rules are supported:

* ``"q"`` (default) — off-policy Q-learning:
  ``Q[s, a] += alpha * (r + gamma * max_a' Q[s', a'] - Q[s, a])``
* ``"sarsa"`` — on-policy SARSA, which bootstraps from the action actually
  taken next: ``Q[s, a] += alpha * (r + gamma * Q[s', a'] - Q[s, a])``.
  SARSA learns the value of the *exploring* policy, making it slightly
  more conservative near penalty cliffs (a core whose exploratory action
  can overshoot values the risky state lower) — the classic cliff-walking
  distinction, measurable here as compliance during the learning
  transient.

Per-(agent, state, action) visit counts are available so a Robbins–Monro
step size can be used.  Action selection is epsilon-greedy with ties broken
uniformly at random (important early on when the table is all zeros —
deterministic argmax would freeze every agent on action 0).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.contracts import check_q_table, validation_enabled
from repro.core.schedules import ExponentialDecay, HarmonicDecay, Schedule

__all__ = ["QLearningPopulation", "default_epsilon_schedule", "default_alpha_schedule"]


def default_epsilon_schedule() -> Schedule:
    """Exploration: 40 % initially, decaying to a 5 % residual."""
    return ExponentialDecay(start=0.4, floor=0.05, decay=0.998)


def default_alpha_schedule() -> Schedule:
    """Per-cell step size: near 1 on first visits to a (state, action) cell,
    decaying harmonically with that cell's visit count to a plasticity
    floor.  Evaluated on *visit counts*, not global time, so rarely-tried
    actions still learn fast whenever they are tried."""
    return HarmonicDecay(start=0.9, half_life=10.0, floor=0.05)


class QLearningPopulation:
    """``n_agents`` independent tabular Q-learners updated in lockstep.

    Parameters
    ----------
    n_agents, n_states, n_actions:
        Table dimensions.
    gamma:
        Discount factor.  DVFS control is nearly myopic (the epoch reward
        almost fully reflects the action) so the default is modest.
    epsilon:
        Exploration schedule, evaluated on the global update step counter.
    alpha:
        Step-size schedule, evaluated per (agent, state, action) cell on
        that cell's visit count — rarely-visited cells keep a large step
        size and learn from few samples.
    rng:
        Random generator for exploration.  Required: every population owns
        an explicit, seed-attributable stream (``ValueError`` otherwise).
    optimistic_init:
        Initial Q value.  Setting it at or above the maximum attainable
        reward makes untried actions look attractive, so every action in a
        visited state gets tried systematically ("optimism in the face of
        uncertainty") — the crucial ingredient once epsilon has decayed.
    validate:
        Arm the finite-Q-table contract after every TD update (see
        :mod:`repro.contracts`); ``None`` defers to ``REPRO_VALIDATE``.
    """

    def __init__(
        self,
        n_agents: int,
        n_states: int,
        n_actions: int,
        gamma: float = 0.5,
        epsilon: Optional[Schedule] = None,
        alpha: Optional[Schedule] = None,
        rng: Optional[np.random.Generator] = None,
        optimistic_init: float = 1.0,
        td_rule: str = "q",
        validate: Optional[bool] = None,
    ) -> None:
        if n_agents < 1 or n_states < 1 or n_actions < 1:
            raise ValueError(
                f"table dimensions must be >= 1, got "
                f"({n_agents}, {n_states}, {n_actions})"
            )
        if not (0 <= gamma < 1):
            raise ValueError(f"gamma must be in [0, 1), got {gamma}")
        if td_rule not in ("q", "sarsa"):
            raise ValueError(f"td_rule must be 'q' or 'sarsa', got {td_rule!r}")
        self.td_rule = td_rule
        self.n_agents = n_agents
        self.n_states = n_states
        self.n_actions = n_actions
        self.gamma = gamma
        self.epsilon = epsilon if epsilon is not None else default_epsilon_schedule()
        self.alpha = alpha if alpha is not None else default_alpha_schedule()
        if rng is None:
            raise ValueError(
                "QLearningPopulation requires an explicit RNG stream; pass "
                "rng=np.random.default_rng(seed) so exploration draws are "
                "attributable to a seed instead of a hidden shared default"
            )
        self._rng = rng
        self.validate = validation_enabled(validate)
        self._init = float(optimistic_init)
        self.q = np.full((n_agents, n_states, n_actions), self._init, dtype=float)
        self.visits = np.zeros((n_agents, n_states, n_actions), dtype=np.int64)
        self.step_count = 0
        self._agent_idx = np.arange(n_agents)

    def reset(self) -> None:
        """Forget everything: Q-table, visit counts, schedule position."""
        self.q.fill(self._init)
        self.visits.fill(0)
        self.step_count = 0

    def act(self, states: np.ndarray, greedy: bool = False) -> np.ndarray:
        """Epsilon-greedy action per agent.

        Parameters
        ----------
        states:
            Per-agent state indices, shape ``(n_agents,)``.
        greedy:
            Force exploitation (used for policy inspection, not control).
            The greedy path consumes no RNG draws — ties break to the
            first maximal action — so inspecting the policy mid-run
            cannot perturb the exploration stream.

        Returns
        -------
        numpy.ndarray
            Action indices, shape ``(n_agents,)``.
        """
        states = self._check_states(states)
        qs = self.q[self._agent_idx, states]  # (n_agents, n_actions)
        if greedy:
            # Policy inspection must be a pure read: drawing tie-break
            # jitter here would advance the exploration stream and change
            # the rest of the run.  First-index argmax matches
            # :meth:`greedy_policy` and touches no RNG.
            return np.argmax(qs, axis=1)
        # Random tie-breaking argmax: add an infinitesimal random key.
        jitter = self._rng.random(qs.shape) * 1e-12
        greedy_actions = np.argmax(qs + jitter, axis=1)
        eps = self.epsilon(self.step_count)
        explore = self._rng.random(self.n_agents) < eps
        random_actions = self._rng.integers(self.n_actions, size=self.n_agents)
        return np.where(explore, random_actions, greedy_actions)

    def update(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
        next_actions: Optional[np.ndarray] = None,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        """One synchronous TD update across all agents.

        Parameters
        ----------
        next_actions:
            Required when ``td_rule == "sarsa"`` — the actions actually
            taken in ``next_states``; ignored for Q-learning.
        mask:
            Optional boolean per-agent mask; agents where it is False are
            skipped entirely (no Q write, no visit increment).  The
            telemetry sanitizer uses this so agents never learn from
            fabricated samples (see :mod:`repro.faults.sanitizer`).  A
            mask that excludes *every* agent also skips the global
            schedule tick (``step_count``), so epsilon does not decay
            across epochs where nothing was learned.
        """
        states = self._check_states(states)
        next_states = self._check_states(next_states)
        actions = np.asarray(actions, dtype=int)
        rewards = np.asarray(rewards, dtype=float)
        if actions.shape != (self.n_agents,) or rewards.shape != (self.n_agents,):
            raise ValueError("actions and rewards must have shape (n_agents,)")
        if np.any(actions < 0) or np.any(actions >= self.n_actions):
            raise ValueError("action index out of range")
        if self.td_rule == "sarsa":
            if next_actions is None:
                raise ValueError("sarsa update requires next_actions")
            next_actions = np.asarray(next_actions, dtype=int)
            if next_actions.shape != (self.n_agents,):
                raise ValueError("next_actions must have shape (n_agents,)")
            if np.any(next_actions < 0) or np.any(next_actions >= self.n_actions):
                raise ValueError("next action index out of range")
            bootstrap = self.q[self._agent_idx, next_states, next_actions]
        else:
            bootstrap = np.max(self.q[self._agent_idx, next_states], axis=1)
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (self.n_agents,):
                raise ValueError(f"mask must have shape ({self.n_agents},)")
            idx = self._agent_idx[mask]
        else:
            idx = self._agent_idx
        if idx.size == 0:
            # Every agent masked out (e.g. a whole-epoch telemetry
            # blackout): nothing is learned, so the schedule clock must
            # not tick either — otherwise epsilon decays through long
            # fault campaigns with zero learning and the survivors
            # under-explore once telemetry returns.
            return
        row_states = states[idx]
        row_actions = actions[idx]
        cell_visits = self.visits[idx, row_states, row_actions]
        a = self.alpha.value(cell_visits)
        target = rewards[idx] + self.gamma * bootstrap[idx]
        td = target - self.q[idx, row_states, row_actions]
        self.q[idx, row_states, row_actions] += a * td
        self.visits[idx, row_states, row_actions] += 1
        self.step_count += 1
        if self.validate:
            # Only the cells written this step can newly become non-finite
            # (the table starts finite and bootstrap reads other, already
            # validated cells), so checking the updated slice maintains the
            # whole-table invariant at O(n_agents) instead of O(table).
            check_q_table(
                self.q[idx, row_states, row_actions], step=self.step_count
            )

    def greedy_policy(self) -> np.ndarray:
        """Current greedy action per (agent, state), shape
        ``(n_agents, n_states)`` — for inspection and convergence tests."""
        return np.argmax(self.q, axis=2)

    def _check_states(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=int)
        if states.shape != (self.n_agents,):
            raise ValueError(
                f"states must have shape ({self.n_agents},), got {states.shape}"
            )
        if np.any(states < 0) or np.any(states >= self.n_states):
            raise ValueError("state index out of range")
        return states
