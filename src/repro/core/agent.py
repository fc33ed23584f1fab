"""Tabular Q-learning, vectorized over stacks of runs of independent agents.

The paper runs one agent per core, each with its own Q-table over shared
state/action spaces.  :class:`QLearningPopulation` is the one tabular
learner: OD-RL's stacked decide (:class:`repro.kernel.policies.BatchODRL`)
owns an ``n_runs x n_cores`` population, and centralized-rl a one-run,
one-agent population.  Each run draws its exploration from its own
stream, so a run's row of a stack learns exactly what it learns alone.

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

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.contracts import check_q_table, validation_enabled
from repro.core.schedules import ExponentialDecay, HarmonicDecay, Schedule

__all__ = ["QLearningPopulation", "default_epsilon_schedule", "default_alpha_schedule"]

_WORDS_LE = np.dtype("<u8")
_HALVES_LE = np.dtype("<u4")


def default_epsilon_schedule() -> Schedule:
    """Exploration: 40 % initially, decaying to a 5 % residual."""
    return ExponentialDecay(start=0.4, floor=0.05, decay=0.998)


def default_alpha_schedule() -> Schedule:
    """Per-cell step size: near 1 on first visits to a (state, action) cell,
    decaying harmonically with that cell's visit count to a plasticity
    floor.  Evaluated on *visit counts*, not global time, so rarely-tried
    actions still learn fast whenever they are tried."""
    return HarmonicDecay(start=0.9, half_life=10.0, floor=0.05)


def _lemire_actions(words: np.ndarray, n_actions: int) -> Tuple[np.ndarray, np.ndarray]:
    """``integers(n_actions, size=2 * k)`` for each row of ``k`` raw PCG64
    words, and a mask of the halves where that is not what numpy draws.

    numpy draws a range that fits in 32 bits by Lemire's method on 32-bit
    halves, which PCG64 cuts from each word low half first: ``m = u32 *
    n_actions`` gives the value ``m >> 32``, unless the low half of ``m``
    falls under ``(2**32 - n_actions) % n_actions``; then numpy rejects
    the half and draws another."""
    # Little-endian words viewed as 32-bit pairs are (low, high).
    halves = words.astype(_WORDS_LE, copy=False).view(_HALVES_LE)
    products = np.multiply(halves, n_actions, dtype=np.uint64)
    rejected = products.astype(np.uint32) < (2**32 - n_actions) % n_actions
    return (products >> 32).view(np.int64), rejected


class QLearningPopulation:
    """``n_runs`` runs of ``n_agents`` independent tabular Q-learners,
    updated in lockstep.

    Tables have shape ``(n_runs, n_agents, n_states, n_actions)``; every
    run has its own exploration stream and its own schedule clock
    (``step_counts``).  :meth:`act` and :meth:`update` take
    ``(n_runs, n_agents)`` arrays and an optional ``active`` run mask: a
    finished run of a ragged stack draws nothing, learns nothing and
    stays frozen where a standalone run of its length would leave it.

    Parameters
    ----------
    n_agents, n_states, n_actions:
        Table dimensions per run.
    gamma:
        Discount factor.  DVFS control is nearly myopic (the epoch reward
        almost fully reflects the action) so the default is modest.
    epsilon:
        Exploration schedule, evaluated on each run's update step counter.
    alpha:
        Step-size schedule, evaluated per (agent, state, action) cell on
        that cell's visit count — rarely-visited cells keep a large step
        size and learn from few samples.
    rng:
        One random generator per run for exploration; the number of runs
        is its length.  Required: every run owns an explicit,
        seed-attributable stream (``ValueError`` otherwise).  Draws made
        from a stream outside the population between acts must not leave
        a 32-bit half-word pending (``integers`` over an odd count, float32
        draws): :meth:`act` tracks that flag itself (see :meth:`_act`).
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
        rng: Optional[Sequence[np.random.Generator]] = None,
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
        if not rng:
            raise ValueError(
                "QLearningPopulation requires an explicit RNG stream per run; "
                "pass rng=[np.random.default_rng(seed), ...] so exploration "
                "draws are attributable to a seed instead of a hidden shared "
                "default"
            )
        if isinstance(rng, np.random.Generator):
            raise TypeError("rng must be a sequence of generators, one per run")
        self.td_rule = td_rule
        self.n_runs = len(rng)
        self.n_agents = n_agents
        self.n_states = n_states
        self.n_actions = n_actions
        self.gamma = gamma
        self.epsilon = epsilon if epsilon is not None else default_epsilon_schedule()
        self.alpha = alpha if alpha is not None else default_alpha_schedule()
        self._rngs = list(rng)
        self._bitgens = [g.bit_generator for g in self._rngs]
        # Runs whose random actions can be read as raw words (see _act):
        # PCG64 streams drawing whole words, i.e. an even agent count, in
        # a stack (one row's numpy call costs less than the stack-wide
        # mapping) ...
        pairs = n_agents % 2 == 0 and n_actions > 1 and self.n_runs > 1
        self._raw_capable = [pairs and type(bg) is np.random.PCG64 for bg in self._bitgens]
        # ... while no 32-bit half-word is pending.
        self._raw_ok = [
            capable and not bg.state["has_uint32"]
            for capable, bg in zip(self._raw_capable, self._bitgens)
        ]
        self.validate = validation_enabled(validate)
        self._init = float(optimistic_init)
        self._shape = (self.n_runs, n_agents)
        #: row of each (run, agent)'s first state in the tables viewed as
        #: (n_runs * n_agents * n_states, n_actions)
        self._table_base = (
            np.arange(self.n_runs * n_agents).reshape(self._shape) * n_states
        )
        self.reset()

    def reset(self) -> None:
        """Forget everything: Q-tables, visit counts, schedule clocks.  The
        exploration streams run on across resets."""
        tables = self._shape + (self.n_states, self.n_actions)
        # C-contiguous, so the flat views _act and _update index through
        # are views, not copies.
        self.q = np.full(tables, self._init)
        self.visits = np.zeros(tables, dtype=np.int64)
        self.step_counts = np.zeros(self.n_runs, dtype=np.int64)

    def act(
        self, states: np.ndarray, active: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Epsilon-greedy action per agent, shape ``(n_runs, n_agents)``.

        ``states`` are per-agent state indices, shape ``(n_runs,
        n_agents)``; runs where ``active`` is False draw nothing and act 0.
        """
        return self._act(self._check_states(states), self._check_active(active))

    def update(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
        next_actions: Optional[np.ndarray] = None,
        mask: Optional[np.ndarray] = None,
        active: Optional[np.ndarray] = None,
    ) -> None:
        """One synchronous TD update across all agents of all runs.

        Parameters
        ----------
        next_actions:
            Required when ``td_rule == "sarsa"`` — the actions actually
            taken in ``next_states``; ignored for Q-learning.
        mask:
            Optional boolean per-agent mask, shape ``(n_runs, n_agents)``;
            agents where it is False are skipped entirely (no Q write, no
            visit increment).  The telemetry sanitizer uses this so agents
            never learn from fabricated samples (see
            :mod:`repro.faults.sanitizer`).  A run whose every agent is
            masked also skips its schedule tick, so epsilon does not decay
            across epochs where nothing was learned.
        active:
            Optional boolean run mask, shape ``(n_runs,)``; inactive runs
            are skipped as if fully masked.
        """
        states = self._check_states(states)
        next_states = self._check_states(next_states)
        actions = np.asarray(actions, dtype=int)
        rewards = np.asarray(rewards, dtype=float)
        if actions.shape != self._shape or rewards.shape != self._shape:
            raise ValueError("actions and rewards must have shape (n_runs, n_agents)")
        if np.any(actions < 0) or np.any(actions >= self.n_actions):
            raise ValueError("action index out of range")
        if self.td_rule == "sarsa":
            if next_actions is None:
                raise ValueError("sarsa update requires next_actions")
            next_actions = np.asarray(next_actions, dtype=int)
            if next_actions.shape != self._shape:
                raise ValueError("next_actions must have shape (n_runs, n_agents)")
            if np.any(next_actions < 0) or np.any(next_actions >= self.n_actions):
                raise ValueError("next action index out of range")
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != self._shape:
                raise ValueError(f"mask must have shape {self._shape}")
        self._update(
            states,
            actions,
            rewards,
            next_states,
            next_actions,
            mask,
            self._check_active(active),
        )

    def repair_nonfinite(self, active: Optional[np.ndarray] = None) -> np.ndarray:
        """Safe-state reflex: reinitialize every agent whose table holds a
        NaN or inf (tables and visit counts).  Returns the repaired
        ``(n_runs, n_agents)`` mask; inactive runs are never repaired."""
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.sum(self.q)
        if np.isfinite(total):
            # Any NaN or inf entry makes the sum non-finite, so a finite
            # sum clears every table in one pass.
            return np.zeros(self._shape, dtype=bool)
        bad = ~np.isfinite(self.q).all(axis=(2, 3))
        if active is not None:
            # A finished run's learner is frozen: its tables are exactly
            # what a standalone run of its length left behind.
            bad &= active[:, None]
        if bad.any():
            self.q[bad] = self._init
            self.visits[bad] = 0
        return bad

    def _act(self, states: np.ndarray, active: Optional[np.ndarray]) -> np.ndarray:
        """:meth:`act` on checked inputs.  Each live run draws from its own
        stream, in this order: the tie-break jitter and the explore coins
        (one ``random`` fill of ``n_agents * n_actions + n_agents``
        doubles, the words two ``random`` calls would take), then the
        random actions, which consume what ``integers(n_actions,
        size=n_agents)`` would.  The Q gather, the jittered argmax and the
        explore select then run over the whole stack.

        Where it is exact, a row of a stack reads its random actions as
        ``n_agents / 2`` raw 64-bit words and the whole stack maps them to
        actions at once (:func:`_lemire_actions`): for a PCG64 stream, an
        even ``n_agents`` and no pending 32-bit half-word, ``integers``
        takes one word per two actions.  Any other row keeps numpy's own
        call: an odd count leaves a half-word pending, which a raw read
        cannot, and a pending half-word is where ``integers`` starts.  So
        does a one-row population, for which the call costs less than the
        stack-wide mapping.  Each row's pending flag is read from its
        stream when the population is built and after each numpy call.  A
        row one of whose words Lemire's method would reject is rewound and
        redrawn through ``integers``.  ``n_actions == 1`` keeps numpy's
        call, which draws nothing."""
        n_runs, n_agents, n_actions = self.n_runs, self.n_agents, self.n_actions
        n_jitter = n_agents * n_actions
        draws = np.zeros((n_runs, n_jitter + n_agents))
        words = np.zeros((n_runs, n_agents // 2), dtype=np.uint64)
        raw = np.zeros(n_runs, dtype=bool)
        random_actions = np.zeros((n_runs, n_agents), dtype=np.int64)
        eps = np.zeros(n_runs)
        # Runs mostly share a step count: evaluate the schedule once per
        # distinct count (the same float a per-run call returns).
        steps = self.step_counts.tolist()
        eps_at = {step: self.epsilon(step) for step in set(steps)}
        runs = range(n_runs) if active is None else np.flatnonzero(active).tolist()
        for r in runs:
            self._rngs[r].random(out=draws[r])
            if self._raw_ok[r]:
                words[r] = self._bitgens[r].random_raw(n_agents // 2)
                raw[r] = True
            else:
                random_actions[r] = self._integers(r)
            eps[r] = eps_at[steps[r]]
        if raw.any():
            values, rejected = _lemire_actions(words, n_actions)
            np.copyto(random_actions, values, where=raw[:, None])
            if rejected.any():
                # Rewind each rejected row's words (PCG64 advances modulo
                # 2**128) and let numpy redraw them, rejections included.
                for r in np.flatnonzero(rejected.any(axis=1) & raw).tolist():
                    self._bitgens[r].advance(2**128 - n_agents // 2)
                    random_actions[r] = self._integers(r)
        jitter = draws[:, :n_jitter].reshape(n_runs, n_agents, n_actions)
        jitter *= 1e-12
        explore = draws[:, n_jitter:] < eps[:, None]
        qs = np.take(self.q.reshape(-1, n_actions), self._table_base + states, axis=0)
        greedy_actions = np.argmax(qs + jitter, axis=2)
        actions = np.where(explore, random_actions, greedy_actions)
        if active is not None:
            # Zeros, not stale picks: inactive rows must stay valid action
            # indices for callers that index by them.
            actions[~active] = 0
        return actions

    def _integers(self, r: int) -> np.ndarray:
        """Run ``r``'s random actions through numpy's own call, noting
        whether it left a 32-bit half-word pending (which keeps the run
        off the raw read until another odd number of halves clears it)."""
        values = self._rngs[r].integers(self.n_actions, size=self.n_agents)
        if self._raw_capable[r]:
            self._raw_ok[r] = not self._bitgens[r].state["has_uint32"]
        return values

    def _update(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
        next_actions: Optional[np.ndarray],
        mask: Optional[np.ndarray],
        active: Optional[np.ndarray],
    ) -> None:
        """:meth:`update` on checked inputs: one TD scatter over every live
        ``(run, agent)`` cell.

        ``live = mask & active`` in row-major order; every cell is a
        distinct agent, so the scatter (through flat views of the tables)
        has no duplicate indices, and bootstraps are read before any
        write.  A run's schedule clock ticks only if one of its agents
        learned."""
        live = np.ones(self._shape, dtype=bool) if mask is None else mask
        if active is not None:
            live = live & active[:, None]
        cells = np.flatnonzero(live)
        if cells.size == 0:
            return
        n_actions = self.n_actions
        q = self.q.reshape(-1)
        visits = self.visits.reshape(-1)
        base = self._table_base.reshape(-1)[cells]
        next_rows = base + next_states.reshape(-1)[cells]
        if self.td_rule == "sarsa":
            assert next_actions is not None
            bootstrap = q[next_rows * n_actions + next_actions.reshape(-1)[cells]]
        else:
            # max over each next state's actions, one action column at a
            # time.  A non-NaN maximum has one value whatever the order of
            # comparison, so it is np.max's up to the sign of a zero, which
            # the update below cannot see: q + a * (target - q) is the same
            # for either zero target.  A NaN's bits depend on np.max's
            # order and NaN handling and do reach the table, so a NaN
            # bootstrap is taken from np.max itself.
            nexts = np.take(self.q.reshape(-1, n_actions), next_rows, axis=0)
            bootstrap = nexts[:, 0].copy()
            for j in range(1, n_actions):
                np.maximum(bootstrap, nexts[:, j], out=bootstrap)
            if np.isnan(bootstrap).any():
                bootstrap = np.max(nexts, axis=1)
        sa = (base + states.reshape(-1)[cells]) * n_actions + actions.reshape(-1)[cells]
        a = self.alpha.value(visits[sa])
        target = rewards.reshape(-1)[cells] + self.gamma * bootstrap
        td = target - q[sa]
        q[sa] += a * td
        visits[sa] += 1
        learned = live.any(axis=1)
        self.step_counts += learned
        if self.validate:
            # Only the cells written this step can newly become non-finite
            # (bootstraps read other, already validated cells), so checking
            # each run's written cells keeps the whole-table invariant.
            runs = cells // self.n_agents
            for r in np.flatnonzero(learned).tolist():
                check_q_table(q[sa[runs == r]], step=int(self.step_counts[r]))

    def _check_states(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=int)
        if states.shape != self._shape:
            raise ValueError(
                f"states must have shape {self._shape}, got {states.shape}"
            )
        if np.any(states < 0) or np.any(states >= self.n_states):
            raise ValueError("state index out of range")
        return states

    def _check_active(self, active: Optional[np.ndarray]) -> Optional[np.ndarray]:
        if active is None:
            return None
        active = np.asarray(active, dtype=bool)
        if active.shape != (self.n_runs,):
            raise ValueError(f"active must have shape ({self.n_runs},)")
        return active
