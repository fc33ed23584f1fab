"""Batched controller policies: N runs' controllers advanced in lockstep.

Four shapes, selected by :func:`build_batch_policy`:

* :class:`BatchODRL` — all runs are stock :class:`ODRLController` instances
  with matching hyper-parameters: Q/visit tables gain a leading run axis,
  and telemetry sanitization, reward, state encoding, the Q gather and
  argmax, and the TD scatter run over the whole stack.  Only the three
  RNG draws of the action step run per run, in the exact serial order
  (the RNG draw sequence per run is untouched).
* :class:`BatchMaxBIPS` — all runs are DP-method
  :class:`MaxBIPSController` instances sharing estimator tables: one
  stacked telemetry inversion, and a knapsack DP that advances all runs
  per core through sliding-window shifts and the serial strict-``>``
  level sweep.  This is the batching that actually pays — MaxBIPS
  spends ~90 % of its wall-clock inside ``solve_dp``.
* :class:`BatchPID` — all runs are stock :class:`PIDCappingController`
  instances sharing gains and VF table: the PI loop is elementwise, so
  the row power sums, the velocity-form update, the clip and the
  half-to-even rounding run over the whole stack in one call.
* :class:`PerRunPolicy` — anything else (including watchdog-wrapped
  drivers), and every serial run (a one-row stack): the kernel plant is
  still shared, but each run's serial controller consumes its own row
  view of the kernel observation.  Bit-identical by construction, since
  the serial ``decide`` is the one executing.

Ragged stacks pass the ``active`` row mask of the kernel step through
``decide``: a finished run's controller is never invoked again — its RNG
streams, counters, and learner state freeze exactly where a standalone
run of its length would leave them — while the dead rows of the stacked
arrays keep advancing harmlessly (they are never read).

Every vectorized expression here replicates its serial counterpart's
operation order element for element (see ``docs/batch.md``); per-run
reductions are ``axis=1`` reductions of C-contiguous stacks, which keep
the serial pairwise order (``tests/kernel/test_row_reductions.py``).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.baselines.maxbips import MaxBIPSController
from repro.baselines.pid import PIDCappingController
from repro.contracts import check_q_table
from repro.core.budget import reallocate_budgets
from repro.core.controller import ODRLController
from repro.kernel.epoch import KernelObservation, _row_active
from repro.sim.interface import Controller

__all__ = [
    "BatchCompatError",
    "BatchPolicy",
    "PerRunPolicy",
    "BatchODRL",
    "BatchMaxBIPS",
    "BatchPID",
    "build_batch_policy",
]


class BatchCompatError(ValueError):
    """A controller group cannot be driven by a specialized batch policy."""


class BatchPolicy(ABC):
    """Decides all runs' next VF levels from one :class:`KernelObservation`."""

    #: short tag for engine events / diagnostics
    kind: str = "batch"

    def __init__(self, controllers: Sequence[Controller]) -> None:
        if not controllers:
            raise ValueError("batch policy needs at least one controller")
        self.controllers: List[Controller] = list(controllers)
        self.n_runs = len(self.controllers)
        self.n_cores = self.controllers[0].n_cores
        self.n_levels = self.controllers[0].n_levels

    def reset(self) -> None:
        """Reset every run's controller state (start of the batch run)."""
        for ctrl in self.controllers:
            ctrl.reset()

    @abstractmethod
    def decide(
        self,
        bobs: Optional[KernelObservation],
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``(n_runs, n_cores)`` integer VF levels for the next epoch.

        ``active`` is the ragged-stack row mask: rows with ``active[r]``
        false belong to finished runs and must not advance any per-run
        controller state (RNG draws, counters, learner tables); their
        output rows are unspecified — the control loop freezes them.
        """

    def decide_seconds(
        self, stack_s: float, active: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Each run's ``decision_time`` entry for a ``decide`` that took
        ``stack_s`` wall seconds: a vectorized decide advances all live
        runs at once, so each is charged the amortized per-run cost, the
        stack time over the number of active rows."""
        n_active = self.n_runs if active is None else int(np.count_nonzero(active))
        return np.full(self.n_runs, stack_s / max(n_active, 1))

    def degradation_extras(self, run: int) -> Optional[Dict[str, int]]:
        """Run ``run``'s degradation counters, mirroring the serial
        ``result.extras["degradation"]`` gate (present only when the
        controller carries an armed sanitizer).  Watchdog-wrapped drivers
        are unwrapped first.  The control loop reads these for both the
        result extras and the per-epoch ``sanitizer`` incident events."""
        ctrl = self.controllers[run]
        inner = getattr(ctrl, "inner", ctrl)
        sanitizer = getattr(inner, "sanitizer", None)
        if sanitizer is not None and getattr(inner, "degradation", False):
            return {
                "rejected_samples": sanitizer.rejected_samples,
                "fallback_samples": sanitizer.fallback_samples,
                "agents_repaired": getattr(inner, "agents_repaired", 0),
            }
        return None


class PerRunPolicy(BatchPolicy):
    """Serial controllers deciding on kernel-row views.

    Each run's controller executes its own unmodified ``decide`` on a row
    view of the kernel observation, so any controller batches (plant-side
    speedup only) and equivalence to serial is by construction.  Serial
    runs are one-row stacks of this policy.
    """

    kind = "per-run"

    def __init__(self, controllers: Sequence[Controller]) -> None:
        super().__init__(controllers)
        self._row_s = np.zeros(self.n_runs)

    def decide(
        self,
        bobs: Optional[KernelObservation],
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        # Zeros, not empty: finished runs' rows must still be valid level
        # indices (the control loop overwrites them with the frozen levels).
        out = np.zeros((self.n_runs, self.n_cores), dtype=int)
        self._row_s[:] = 0.0
        for r, ctrl in enumerate(self.controllers):
            if not _row_active(active, r):
                continue
            row = None if bobs is None else bobs.row(r)
            t0 = time.perf_counter()
            levels = ctrl.decide(row)
            self._row_s[r] = time.perf_counter() - t0
            levels = np.asarray(levels)
            if levels.shape != (self.n_cores,):
                # Assigning into the row would broadcast a scalar or a
                # (1,) array across every core; refuse as the chip does.
                raise ValueError(
                    f"levels must have shape ({self.n_cores},), got {levels.shape}"
                )
            out[r] = levels
        return out

    def decide_seconds(
        self, stack_s: float, active: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Each run's own ``decide`` wall time from the last call."""
        return self._row_s.copy()


class BatchODRL(BatchPolicy):
    """All runs' OD-RL controllers advanced by one vectorized decide.

    Construct via :func:`build_batch_policy`, which verifies that every
    controller is a stock :class:`ODRLController` with identical
    hyper-parameters (budgets and seeds may differ).  The per-run RNG
    streams, TD updates, counters and reallocation windows replicate the
    serial controller exactly — see the compat check for the full list of
    what must match.
    """

    kind = "od-rl"

    def __init__(self, controllers: Sequence[ODRLController]) -> None:
        super().__init__(controllers)
        c0 = controllers[0]
        self.cfg = c0.cfg
        self.encoder = c0.encoder
        self.reward_params = c0.reward_params
        self.action_mode = c0.action_mode
        self.realloc_period = c0.realloc_period
        self.degradation = c0.degradation
        self._budgets = np.array([c.cfg.power_budget for c in controllers])
        self._deltas = c0._deltas
        self._freqs = c0._freqs
        self._instr_scale = c0._instr_scale
        self._floors = c0._floors
        self._caps = c0._caps
        agents0 = c0.agents
        self.gamma = agents0.gamma
        self.td_rule = agents0.td_rule
        self.epsilon = agents0.epsilon
        self.alpha = agents0.alpha
        self.n_actions = agents0.n_actions
        self._q_init = agents0._init
        self._agents_validate = agents0.validate
        #: row of each (run, core) agent's first state in the Q/visit
        #: tables viewed as (n_runs * n_cores * n_states, n_actions)
        self._table_base = (
            np.arange(self.n_runs * self.n_cores).reshape(self.n_runs, self.n_cores)
            * agents0.n_states
        )
        self._san_policy = c0.sanitizer.policy
        self.reset()

    def reset(self) -> None:
        for ctrl in self.controllers:
            ctrl.reset()
        n_runs, n_cores = self.n_runs, self.n_cores
        # Steal the freshly reset per-run learner state; from here on the
        # stacked arrays are the single source of truth.  np.stack makes
        # them C-contiguous, so the flat views _act and _update index
        # through are views, not copies.
        self.q = np.stack(
            [c.agents.q for c in self.controllers]  # type: ignore[union-attr]
        )
        self.visits = np.stack(
            [c.agents.visits for c in self.controllers]  # type: ignore[union-attr]
        )
        self.step_counts = np.zeros(n_runs, dtype=np.int64)
        self._rngs = [
            c.agents._rng for c in self.controllers  # type: ignore[union-attr]
        ]
        self.allocation = np.stack(
            [c.allocation for c in self.controllers]  # type: ignore[attr-defined]
        )
        self.guard = np.zeros(n_runs)
        self._window_ipc = np.zeros((n_runs, n_cores))
        self._window_epochs = 0
        self._window_over = np.zeros(n_runs, dtype=np.int64)
        self.agents_repaired = np.zeros(n_runs, dtype=np.int64)
        self._prev_states: Optional[np.ndarray] = None
        self._prev_actions: Optional[np.ndarray] = None
        self._prev_trusted: Optional[np.ndarray] = None
        self._san_staleness = np.zeros((n_runs, n_cores), dtype=int)
        self._san_have_good = np.zeros((n_runs, n_cores), dtype=bool)
        self._san_last_power = np.zeros((n_runs, n_cores))
        self._san_last_instr = np.zeros((n_runs, n_cores))
        self._san_last_temp = np.full(
            (n_runs, n_cores), self._san_policy.fallback_temperature_k
        )
        self.rejected_samples = np.zeros(n_runs, dtype=np.int64)
        self.fallback_samples = np.zeros(n_runs, dtype=np.int64)

    def degradation_extras(self, run: int) -> Optional[Dict[str, int]]:
        if not self.degradation:
            return None
        return {
            "rejected_samples": int(self.rejected_samples[run]),
            "fallback_samples": int(self.fallback_samples[run]),
            "agents_repaired": int(self.agents_repaired[run]),
        }

    def _sanitize(
        self,
        power: np.ndarray,
        instructions: np.ndarray,
        temperature: np.ndarray,
        active: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`TelemetrySanitizer.sanitize`: every operation is
        elementwise; the counter tallies are per-run row counts.  Finished
        runs' register rows keep advancing (never read again) but their
        reported counters freeze."""
        policy = self._san_policy
        valid = (
            np.isfinite(power)
            & np.isfinite(instructions)
            & np.isfinite(temperature)
            & (power > policy.power_floor_w)
            & (instructions >= 0.0)
            & (temperature >= policy.min_temperature_k)
        )
        self.rejected_samples += _live_counts(~valid, active)
        self._san_last_power = np.where(valid, power, self._san_last_power)
        self._san_last_instr = np.where(valid, instructions, self._san_last_instr)
        self._san_last_temp = np.where(valid, temperature, self._san_last_temp)
        self._san_have_good |= valid
        self._san_staleness = np.where(valid, 0, self._san_staleness + 1)
        hold = (
            ~valid
            & self._san_have_good
            & (self._san_staleness <= policy.max_staleness_epochs)
        )
        fallback = ~valid & ~hold
        self.fallback_samples += _live_counts(fallback, active)
        out_power = np.where(valid, power, self._san_last_power)
        out_instr = np.where(valid, instructions, self._san_last_instr)
        out_temp = np.where(valid, temperature, self._san_last_temp)
        out_power = np.where(fallback, self.allocation, out_power)
        out_instr = np.where(fallback, 0.0, out_instr)
        out_temp = np.where(fallback, policy.fallback_temperature_k, out_temp)
        return out_power, out_instr, out_temp, valid

    def _compute_rewards(
        self, instructions: np.ndarray, power: np.ndarray, chip_power: np.ndarray
    ) -> np.ndarray:
        params = self.reward_params
        throughput_norm = instructions / self._instr_scale
        overshoot = np.maximum(0.0, (power - self.allocation) / self.allocation)
        reward = throughput_norm - params.overshoot_weight * overshoot
        if params.energy_weight > 0:
            reward = reward - params.energy_weight * (power / self.allocation)
        if params.chip_overshoot_weight > 0:
            # The chip-level term is a per-run scalar; the serial path
            # subtracts it even when zero, so the batch does too.  Budgets
            # are positive (ODRLController's uniform_allocation refuses
            # others).  where(x > 0, x, 0) is the serial max(0.0, x), NaN
            # included.
            budget = self._budgets
            chip_over = (chip_power - budget) / budget
            chip_over = np.where(chip_over > 0.0, chip_over, 0.0)
            reward = reward - params.chip_overshoot_weight * chip_over[:, None]
        return reward

    def _repair_nonfinite(self, active: Optional[np.ndarray]) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.sum(self.q)
        if np.isfinite(total):
            # Any NaN or inf entry makes the sum non-finite, so a finite
            # sum clears every table in one pass.
            return np.zeros((self.n_runs, self.n_cores), dtype=bool)
        bad = ~np.isfinite(self.q).all(axis=(2, 3))
        if active is not None:
            # A finished run's learner is frozen: its tables are exactly
            # what a standalone run of its length left behind, so never
            # repair (or count repairs for) inactive rows.
            bad &= active[:, None]
        if bad.any():
            self.q[bad] = self._q_init
            self.visits[bad] = 0
            self.agents_repaired += np.count_nonzero(bad, axis=1)
        return bad

    def _act(self, states: np.ndarray, active: Optional[np.ndarray]) -> np.ndarray:
        """Epsilon-greedy over the stack.  The three RNG draws per epoch
        (tie-break jitter, explore coin, random action) happen per run in
        the serial order, so each run's exploration stream is
        bit-identical; the Q gather, the jittered argmax and the explore
        select then run over the whole stack.  Finished runs draw nothing
        — their streams stay frozen — and act 0."""
        n_runs, n_cores, n_actions = self.n_runs, self.n_cores, self.n_actions
        jitter = np.zeros((n_runs, n_cores, n_actions))
        coins = np.ones((n_runs, n_cores))
        random_actions = np.zeros((n_runs, n_cores), dtype=np.int64)
        eps = np.zeros(n_runs)
        # Runs mostly share a step count: evaluate the schedule once per
        # distinct count (the same float a per-run call returns).
        steps = self.step_counts.tolist()
        eps_at = {step: self.epsilon(step) for step in set(steps)}
        runs = range(n_runs) if active is None else np.flatnonzero(active).tolist()
        for r in runs:
            rng = self._rngs[r]
            rng.random(out=jitter[r])
            coins[r] = rng.random(n_cores)
            random_actions[r] = rng.integers(n_actions, size=n_cores)
            eps[r] = eps_at[steps[r]]
        jitter *= 1e-12
        explore = coins < eps[:, None]
        qs = np.take(
            self.q.reshape(-1, n_actions), self._table_base + states, axis=0
        )
        greedy_actions = np.argmax(qs + jitter, axis=2)
        actions = np.where(explore, random_actions, greedy_actions)
        if active is not None:
            # Zeros, not stale picks: inactive rows must stay valid action
            # indices (they index _deltas before the loop freezes the row).
            actions[~active] = 0
        return actions

    def _update(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
        next_actions: np.ndarray,
        masks: Optional[np.ndarray],
        active: Optional[np.ndarray],
    ) -> None:
        """One TD scatter over every live ``(run, core)`` agent.

        ``live = mask & active`` in row-major order; every cell is a
        distinct ``(run, core)`` agent, so the scatter (through flat views
        of the stacked tables) has no duplicate indices and each value is
        the serial per-run update bit for bit (bootstraps are read before
        any write, as serially).  A run's schedule clock ticks only if one
        of its agents learned — a fully masked run matches the serial
        early return."""
        live = np.ones(states.shape, dtype=bool) if masks is None else masks
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
            bootstrap = q[next_rows * n_actions + next_actions.reshape(-1)[cells]]
        else:
            bootstrap = np.max(
                np.take(self.q.reshape(-1, n_actions), next_rows, axis=0), axis=1
            )
        sa = (base + states.reshape(-1)[cells]) * n_actions + actions.reshape(-1)[
            cells
        ]
        a = self.alpha.value(visits[sa])
        target = rewards.reshape(-1)[cells] + self.gamma * bootstrap
        td = target - q[sa]
        q[sa] += a * td
        visits[sa] += 1
        learned = live.any(axis=1)
        self.step_counts += learned
        if self._agents_validate:
            runs = cells // self.n_cores
            for r in np.flatnonzero(learned).tolist():
                check_q_table(q[sa[runs == r]], step=int(self.step_counts[r]))

    def decide(
        self,
        bobs: Optional[KernelObservation],
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        n_runs, n_cores = self.n_runs, self.n_cores
        if bobs is None:
            self._prev_actions = None
            return np.full((n_runs, n_cores), self.n_levels // 2, dtype=int)

        levels = bobs.levels
        if self.degradation:
            power, instructions, _temperature, trusted = self._sanitize(
                bobs.sensed_power,
                bobs.sensed_instructions,
                bobs.sensed_temperature,
                active,
            )
        else:
            power = bobs.sensed_power
            instructions = bobs.sensed_instructions
            trusted = np.ones((n_runs, n_cores), dtype=bool)
        freq = self._freqs[levels]
        cycles = freq * self.cfg.epoch_time
        ipc = instructions / np.maximum(cycles, 1.0)

        chip_power = power.sum(axis=1)
        rewards = self._compute_rewards(instructions, power, chip_power)

        self._window_ipc += ipc
        self._window_epochs += 1
        self._window_over += _live_counts(chip_power > self._budgets, active)
        # realloc_period is compat-equal across runs and the window counter
        # ticks every epoch for every run, so one shared scalar suffices
        # and all runs reallocate on the same epochs (as serial runs do —
        # a ragged stack's runs are prefixes of the shared epoch timeline,
        # so every active run sees the serial reallocation schedule).
        if self.realloc_period > 0 and self._window_epochs >= self.realloc_period:
            runs = (
                np.arange(n_runs) if active is None else np.flatnonzero(active)
            )
            over_rate = self._window_over[runs] / self._window_epochs
            guard = np.clip(
                self.guard[runs]
                + ODRLController.GUARD_GAIN * (over_rate - ODRLController.GUARD_TARGET),
                0.0,
                ODRLController.GUARD_MAX,
            )
            self.guard[runs] = guard
            distributable = (1.0 - guard) * self._budgets[runs]
            # Never guard below feasibility: where(f > d, f, d) is the
            # serial max(d, f).
            floors_total = float(np.sum(self._floors))
            distributable = np.where(
                floors_total > distributable, floors_total, distributable
            )
            scores = self._window_ipc[runs] / self._window_epochs
            self.allocation[runs] = reallocate_budgets(
                distributable, scores, self._floors, self._caps
            )
            self._window_ipc[:] = 0.0
            self._window_epochs = 0
            self._window_over[:] = 0

        states = self.encoder.encode(power, self.allocation, ipc, levels)
        if self.degradation:
            repaired = self._repair_nonfinite(active)
        else:
            repaired = np.zeros((n_runs, n_cores), dtype=bool)
        actions = self._act(states, active)
        if self._prev_states is not None and self._prev_actions is not None:
            masks: Optional[np.ndarray] = None
            if self.degradation:
                prev_trusted = (
                    self._prev_trusted
                    if self._prev_trusted is not None
                    else np.ones((n_runs, n_cores), dtype=bool)
                )
                masks = trusted & prev_trusted & ~repaired
            self._update(
                self._prev_states,
                self._prev_actions,
                rewards,
                states,
                actions,
                masks,
                active,
            )
        self._prev_states = states
        self._prev_actions = actions
        self._prev_trusted = trusted
        if self.action_mode == "absolute":
            next_levels = actions
        else:
            next_levels = np.clip(
                levels + self._deltas[actions], 0, self.n_levels - 1
            )
        if repaired.any():
            next_levels = np.where(repaired, 0, next_levels)
        return next_levels


class BatchMaxBIPS(BatchPolicy):
    """All runs' MaxBIPS (DP method) decided by one batched knapsack.

    The telemetry-to-prediction inversion is the estimator's own stacked
    :meth:`~repro.baselines.estimator.PowerPerfEstimator.predict_tables`;
    the DP sweeps all runs together per core through a sliding window over
    each run's ``-inf``-padded value row, which evaluates exactly the
    serial ``value[w - c] + gain`` additions.  Budgets may differ per run
    (each run has its own value table and quantum).  The policy is
    epoch-stateless, so ragged masking needs no gating — inactive rows
    simply compute unused (but valid) levels.
    """

    kind = "maxbips"

    def __init__(self, controllers: Sequence[MaxBIPSController]) -> None:
        super().__init__(controllers)
        self.n_quanta = controllers[0].n_quanta
        self._estimator = controllers[0]._estimator
        self._budgets = np.array([c.cfg.power_budget for c in controllers])

    def decide(
        self,
        bobs: Optional[KernelObservation],
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if bobs is None:
            # Cold predictions are telemetry-free, hence run-independent:
            # compute once and tile into copies (broadcast_to would give
            # stride-0 rows whose reductions differ from serial).
            pred = self._estimator.cold_predictions(self.n_cores)
            power3 = np.tile(pred.power, (self.n_runs, 1, 1))
            ips3 = np.tile(pred.ips, (self.n_runs, 1, 1))
        else:
            power3, ips3 = self._estimator.predict_tables(
                bobs.levels, bobs.sensed_instructions, bobs.sensed_power
            )
        return self._solve_dp_batch(power3, ips3)

    def _solve_dp_batch(self, power3: np.ndarray, ips3: np.ndarray) -> np.ndarray:
        """Batched :func:`repro.baselines.maxbips.solve_dp`.

        Each run's value row sits behind ``n_quanta + 1`` cells of ``-inf``
        padding, so shifting it by a level's cost ``c`` is the sliding
        window at offset ``n_quanta + 1 - c`` (a capped, over-budget cost
        reads only padding).  Levels are swept with the serial strict ``>``
        from a ``-inf`` running best: ties keep the first level, padded
        cells never win, and each value is the serial addition bit for
        bit.  Infeasible runs return all-zeros, as the serial early return.
        """
        n_runs, n_cores, n_levels = power3.shape
        n_quanta = self.n_quanta
        width = n_quanta + 1
        quantum = self._budgets / n_quanta
        cost = np.minimum(
            np.ceil(power3 / quantum[:, None, None]).astype(int), width
        )
        infeasible = [
            float(np.sum(power3[r, :, 0])) > self._budgets[r] for r in range(n_runs)
        ]

        padded = np.full((n_runs, 2 * width), -np.inf)
        value = padded[:, width:]
        value[:, 0] = 0.0
        windows = sliding_window_view(padded, width, axis=1)
        offsets = width - cost
        rows = np.arange(n_runs)[:, None]
        choice = np.zeros((n_cores, n_runs, width), dtype=np.int8)
        for i in range(n_cores):
            shifted = windows[rows, offsets[:, i, :]]
            shifted += ips3[:, i, :, None]
            value.fill(-np.inf)
            for lvl in range(n_levels):
                better = shifted[:, lvl] > value
                np.copyto(value, shifted[:, lvl], where=better)
                choice[i][better] = lvl

        w_best = np.argmax(value, axis=1).tolist()
        finite = np.isfinite(value[rows[:, 0], w_best]).tolist()
        out = np.zeros((n_runs, n_cores), dtype=int)
        for r, w in enumerate(w_best):
            if infeasible[r] or not finite[r]:
                continue
            costs = cost[r].tolist()
            for i in range(n_cores - 1, -1, -1):
                lvl = choice.item(i, r, w)
                out[r, i] = lvl
                w -= costs[i][lvl]
        return out


class BatchPID(BatchPolicy):
    """All runs' PI power caps advanced by one vectorized decide.

    Each row is one :class:`PIDCappingController`: the chip power is the
    row sum of the *sensed* power (the serial ``np.sum`` bit for bit), the
    velocity-form command update keeps the serial ``delta += …`` order
    through a ``where`` on the has-previous-error mask, and ``np.rint``
    rounds half to even as Python's ``round`` does.  Budgets may differ
    per run.  Only active rows write state, so a finished run's command
    freezes where a standalone run of its length leaves it.
    """

    kind = "pid"

    def __init__(self, controllers: Sequence[PIDCappingController]) -> None:
        super().__init__(controllers)
        self.kp = controllers[0].kp
        self.ki = controllers[0].ki
        self._budgets = np.array([c.cfg.power_budget for c in controllers])
        self.reset()

    def reset(self) -> None:
        super().reset()
        ctrls: List[PIDCappingController] = self.controllers  # type: ignore[assignment]
        self._command = np.array([c._command for c in ctrls])
        self._prev_error = np.array(
            [0.0 if c._prev_error is None else c._prev_error for c in ctrls]
        )
        self._has_prev = np.array([c._prev_error is not None for c in ctrls])

    def decide(
        self,
        bobs: Optional[KernelObservation],
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if bobs is not None:
            power = bobs.sensed_power.sum(axis=1)
            # The serial update is Python float arithmetic, which turns
            # inf - inf into NaN silently; so does this one.
            with np.errstate(invalid="ignore", over="ignore"):
                error = (self._budgets - power) / self._budgets
                delta = np.where(
                    self._has_prev,
                    self.ki * error + self.kp * (error - self._prev_error),
                    self.ki * error,
                )
                command = np.clip(self._command + delta, 0.0, self.n_levels - 1)
            if active is None:
                self._prev_error = error
                self._has_prev[:] = True
                self._command = command
            else:
                np.copyto(self._prev_error, error, where=active)
                self._has_prev |= active
                np.copyto(self._command, command, where=active)
        if not np.isfinite(self._command).all():
            # The serial int(round(nan)) raises; never cast NaN to a level.
            raise ValueError(f"non-finite PID command: {self._command.tolist()}")
        out = np.empty((self.n_runs, self.n_cores), dtype=int)
        out[:] = np.rint(self._command).astype(int)[:, None]
        return out


def _live_counts(flags: np.ndarray, active: Optional[np.ndarray]) -> np.ndarray:
    """Per-run count of true ``flags`` (``(n_runs, ...)`` bool), zero for
    inactive runs — a finished run's counters freeze."""
    counts = np.count_nonzero(flags.reshape(len(flags), -1), axis=1)
    return counts if active is None else np.where(active, counts, 0)


def _check_odrl_group(ctrls: List[ODRLController]) -> None:
    c0 = ctrls[0]
    for c in ctrls:
        if type(c) is not ODRLController:
            raise BatchCompatError(f"not a stock ODRLController: {type(c).__name__}")
        if c.thermal_limit is not None:
            raise BatchCompatError("thermal_limit is not batch-supported")
        if c.profiler is not None:
            raise BatchCompatError("profiled controllers do not batch")
        if getattr(c, "_pretrained", None) is not None:
            # BatchODRL.reset() restacks fresh learner state (zero step
            # counts, zero guard); a warm-started controller's restored
            # snapshot would be silently discarded.  Route to PerRunPolicy,
            # which runs the serial decide and preserves the warm start
            # bit-for-bit.
            raise BatchCompatError("pretrained (warm-start) controllers do not batch")
        if c.action_mode != c0.action_mode:
            raise BatchCompatError("action_mode differs across runs")
        if c.realloc_period != c0.realloc_period:
            raise BatchCompatError("realloc_period differs across runs")
        if c.degradation != c0.degradation:
            raise BatchCompatError("degradation flag differs across runs")
        if c.encoder != c0.encoder:
            raise BatchCompatError("state encoder differs across runs")
        if c.reward_params != c0.reward_params:
            raise BatchCompatError("reward params differ across runs")
        if c.sanitizer.policy != c0.sanitizer.policy:
            raise BatchCompatError("sanitizer policy differs across runs")
        a, a0 = c.agents, c0.agents
        if (
            a.gamma != a0.gamma
            or a.td_rule != a0.td_rule
            or a.n_states != a0.n_states
            or a.n_actions != a0.n_actions
            or a._init != a0._init
            or a.epsilon != a0.epsilon
            or a.alpha != a0.alpha
        ):
            raise BatchCompatError("agent hyper-parameters differ across runs")
        if not np.array_equal(c._floors, c0._floors) or not np.array_equal(
            c._caps, c0._caps
        ):
            raise BatchCompatError("power floors/caps differ across runs")


def _check_maxbips_group(ctrls: List[MaxBIPSController]) -> None:
    c0 = ctrls[0]
    for c in ctrls:
        if type(c) is not MaxBIPSController:
            raise BatchCompatError(f"not a stock MaxBIPSController: {type(c).__name__}")
        if c.method != "dp":
            raise BatchCompatError("only the DP method batches")
        if c.n_quanta != c0.n_quanta:
            raise BatchCompatError("n_quanta differs across runs")
        e, e0 = c._estimator, c0._estimator
        if not (
            np.array_equal(e._freqs, e0._freqs)
            and np.array_equal(e._volts, e0._volts)
            and np.array_equal(np.asarray(e._ceff), np.asarray(e0._ceff))
            and np.array_equal(np.asarray(e._base_cpi), np.asarray(e0._base_cpi))
            and np.array_equal(e._leak_per_level, e0._leak_per_level)
        ):
            raise BatchCompatError("estimator tables differ across runs")


def _check_pid_group(ctrls: List[PIDCappingController]) -> None:
    c0 = ctrls[0]
    for c in ctrls:
        if type(c) is not PIDCappingController:
            raise BatchCompatError(f"not a stock PIDCappingController: {type(c).__name__}")
        if c.kp != c0.kp or c.ki != c0.ki:
            raise BatchCompatError("PID gains differ across runs")
        if c.cfg.vf_levels != c0.cfg.vf_levels:
            raise BatchCompatError("VF tables differ across runs")


def build_batch_policy(controllers: Sequence[Controller]) -> BatchPolicy:
    """Pick the batch policy for a controller group.

    Returns a specialized policy when every controller qualifies, else the
    generic :class:`PerRunPolicy` (which is always correct — and is how
    watchdog-wrapped drivers batch).  A compat failure is a routing
    decision, not an error — the fallback preserves bit-identity by
    running the serial controllers themselves.
    """
    ctrls = list(controllers)
    if not ctrls:
        raise ValueError("build_batch_policy needs at least one controller")
    try:
        if all(isinstance(c, ODRLController) for c in ctrls):
            odrl = [c for c in ctrls if isinstance(c, ODRLController)]
            _check_odrl_group(odrl)
            return BatchODRL(odrl)
        if all(isinstance(c, MaxBIPSController) for c in ctrls):
            mb = [c for c in ctrls if isinstance(c, MaxBIPSController)]
            _check_maxbips_group(mb)
            return BatchMaxBIPS(mb)
        if all(isinstance(c, PIDCappingController) for c in ctrls):
            pid = [c for c in ctrls if isinstance(c, PIDCappingController)]
            _check_pid_group(pid)
            return BatchPID(pid)
    except BatchCompatError:
        return PerRunPolicy(ctrls)
    return PerRunPolicy(ctrls)
