"""Batched controller policies: N runs' controllers advanced in lockstep.

Five shapes, selected by :func:`build_batch_policy`, the one routing rule
for every run, a lone one included, whatever its entry:

* :class:`BatchODRL` — the only OD-RL decide: sanitization, reward, state
  encoding and budget reallocation run over the stack, and one
  :class:`~repro.core.agent.QLearningPopulation` with a row per run acts
  and learns, each run exploring on its own stream.  Every
  :class:`ODRLController` is a one-row view of one; stock ones with the
  same hyper-parameters, power bounds and ``thermal_limit`` stack, and
  budgets, seeds, ``pretrained`` warm starts and profilers may differ.
* :class:`BatchMaxBIPS` — DP-method :class:`MaxBIPSController` runs
  sharing estimator tables: one stacked telemetry inversion, and a
  knapsack DP that advances and backtracks all runs per core.
* :class:`BatchGreedy` — stock greedy-ascent, or stock steepest-drop,
  runs sharing estimator tables: one stacked inversion, then one sorted
  scan of the whole stack's step tables, the controller's own code.
* :class:`BatchPID` — the only PI decide: every
  :class:`PIDCappingController` is a one-row view of one, and stock ones
  sharing gains and VF table stack into one elementwise update.
* :class:`PerRunPolicy` — anything else (watchdog-wrapped drivers, mixed
  or incompatible groups, harvesting runs): each run's own controller
  decides on its row view of the kernel observation.

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
import weakref
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.baselines.greedy import (
    GreedyAscentController,
    Heuristic,
    SteepestDropController,
)
from repro.baselines.maxbips import MaxBIPSController
from repro.baselines.pid import PIDCappingController
from repro.core.agent import QLearningPopulation
from repro.core.budget import reallocate_budgets, uniform_allocation
from repro.core.controller import ODRLController
from repro.core.policy_io import restore_row
from repro.core.reward import max_epoch_instructions, reward_rows
from repro.faults.sanitizer import TelemetrySanitizer
from repro.kernel.epoch import KernelObservation, _row_active
from repro.sim.interface import Controller, StackView

__all__ = [
    "BatchCompatError",
    "BatchPolicy",
    "PerRunPolicy",
    "BatchODRL",
    "BatchMaxBIPS",
    "BatchGreedy",
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

    def __getstate__(self) -> Dict[str, object]:
        # A controller's own stack sees it through a weak proxy, which does
        # not pickle; the controller relinks it when it is unpickled.
        state = dict(self.__dict__)
        if any(isinstance(c, weakref.ProxyType) for c in self.controllers):
            state["controllers"] = None
        return state

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
        """Run ``run``'s degradation counters (``result.extras["degradation"]``
        and the ``sanitizer`` events), ``None`` but for an armed learner."""
        return None


class PerRunPolicy(BatchPolicy):
    """Each run's own controller deciding on its kernel-row view.

    Each run's controller executes its own unmodified ``decide`` on a row
    view of the kernel observation, so any controller stacks (plant-side
    speedup only) and equivalence to a lone run is by construction.
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

    def degradation_extras(self, run: int) -> Optional[Dict[str, int]]:
        # A (watchdog-unwrapped) controller's own stack reports its row.
        ctrl = self.controllers[run]
        stack = getattr(getattr(ctrl, "inner", ctrl), "stack", None)
        return None if stack is None else stack.degradation_extras(0)


class BatchODRL(BatchPolicy):
    """The OD-RL decide: a stack of runs' agent rows advanced in lockstep.

    Each row is one run: its budget shares, guard band, reallocation
    window, epoch counter and sanitizer registers, and its row of
    :attr:`learner`, the tabular Q-learner holding every run's Q/visit
    tables and schedule clock.  An :class:`ODRLController` is row 0 of a
    one-row stack, so a stacked run and that run alone execute this code.
    Rows may differ in budget, seed and warm start; build stacks of
    several controllers via :func:`build_batch_policy`, which checks what
    must match.
    """

    kind = "od-rl"

    #: optional :class:`repro.obs.PhaseProfiler` timing the sanitizer pass
    profiler = None

    def __init__(self, controllers: Sequence[ODRLController]) -> None:
        super().__init__(controllers)
        c0 = controllers[0]
        cfg = self.cfg = c0.cfg
        self.encoder = c0.encoder
        self.reward_params = c0.reward_params
        self.action_mode = c0.action_mode
        self.realloc_period = c0.realloc_period
        self.degradation = c0.degradation
        self.thermal_limit = c0.thermal_limit
        self.n_states = c0.n_states
        self.n_actions = c0.n_actions
        #: every row's Q/visit tables and schedule clock, drawing from each
        #: run's own exploration stream
        self.learner = QLearningPopulation(
            self.n_cores,
            self.n_states,
            self.n_actions,
            gamma=c0.gamma,
            rng=[c._rng for c in controllers],
            optimistic_init=1.0 / (1.0 - c0.gamma),
            td_rule=c0.td_rule,
        )
        self._deltas = np.array(c0.RELATIVE_DELTAS, dtype=int)
        self._freqs = np.array([f for f, _ in cfg.vf_levels])
        self._instr_scale = max_epoch_instructions(cfg)
        self._floors = c0._floors
        self._caps = c0._caps
        self._floors_total = float(np.sum(self._floors))
        self.sanitizer = TelemetrySanitizer(
            (self.n_runs, self.n_cores), c0.sanitizer_policy
        )
        self.reset()

    def reset(self) -> None:
        """Cold-start every row, then warm-start the rows whose controller
        carries a ``pretrained`` snapshot.  The run's exploration streams
        are not reset (a controller's stream runs on across resets)."""
        n_runs, n_cores = self.n_runs, self.n_cores
        self._budgets = np.array([c.cfg.power_budget for c in self.controllers])
        self.learner.reset()
        # Uniform shares can exceed a core's cap on loose budgets; clamp
        # into the feasible box (the first reallocation fixes shares).
        self.allocation = np.clip(
            np.stack([uniform_allocation(b, n_cores) for b in self._budgets.tolist()]),
            self._floors,
            self._caps,
        )
        self.guard = np.zeros(n_runs)
        self._window_ipc = np.zeros((n_runs, n_cores))
        self._window_epochs = np.zeros(n_runs, dtype=np.int64)
        self._window_over = np.zeros(n_runs, dtype=np.int64)
        #: decides with telemetry per row (the snapshot's ``epoch``)
        self._epochs = np.zeros(n_runs, dtype=np.int64)
        self.agents_repaired = np.zeros(n_runs, dtype=np.int64)
        self._prev_states: Optional[np.ndarray] = None
        self._prev_actions: Optional[np.ndarray] = None
        self._prev_trusted: Optional[np.ndarray] = None
        self._last_update: Optional[Dict[str, np.ndarray]] = None
        self._last_active: Optional[np.ndarray] = None
        self.sanitizer.reset()
        for r, ctrl in enumerate(self.controllers):
            pretrained = ctrl._pretrained  # type: ignore[attr-defined]
            if pretrained is not None:
                restore_row(self, r, pretrained)

    def degradation_extras(self, run: int) -> Optional[Dict[str, int]]:
        if not self.degradation:
            return None
        return {
            "rejected_samples": int(self.sanitizer.rejected_samples[run]),
            "fallback_samples": int(self.sanitizer.fallback_samples[run]),
            "agents_repaired": int(self.agents_repaired[run]),
        }

    def last_update(self, run: int) -> Optional[Dict[str, np.ndarray]]:
        """Row ``run``'s transition of the most recent decide's TD update,
        or ``None``: harvest scratch, valid until the next decide."""
        update, active = self._last_update, self._last_active
        if update is None or (active is not None and not active[run]):
            return None
        return {key: value[run] for key, value in update.items()}

    def _reallocate(
        self, ipc: np.ndarray, over: np.ndarray, active: Optional[np.ndarray]
    ) -> None:
        """The coarse level: accumulate each live row's window, then re-
        divide the budget of every live row whose window is full by its
        windowed IPC, behind its adaptive guard band."""
        self._window_ipc += ipc
        if active is None:
            self._window_epochs += 1
            self._window_over += over
        else:
            self._window_epochs += active
            self._window_over += over & active
        if self.realloc_period == 0:
            return
        full = self._window_epochs >= self.realloc_period
        if active is not None:
            full &= active
        if not full.any():
            return
        # Views when every row reallocates (always for one row).
        runs = slice(None) if full.all() else np.flatnonzero(full)
        window = self._window_epochs[runs]
        over_rate = self._window_over[runs] / window
        # The guard constants are read from the controller, which may
        # override them per instance (equal across a stack's rows).
        c0: ODRLController = self.controllers[0]  # type: ignore[assignment]
        guard = np.clip(
            self.guard[runs] + c0.GUARD_GAIN * (over_rate - c0.GUARD_TARGET),
            0.0,
            c0.GUARD_MAX,
        )
        self.guard[runs] = guard
        distributable = (1.0 - guard) * self._budgets[runs]
        # Never guard below feasibility: where(f > d, f, d) is max(d, f).
        distributable = np.where(
            self._floors_total > distributable, self._floors_total, distributable
        )
        scores = self._window_ipc[runs] / window[:, None]
        self.allocation[runs] = reallocate_budgets(
            distributable, scores, self._floors, self._caps
        )
        self._window_ipc[runs] = 0.0
        self._window_epochs[runs] = 0
        self._window_over[runs] = 0

    def decide(
        self,
        bobs: Optional[KernelObservation],
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if bobs is None:
            return self.step(None, None, None, None, active)
        return self.step(
            bobs.levels,
            bobs.sensed_power,
            bobs.sensed_instructions,
            bobs.sensed_temperature,
            active,
        )

    def step(
        self,
        levels: Optional[np.ndarray],
        sensed_power: Optional[np.ndarray],
        sensed_instructions: Optional[np.ndarray],
        sensed_temperature: Optional[np.ndarray],
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """:meth:`decide` on the observation's ``levels``, ``sensed_power``
        (watts), ``sensed_instructions`` and ``sensed_temperature`` (kelvin)
        arrays, all ``None`` before the first epoch: the entry a controller
        view hops through with ``[None]`` row views."""
        n_runs, n_cores = self.n_runs, self.n_cores
        # Each run's budget as its controller's config states it now (a
        # run may change its budget between epochs).
        self._budgets = np.array([c.cfg.power_budget for c in self.controllers])
        # Cleared up front so a decide that raises (watchdog recovery)
        # cannot leave a stale update for the harvester to re-emit.
        self._last_update = None
        if levels is None:
            # No telemetry yet: start every core mid-ladder, a neutral point
            # that is safe on tight budgets and close on loose ones.
            self._prev_actions = None
            return np.full((n_runs, n_cores), self.n_levels // 2, dtype=int)

        if self.degradation:
            profiler = self.profiler
            t_san = time.perf_counter() if profiler is not None else 0.0
            telemetry = self.sanitizer.sanitize(
                sensed_power,
                sensed_instructions,
                sensed_temperature,
                self.allocation,
                active,
            )
            if profiler is not None:
                profiler.add("sanitizer", time.perf_counter() - t_san)
            power = telemetry.power
            instructions = telemetry.instructions
            temperature = telemetry.temperature
            trusted = telemetry.trusted
        else:
            power = sensed_power
            instructions = sensed_instructions
            temperature = sensed_temperature
            trusted = np.ones((n_runs, n_cores), dtype=bool)
        freq = self._freqs[levels]
        cycles = freq * self.cfg.epoch_time
        ipc = instructions / np.maximum(cycles, 1.0)

        chip_power = power.sum(axis=1)
        # Budgets are positive, as uniform_allocation checks on reset.
        rewards = reward_rows(
            self.reward_params, instructions, power, self.allocation,
            self._instr_scale, chip_power, self._budgets,
        )
        if self.thermal_limit is not None:
            excess = np.maximum(0.0, temperature - self.thermal_limit)
            penalty = self.controllers[0].THERMAL_PENALTY_PER_K  # type: ignore[attr-defined]
            rewards = rewards - penalty * excess
        # Reallocation runs before state encoding so the agents always act
        # (and the TD update always bootstraps) on the current shares.
        self._reallocate(ipc, chip_power > self._budgets, active)

        states = self.encoder.encode(power, self.allocation, ipc, levels)
        if self.degradation:
            # Safe-state reflex: a corrupted Q-table (non-finite rows) is
            # wiped before it can steer an action or absorb an update.
            repaired = self.learner.repair_nonfinite(active)
        else:
            repaired = np.zeros((n_runs, n_cores), dtype=bool)
        # The learner's unchecked entries: this decide builds its inputs
        # itself, so the public methods' argument checks would only add
        # per-epoch cost.
        actions = self.learner._act(states, active)
        if self._prev_states is not None and self._prev_actions is not None:
            # An update is only as good as the telemetry on both of its
            # ends; repaired agents' stale (state, action) pair refers to
            # the table that was just wiped.
            masks = trusted & self._prev_trusted & ~repaired
            self.learner._update(
                self._prev_states,
                self._prev_actions,
                rewards,
                states,
                actions,
                masks if self.degradation else None,
                active,
            )
            # References, not copies: the harvester serializes them before
            # the next decide can rebind any of these arrays.
            self._last_update = {
                "states": self._prev_states,
                "actions": self._prev_actions,
                "rewards": rewards,
                "next_states": states,
                "next_actions": actions,
                "mask": masks,
            }
            self._last_active = active
        self._prev_states = states
        self._prev_actions = actions
        self._prev_trusted = trusted
        self._epochs += 1 if active is None else active
        if self.action_mode == "absolute":
            next_levels = actions
        else:
            next_levels = np.clip(
                levels + self._deltas[actions], 0, self.n_levels - 1
            )
        if repaired.any():
            self.agents_repaired += np.count_nonzero(repaired, axis=1)
            # Park freshly reinitialized agents at the safe bottom level
            # for one epoch while their table restarts from scratch.
            next_levels = np.where(repaired, 0, next_levels)
        if self.thermal_limit is not None:
            # DTM reflex: a core at/over the limit steps down no matter
            # what its agent chose; the agent still learns from the reward.
            hot = temperature >= self.thermal_limit
            next_levels = np.where(hot, np.maximum(levels - 1, 0), next_levels)
        return next_levels


class _EstimatorPolicy(BatchPolicy):
    """A stack of model-based controllers sharing estimator tables: one
    stacked :meth:`~repro.baselines.estimator.PowerPerfEstimator.predict_tables`
    per decide.  Budgets may differ per run."""

    def __init__(self, controllers: Sequence[Controller]) -> None:
        super().__init__(controllers)
        self._estimator = controllers[0]._estimator  # type: ignore[attr-defined]
        self._budgets = np.array([c.cfg.power_budget for c in controllers])

    def _predict(self, bobs: Optional[KernelObservation]) -> Tuple[np.ndarray, np.ndarray]:
        """``(power, ips)`` tables of shape ``(n_runs, n_cores, n_levels)``."""
        if bobs is None:
            # Cold predictions are telemetry-free, hence run-independent:
            # compute once and tile into copies (broadcast_to would give
            # stride-0 rows whose reductions differ from serial).
            pred = self._estimator.cold_predictions(self.n_cores)
            return (
                np.tile(pred.power, (self.n_runs, 1, 1)),
                np.tile(pred.ips, (self.n_runs, 1, 1)),
            )
        return self._estimator.predict_tables(
            bobs.levels, bobs.sensed_instructions, bobs.sensed_power
        )


class BatchGreedy(_EstimatorPolicy):
    """All runs' greedy ascent, or all runs' steepest drop, in one decide.

    The predictions are computed once for the whole stack, and the live
    rows' levels come from one
    :meth:`~repro.baselines.greedy.Heuristic.stack_levels` call: the step
    tables and the sorted scan that replaces the heap pass
    (:func:`repro.baselines.greedy.sorted_scan`) run over the stack.  A
    directly called controller runs the same call on one row, so a stacked
    run and that run alone execute the same code.  Finished runs are
    skipped.  ``kind`` is the controllers' name.
    """

    def __init__(
        self, controllers: Sequence[GreedyAscentController | SteepestDropController]
    ) -> None:
        super().__init__(controllers)
        self.heuristic: Heuristic = controllers[0].heuristic
        self.kind = controllers[0].name

    def decide(
        self,
        bobs: Optional[KernelObservation],
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        power3, ips3 = self._predict(bobs)
        live = slice(None) if active is None else np.flatnonzero(active)
        out = np.zeros((self.n_runs, self.n_cores), dtype=int)
        out[live] = self.heuristic.stack_levels(
            power3[live], ips3[live], self._budgets[live]
        )
        return out


class BatchMaxBIPS(_EstimatorPolicy):
    """All runs' MaxBIPS (DP method) decided by one batched knapsack.

    The telemetry-to-prediction inversion is one stacked
    :meth:`~repro.baselines.estimator.PowerPerfEstimator.predict_tables`;
    the knapsack DP (:func:`_dp_rows`) sweeps all runs together per core
    and keeps value rows, from which it backtracks every run's levels.
    Each run has its own value table and quantum.  The policy is
    epoch-stateless, so ragged masking needs no gating — inactive rows
    simply compute unused (but valid) levels.
    """

    kind = "maxbips"

    def __init__(self, controllers: Sequence[MaxBIPSController]) -> None:
        super().__init__(controllers)
        self.n_quanta = controllers[0].n_quanta

    def decide(
        self,
        bobs: Optional[KernelObservation],
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        return self._solve_dp_batch(*self._predict(bobs))

    def _solve_dp_batch(self, power3: np.ndarray, ips3: np.ndarray) -> np.ndarray:
        """Batched :func:`repro.baselines.maxbips.solve_dp`.

        The rows run through :func:`_dp_rows` in chunks whose value-row
        history fits :data:`_DP_HISTORY_BYTES`.  NaN gains never win the
        serial strict-``>`` sweep; they are mapped to ``-inf``, which never
        wins it either, but which (unlike NaN) never wins ``max``.
        Infeasible runs return all-zeros, as the serial early return.
        """
        n_runs, n_cores, _ = power3.shape
        width = self.n_quanta + 1
        quantum = self._budgets / self.n_quanta
        cost = np.minimum(
            np.ceil(power3 / quantum[:, None, None]).astype(int), width
        )
        gains = np.where(np.isnan(ips3), -np.inf, ips3)
        infeasible = np.array(
            [float(np.sum(power3[r, :, 0])) > self._budgets[r] for r in range(n_runs)]
        )
        chunk = max(1, _DP_HISTORY_BYTES // (n_cores * width * 8))
        out = np.zeros((n_runs, n_cores), dtype=int)
        for start in range(0, n_runs, chunk):
            rows = slice(start, start + chunk)
            out[rows] = _dp_rows(cost[rows], gains[rows], infeasible[rows], width)
        return out


#: Bytes of per-core value rows one :func:`_dp_rows` call may keep; a
#: larger stack runs in chunks of rows (64 cores x 32 rows is 8.5 MB).
_DP_HISTORY_BYTES = 32 * 2**20


def _dp_rows(
    cost: np.ndarray, gains: np.ndarray, skip: np.ndarray, width: int
) -> np.ndarray:
    """The knapsack DP of :func:`repro.baselines.maxbips.solve_dp` over a
    stack of rows: ``cost`` and ``gains`` are ``(n_rows, n_cores,
    n_levels)`` (costs capped at ``width``, gains finite or ``-inf``), and
    rows with ``skip`` set, or with no finite value, return all-zeros.

    Forward, per core: the value row sits behind ``width`` cells of
    ``-inf`` padding, so shifting it by a level's cost ``c`` is the
    sliding window at offset ``width - c`` (a capped cost reads only
    padding).  One gather takes every level's shifted row, one ``+=``
    adds the gains, and ``max`` over levels gives the next value row; the
    maximum is exact, so each value is the serial sweep's float.  The
    rows are kept unpadded.  Backtrack, per core over the live rows: the
    candidates ``value[w - c] + gain`` are recomputed (the same IEEE
    additions), and the level is the *first* whose candidate equals the
    stored value, which is the serial sweep's first strict-``>`` winner.
    """
    n_rows, n_cores, _ = cost.shape
    start = np.full((n_rows, width), -np.inf)
    start[:, 0] = 0.0
    history = np.empty((n_cores, n_rows, width))
    padded = np.full((n_rows, 2 * width), -np.inf)
    padded[:, width:] = start
    windows = sliding_window_view(padded, width, axis=1)
    offsets = width - cost
    rows = np.arange(n_rows)[:, None]
    for i in range(n_cores):
        shifted = windows[rows, offsets[:, i, :]]
        shifted += gains[:, i, :, None]
        np.maximum.reduce(shifted, axis=1, out=history[i])
        padded[:, width:] = history[i]

    out = np.zeros((n_rows, n_cores), dtype=int)
    w_best = np.argmax(history[-1], axis=1)
    live = np.flatnonzero(np.isfinite(history[-1, rows[:, 0], w_best]) & ~skip)
    w = w_best[live]
    picks = np.arange(live.size)
    for i in range(n_cores - 1, -1, -1):
        source = w[:, None] - cost[live, i]
        prev = history[i - 1] if i else start
        candidates = prev[live[:, None], np.maximum(source, 0)] + gains[live, i]
        candidates[source < 0] = -np.inf
        lvl = np.argmax(candidates == history[i, live, w][:, None], axis=1)
        out[live, i] = lvl
        w = source[picks, lvl]
    return out


class BatchPID(BatchPolicy):
    """All runs' PI power caps advanced by one vectorized decide.

    Each row is one :class:`PIDCappingController`: the chip power is the
    row sum of the *sensed* power, ``delta = ki * error``, plus ``kp *
    (error - prev_error)`` once a previous error exists, moves the
    command, which is clipped to the ladder and rounded half to even
    (``np.rint``, as Python's ``round``).  Each run's ``error = (budget -
    power) / budget`` reads its budget as its config states it now.  Only
    active rows write state, so a finished run's command freezes where a
    standalone run of its length leaves it.
    """

    kind = "pid"

    def __init__(self, controllers: Sequence[PIDCappingController]) -> None:
        super().__init__(controllers)
        self.kp = controllers[0].kp
        self.ki = controllers[0].ki
        self.reset()

    def reset(self) -> None:
        self._command = np.full(self.n_runs, (self.n_levels - 1) / 2.0)
        self._prev_error = np.zeros(self.n_runs)
        self._has_prev = np.zeros(self.n_runs, dtype=bool)

    def decide(
        self,
        bobs: Optional[KernelObservation],
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        return self.step(None if bobs is None else bobs.sensed_power, active)

    def step(
        self, sensed_power: Optional[np.ndarray], active: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """:meth:`decide` on the observation's ``(n_runs, n_cores)``
        ``sensed_power`` (watts), ``None`` before the first epoch: the
        entry a controller view hops through with a ``[None]`` row view."""
        if sensed_power is not None:
            budgets = np.array([c.cfg.power_budget for c in self.controllers])
            power = sensed_power.sum(axis=1)
            # Python float arithmetic turns inf - inf into NaN silently;
            # so does this update.
            with np.errstate(invalid="ignore", over="ignore"):
                error = (budgets - power) / budgets
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
            # Never cast NaN to a level.
            raise ValueError(f"non-finite PID command: {self._command.tolist()}")
        out = np.empty((self.n_runs, self.n_cores), dtype=int)
        out[:] = np.rint(self._command).astype(int)[:, None]
        return out


#: What every row of a :class:`BatchODRL` must share: hyper-parameters,
#: the thermal limit, and the class constants an instance may override.
_ODRL_SHARED = (
    "thermal_limit", "action_mode", "realloc_period", "degradation", "encoder",
    "reward_params", "sanitizer_policy", "gamma", "td_rule", "RELATIVE_DELTAS",
    "GUARD_TARGET", "GUARD_GAIN", "GUARD_MAX", "THERMAL_PENALTY_PER_K",
)


def _check_odrl_group(ctrls: List[ODRLController]) -> None:
    c0 = ctrls[0]
    for c in ctrls:
        for name in _ODRL_SHARED:
            if getattr(c, name) != getattr(c0, name):
                raise BatchCompatError(f"{name} differs across runs")
        if not np.array_equal(c._floors, c0._floors) or not np.array_equal(
            c._caps, c0._caps
        ):
            raise BatchCompatError("power floors/caps differ across runs")


def _check_estimator_group(ctrls: Sequence[Controller]) -> None:
    """Every controller's estimator tables equal the first one's (the
    stack predicts through that estimator)."""
    e0 = ctrls[0]._estimator  # type: ignore[attr-defined]
    for c in ctrls:
        e = c._estimator  # type: ignore[attr-defined]
        if not (
            np.array_equal(e._freqs, e0._freqs)
            and np.array_equal(e._volts, e0._volts)
            and np.array_equal(np.asarray(e._ceff), np.asarray(e0._ceff))
            and np.array_equal(np.asarray(e._base_cpi), np.asarray(e0._base_cpi))
            and np.array_equal(e._leak_per_level, e0._leak_per_level)
        ):
            raise BatchCompatError("estimator tables differ across runs")


def _check_maxbips_group(ctrls: List[MaxBIPSController]) -> None:
    _check_estimator_group(ctrls)
    for c in ctrls:
        if c.method != "dp":
            raise BatchCompatError("only the DP method batches")
        if c.n_quanta != ctrls[0].n_quanta:
            raise BatchCompatError("n_quanta differs across runs")


def _check_pid_group(ctrls: List[PIDCappingController]) -> None:
    c0 = ctrls[0]
    for c in ctrls:
        if c.kp != c0.kp or c.ki != c0.ki:
            raise BatchCompatError("PID gains differ across runs")
        if c.cfg.vf_levels != c0.cfg.vf_levels:
            raise BatchCompatError("VF tables differ across runs")


#: (stock controller class, what its stack must share, its stacked policy)
_ROUTES: Tuple[Tuple[type, Callable[..., None], Callable[..., BatchPolicy]], ...] = (
    (ODRLController, _check_odrl_group, BatchODRL),
    (MaxBIPSController, _check_maxbips_group, BatchMaxBIPS),
    (GreedyAscentController, _check_estimator_group, BatchGreedy),
    (SteepestDropController, _check_estimator_group, BatchGreedy),
    (PIDCappingController, _check_pid_group, BatchPID),
)


def build_batch_policy(
    controllers: Sequence[Controller], harvest: bool = False
) -> BatchPolicy:
    """The policy a group of runs decides through: the one routing rule,
    for a lone run too, whatever its entry.

    Stock controllers of one class that agree on what a stack must share
    get its stacked policy, and a lone stock OD-RL or PID controller its
    own one-row ``stack``.  That stack sees the controller through a weak
    proxy, so the caller must hold the controller while the policy
    decides: once it is gone, the stack's first read of it raises a
    :class:`ReferenceError` saying so.  Anything else, and every group under
    ``harvest``, decides through :class:`PerRunPolicy`.
    """
    ctrls = list(controllers)
    if not ctrls:
        raise ValueError("build_batch_policy needs at least one controller")
    for cls, check, stacked in _ROUTES:
        if harvest or any(type(c) is not cls for c in ctrls):
            continue
        try:
            check(ctrls)
        except BatchCompatError:
            break
        lone = ctrls[0]
        return lone.stack if len(ctrls) == 1 and isinstance(lone, StackView) else stacked(ctrls)
    return PerRunPolicy(ctrls)
