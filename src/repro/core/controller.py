"""OD-RL: the paper's two-level DVFS controller.

Fine grain — one tabular Q-learning agent per core picks that core's VF
level every control epoch, from telemetry alone (model-free).  Coarse grain
— every ``realloc_period`` epochs the chip power budget is re-divided among
cores by their measured IPC (see :mod:`repro.core.budget`), so watts migrate
to cores that convert them into throughput.

The coarse level also maintains an **adaptive guard band**: shares are
drawn from ``(1 - guard) * budget`` and ``guard`` is integrated up whenever
the chip power exceeded TDP during the last window, down when it stayed
clear.  On heterogeneous mixes core-level fluctuations multiplex away and
the guard converges to (near) zero; on homogeneous workloads — where every
core presses its share simultaneously and per-core compliance no longer
implies chip compliance — the guard grows just enough to absorb the
correlated fluctuations.  This closes the loop on *chip*-level overshoot
without any per-core model.

The controller follows the :class:`repro.sim.interface.Controller` protocol
and consumes only sensed telemetry.  It is a
:class:`~repro.sim.interface.StackView` of the only OD-RL implementation,
the stacked decide :class:`repro.kernel.policies.BatchODRL`: it holds the
run's configuration, seed and exploration stream, its learned state lives
in row 0 of its own one-row stack, and ``decide`` hands the observation's
arrays to that stack.  Controllers stack into one :class:`BatchODRL` when
all are stock with equal hyper-parameters and ``thermal_limit`` (budgets,
seeds, warm starts and profilers may differ); a lone stock run decides
through its own stack, a watchdog-wrapped one through its ``decide``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.core.policy_io import check_snapshot, restore_snapshot, snapshot_policy
from repro.core.reward import RewardParams
from repro.core.state import StateEncoder
from repro.faults.sanitizer import SanitizerPolicy
from repro.manycore.chip import EpochObservation
from repro.manycore.config import SystemConfig
from repro.manycore.hetero import HeterogeneousMap
from repro.sim.interface import StackView

__all__ = ["ODRLController"]


class ODRLController(StackView):
    """On-line Distributed Reinforcement Learning DVFS controller.

    Parameters
    ----------
    cfg:
        System under control.
    realloc_period:
        Global budget reallocation cadence in epochs; ``0`` disables the
        coarse level entirely (ablation E8 runs fine-grain only).
    encoder:
        State discretizer; defaults to the slack+IPC variant.
    reward_params:
        Reward weights (overshoot penalty).
    gamma:
        Q-learning discount factor.
    td_rule:
        ``"q"`` (default, off-policy Q-learning) or ``"sarsa"``
        (on-policy).  SARSA bootstraps from the action actually taken
        next, valuing exploration risk — slightly more conservative near
        the budget cliff (ablation E8).
    action_mode:
        ``"relative"`` (default) — actions step the current VF level by one
        of :data:`RELATIVE_DELTAS`; the policy generalizes across phases
        ("when slightly over, step down") instead of memorizing absolute
        levels per bin.  ``"absolute"`` — actions select the level directly
        (ablation E8 contrasts the two).
    hetero:
        Optional core-type map.  The learning stays model-free; the map
        only tightens the platform constants every controller is
        provisioned with — the per-core power floors/caps bounding the
        budget shares (a little core must not be handed watts it can never
        draw).
    thermal_limit:
        Optional per-core temperature ceiling in kelvin (the extension
        feature, experiment E10).  When set, two mechanisms engage: a
        reward penalty proportional to the sensed excess over the limit
        (the agents *learn* to stay cool), and a hard dynamic-thermal-
        management reflex that steps any core at/above the limit down one
        level regardless of its agent's choice (the safety net real DTM
        firmware provides while a learner converges).
    degradation:
        Arm the graceful-degradation layer (default on): sensed telemetry
        passes through a :class:`~repro.faults.sanitizer.TelemetrySanitizer`
        before any learning, TD updates skip cores whose samples were
        repaired (never learn from fabricated readings), and a safe-state
        reflex reinitializes any agent whose Q-table goes non-finite and
        parks its core at the bottom VF level for one epoch.  With healthy
        telemetry the layer is bit-for-bit transparent.  ``False`` feeds
        raw sensed telemetry straight into learning (the "od-rl-raw"
        arm of experiment E15).
    sanitizer_policy:
        Thresholds for the telemetry sanitizer (staleness window, validity
        bounds); ``None`` selects :class:`~repro.faults.sanitizer.
        SanitizerPolicy` defaults.  Ignored when ``degradation`` is off.
    pretrained:
        Optional :func:`~repro.core.policy_io.snapshot_policy`-shaped
        snapshot (e.g. built by :mod:`repro.offline.warmstart` from
        offline training).  Applied on *every* :meth:`reset` — a
        simulation that resets the controller boots from the pretrained
        tables instead of a cold start.  Structural compatibility is
        validated immediately at construction.
    seed:
        Seeds both exploration and any stochastic tie-breaking.
    """

    name = "od-rl"
    _stack_policy = "BatchODRL"

    #: level steps available in relative action mode
    RELATIVE_DELTAS = (-2, -1, 0, 1, 2)

    #: guard-band controller constants: target overshoot rate, integral
    #: gain, and the maximum budget fraction the guard may withhold
    GUARD_TARGET = 0.01
    GUARD_GAIN = 0.05
    GUARD_MAX = 0.30

    #: reward penalty per kelvin of excess over the thermal limit
    THERMAL_PENALTY_PER_K = 0.5

    def __init__(
        self,
        cfg: SystemConfig,
        realloc_period: int = 10,
        encoder: Optional[StateEncoder] = None,
        reward_params: Optional[RewardParams] = None,
        gamma: float = 0.5,
        action_mode: str = "relative",
        td_rule: str = "q",
        thermal_limit: Optional[float] = None,
        hetero: Optional[HeterogeneousMap] = None,
        degradation: bool = True,
        sanitizer_policy: Optional[SanitizerPolicy] = None,
        pretrained: Optional[Dict[str, np.ndarray]] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(cfg)
        if realloc_period < 0:
            raise ValueError(f"realloc_period must be >= 0, got {realloc_period}")
        if action_mode not in ("relative", "absolute"):
            raise ValueError(
                f"action_mode must be 'relative' or 'absolute', got {action_mode!r}"
            )
        if thermal_limit is not None and thermal_limit <= cfg.technology.t_ambient:
            raise ValueError(
                "thermal_limit must exceed the ambient temperature "
                f"({cfg.technology.t_ambient} K)"
            )
        if not (0 <= gamma < 1):
            raise ValueError(f"gamma must be in [0, 1), got {gamma}")
        if td_rule not in ("q", "sarsa"):
            raise ValueError(f"td_rule must be 'q' or 'sarsa', got {td_rule!r}")
        self.thermal_limit = thermal_limit
        self.action_mode = action_mode
        self.realloc_period = realloc_period
        self.encoder = (
            encoder
            if encoder is not None
            else StateEncoder.variant("slack_ipc", cfg.n_levels)
        )
        if self.encoder.n_levels != cfg.n_levels and self.encoder.include_level:
            raise ValueError("encoder's n_levels must match the system VF table")
        self.reward_params = (
            reward_params if reward_params is not None else RewardParams()
        )
        self.gamma = gamma
        self.td_rule = td_rule
        self.n_states = self.encoder.n_states
        self.n_actions = (
            len(self.RELATIVE_DELTAS) if action_mode == "relative" else cfg.n_levels
        )
        self.degradation = degradation
        self.sanitizer_policy = (
            sanitizer_policy if sanitizer_policy is not None else SanitizerPolicy()
        )
        self._seed = seed
        #: the run's exploration stream; a stack of this controller's row
        #: draws from it, so the stream is the run's wherever it decides
        self._rng = np.random.default_rng(seed)
        self._floors, self._caps = self._power_bounds(cfg, hetero)
        if float(np.sum(self._floors)) > cfg.power_budget:
            raise ValueError(
                "chip budget below the sum of per-core power floors — "
                "infeasible even with every core at the bottom VF level"
            )
        if pretrained is not None:
            check_snapshot(pretrained, self)
        self._pretrained = dict(pretrained) if pretrained is not None else None

    @staticmethod
    def _power_bounds(
        cfg: SystemConfig, hetero: Optional[HeterogeneousMap] = None
    ) -> tuple:
        """Conservative per-core (floor, cap) power bounds from the VF table.

        Floor: bottom-level draw at maximum activity and a hot die — an
        allocation below this cannot be honoured by any action.  Cap: the
        top-level draw under the same pessimistic conditions — allocating
        beyond it is unusable.  With a core-type map, each core's bounds
        are scaled by its type's frequency/capacitance/leakage factors.
        """
        from repro.manycore.power import dynamic_power, leakage_power

        tech = cfg.technology
        act_hi = cfg.activity_range[1]
        t_hot = tech.t_ambient + 25.0
        if hetero is None:
            hetero = HeterogeneousMap.homogeneous(cfg.n_cores)
        if hetero.n_cores != cfg.n_cores:
            raise ValueError(
                f"hetero map covers {hetero.n_cores} cores but the system "
                f"has {cfg.n_cores}"
            )
        f_bot, v_bot = cfg.vf_levels[0]
        f_top, v_top = cfg.vf_levels[-1]

        def bound(f: float, v: float) -> np.ndarray:
            dyn = dynamic_power(
                tech, np.array(v), np.array(f) * hetero.freq_scale, np.array(act_hi)
            )
            leak = leakage_power(tech, np.array(v), np.array(t_hot))
            return dyn * hetero.ceff_scale + leak * hetero.leak_scale

        return bound(f_bot, v_bot), bound(f_top, v_top)

    def reset(self) -> None:
        """Forget all learning and return to the uniform allocation.

        With a ``pretrained`` snapshot, the reset lands on the pretrained
        tables instead of a cold start (warm-start semantics survive the
        ``reset=True`` every simulation run performs).
        """
        self.stack.reset()

    def decide(self, obs: Optional[EpochObservation]) -> np.ndarray:
        if obs is None:
            return self.stack.step(None, None, None, None)[0]
        # The hop: the observation's row arrays as one-row [None] views.
        arrays = (
            ("levels", obs.levels),
            ("sensed_power", obs.sensed_power),
            ("sensed_instructions", obs.sensed_instructions),
            ("sensed_temperature", obs.sensed_temperature),
        )
        shape = (self.n_cores,)
        for name, arr in arrays:
            if np.shape(arr) != shape:
                raise ValueError(f"{name} must have shape {shape}, got {np.shape(arr)}")
        levels, power, instructions, temperature = (
            np.asarray(arr)[None] for _, arr in arrays
        )
        return self.stack.step(levels, power, instructions, temperature)[0]

    def checkpoint(self) -> Dict[str, np.ndarray]:
        """Snapshot the learned state for crash/restart recovery.

        The in-memory form of :func:`repro.core.policy_io.save_policy`;
        :class:`repro.faults.watchdog.WatchdogController` calls this
        periodically and hands the snapshot back via :meth:`restore` after
        a controller crash, so a restart warm-starts from the last
        checkpoint instead of relearning from scratch.
        """
        return snapshot_policy(self)

    def restore(self, snapshot: Dict[str, np.ndarray]) -> None:
        """Load a :meth:`checkpoint` snapshot (after a :meth:`reset`).

        Restores tables, budget shares, guard band and the reallocation
        window; the one-epoch TD pipeline (previous state/action) stays
        cleared, so the first post-restore epoch acts without updating —
        exactly the information a real restart would have.
        """
        restore_snapshot(self, snapshot)

    # -- the row's state, read through the stack ---------------------------
    @property
    def q(self) -> np.ndarray:
        """Q-tables, ``(n_cores, n_states, n_actions)`` (a view)."""
        return self.stack.learner.q[0]

    @property
    def visits(self) -> np.ndarray:
        """Per-(core, state, action) visit counts (a view)."""
        return self.stack.learner.visits[0]

    @property
    def step_count(self) -> int:
        """TD updates so far: the exploration schedule's clock."""
        return int(self.stack.learner.step_counts[0])

    @property
    def allocation(self) -> np.ndarray:
        """Per-core budget shares in watts (a view)."""
        return self.stack.allocation[0]

    @allocation.setter
    def allocation(self, shares: np.ndarray) -> None:
        self.stack.allocation[0] = shares

    @property
    def guard(self) -> float:
        """Adaptive guard band: the budget fraction withheld."""
        return float(self.stack.guard[0])

    @property
    def agents_repaired(self) -> int:
        """Agents reinitialized by the safe-state reflex this run."""
        return int(self.stack.agents_repaired[0])

    @property
    def last_update(self) -> Optional[Dict[str, np.ndarray]]:
        """Harvest-mode scratch: the arrays of the most recent TD update
        (``None`` on epochs with no update).  Read only by the simulator's
        transition harvester — never by any control-flow decision."""
        return self.stack.last_update(0)

    @property
    def profiler(self) -> Any:
        """Optional :class:`repro.obs.PhaseProfiler`; when attached (the
        simulator does this under ``profile=True``) the sanitizer pass is
        timed into the ``sanitizer`` phase.  Never read back."""
        return self.stack.profiler

    @profiler.setter
    def profiler(self, profiler: Any) -> None:
        self.stack.profiler = profiler
