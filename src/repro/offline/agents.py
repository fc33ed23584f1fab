"""Offline trainers over replay buffers, and a linear-Q controller.

Three trainers, all pure fixed-order NumPy — **bit-deterministic** given
``(buffer.digest, seed)`` by construction (no RNG is consumed; ``seed``
is provenance, stamped into the result so a policy file is attributable
to its training run):

* :func:`fitted_q_iteration` — classic model-based FQI: build the
  empirical MDP (mean rewards, transition counts) from the dataset and
  run Bellman iterations over it.  Unvisited ``(s, a)`` cells keep the
  online learner's optimistic init, so a warm-started controller still
  explores the parts of the space the dataset never reached.
* :func:`conservative_q` — a CQL-style conservative variant: bootstrap
  maxima range only over actions with dataset support, and unsupported
  cells are pinned *below* the worst supported action by ``penalty``.
  Out-of-distribution actions can never look attractive, the failure
  mode plain FQI inherits from optimistic initialization.
* :func:`linear_q` — fitted-Q with linear function approximation over
  factored state features (one-hot slack bin ⊕ one-hot IPC bin ⊕ bias),
  solved by ridge least squares per action.  Usable where the tabular
  state space is coarse; its weights export through policy format v3.

The tables all pool transitions across cores: the paper's agents are
homogeneous (shared state/action space, shared reward shape), so every
core's experience is evidence about the same decision problem — the
offline analogue of the online population sharing one hyper-parameter
set.

:class:`LinearQController` closes the loop: a greedy, RNG-free
controller driving the learned linear Q-function, with the same windowed
IPC budget reallocation as OD-RL's coarse level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.budget import reallocate_budget, uniform_allocation
from repro.core.controller import ODRLController
from repro.core.state import StateEncoder
from repro.manycore.chip import EpochObservation
from repro.manycore.config import SystemConfig
from repro.manycore.hetero import HeterogeneousMap
from repro.offline.replay import ReplayBuffer
from repro.sim.interface import Controller

__all__ = [
    "OfflineTrainResult",
    "fitted_q_iteration",
    "conservative_q",
    "linear_q",
    "train",
    "TRAINERS",
    "state_features",
    "LinearQController",
]


@dataclass(frozen=True)
class OfflineTrainResult:
    """One offline training run's outputs plus its provenance.

    ``q`` and ``visits`` are ``(n_states, n_actions)`` pooled tables;
    ``weights`` is ``(n_actions, n_features)`` and present only for the
    linear trainer.  ``dataset_digest`` and ``seed`` are the determinism
    contract's key: equal pairs must reproduce ``q``/``weights`` bit for
    bit.
    """

    q: np.ndarray
    visits: np.ndarray
    trainer: str
    dataset_digest: str
    seed: int
    iterations: int
    gamma: float
    weights: Optional[np.ndarray] = None


def _empirical_model(
    buffer: ReplayBuffer,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Counts ``N(s,a)``, reward sums, and non-terminal transition counts
    ``C(s,a,s')`` from the dataset (``np.add.at`` is order-deterministic)."""
    s_dim, a_dim = buffer.n_states, buffer.n_actions
    n = np.zeros((s_dim, a_dim), dtype=np.int64)
    r_sum = np.zeros((s_dim, a_dim), dtype=np.float64)
    c = np.zeros((s_dim, a_dim, s_dim), dtype=np.int64)
    s, a = buffer.states, buffer.actions
    np.add.at(n, (s, a), 1)
    np.add.at(r_sum, (s, a), buffer.rewards)
    live = ~buffer.dones
    np.add.at(c, (s[live], a[live], buffer.next_states[live]), 1)
    return n, r_sum, c


def _check_training_args(buffer: ReplayBuffer, iterations: int) -> None:
    if len(buffer) == 0:
        raise ValueError("cannot train on an empty replay buffer")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")


def fitted_q_iteration(
    buffer: ReplayBuffer,
    gamma: Optional[float] = None,
    iterations: int = 100,
    seed: int = 0,
) -> OfflineTrainResult:
    """Fitted-Q iteration over the dataset's empirical MDP."""
    _check_training_args(buffer, iterations)
    g = buffer.gamma if gamma is None else float(gamma)
    init = 1.0 / (1.0 - g)
    n, r_sum, c = _empirical_model(buffer)
    visited = n > 0
    denom = np.maximum(n, 1)
    rbar = np.where(visited, r_sum / denom, 0.0)
    q = np.full((buffer.n_states, buffer.n_actions), init, dtype=np.float64)
    for _ in range(iterations):
        v = q.max(axis=1)
        # Terminal rows were excluded from c, so their bootstrap mass is
        # zero while the denominator still counts them — exactly
        # r + gamma * (1 - done) * max Q in expectation.
        ev = c @ v
        q = np.where(visited, rbar + g * ev / denom, init)
    return OfflineTrainResult(
        q=q,
        visits=n,
        trainer="fqi",
        dataset_digest=buffer.digest,
        seed=int(seed),
        iterations=int(iterations),
        gamma=g,
    )


def conservative_q(
    buffer: ReplayBuffer,
    gamma: Optional[float] = None,
    iterations: int = 100,
    penalty: float = 1.0,
    min_support: int = 1,
    seed: int = 0,
) -> OfflineTrainResult:
    """CQL-style conservative variant of :func:`fitted_q_iteration`.

    Bootstrap maxima range only over actions with at least
    ``min_support`` dataset visits, and cells without support are pinned
    ``penalty`` below the worst supported action of their state — the
    greedy policy can only pick actions the dataset vouches for.
    """
    _check_training_args(buffer, iterations)
    if penalty < 0:
        raise ValueError(f"penalty must be >= 0, got {penalty}")
    if min_support < 1:
        raise ValueError(f"min_support must be >= 1, got {min_support}")
    g = buffer.gamma if gamma is None else float(gamma)
    n, r_sum, c = _empirical_model(buffer)
    supported = n >= min_support
    denom = np.maximum(n, 1)
    rbar = np.where(supported, r_sum / denom, 0.0)
    q = np.zeros((buffer.n_states, buffer.n_actions), dtype=np.float64)
    for _ in range(iterations):
        v = np.where(supported, q, -np.inf).max(axis=1, initial=-np.inf)
        # States with no supported action bootstrap to the pessimistic
        # zero (an unknown state is worth nothing, not the optimist's
        # 1/(1-gamma)).
        v = np.where(np.isfinite(v), v, 0.0)
        ev = c @ v
        q_sup = rbar + g * ev / denom
        floor = np.where(supported, q_sup, np.inf).min(axis=1, initial=np.inf)
        floor = np.where(np.isfinite(floor), floor, 0.0) - penalty
        q = np.where(supported, q_sup, floor[:, None])
    return OfflineTrainResult(
        q=q,
        visits=n,
        trainer="cql",
        dataset_digest=buffer.digest,
        seed=int(seed),
        iterations=int(iterations),
        gamma=g,
    )


def state_features(n_states: int, n_ipc_bins: int = 4) -> np.ndarray:
    """``(n_states, n_features)`` feature matrix for the linear trainer.

    With the default slack×IPC encoding the state index factors as
    ``slack_bin * n_ipc_bins + ipc_bin``; the features are the two one-hot
    factors plus a bias — ``n_slack + n_ipc + 1`` weights per action
    instead of ``n_states``, the generalization that makes linear-Q
    usable where the tabular space is coarse (or sparsely visited).
    State spaces that do not factor fall back to one-hot-per-state ⊕
    bias, which degrades gracefully to the tabular case.
    """
    if n_states < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
    if n_ipc_bins >= 2 and n_states % n_ipc_bins == 0 and n_states > n_ipc_bins:
        n_slack = n_states // n_ipc_bins
        feats = np.zeros((n_states, n_slack + n_ipc_bins + 1), dtype=np.float64)
        idx = np.arange(n_states)
        feats[idx, idx // n_ipc_bins] = 1.0
        feats[idx, n_slack + idx % n_ipc_bins] = 1.0
        feats[:, -1] = 1.0
        return feats
    feats = np.zeros((n_states, n_states + 1), dtype=np.float64)
    feats[np.arange(n_states), np.arange(n_states)] = 1.0
    feats[:, -1] = 1.0
    return feats


def linear_q(
    buffer: ReplayBuffer,
    gamma: Optional[float] = None,
    iterations: int = 100,
    l2: float = 1e-6,
    n_ipc_bins: int = 4,
    seed: int = 0,
) -> OfflineTrainResult:
    """Fitted-Q with linear function approximation (per-action ridge).

    Each iteration regresses ``r + gamma * (1 - done) * max_a' Q(s', a')``
    onto the state features, one ridge solve per action.  The exported
    ``q`` table is the function evaluated on every state, so the result
    also warm-starts the tabular controller.
    """
    _check_training_args(buffer, iterations)
    if l2 <= 0:
        raise ValueError(f"l2 must be > 0, got {l2}")
    g = buffer.gamma if gamma is None else float(gamma)
    feats = state_features(buffer.n_states, n_ipc_bins=n_ipc_bins)
    n_features = feats.shape[1]
    phi = feats[buffer.states]
    live = np.where(buffer.dones, 0.0, 1.0)
    weights = np.zeros((buffer.n_actions, n_features), dtype=np.float64)
    ridge = l2 * np.eye(n_features)
    # Per-action normal-equation pieces are dataset constants; only the
    # targets change per iteration.
    rows = [buffer.actions == a for a in range(buffer.n_actions)]
    gram = [phi[r].T @ phi[r] + ridge for r in rows]
    for _ in range(iterations):
        q_all = feats @ weights.T
        v = q_all.max(axis=1)
        y = buffer.rewards + g * live * v[buffer.next_states]
        for a in range(buffer.n_actions):
            r = rows[a]
            if not bool(r.any()):
                continue
            weights[a] = np.linalg.solve(gram[a], phi[r].T @ y[r])
    n, _r_sum, _c = _empirical_model(buffer)
    return OfflineTrainResult(
        q=feats @ weights.T,
        visits=n,
        trainer="linear",
        dataset_digest=buffer.digest,
        seed=int(seed),
        iterations=int(iterations),
        gamma=g,
        weights=weights,
    )


#: Trainer registry for the CLI and experiments.
TRAINERS: Dict[str, Callable[..., OfflineTrainResult]] = {
    "fqi": fitted_q_iteration,
    "cql": conservative_q,
    "linear": linear_q,
}


def train(
    buffer: ReplayBuffer,
    trainer: str = "fqi",
    gamma: Optional[float] = None,
    iterations: int = 100,
    seed: int = 0,
) -> OfflineTrainResult:
    """Dispatch to a registered trainer by name."""
    if trainer not in TRAINERS:
        raise ValueError(
            f"unknown trainer {trainer!r}; available: {', '.join(TRAINERS)}"
        )
    fn = TRAINERS[trainer]
    return fn(buffer, gamma=gamma, iterations=iterations, seed=seed)


class LinearQController(Controller):
    """Greedy controller over a trained linear Q-function.

    Entirely RNG-free (greedy ties break to the first maximal action,
    ``np.argmax``'s rule) and learning-free — the offline weights *are*
    the policy.  The coarse level mirrors OD-RL's windowed-IPC budget
    reallocation without the adaptive guard band (there is no learning
    transient to guard).
    ``realloc_period`` is that reallocation cadence in epochs; ``0``
    disables the coarse level.
    """

    name = "linear-q"

    def __init__(
        self,
        cfg: SystemConfig,
        weights: np.ndarray,
        encoder: Optional[StateEncoder] = None,
        action_mode: str = "relative",
        realloc_period: int = 10,
        n_ipc_bins: Optional[int] = None,
        hetero: Optional[HeterogeneousMap] = None,
    ) -> None:
        super().__init__(cfg)
        if action_mode not in ("relative", "absolute"):
            raise ValueError(
                f"action_mode must be 'relative' or 'absolute', got {action_mode!r}"
            )
        if realloc_period < 0:
            raise ValueError(f"realloc_period must be >= 0, got {realloc_period}")
        self.action_mode = action_mode
        self.realloc_period = realloc_period
        self.encoder = (
            encoder
            if encoder is not None
            else StateEncoder.variant("slack_ipc", cfg.n_levels)
        )
        deltas = ODRLController.RELATIVE_DELTAS
        expected_actions = len(deltas) if action_mode == "relative" else cfg.n_levels
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[0] != expected_actions:
            raise ValueError(
                f"weights must have shape ({expected_actions}, n_features), "
                f"got {weights.shape}"
            )
        bins = self.encoder.n_ipc_bins if n_ipc_bins is None else n_ipc_bins
        feats = state_features(self.encoder.n_states, n_ipc_bins=bins)
        if weights.shape[1] != feats.shape[1]:
            raise ValueError(
                f"weights have {weights.shape[1]} features but the encoder's "
                f"state space yields {feats.shape[1]}"
            )
        self.weights = weights.copy()
        #: the function evaluated on every state — the greedy lookup table
        self._q_table = feats @ weights.T
        self._deltas = np.array(deltas, dtype=int)
        self._freqs = np.array([f for f, _ in cfg.vf_levels])
        self._floors, self._caps = ODRLController._power_bounds(cfg, hetero)
        self.reset()

    def reset(self) -> None:
        self.allocation = np.clip(
            uniform_allocation(self.cfg.power_budget, self.n_cores),
            self._floors,
            self._caps,
        )
        self._window_ipc = np.zeros(self.n_cores)
        self._window_epochs = 0

    def decide(self, obs: Optional[EpochObservation]) -> np.ndarray:
        if obs is None:
            return self._full(self.n_levels // 2)
        levels = obs.levels
        power = obs.sensed_power
        instructions = obs.sensed_instructions
        cycles = self._freqs[levels] * self.cfg.epoch_time
        ipc = instructions / np.maximum(cycles, 1.0)

        self._window_ipc += ipc
        self._window_epochs += 1
        if self.realloc_period > 0 and self._window_epochs >= self.realloc_period:
            scores = self._window_ipc / self._window_epochs
            self.allocation = reallocate_budget(
                self.cfg.power_budget, scores, self._floors, self._caps
            )
            self._window_ipc[:] = 0.0
            self._window_epochs = 0

        states = self.encoder.encode(power, self.allocation, ipc, levels)
        actions = np.argmax(self._q_table[states], axis=1)
        if self.action_mode == "absolute":
            return actions
        next_levels: np.ndarray = np.clip(
            levels + self._deltas[actions], 0, self.n_levels - 1
        )
        return next_levels
