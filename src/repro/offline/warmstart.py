"""Offline-trained policies → warm-started controllers, via policy_io v3.

The bridge between :mod:`repro.offline.agents` and the online
controller: a trained pooled table is broadcast to the per-core layout of
:func:`repro.core.policy_io.snapshot_policy`, stamped with provenance
(trainer, dataset digest, training seed — the determinism contract's
key), and written as a format-v3 ``.npz`` that
:func:`~repro.core.policy_io.load_policy` and older readers still
understand (the v3 payloads are *extra* keys; a v2 reader ignores them).

Booting from such a snapshot:

* :func:`build_warm_controller` — an :class:`~repro.core.controller.
  ODRLController` whose every ``reset`` restores the pretrained tables
  (``pretrained=``), named ``od-rl-warm`` in lineups.  The exported
  ``step_count`` places the epsilon schedule at the position the
  dataset's update count implies, so a warm start explores at the
  residual floor instead of re-running the 40 % exploration transient —
  that is where the overshoot-during-learning saving comes from (E16).
* :func:`build_linear_controller` — a :class:`~repro.offline.agents.
  LinearQController` over the snapshot's ``linear_weights``.

Warm-started controllers stack like cold ones: the stacked learner
(:class:`~repro.kernel.policies.BatchODRL`) restores each row's snapshot
on reset, reallocation window included, so a batched warm start is the
serial warm start bit for bit.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.core.budget import uniform_allocation
from repro.core.controller import ODRLController
from repro.core.policy_io import SUPPORTED_VERSIONS
from repro.manycore.config import SystemConfig
from repro.manycore.hetero import HeterogeneousMap
from repro.offline.agents import LinearQController, OfflineTrainResult

__all__ = [
    "policy_from_training",
    "save_offline_policy",
    "load_offline_policy",
    "policy_file_digest",
    "build_warm_controller",
    "build_linear_controller",
]

#: v3 provenance/payload keys this module writes beside the v2 fields.
PROVENANCE_KEYS = (
    "offline_trainer",
    "offline_dataset_digest",
    "offline_seed",
    "offline_iterations",
)


def policy_from_training(
    result: OfflineTrainResult,
    cfg: SystemConfig,
    action_mode: str = "relative",
    step_count: Optional[int] = None,
    hetero: Optional[HeterogeneousMap] = None,
) -> Dict[str, np.ndarray]:
    """A format-v3 snapshot dict from an offline training result.

    The pooled ``(n_states, n_actions)`` tables are broadcast to every
    core (the dataset pooled every core's experience, so each core's
    agent receives the same prior), and ``step_count`` defaults to the
    dataset's total update count — the epsilon-schedule position an
    online run of that length would have reached.
    """
    n_actions_expected = (
        len(ODRLController.RELATIVE_DELTAS)
        if action_mode == "relative"
        else cfg.n_levels
    )
    if result.q.shape[1] != n_actions_expected:
        raise ValueError(
            f"trained table has {result.q.shape[1]} actions but "
            f"{action_mode!r} mode on this system needs {n_actions_expected}"
        )
    n_cores = cfg.n_cores
    q3 = np.broadcast_to(result.q, (n_cores,) + result.q.shape).copy()
    visits3 = np.broadcast_to(
        result.visits.astype(np.int64), (n_cores,) + result.visits.shape
    ).copy()
    steps = int(result.visits.sum()) if step_count is None else int(step_count)
    floors, caps = ODRLController._power_bounds(cfg, hetero)
    allocation = np.clip(
        uniform_allocation(cfg.power_budget, n_cores), floors, caps
    )
    snapshot: Dict[str, np.ndarray] = {
        "format_version": np.array(SUPPORTED_VERSIONS[-1]),
        "n_cores": np.array(n_cores),
        "n_states": np.array(result.q.shape[0]),
        "n_actions": np.array(result.q.shape[1]),
        "action_mode": np.array(action_mode),
        "q": q3,
        "visits": visits3,
        "step_count": np.array(steps),
        "allocation": allocation,
        "guard": np.array(0.0),
        "epoch": np.array(0),
        "window_ipc": np.zeros(n_cores),
        "window_epochs": np.array(0),
        "window_over_epochs": np.array(0),
        "offline_trainer": np.array(result.trainer),
        "offline_dataset_digest": np.array(result.dataset_digest),
        "offline_seed": np.array(result.seed),
        "offline_iterations": np.array(result.iterations),
    }
    if result.weights is not None:
        snapshot["linear_weights"] = np.asarray(
            result.weights, dtype=np.float64
        ).copy()
    return snapshot


def save_offline_policy(
    snapshot: Dict[str, np.ndarray], path: Union[str, Path]
) -> None:
    """Write a snapshot dict to ``path`` (``.npz``, same layout as
    :func:`repro.core.policy_io.save_policy`)."""
    np.savez(Path(path), **snapshot)


def load_offline_policy(path: Union[str, Path]) -> Dict[str, np.ndarray]:
    """Read an ``.npz`` snapshot back into a dict of arrays.

    Any version in :data:`repro.core.policy_io.SUPPORTED_VERSIONS` loads
    (older files simply carry no offline provenance).
    """
    with np.load(Path(path), allow_pickle=False) as data:
        snapshot = {key: data[key] for key in data.files}
    version = int(snapshot.get("format_version", np.array(0)))
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(
            f"unsupported policy format version {version}; supported: "
            f"{SUPPORTED_VERSIONS}"
        )
    return snapshot


def policy_file_digest(path: Union[str, Path]) -> str:
    """Content address of a policy file (sha256 of its bytes).

    Controller factories carry this beside the path, so the result cache
    fingerprints *which* policy a run used — editing the file changes
    the digest and invalidates stale cached results.
    """
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _resolve_snapshot(
    policy: Union[str, Path, Dict[str, np.ndarray]],
    expected_digest: Optional[str],
) -> Dict[str, np.ndarray]:
    if isinstance(policy, (str, Path)):
        if expected_digest is not None:
            actual = policy_file_digest(policy)
            if actual != expected_digest:
                raise ValueError(
                    f"policy file {policy} digest mismatch: expected "
                    f"{expected_digest[:12]}…, found {actual[:12]}… — the "
                    "file changed since the factory was built"
                )
        return load_offline_policy(policy)
    if expected_digest is not None:
        raise ValueError("expected_digest applies only to policy file paths")
    return dict(policy)


def build_warm_controller(
    cfg: SystemConfig,
    policy: Union[str, Path, Dict[str, np.ndarray]],
    seed: int = 0,
    expected_digest: Optional[str] = None,
    realloc_period: int = 10,
) -> ODRLController:
    """An OD-RL controller that boots (and re-boots) from ``policy``.

    ``policy`` is a snapshot dict or an ``.npz`` path; structural
    compatibility with ``cfg`` is validated at construction, not at first
    decide.  The instance is named ``od-rl-warm`` so lineups and result
    tables distinguish it from the cold learner.  ``realloc_period`` is
    the budget reallocation cadence in epochs, as on ``ODRLController``.
    """
    snapshot = _resolve_snapshot(policy, expected_digest)
    action_mode = str(snapshot.get("action_mode", np.array("relative")))
    controller = ODRLController(
        cfg,
        realloc_period=realloc_period,
        action_mode=action_mode,
        pretrained=snapshot,
        seed=seed,
    )
    controller.name = "od-rl-warm"
    return controller


def build_linear_controller(
    cfg: SystemConfig,
    policy: Union[str, Path, Dict[str, np.ndarray]],
    expected_digest: Optional[str] = None,
    realloc_period: int = 10,
) -> LinearQController:
    """A :class:`LinearQController` over a snapshot's linear weights.

    ``realloc_period`` is the budget reallocation cadence in epochs, as
    on :class:`LinearQController`.
    """
    snapshot = _resolve_snapshot(policy, expected_digest)
    if "linear_weights" not in snapshot:
        trainer = str(snapshot.get("offline_trainer", np.array("?")))
        raise ValueError(
            "policy carries no linear_weights (trained with "
            f"{trainer!r}, not the 'linear' trainer)"
        )
    action_mode = str(snapshot.get("action_mode", np.array("relative")))
    return LinearQController(
        cfg,
        weights=snapshot["linear_weights"],
        action_mode=action_mode,
        realloc_period=realloc_period,
    )
