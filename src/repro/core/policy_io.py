"""Persistence of learned OD-RL policies.

An on-line learner pays a warm-up cost after every cold start.  Real
deployments avoid that by checkpointing the learned tables — firmware
flashes the policy learned at burn-in, or migrates it across reboots.
These helpers serialize an :class:`~repro.core.controller.ODRLController`'s
learned state (Q-tables, visit counts, budget shares, guard band, and the
coarse-level reallocation window) and restore it into a *compatible*
controller.  That state is a row of the stacked learner
(:class:`repro.kernel.policies.BatchODRL`): a controller's is row 0 of
its one-row stack, and :func:`restore_row` warm-starts any row of a
larger stack.

Two granularities share one format:

* :func:`snapshot_policy` / :func:`restore_snapshot` — in-memory
  dictionaries of arrays, the currency of crash/restart checkpointing
  (:class:`repro.faults.watchdog.WatchdogController` keeps one and hands
  it back after a crash);
* :func:`save_policy` / :func:`load_policy` — the same snapshot written
  to / read from a single ``.npz`` file.

Compatibility is structural: same core count, state-space size, action
count and action mode.  Loading into a mismatched controller raises rather
than silently mis-indexing tables.

Format history (writes are always the newest version; every older
version still loads):

* **v1** — tables, shares and guard only.  Restoring starts a fresh
  reallocation window (the accumulators default to zero).
* **v2** — added the coarse-level window accumulators and epoch counter,
  so a crash/restart resumes mid-window instead of restarting it.
* **v3** — added optional offline-training payloads: provenance fields
  (trainer name, dataset digest, training seed — see
  :mod:`repro.offline.warmstart`) and linear function-approximation
  weights.  All optional; a v3 file without them is a v2 file with a
  bumped version stamp.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Dict, Union

import numpy as np

if TYPE_CHECKING:
    from repro.core.controller import ODRLController
    from repro.kernel.policies import BatchODRL

__all__ = [
    "save_policy",
    "load_policy",
    "snapshot_policy",
    "restore_snapshot",
    "restore_row",
    "SUPPORTED_VERSIONS",
]

#: The version new snapshots are written as (see the format history above).
_FORMAT_VERSION = 3

#: Every version :func:`restore_snapshot` still loads.
SUPPORTED_VERSIONS = (1, 2, 3)


def snapshot_policy(controller: "ODRLController") -> Dict[str, np.ndarray]:
    """Capture the controller's learned state as a dict of arrays.

    The state is row 0 of the controller's one-row learner stack.  The
    snapshot is a deep copy: later learning does not mutate it.
    """
    stack = controller.stack
    learner = stack.learner
    return {
        "format_version": np.array(_FORMAT_VERSION),
        "n_cores": np.array(stack.n_cores),
        "n_states": np.array(stack.n_states),
        "n_actions": np.array(stack.n_actions),
        "action_mode": np.array(stack.action_mode),
        "q": learner.q[0].copy(),
        "visits": learner.visits[0].copy(),
        "step_count": np.array(learner.step_counts[0]),
        "allocation": stack.allocation[0].copy(),
        "guard": np.array(stack.guard[0]),
        "epoch": np.array(stack._epochs[0]),
        "window_ipc": stack._window_ipc[0].copy(),
        "window_epochs": np.array(stack._window_epochs[0]),
        "window_over_epochs": np.array(stack._window_over[0]),
    }


def restore_snapshot(
    controller: "ODRLController", snapshot: Dict[str, np.ndarray]
) -> None:
    """Restore a :func:`snapshot_policy` capture into ``controller``
    (row 0 of its one-row learner stack).

    Raises
    ------
    ValueError
        On an unsupported format version or structural incompatibility
        (core count, table dimensions, action mode).  Every version in
        :data:`SUPPORTED_VERSIONS` loads; v1 snapshots restore with a
        fresh reallocation window (the fields v2 added default to zero),
        and v3-only payloads (provenance, linear weights) are ignored
        here — they parameterize :mod:`repro.offline`, not the tabular
        controller.
    """
    restore_row(controller.stack, 0, snapshot)


def check_snapshot(
    snapshot: Dict[str, np.ndarray], owner: Union["ODRLController", "BatchODRL"]
) -> int:
    """The snapshot's format version, once it is known to fit ``owner``.

    ``owner`` is a controller or a learner stack: both carry the core
    count, table dimensions and action mode a snapshot must match.

    Raises
    ------
    ValueError
        On an unsupported format version or a structural mismatch.
    """
    version = int(snapshot["format_version"])
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(
            f"unsupported policy format version {version}; supported: "
            f"{SUPPORTED_VERSIONS}"
        )
    checks = (
        ("n_cores", owner.n_cores),
        ("n_states", owner.n_states),
        ("n_actions", owner.n_actions),
    )
    for key, expected in checks:
        found = int(snapshot[key])
        if found != expected:
            raise ValueError(
                f"policy {key} mismatch: file has {found}, controller "
                f"has {expected}"
            )
    mode = str(snapshot["action_mode"])
    if mode != owner.action_mode:
        raise ValueError(
            f"policy action_mode mismatch: file has {mode!r}, controller "
            f"has {owner.action_mode!r}"
        )
    return version


def restore_row(stack: "BatchODRL", row: int, snapshot: Dict[str, np.ndarray]) -> None:
    """:func:`restore_snapshot` into row ``row`` of a learner stack: how a
    stack warm-starts the rows of pretrained controllers on reset."""
    version = check_snapshot(snapshot, stack)
    learner = stack.learner
    learner.q[row] = snapshot["q"]
    learner.visits[row] = snapshot["visits"]
    learner.step_counts[row] = int(snapshot["step_count"])
    stack.allocation[row] = snapshot["allocation"]
    stack.guard[row] = float(snapshot["guard"])
    if version >= 2:
        stack._epochs[row] = int(snapshot["epoch"])
        stack._window_ipc[row] = snapshot["window_ipc"]
        stack._window_epochs[row] = int(snapshot["window_epochs"])
        stack._window_over[row] = int(snapshot["window_over_epochs"])
    else:
        # v1 predates the window accumulators: restart the window, as
        # every v1 reader did.
        stack._epochs[row] = 0
        stack._window_ipc[row] = 0.0
        stack._window_epochs[row] = 0
        stack._window_over[row] = 0


def save_policy(controller: "ODRLController", path: Union[str, Path]) -> None:
    """Write the controller's learned state to ``path`` (``.npz``).

    Parameters
    ----------
    controller:
        A (possibly partially) trained OD-RL controller.
    path:
        Destination file; conventionally ``*.npz``.
    """
    np.savez(Path(path), **snapshot_policy(controller))


def load_policy(controller: "ODRLController", path: Union[str, Path]) -> None:
    """Restore learned state saved by :func:`save_policy` into ``controller``.

    Raises
    ------
    ValueError
        On format-version mismatch or structural incompatibility (core
        count, table dimensions, action mode).
    """
    with np.load(Path(path), allow_pickle=False) as data:
        restore_snapshot(controller, {key: data[key] for key in data.files})
