"""Trace archives → seeded, content-addressed replay buffers.

Harvested JSONL traces (``simulate(..., harvest=True)``) carry one
``transition`` event per TD update the online controller performed.  Each
event is *self-contained* — it records its own ``next_states`` — so a
crash-truncated trace simply has fewer transitions; ingestion can never
be forced to fabricate a successor state by pairing an epoch with a
missing follow-up.  Torn trailing lines (a process killed mid-write) are
tolerated via :func:`repro.obs.summarize.read_events_tolerant`.

The pipeline:

* :func:`harvest` — run the online OD-RL learner across a benchmark ×
  seed grid under a :class:`~repro.obs.recorder.JsonlRecorder`, producing
  one trace file per run;
* :func:`extract_runs` — parse a trace's events into per-run
  :class:`RunTransitions` (``(T, n_cores)`` arrays plus the manifest);
* :func:`build_buffer` / :func:`buffer_from_events` — flatten runs into
  one :class:`ReplayBuffer` of ``(state, action, reward, next_state,
  done)`` rows.

Content addressing and arrangement invariance: runs are deduplicated and
canonically ordered by :attr:`RunTransitions.run_key` (a digest of the
manifest identity) before flattening, so concatenating the same shards
in any order yields byte-identical buffers — and therefore the same
:attr:`ReplayBuffer.digest`, the dataset fingerprint the offline
trainers (:mod:`repro.offline.agents`) stamp into their provenance.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.summarize import read_events_tolerant

__all__ = [
    "RunTransitions",
    "ReplayBuffer",
    "extract_runs",
    "build_buffer",
    "buffer_from_events",
    "harvest",
]

#: Manifest fields that identify a harvested run.  Two trace shards whose
#: runs agree on all of these are the *same* deterministic run (the
#: simulator is bit-reproducible given them), so ingestion deduplicates
#: on their digest.
_IDENTITY_FIELDS = (
    "controller",
    "workload",
    "n_cores",
    "n_epochs",
    "seed",
    "power_budget",
    "epoch_time",
    "code_salt",
    "rl_n_states",
    "rl_n_actions",
    "rl_gamma",
    "rl_action_mode",
)


@dataclass(frozen=True)
class RunTransitions:
    """Every transition of one harvested run, as ``(T, n_cores)`` arrays.

    ``completed`` records whether the trace contained the run's
    ``run_end`` — a truncated run's transitions are all still valid
    (each is self-contained), it just contributes no terminal ``done``.
    """

    manifest: Dict[str, Any]
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    next_actions: np.ndarray
    mask: np.ndarray
    completed: bool

    @property
    def n_transitions(self) -> int:
        return int(self.states.shape[0])

    @property
    def run_key(self) -> str:
        """Content address of the run's manifest identity (hex digest)."""
        identity = {k: self.manifest.get(k) for k in _IDENTITY_FIELDS}
        payload = json.dumps(identity, sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


@dataclass
class ReplayBuffer:
    """Flattened ``(state, action, reward, next_state, done)`` dataset.

    Rows are per-core transitions whose trust ``mask`` was True in the
    trace (the online learner never updated from fabricated telemetry, so
    the offline trainers must not either).  ``done`` marks the final
    transition of a *completed* run — the only place bootstrapping has no
    successor.  ``next_actions`` rides along for SARSA-style targets.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    next_actions: np.ndarray
    dones: np.ndarray
    n_states: int
    n_actions: int
    n_cores: int
    gamma: float
    action_mode: str
    n_runs: int
    n_truncated_runs: int

    def __len__(self) -> int:
        return int(self.states.shape[0])

    @property
    def digest(self) -> str:
        """Content address of the dataset (hex digest).

        Covers the geometry, metadata and every transition byte in
        canonical order, so equal digests mean bit-identical training
        inputs — the first half of the offline determinism contract.
        """
        h = hashlib.sha256()
        meta = json.dumps(
            {
                "version": 1,
                "n_states": self.n_states,
                "n_actions": self.n_actions,
                "n_cores": self.n_cores,
                "gamma": self.gamma,
                "action_mode": self.action_mode,
            },
            sort_keys=True,
        )
        h.update(meta.encode("utf-8"))
        for arr in (
            self.states,
            self.actions,
            self.rewards,
            self.next_states,
            self.next_actions,
            self.dones,
        ):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def sample(self, n: int, seed: int) -> Dict[str, np.ndarray]:
        """``n`` transitions drawn with replacement, deterministic in ``seed``."""
        if n < 0:
            raise ValueError(f"sample size must be >= 0, got {n}")
        if len(self) == 0:
            raise ValueError("cannot sample from an empty replay buffer")
        rng = np.random.default_rng(seed)
        idx = rng.integers(len(self), size=n)
        return {
            "states": self.states[idx],
            "actions": self.actions[idx],
            "rewards": self.rewards[idx],
            "next_states": self.next_states[idx],
            "next_actions": self.next_actions[idx],
            "dones": self.dones[idx],
        }

    def shuffled(self, seed: int) -> "ReplayBuffer":
        """A row-permuted copy, deterministic in ``seed``."""
        rng = np.random.default_rng(seed)
        idx = rng.permutation(len(self))
        return ReplayBuffer(
            states=self.states[idx],
            actions=self.actions[idx],
            rewards=self.rewards[idx],
            next_states=self.next_states[idx],
            next_actions=self.next_actions[idx],
            dones=self.dones[idx],
            n_states=self.n_states,
            n_actions=self.n_actions,
            n_cores=self.n_cores,
            gamma=self.gamma,
            action_mode=self.action_mode,
            n_runs=self.n_runs,
            n_truncated_runs=self.n_truncated_runs,
        )


def extract_runs(
    events: Iterable[Dict[str, Any]], source: str = "<events>"
) -> List[RunTransitions]:
    """Per-run transition arrays from one trace's parsed event stream.

    Only harvest-mode runs (manifests with ``harvest: true``) yield
    transitions; ordinary traces extract to an empty list rather than an
    error, so mixed archives can be pointed at wholesale.  A run whose
    ``run_end`` never arrives — crash truncation, or a new ``run_start``
    while it was open — is closed as ``completed=False``.
    """
    runs: List[RunTransitions] = []
    manifest: Optional[Dict[str, Any]] = None
    rows: List[Dict[str, Any]] = []

    def close(completed: bool) -> None:
        nonlocal manifest, rows
        if manifest is not None and manifest.get("harvest"):
            runs.append(_assemble_run(manifest, rows, completed, source))
        manifest = None
        rows = []

    for ev in events:
        kind = ev.get("type")
        if kind == "run_start":
            close(completed=False)
            manifest = {k: v for k, v in ev.items() if k not in ("type", "seq")}
        elif kind == "transition":
            if manifest is None:
                raise ValueError(f"{source}: transition event outside any run")
            rows.append(ev)
        elif kind == "run_end":
            close(completed=True)
    close(completed=False)
    return runs


def _assemble_run(
    manifest: Dict[str, Any],
    rows: Sequence[Dict[str, Any]],
    completed: bool,
    source: str,
) -> RunTransitions:
    n_cores = int(manifest["n_cores"])
    n_states = int(manifest["rl_n_states"])
    n_actions = int(manifest["rl_n_actions"])
    t = len(rows)
    states = np.zeros((t, n_cores), dtype=np.int64)
    actions = np.zeros((t, n_cores), dtype=np.int64)
    rewards = np.zeros((t, n_cores), dtype=np.float64)
    next_states = np.zeros((t, n_cores), dtype=np.int64)
    next_actions = np.zeros((t, n_cores), dtype=np.int64)
    mask = np.zeros((t, n_cores), dtype=bool)
    for i, row in enumerate(rows):
        states[i] = row["states"]
        actions[i] = row["actions"]
        rewards[i] = row["rewards"]
        next_states[i] = row["next_states"]
        next_actions[i] = row["next_actions"]
        mask[i] = row["mask"]
    if t:
        for name, arr, bound in (
            ("state", states, n_states),
            ("next_state", next_states, n_states),
            ("action", actions, n_actions),
            ("next_action", next_actions, n_actions),
        ):
            if int(arr.min()) < 0 or int(arr.max()) >= bound:
                raise ValueError(
                    f"{source}: {name} index out of range [0, {bound}) in "
                    f"run {manifest.get('workload')!r}"
                )
    return RunTransitions(
        manifest=manifest,
        states=states,
        actions=actions,
        rewards=rewards,
        next_states=next_states,
        next_actions=next_actions,
        mask=mask,
        completed=completed,
    )


def buffer_from_events(
    event_streams: Sequence[Iterable[Dict[str, Any]]],
) -> ReplayBuffer:
    """Build a buffer from already-parsed event streams (one per shard)."""
    runs: List[RunTransitions] = []
    for i, events in enumerate(event_streams):
        runs.extend(extract_runs(events, source=f"<shard {i}>"))
    return _flatten(runs)


def build_buffer(paths: Sequence[Union[str, Path]]) -> ReplayBuffer:
    """Build a replay buffer from trace files (shard order irrelevant).

    Torn trailing lines are tolerated per shard; duplicate runs (same
    manifest identity appearing in several shards) are ingested once.
    """
    if not paths:
        raise ValueError("build_buffer needs at least one trace path")
    runs: List[RunTransitions] = []
    for path in paths:
        events, _torn = read_events_tolerant(str(path))
        runs.extend(extract_runs(events, source=str(path)))
    return _flatten(runs)


def _flatten(runs: Sequence[RunTransitions]) -> ReplayBuffer:
    if not runs:
        raise ValueError(
            "no harvested runs found — were the traces recorded with "
            "simulate(..., harvest=True)?"
        )
    # Canonical order + dedupe: sort by content address, keep the longer
    # of two shards of the same run (a truncated shard is a prefix of the
    # complete one, so the longer shard subsumes it).  On equal length the
    # completed shard wins: a prefix cut just before ``run_end`` carries
    # every transition but not the terminal flag.
    by_key: Dict[str, RunTransitions] = {}
    for run in runs:
        key = run.run_key
        kept = by_key.get(key)
        if kept is None or (run.n_transitions, run.completed) > (
            kept.n_transitions,
            kept.completed,
        ):
            by_key[key] = run
    ordered = [by_key[k] for k in sorted(by_key)]

    ref = ordered[0].manifest
    for run in ordered[1:]:
        for fld in ("rl_n_states", "rl_n_actions", "rl_gamma", "rl_action_mode"):
            if run.manifest.get(fld) != ref.get(fld):
                raise ValueError(
                    f"trace shards mix learner geometries: {fld} is "
                    f"{run.manifest.get(fld)!r} vs {ref.get(fld)!r}"
                )

    parts: Dict[str, List[np.ndarray]] = {
        "states": [], "actions": [], "rewards": [],
        "next_states": [], "next_actions": [], "dones": [],
    }
    n_truncated = 0
    for run in ordered:
        if not run.completed:
            n_truncated += 1
        if run.n_transitions == 0:
            continue
        m = run.mask
        dones2d = np.zeros(m.shape, dtype=bool)
        if run.completed:
            # Only a completed run has a known final transition; a
            # truncated run's last recorded transition is mid-episode.
            dones2d[-1, :] = True
        parts["states"].append(run.states[m])
        parts["actions"].append(run.actions[m])
        parts["rewards"].append(run.rewards[m])
        parts["next_states"].append(run.next_states[m])
        parts["next_actions"].append(run.next_actions[m])
        parts["dones"].append(dones2d[m])

    def cat(name: str, dtype: type) -> np.ndarray:
        if not parts[name]:
            return np.zeros(0, dtype=dtype)
        return np.concatenate(parts[name]).astype(dtype, copy=False)

    return ReplayBuffer(
        states=cat("states", np.int64),
        actions=cat("actions", np.int64),
        rewards=cat("rewards", np.float64),
        next_states=cat("next_states", np.int64),
        next_actions=cat("next_actions", np.int64),
        dones=cat("dones", bool),
        n_states=int(ref["rl_n_states"]),
        n_actions=int(ref["rl_n_actions"]),
        n_cores=int(ref["n_cores"]),
        gamma=float(ref["rl_gamma"]),
        action_mode=str(ref.get("rl_action_mode", "relative")),
        n_runs=len(ordered),
        n_truncated_runs=n_truncated,
    )


def harvest(
    out_dir: Union[str, Path],
    n_cores: int = 16,
    n_epochs: int = 400,
    benchmarks: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (0,),
    budget_fraction: float = 0.6,
) -> List[Path]:
    """Generate a harvest dataset: OD-RL across a benchmark × seed grid.

    The online learner is the only standard controller that performs TD
    updates, so it is the harvesting grid; each (benchmark, seed) cell
    runs under its own :class:`~repro.obs.recorder.JsonlRecorder` with
    ``harvest=True`` and lands in ``out_dir/harvest-<bench>-s<seed>.jsonl``.

    Returns the written paths in grid order.
    """
    # Imported here, not at module top: repro.offline must stay importable
    # without dragging the whole simulator stack in (and the sim package
    # imports repro.obs, which this module's neighbours feed).
    from repro.core.controller import ODRLController
    from repro.manycore.config import default_system
    from repro.obs.recorder import JsonlRecorder
    from repro.sim.simulator import run_controller
    from repro.workloads.suite import benchmark_names, make_benchmark, mixed_workload

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = list(benchmarks) if benchmarks is not None else benchmark_names()
    cfg = default_system(n_cores=n_cores, budget_fraction=budget_fraction)
    written: List[Path] = []
    for name in names:
        for seed in seeds:
            if name == "mixed":
                workload = mixed_workload(n_cores, seed=seed)
            else:
                workload = make_benchmark(name, n_cores, seed=seed)
            controller = ODRLController(cfg, seed=seed)
            path = out / f"harvest-{name}-s{seed}.jsonl"
            with JsonlRecorder(str(path)) as rec:
                run_controller(
                    cfg, workload, controller, n_epochs,
                    recorder=rec, harvest=True,
                )
            written.append(path)
    return written
