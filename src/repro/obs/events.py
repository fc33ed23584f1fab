"""Typed event schema of the observability layer.

Every record a :class:`~repro.obs.recorder.Recorder` emits is a flat JSON
object with two reserved fields — ``type`` (one of :data:`EVENT_TYPES`)
and ``seq`` (a per-recorder monotone sequence number assigned at emission)
— plus the type-specific payload fields listed in :data:`EVENT_FIELDS`.
Keeping the schema explicit and centralized means a trace file written by
one version of the code can be audited against the schema it claims
(:data:`SCHEMA_VERSION`), and the ``trace summarize`` renderer can reason
about unknown traces defensively.

Wall-clock quantities (phase durations, decision times) appear **only**
here and in ``result.extras`` — never in the deterministic simulation
series — so tracing a run cannot perturb its trajectory.

Event types
-----------
``run_start``
    Manifest of one closed-loop run: controller/workload names, core and
    epoch counts, budget, the controller seed when recoverable, and the
    code-version salt (:data:`repro.parallel.cache.CACHE_SALT`).
``epoch``
    One control epoch: chip power/instructions, max temperature, decision
    wall time, and — when profiling — the per-phase duration map.
``fault`` / ``sanitizer`` / ``watchdog``
    Incident records: newly affected fault samples by class, newly
    rejected/fabricated telemetry samples, and controller failures,
    recoveries, resets, crashes.
``checkpoint``
    Controller state saved (``action: "save"``) or restored
    (``action: "restore"``) by the watchdog.
``run_end``
    Totals of the run plus, when profiling, the aggregated
    :class:`~repro.obs.profiler.TimingBreakdown` as a dict.
``transition``
    One TD update of an RL controller, emitted only under harvest mode
    (``simulate(..., harvest=True)``): per-core state/action/reward/
    next-state/next-action index arrays plus the trust mask the update
    used.  Each record is self-contained — it carries its *own*
    ``next_states`` — so a crash-truncated trace can never force replay
    ingestion (:mod:`repro.offline`) to fabricate a successor state.
``cell_start`` / ``cell_cached`` / ``cell_done`` / ``cell_failed``
    Parallel-engine cell lifecycle: scheduled, replayed from the result
    cache, completed (with attempt count), or failed after retries.
``cell_retry`` / ``cell_timeout`` / ``cell_abandoned``
    Retry-stack incidents: an unsuccessful attempt granted another try
    (with the error's transient/deterministic classification and the
    backoff delay), a straggler cancelled by the hung-worker watchdog
    at its soft deadline, or a cell dropped *before* exhausting its
    attempt budget because its failures classified as deterministic
    (same error twice is not retried a third time).
``cache_quarantine``
    A cache entry failed integrity verification (checksum mismatch or
    unreadable file) and was moved to the cache's quarantine directory
    instead of being served or silently deleted.
``campaign_resume``
    A journalled campaign restarted: total planned cells, cells already
    completed per the journal, and cells still pending.
``cell_batched`` / ``cell_fallback``
    Stack routing: a cell executed inside its planned stack (with the
    plan group's index and size; a traced cell's run events follow it),
    or a cell of a stack that failed, re-queued to run alone —
    ``reason`` is ``"batch-error"``.  Traces written before every cell
    batched also carry older reasons (``"profile"``,
    ``"sim_kwargs:<key>"``, …); they validate and summarize unchanged.
``engine_summary``
    One per :func:`repro.parallel.engine.execute_cells` call: counter
    snapshot (cells run / cached / retried / failed, cache hits/misses).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Mapping, Tuple

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_TYPES",
    "EVENT_FIELDS",
    "RESERVED_FIELDS",
    "make_event",
    "validate_event",
]

#: Bump on any backwards-incompatible change to the event payloads.
SCHEMA_VERSION = 1

#: Fields present on every event, assigned by the recorder.
RESERVED_FIELDS: Tuple[str, ...] = ("type", "seq")

#: Required payload fields per event type.  Extra fields are allowed
#: (events are open records); missing required fields are schema errors.
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    "run_start": (
        "schema_version",
        "controller",
        "workload",
        "n_cores",
        "n_epochs",
        "code_salt",
    ),
    "epoch": ("epoch", "chip_power", "chip_instructions", "max_temperature"),
    "fault": ("epoch", "kind", "count"),
    "sanitizer": ("epoch", "rejected", "fallback"),
    "watchdog": ("epoch", "event"),
    "checkpoint": ("epoch", "action"),
    "run_end": ("n_epochs", "total_energy_j", "total_instructions"),
    "transition": (
        "epoch",
        "states",
        "actions",
        "rewards",
        "next_states",
        "next_actions",
        "mask",
    ),
    "cell_start": ("cell",),
    "cell_cached": ("cell",),
    "cell_batched": ("cell", "group", "size"),
    "cell_fallback": ("cell", "reason"),
    "cell_done": ("cell", "attempts"),
    "cell_failed": ("cell", "attempts", "error_type"),
    "cell_retry": ("cell", "attempt", "error_type", "classification", "delay"),
    "cell_timeout": ("cell", "attempt", "deadline"),
    "cell_abandoned": ("cell", "attempts", "error_type", "classification"),
    "cache_quarantine": ("key", "reason"),
    "campaign_resume": ("campaign", "total", "completed", "pending"),
    "engine_summary": ("counters",),
    # Service-layer lifecycle (repro.service): per-job streams carry the
    # engine's cell events above plus these job-scoped markers.
    "job_submitted": ("job", "kind", "cells"),
    "job_done": ("job", "status", "completed", "failed"),
    "cell_attached": ("cell", "origin"),
}

EVENT_TYPES: FrozenSet[str] = frozenset(EVENT_FIELDS)


def make_event(event_type: str, seq: int, fields: Mapping[str, Any]) -> Dict[str, Any]:
    """Assemble one schema-checked event record.

    Raises
    ------
    ValueError
        On an unknown event type, a payload that collides with a reserved
        field, or a missing required field.
    """
    validate_payload(event_type, fields)
    record: Dict[str, Any] = {"type": event_type, "seq": int(seq)}
    record.update(fields)
    return record


def validate_payload(event_type: str, fields: Mapping[str, Any]) -> None:
    """Check a payload against the schema before it becomes an event."""
    if event_type not in EVENT_TYPES:
        raise ValueError(
            f"unknown event type {event_type!r}; known: {sorted(EVENT_TYPES)}"
        )
    for reserved in RESERVED_FIELDS:
        if reserved in fields:
            raise ValueError(
                f"payload field {reserved!r} collides with a reserved event field"
            )
    missing = [f for f in EVENT_FIELDS[event_type] if f not in fields]
    if missing:
        raise ValueError(
            f"event {event_type!r} is missing required fields {missing}"
        )


def validate_event(record: Mapping[str, Any]) -> None:
    """Check one deserialized trace record against the schema.

    Used by the ``trace summarize`` reader so a truncated or hand-edited
    file fails loudly instead of silently skewing the summary.
    """
    event_type = record.get("type")
    if not isinstance(event_type, str) or event_type not in EVENT_TYPES:
        raise ValueError(f"record has unknown event type {event_type!r}")
    if not isinstance(record.get("seq"), int):
        raise ValueError(f"{event_type} record lacks an integer 'seq' field")
    missing = [f for f in EVENT_FIELDS[event_type] if f not in record]
    if missing:
        raise ValueError(
            f"{event_type} record is missing required fields {missing}"
        )
