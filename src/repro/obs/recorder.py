"""Recorder protocol and the three concrete recorders.

A recorder is the single sink for observability events.  The contract is
deliberately tiny so hot-path call sites stay cheap:

``enabled``
    A plain attribute.  Hot loops guard event *construction* with
    ``if recorder.enabled:`` so the disabled path costs one attribute
    read and a branch — no dict building, no string formatting.
``emit(event_type, **fields)``
    Validate the payload against :mod:`repro.obs.events`, stamp it with
    the recorder's next sequence number, and deliver it.

Implementations
---------------
:class:`NullRecorder`
    The zero-overhead default.  ``enabled`` is False and ``emit`` is a
    no-op that performs no validation and allocates nothing.
:class:`JsonlRecorder`
    Streams each event as one JSON line to a file.  Writes are
    line-buffered through a plain text handle; ``close()`` (or use as a
    context manager) flushes and releases it.
:class:`BufferRecorder`
    Collects events in memory.  The parallel engine hands one to each
    worker-side ``simulate`` call and ships the buffer back with the
    result, so :func:`replay_events` can re-emit cell events into a parent
    recorder in deterministic task order regardless of worker scheduling.

A single module-level :data:`NULL_RECORDER` instance is shared wherever a
default is needed — the null recorder is stateless, so sharing is safe.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, List, Mapping, Optional, Protocol, Sequence, runtime_checkable

from repro.obs.events import make_event

__all__ = [
    "Recorder",
    "NullRecorder",
    "JsonlRecorder",
    "BufferRecorder",
    "NULL_RECORDER",
    "replay_events",
]


@runtime_checkable
class Recorder(Protocol):
    """Structural type of an event sink (see module docstring)."""

    enabled: bool

    def emit(self, event_type: str, **fields: Any) -> None: ...

    def flush(self) -> None: ...


class NullRecorder:
    """Recorder that records nothing, as cheaply as possible.

    ``emit`` deliberately skips schema validation: the disabled path must
    not pay for dict assembly or field checks.  Schema errors surface the
    moment a real recorder is attached, which every obs test exercises.
    """

    enabled: bool = False

    def emit(self, event_type: str, **fields: Any) -> None:
        return None

    def flush(self) -> None:
        return None


#: Shared default instance; the null recorder holds no state.
NULL_RECORDER = NullRecorder()


class _SequencedRecorder:
    """Shared numbering + validation for the real recorders."""

    enabled: bool = True

    def __init__(self) -> None:
        self._seq = 0

    def _next_event(self, event_type: str, fields: Dict[str, Any]) -> Dict[str, Any]:
        record = make_event(event_type, self._seq, fields)
        self._seq += 1
        return record


#: Events buffered before one batched encode+write.  Per-event encoding
#: inside the control loop runs with cold caches (each ~400 us simulation
#: epoch evicts the encoder's working set) and measures ~5x its tight-loop
#: cost; batching pays the cache-warming once per batch and keeps tracing
#: inside the <5% overhead budget enforced by ``tools/trace_overhead.py``.
_WRITE_BATCH = 64


class JsonlRecorder(_SequencedRecorder):
    """Stream events to ``path`` as JSON Lines.

    Parameters
    ----------
    path:
        File to create (truncated if present).  Parent directory must
        exist — trace files are an explicit user request, so a typo'd
        path should fail loudly, not silently mkdir.

    Notes
    -----
    Events are written with ``sort_keys=True`` so a trace's byte content
    is a deterministic function of its event sequence, which makes trace
    files diffable across runs.  Serialization is batched
    (:data:`_WRITE_BATCH` events at a time) to amortize encoder cache
    warm-up; :meth:`flush` forces pending events out, and :meth:`close`
    (or exiting the context manager) always flushes — a recorder that is
    never closed can lose its final partial batch.
    """

    def __init__(self, path: str) -> None:
        super().__init__()
        self._path = path
        self._fh: Optional[IO[str]] = open(path, "w", encoding="utf-8")
        # One shared encoder: json.dumps with keyword options builds a
        # fresh JSONEncoder per call, which is measurable at one event
        # per control epoch.
        self._encoder = json.JSONEncoder(sort_keys=True, default=_json_default)
        self._pending: List[Dict[str, Any]] = []

    @property
    def path(self) -> str:
        return self._path

    def emit(self, event_type: str, **fields: Any) -> None:
        if self._fh is None:
            raise ValueError(f"JsonlRecorder({self._path!r}) is closed")
        self._pending.append(self._next_event(event_type, fields))
        if len(self._pending) >= _WRITE_BATCH:
            self.flush()

    def flush(self) -> None:
        """Encode and write every pending event, then flush the handle.

        The OS-level flush makes the trace durable through the last
        emitted event even if the process later dies without reaching
        :meth:`close` — a run that raises mid-epoch must not tear off the
        buffered tail of its trace.
        """
        if self._fh is None:
            return
        if self._pending:
            encode = self._encoder.encode
            self._fh.write("".join(encode(r) + "\n" for r in self._pending))
            self._pending.clear()
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self.flush()
            self._fh.close()
            self._fh = None
            self.enabled = False

    def __enter__(self) -> "JsonlRecorder":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class BufferRecorder(_SequencedRecorder):
    """Accumulate events in memory (``.events`` list of dicts).

    Used worker-side in the parallel engine: events survive the pickle
    trip back to the parent, which replays them into its own recorder in
    task order.  Also convenient in tests.
    """

    def __init__(self) -> None:
        super().__init__()
        self.events: List[Dict[str, Any]] = []

    def emit(self, event_type: str, **fields: Any) -> None:
        self.events.append(self._next_event(event_type, fields))

    def flush(self) -> None:
        return None


def replay_events(rec: Recorder, events: Sequence[Mapping[str, Any]]) -> None:
    """Re-emit pre-built events (from a :class:`BufferRecorder`) into
    ``rec``, which re-stamps their sequence numbers into its own stream."""
    for event in events:
        payload = {k: v for k, v in event.items() if k not in ("type", "seq")}
        rec.emit(event["type"], **payload)


def _json_default(obj: Any) -> Any:
    """Serialize numpy scalars/arrays that leak into event payloads."""
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):
        return obj.item()
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")
