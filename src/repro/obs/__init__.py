"""Structured observability: event tracing, phase timing, counters.

This package is the one sanctioned output channel for runtime telemetry
in ``repro`` (lint rule REPRO008 forbids bare ``print``/``logging``
elsewhere in the library).  It is an import *leaf*: nothing here imports
from other ``repro`` subpackages, so the chip, controllers, fault layer,
and parallel engine can all depend on it without cycles.

Three pieces:

* :mod:`repro.obs.recorder` — the :class:`Recorder` protocol with the
  zero-overhead :class:`NullRecorder` default, the streaming
  :class:`JsonlRecorder`, and the worker-side :class:`BufferRecorder`.
* :mod:`repro.obs.profiler` — :class:`PhaseProfiler` /
  :class:`TimingBreakdown`, the per-epoch decide/plant/sensor/contracts/
  sanitizer/watchdog wall-clock split.
* :mod:`repro.obs.metrics` — :class:`CounterRegistry`, the shared
  counter/gauge namespace behind the parallel subsystems' tallies.

Hard rule: observability is **write-only** with respect to the
simulation.  No control-flow decision may read a recorder, profiler, or
registry value, and all wall-clock quantities stay in trace events and
``result.extras`` — never in the deterministic result series.  Golden
traces must be bit-identical with observability on or off.
"""

from repro.obs.events import (
    EVENT_FIELDS,
    EVENT_TYPES,
    RESERVED_FIELDS,
    SCHEMA_VERSION,
    make_event,
    validate_event,
    validate_payload,
)
from repro.obs.metrics import CounterRegistry, delta
from repro.obs.profiler import NESTED_IN, PHASES, PhaseProfiler, TimingBreakdown
from repro.obs.recorder import (
    NULL_RECORDER,
    BufferRecorder,
    JsonlRecorder,
    NullRecorder,
    Recorder,
    replay_events,
)
from repro.obs.summarize import (
    TraceSummary,
    read_events,
    read_events_tolerant,
    render_summary,
    summarize_events,
    summarize_file,
)

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_TYPES",
    "EVENT_FIELDS",
    "RESERVED_FIELDS",
    "make_event",
    "validate_event",
    "validate_payload",
    "Recorder",
    "NullRecorder",
    "JsonlRecorder",
    "BufferRecorder",
    "NULL_RECORDER",
    "replay_events",
    "PHASES",
    "NESTED_IN",
    "PhaseProfiler",
    "TimingBreakdown",
    "CounterRegistry",
    "delta",
    "TraceSummary",
    "read_events",
    "read_events_tolerant",
    "summarize_events",
    "summarize_file",
    "render_summary",
]
