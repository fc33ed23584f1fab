"""Bit-level equality of simulation results.

The determinism contract of the parallel engine is that a cell computed in
a worker process (or replayed from the cache) is *bit-identical* to the
same cell computed serially — same chip trajectories, same per-core
series, same fault/watchdog counters, same configuration.

The deliberate exceptions are the wall-clock observations:
``decision_time`` (measured with ``time.perf_counter`` around ``decide``)
and the ``extras["timing"]`` breakdown written under ``profile=True``.
Both are *observations of the host machine*, not of the simulated system.
Two runs of the same cell never agree on them, so ``decision_time`` is
excluded from trace equality by default (compared only when explicitly
requested) and ``timing`` is excluded always.

``extras`` dictionaries are compared up to JSON canonicalisation (tuples
become lists when a result round-trips through the on-disk format; the
information content is identical).
"""

from __future__ import annotations

import json
from typing import Any, List, Optional

import numpy as np

from repro.sim.result_io import _jsonable
from repro.sim.results import SimulationResult

__all__ = ["trace_equal", "assert_trace_equal"]

_SERIES = (
    "chip_power",
    "chip_instructions",
    "max_temperature",
    "core_power",
    "core_levels",
    "core_instructions",
)


def _json_canonical(obj: Any) -> Any:
    """``obj`` normalised through JSON (tuples→lists, numpy scalars→python)."""
    return json.loads(json.dumps(obj, sort_keys=True, default=_jsonable))


def _mismatches(
    a: SimulationResult, b: SimulationResult, compare_decision_time: bool
) -> List[str]:
    problems: List[str] = []
    if a.controller_name != b.controller_name:
        problems.append(
            f"controller_name: {a.controller_name!r} != {b.controller_name!r}"
        )
    if a.workload_name != b.workload_name:
        problems.append(f"workload_name: {a.workload_name!r} != {b.workload_name!r}")
    if a.cfg != b.cfg:
        problems.append("cfg: configurations differ")
    for name in _SERIES:
        left: Optional[np.ndarray] = getattr(a, name)
        right: Optional[np.ndarray] = getattr(b, name)
        if (left is None) != (right is None):
            problems.append(f"{name}: present on one side only")
        elif left is not None and right is not None and not np.array_equal(
            left, right
        ):
            diverges = int(np.argmax(np.any(np.atleast_2d(left != right), axis=-1)))
            problems.append(f"{name}: arrays differ (first divergence near epoch {diverges})")
    if compare_decision_time and not np.array_equal(a.decision_time, b.decision_time):
        problems.append("decision_time: arrays differ")
    if not compare_decision_time and a.decision_time.shape != b.decision_time.shape:
        problems.append(
            f"decision_time: lengths differ "
            f"({a.decision_time.shape[0]} != {b.decision_time.shape[0]})"
        )
    if _json_canonical(_deterministic_extras(a)) != _json_canonical(
        _deterministic_extras(b)
    ):
        problems.append("extras: dictionaries differ")
    return problems


def _deterministic_extras(result: SimulationResult) -> Any:
    """``extras`` minus wall-clock-only keys.

    ``timing`` (the :class:`repro.obs.TimingBreakdown` written under
    ``profile=True``) is host-machine measurement, exactly like
    ``decision_time``: two runs of the same cell never agree on it, so a
    profiled run must still compare trace-equal to an unprofiled one.
    """
    return {k: v for k, v in result.extras.items() if k != "timing"}


def trace_equal(
    a: SimulationResult,
    b: SimulationResult,
    compare_decision_time: bool = False,
) -> bool:
    """Are two results bit-identical on every deterministic field?

    Compares configuration, names, every chip-level and per-core series
    (exact — no tolerance), and ``extras`` up to JSON canonicalisation.
    ``decision_time`` is wall-clock and only compared when
    ``compare_decision_time`` is set (lengths are always checked).
    """
    return not _mismatches(a, b, compare_decision_time)


def assert_trace_equal(
    a: SimulationResult,
    b: SimulationResult,
    compare_decision_time: bool = False,
    context: str = "",
) -> None:
    """Raise ``AssertionError`` naming every differing field.

    ``compare_decision_time`` is a flag, not a duration: set it to also
    require bit-equal wall-clock ``decision_time`` arrays (only sensible
    when both sides store synthetic values, e.g. zeroed golden fixtures).
    The error message lists each mismatching series with the epoch where
    it first diverges — what a failed determinism or golden-trace test
    needs to be actionable, prefixed with ``context`` when given.
    """
    problems = _mismatches(a, b, compare_decision_time)
    if problems:
        where = f" [{context}]" if context else ""
        raise AssertionError(
            "simulation results differ" + where + ":\n  " + "\n  ".join(problems)
        )
