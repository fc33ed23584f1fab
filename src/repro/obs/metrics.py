"""Counter/gauge registry shared by the parallel subsystems.

Before this module, each subsystem grew its own ad-hoc tally dict
(``ResultCache.hits``/``misses``, the engine's retry bookkeeping) with no
common way to snapshot or diff them.  A :class:`CounterRegistry` gives
them one namespace-qualified home:

>>> reg = CounterRegistry()
>>> reg.inc("cache.hits")
>>> reg.set_gauge("engine.workers", 4)
>>> reg.snapshot()
{'cache.hits': 1, 'engine.workers': 4}

Counters are monotone integers (``inc``); gauges are set-to-value
(``set_gauge``) and may be floats.  ``snapshot()`` returns a plain dict
(sorted keys) safe to embed in extras or trace events; ``delta()``
diffs two snapshots, which is how the simulate loop turns cumulative
subsystem tallies into per-epoch incident events without the subsystems
ever knowing a recorder exists.

The registry is observability state: nothing in the simulation may read
values back out of it to make decisions.  Legacy surfaces
(``ResultCache.hits`` etc.) remain as read-only compatibility views
over the registry so existing tests and result extras are unchanged.
"""

from __future__ import annotations

from typing import Dict, Mapping, Union

__all__ = ["CounterRegistry", "delta"]

Number = Union[int, float]


class CounterRegistry:
    """Flat namespace of ``dotted.name -> number`` metrics."""

    def __init__(self) -> None:
        self._values: Dict[str, Number] = {}

    def inc(self, name: str, amount: int = 1) -> int:
        """Add ``amount`` to counter ``name`` (creating it at 0)."""
        if not name:
            raise ValueError("counter name must be non-empty")
        value = int(self._values.get(name, 0)) + int(amount)
        self._values[name] = value
        return value

    def set_gauge(self, name: str, value: Number) -> None:
        """Set gauge ``name`` to ``value`` (int or float)."""
        if not name:
            raise ValueError("gauge name must be non-empty")
        self._values[name] = value

    def get(self, name: str, default: Number = 0) -> Number:
        return self._values.get(name, default)

    def snapshot(self) -> Dict[str, Number]:
        """Point-in-time copy, keys sorted for stable serialization."""
        return {k: self._values[k] for k in sorted(self._values)}

    def view(self, prefix: str) -> Dict[str, Number]:
        """Snapshot of metrics under ``prefix.``, with the prefix
        stripped — the shape the legacy per-subsystem dicts exposed."""
        dot = prefix + "."
        return {
            k[len(dot):]: v
            for k, v in sorted(self._values.items())
            if k.startswith(dot)
        }

    def reset(self) -> None:
        self._values.clear()


def delta(
    before: Mapping[str, Number], after: Mapping[str, Number]
) -> Dict[str, Number]:
    """Metrics that changed between two snapshots (``after - before``).

    Keys absent from ``before`` count from zero; unchanged keys are
    omitted, so the result is exactly the incident payload for an epoch.
    """
    changed: Dict[str, Number] = {}
    for name, value in after.items():
        diff = value - before.get(name, 0)
        if diff != 0:
            changed[name] = diff
    return changed
