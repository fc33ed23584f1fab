"""Workload phase abstractions.

A workload is described the way a trace-driven DVFS study sees it: each core
executes a sequence of *phases*, and within a phase the core's memory
intensity (long-latency accesses per instruction) and compute intensity
(datapath utilisation) are stationary.  Real SPLASH-2/PARSEC applications
exhibit exactly this phase structure, which is what the per-core RL agent
learns to exploit.

Phase sequences are cyclic: a simulation longer than the trace wraps around,
the same convention trace-driven simulators use.

:meth:`CorePhaseSequence.phase_at` is the per-core reference lookup.  A
:class:`Workload` samples all its cores at once from one padded array
table of its sequences, built on first use; the table picks the very
phases ``phase_at`` picks, bit for bit.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Phase", "CorePhaseSequence", "Workload"]


@dataclass(frozen=True)
class Phase:
    """A stationary interval of core behaviour.

    Attributes
    ----------
    duration:
        Phase length in seconds.
    mem_intensity:
        Long-latency memory accesses per instruction (typical range
        0 — compute bound — up to ~0.03 for streaming memory-bound code).
    compute_intensity:
        Datapath utilisation in [0, 1]; drives switching activity.
    """

    duration: float
    mem_intensity: float
    compute_intensity: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.mem_intensity < 0:
            raise ValueError(f"mem_intensity must be >= 0, got {self.mem_intensity}")
        if not (0.0 <= self.compute_intensity <= 1.0):
            raise ValueError(
                f"compute_intensity must be in [0, 1], got {self.compute_intensity}"
            )


class CorePhaseSequence:
    """Cyclic sequence of phases executed by one core.

    Lookup by absolute time is O(log n) via a precomputed cumulative-duration
    table.
    """

    def __init__(self, phases: Sequence[Phase]) -> None:
        if not phases:
            raise ValueError("a core phase sequence needs at least one phase")
        self._phases: Tuple[Phase, ...] = tuple(phases)
        cumulative = []
        total = 0.0
        for p in self._phases:
            total += p.duration
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    @property
    def phases(self) -> Tuple[Phase, ...]:
        return self._phases

    @property
    def total_duration(self) -> float:
        """Length of one pass through the sequence, in seconds."""
        return self._total

    def phase_at(self, t: float) -> Phase:
        """The phase active at absolute time ``t`` (cyclic)."""
        if t < 0:
            raise ValueError(f"time must be >= 0, got {t}")
        t = t % self._total
        idx = bisect.bisect_right(self._cumulative, t)
        if idx >= len(self._phases):  # numerical edge at exact wrap point
            idx = len(self._phases) - 1
        return self._phases[idx]

    def __len__(self) -> int:
        return len(self._phases)


#: Bytes of every temporary one chunk of :meth:`Workload.sample_into`
#: holds, numpy's own buffers included.
_CHUNK_BYTES = 1 << 16


class _PhaseTable(NamedTuple):
    """Every sequence of a workload in one read-only padded table.

    ``ends[j, s]`` is sequence ``s``'s ``j``-th cumulative phase end — the
    very floats its :class:`CorePhaseSequence` accumulated — padded with
    ``+inf``, and ``totals[s]`` its cycle total.  ``mem`` and ``comp`` are
    the phase values flat, sequence ``s`` at ``s * width`` with ``width =
    len(ends) + 1``, padded with the sequence's last phase.  For a wrapped
    time ``w`` (``np.remainder`` is Python's float ``%`` bit for bit),
    ``stops[s] - count(w < ends[:, s])`` is then the flat index of
    ``bisect_right(cumulative, w)`` clamped to the last phase.
    """

    ends: np.ndarray
    totals: np.ndarray
    stops: np.ndarray
    mem: np.ndarray
    comp: np.ndarray
    #: narrowest unsigned type holding a phase count, for the counting sum
    count_dtype: np.dtype


def _compile(sequences: Tuple[CorePhaseSequence, ...]) -> _PhaseTable:
    n_seq = len(sequences)
    n_ends = max(len(seq) for seq in sequences)
    width = n_ends + 1
    ends = np.full((n_ends, n_seq), np.inf)
    mem = np.empty((n_seq, width))
    comp = np.empty((n_seq, width))
    for s, seq in enumerate(sequences):
        k = len(seq)
        ends[:k, s] = seq._cumulative
        mem[s, :k] = [p.mem_intensity for p in seq.phases]
        comp[s, :k] = [p.compute_intensity for p in seq.phases]
        mem[s, k:] = mem[s, k - 1]
        comp[s, k:] = comp[s, k - 1]
    totals = np.array([seq.total_duration for seq in sequences])
    stops = np.arange(n_seq) * width + n_ends
    mem, comp = mem.ravel(), comp.ravel()
    for array in (ends, totals, stops, mem, comp):
        array.flags.writeable = False
    return _PhaseTable(ends, totals, stops, mem, comp, np.min_scalar_type(n_ends))


class Workload:
    """A set of per-core phase sequences for an N-core chip.

    If fewer sequences than cores are provided the sequences are tiled
    round-robin — the convention for running a P-thread benchmark on more
    cores than threads.
    """

    def __init__(self, sequences: Sequence[CorePhaseSequence], name: str = "workload") -> None:
        if not sequences:
            raise ValueError("workload needs at least one core phase sequence")
        self._sequences: Tuple[CorePhaseSequence, ...] = tuple(sequences)
        self.name = name
        self._table: Optional[_PhaseTable] = None

    @property
    def sequences(self) -> Tuple[CorePhaseSequence, ...]:
        return self._sequences

    def sequence_for_core(self, core: int) -> CorePhaseSequence:
        """Phase sequence assigned to ``core`` (round-robin tiled)."""
        if core < 0:
            raise ValueError(f"core index must be >= 0, got {core}")
        return self._sequences[core % len(self._sequences)]

    def sample(self, t: float, n_cores: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-core ``(mem_intensity, compute_intensity)`` arrays at time ``t``.

        Core ``i`` reads ``sequence_for_core(i).phase_at(t)``.  The arrays
        are fresh and writable (memory systems rescale them in place).
        """
        if n_cores <= 0:
            raise ValueError(f"n_cores must be positive, got {n_cores}")
        if t < 0:
            raise ValueError(f"time must be >= 0, got {t}")
        table, n_seq = self._phase_table(), len(self._sequences)
        above = np.add.reduce(t % table.totals < table.ends, axis=0, dtype=table.count_dtype)
        flat = table.stops - above
        if n_cores != n_seq:
            flat = flat[np.arange(n_cores) % n_seq]
        return table.mem.take(flat), table.comp.take(flat)

    def sample_into(
        self, times: np.ndarray, mem: np.ndarray, comp: np.ndarray
    ) -> None:
        """Write ``sample(times[e], n_cores)`` into row ``e`` of ``mem`` and
        ``comp``, both ``(len(times), n_cores)``, a chunk of epochs at a time
        so the temporaries stay within :data:`_CHUNK_BYTES`: the ends above
        each time are counted a phase at a time, over contiguous rows."""
        times = np.asarray(times, dtype=float)
        if (times < 0).any():
            raise ValueError("times must be >= 0")
        table = self._phase_table()
        n_seq, n_cores = len(self._sequences), mem.shape[1]
        tiling = None if n_cores == n_seq else np.arange(n_cores) % n_seq
        # Bytes a chunk holds per epoch, measured under tracemalloc: each
        # sequence's wrapped time (whose memory the flat index reuses),
        # comparison, count and numpy's buffers for broadcast operands come
        # to under 30; each core's gathered value and tiled index, 8 each.
        per_epoch = 30 * n_seq + 8 * n_cores * (1 if tiling is None else 2)
        chunk = max(1, _CHUNK_BYTES // per_epoch)
        for e0 in range(0, len(times), chunk):
            rows = slice(e0, e0 + chunk)
            wrapped = times[rows, None] % table.totals
            is_above = np.empty(wrapped.shape, dtype=bool)
            above = np.zeros(wrapped.shape, dtype=table.count_dtype)
            for ends in table.ends:
                np.less(wrapped, ends, out=is_above)
                above += is_above.view(np.uint8)
            flat = np.subtract(table.stops, above, out=wrapped.view(np.intp))
            if tiling is not None:
                flat = flat.take(tiling, axis=-1)
            mem[rows] = table.mem.take(flat)
            comp[rows] = table.comp.take(flat)

    def _phase_table(self) -> _PhaseTable:
        if self._table is None:
            self._table = _compile(self._sequences)
        return self._table

    def __len__(self) -> int:
        return len(self._sequences)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Workload(name={self.name!r}, sequences={len(self._sequences)})"
