"""Controller-side telemetry sanitization: never learn from lies.

Sensors drop samples, black out whole epochs, and — through the chip's
fault campaign — can feed a controller zeros and garbage.  Feeding those
readings straight into reward computation and state encoding poisons the
Q-tables with transitions that never happened.  The sanitizer sits between
the raw observation and the learner and applies a standard firmware
discipline, per core and per epoch:

1. **Reject** readings that cannot be physical: non-finite values, power
   at or below the dropout floor (a live core always draws leakage, so a
   ~0 W reading is a failed transaction, not data), negative instruction
   counts, and temperatures below absolute plausibility.
2. **Hold last good** for up to ``max_staleness_epochs`` epochs — the
   previous accepted reading is the best available estimate over short
   outages.
3. **Fall back to the allocation-neutral estimate** beyond the staleness
   window: assume the core draws exactly its budget share (zero measured
   slack — the estimate that neither rewards nor punishes), retires
   nothing, and sits at the fallback temperature.

Every sanitized core is reported in the ``trusted`` mask so the caller can
exclude it from TD updates — agents only ever learn from samples a sensor
actually produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["SanitizerPolicy", "SanitizedTelemetry", "TelemetrySanitizer"]


@dataclass(frozen=True)
class SanitizerPolicy:
    """Tunables of the telemetry sanitizer.

    Attributes
    ----------
    max_staleness_epochs:
        How many consecutive epochs a rejected reading may be bridged by
        holding the last accepted one before falling back to the
        allocation-neutral estimate.
    power_floor_w:
        Readings at or below this many watts are treated as dropouts (a
        powered core always draws leakage, well above this).
    min_temperature_k:
        Temperatures below this are sensor garbage, not data.
    fallback_temperature_k:
        Temperature reported once a core is past the staleness window
        (typically the ambient temperature).
    """

    max_staleness_epochs: int = 5
    power_floor_w: float = 1e-3
    min_temperature_k: float = 100.0
    fallback_temperature_k: float = 318.0

    def __post_init__(self) -> None:
        if self.max_staleness_epochs < 0:
            raise ValueError(
                f"max_staleness_epochs must be >= 0, got {self.max_staleness_epochs}"
            )
        if self.power_floor_w < 0:
            raise ValueError(f"power_floor_w must be >= 0, got {self.power_floor_w}")


@dataclass(frozen=True)
class SanitizedTelemetry:
    """Sanitized per-core readings plus provenance.

    Attributes
    ----------
    power:
        Power estimate per core, watts.
    instructions:
        Instruction-count estimate per core.
    temperature:
        Temperature estimate per core, kelvin.
    trusted:
        True where the raw reading was accepted as-is; False where the
        sanitizer substituted a held or fallback value.  Untrusted cores
        must not drive TD updates.
    staleness:
        Consecutive epochs each core has gone without an accepted reading.
    """

    power: np.ndarray
    instructions: np.ndarray
    temperature: np.ndarray
    trusted: np.ndarray
    staleness: np.ndarray


class TelemetrySanitizer:
    """Stateful sanitizer for one telemetry stream, or a stack of them.

    Parameters
    ----------
    n_cores:
        Number of cores (and telemetry lanes) of one stream, or the
        ``(n_runs, n_cores)`` shape of a stack of independent streams.
        The registers take that shape; the rejected/fallback counters
        take the leading run axis (0-d for one stream, ``(n_runs,)`` for
        a stack).
    policy:
        Rejection/staleness tunables; defaults are conservative.
    """

    def __init__(
        self, n_cores: int | Tuple[int, int], policy: SanitizerPolicy | None = None
    ) -> None:
        shape = (n_cores,) if isinstance(n_cores, (int, np.integer)) else tuple(n_cores)
        if min(shape) < 1:
            raise ValueError(f"n_cores must be >= 1, got {n_cores}")
        self.policy = policy if policy is not None else SanitizerPolicy()
        self.shape = shape
        self.n_cores = shape[-1]
        self.rejected_samples = np.zeros(shape[:-1], dtype=np.int64)
        self.fallback_samples = np.zeros(shape[:-1], dtype=np.int64)
        self._staleness = np.zeros(shape, dtype=int)
        self._have_good = np.zeros(shape, dtype=bool)
        self._last_power = np.zeros(shape)
        self._last_instructions = np.zeros(shape)
        self._last_temperature = np.full(shape, self.policy.fallback_temperature_k)

    def reset(self) -> None:
        """Forget held readings and counters (start of a fresh run)."""
        self.rejected_samples.fill(0)
        self.fallback_samples.fill(0)
        self._staleness.fill(0)
        self._have_good.fill(False)
        self._last_power.fill(0.0)
        self._last_instructions.fill(0.0)
        self._last_temperature.fill(self.policy.fallback_temperature_k)

    def sanitize(
        self,
        power: np.ndarray,
        instructions: np.ndarray,
        temperature: np.ndarray,
        allocation: np.ndarray,
        active: Optional[np.ndarray] = None,
    ) -> SanitizedTelemetry:
        """Vet one epoch of raw sensor readings.

        Parameters
        ----------
        power:
            Raw sensed per-core power, watts.
        instructions:
            Raw sensed per-core retired-instruction counts.
        temperature:
            Raw sensed per-core temperature, kelvin.
        allocation:
            Current per-core budget shares in watts — the allocation-
            neutral power estimate used beyond the staleness window.
        active:
            Ragged-stack row mask, ``(n_runs,)`` bool: the counters of
            rows with ``active[r]`` false (finished runs) freeze.  Their
            registers keep advancing; they are never read again.
        """
        policy = self.policy
        power = np.asarray(power, dtype=float)
        instructions = np.asarray(instructions, dtype=float)
        temperature = np.asarray(temperature, dtype=float)
        allocation = np.asarray(allocation, dtype=float)
        for name, arr in (
            ("power", power),
            ("instructions", instructions),
            ("temperature", temperature),
            ("allocation", allocation),
        ):
            if arr.shape != self.shape:
                raise ValueError(f"{name} must have shape {self.shape}, got {arr.shape}")

        valid = (
            np.isfinite(power)
            & np.isfinite(instructions)
            & np.isfinite(temperature)
            & (power > policy.power_floor_w)
            & (instructions >= 0.0)
            & (temperature >= policy.min_temperature_k)
        )
        self.rejected_samples += self._tally(~valid, active)

        # Accepted readings refresh the hold registers.
        self._last_power = np.where(valid, power, self._last_power)
        self._last_instructions = np.where(valid, instructions, self._last_instructions)
        self._last_temperature = np.where(valid, temperature, self._last_temperature)
        self._have_good |= valid
        self._staleness = np.where(valid, 0, self._staleness + 1)

        hold = (
            ~valid
            & self._have_good
            & (self._staleness <= policy.max_staleness_epochs)
        )
        fallback = ~valid & ~hold
        self.fallback_samples += self._tally(fallback, active)

        out_power = np.where(valid, power, self._last_power)
        out_instr = np.where(valid, instructions, self._last_instructions)
        out_temp = np.where(valid, temperature, self._last_temperature)
        # Allocation-neutral estimate: the core draws exactly its share
        # (zero slack), retires nothing, sits at the fallback temperature.
        out_power = np.where(fallback, allocation, out_power)
        out_instr = np.where(fallback, 0.0, out_instr)
        out_temp = np.where(fallback, policy.fallback_temperature_k, out_temp)

        return SanitizedTelemetry(
            power=out_power,
            instructions=out_instr,
            temperature=out_temp,
            trusted=valid,
            staleness=self._staleness.copy(),
        )

    @staticmethod
    def _tally(flags: np.ndarray, active: Optional[np.ndarray]) -> np.ndarray:
        """Per-stream count of true ``flags``, zero on inactive rows."""
        counts = np.count_nonzero(flags, axis=-1)
        return counts if active is None else np.where(active, counts, 0)
