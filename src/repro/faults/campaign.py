"""Deterministic fault campaigns: what breaks, where, and when.

A :class:`FaultCampaign` is a *schedule* — a plain, immutable description
of every fault injected into one run.  Campaigns are either hand-written
(tests pin exact epochs) or drawn from :meth:`FaultCampaign.random` with a
seed, so a fault run is exactly as reproducible as a fault-free one: same
seed, same campaign, bit-for-bit the same trajectory.

Four fault classes cover the failure modes a power-management loop meets
in the field:

* :class:`CoreDeathFault` — the core retires nothing and draws leakage
  only, for a window of epochs or permanently (a hard error, a hung core,
  an OS-offlined CPU).
* :class:`ActuatorFault` — the VF actuator misbehaves: ``"drop"`` loses
  the level command (the level simply stays), ``"stuck"`` freezes the
  level at whatever was in force when the fault began.
* :class:`TelemetryBlackout` — whole-epoch sensor outage on one or more
  channels; every core's reading on that channel is lost (reads zero),
  on top of the per-sample dropout/stuck model in
  :mod:`repro.manycore.sensors`.
* :class:`ControllerCrash` — the controller process dies at a scheduled
  epoch and restarts with empty in-memory state (the watchdog decides
  whether a checkpoint softens the restart).

The campaign answers per-epoch queries (``dead_mask``, ``drop_mask``,
``stuck_mask``, ``blackout_channels``, ``crashes_at``) with plain numpy;
the *stateful* part of injection (capturing the level a stuck actuator
froze at, counting affected samples) is the epoch kernel's, one row per
run (:mod:`repro.faults.injector`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

import numpy as np

__all__ = [
    "SENSOR_CHANNELS",
    "CoreDeathFault",
    "ActuatorFault",
    "TelemetryBlackout",
    "ControllerCrash",
    "FaultCampaign",
]

#: Telemetry channel names a blackout may cover (the three sensors of
#: :class:`repro.manycore.sensors.SensorSuite`).
SENSOR_CHANNELS: Tuple[str, ...] = ("power", "perf", "temperature")


def _check_window(start_epoch: int, duration: Optional[int]) -> None:
    if start_epoch < 0:
        raise ValueError(f"start_epoch must be >= 0, got {start_epoch}")
    if duration is not None and duration < 1:
        raise ValueError(f"duration must be >= 1 epoch or None, got {duration}")


@dataclass(frozen=True)
class CoreDeathFault:
    """One core stops retiring instructions and draws leakage only.

    Attributes
    ----------
    core:
        Index of the affected core.
    start_epoch:
        First epoch the core is dead.
    duration:
        Width of the dead window in epochs; ``None`` means permanent.
    """

    core: int
    start_epoch: int
    duration: Optional[int] = None

    def __post_init__(self) -> None:
        if self.core < 0:
            raise ValueError(f"core must be >= 0, got {self.core}")
        _check_window(self.start_epoch, self.duration)

    def active(self, epoch: int) -> bool:
        """Is this fault in force at ``epoch``?"""
        if epoch < self.start_epoch:
            return False
        return self.duration is None or epoch < self.start_epoch + self.duration


@dataclass(frozen=True)
class ActuatorFault:
    """One core's VF actuator misbehaves for a window of epochs.

    Attributes
    ----------
    core:
        Index of the affected core.
    start_epoch:
        First epoch the actuator is faulty.
    duration:
        Width of the faulty window in epochs; ``None`` means permanent.
    mode:
        ``"drop"`` — level commands are lost and the level stays whatever
        it was last epoch; ``"stuck"`` — the level freezes at the value in
        force when the fault began, until the fault clears.
    """

    core: int
    start_epoch: int
    duration: Optional[int] = None
    mode: str = "drop"

    def __post_init__(self) -> None:
        if self.core < 0:
            raise ValueError(f"core must be >= 0, got {self.core}")
        _check_window(self.start_epoch, self.duration)
        if self.mode not in ("drop", "stuck"):
            raise ValueError(f"mode must be 'drop' or 'stuck', got {self.mode!r}")

    def active(self, epoch: int) -> bool:
        """Is this fault in force at ``epoch``?"""
        if epoch < self.start_epoch:
            return False
        return self.duration is None or epoch < self.start_epoch + self.duration


@dataclass(frozen=True)
class TelemetryBlackout:
    """Whole-epoch sensor outage: every core's reading on the covered
    channels is lost (reads zero) for the window.

    Attributes
    ----------
    start_epoch:
        First blacked-out epoch.
    duration:
        Width of the outage in epochs (finite — a permanently blind
        controller is a different experiment).
    channels:
        Subset of :data:`SENSOR_CHANNELS` the outage covers.
    """

    start_epoch: int
    duration: int = 1
    channels: Tuple[str, ...] = SENSOR_CHANNELS

    def __post_init__(self) -> None:
        _check_window(self.start_epoch, self.duration)
        bad = set(self.channels) - set(SENSOR_CHANNELS)
        if bad or not self.channels:
            raise ValueError(
                f"channels must be a non-empty subset of {SENSOR_CHANNELS}, "
                f"got {self.channels}"
            )

    def active(self, epoch: int) -> bool:
        """Is this outage in force at ``epoch``?"""
        return self.start_epoch <= epoch < self.start_epoch + self.duration


@dataclass(frozen=True)
class ControllerCrash:
    """The controller process dies (and restarts) at ``epoch``."""

    epoch: int

    def __post_init__(self) -> None:
        if self.epoch < 1:
            raise ValueError(
                f"crash epoch must be >= 1 (a controller that never started "
                f"cannot crash), got {self.epoch}"
            )


@dataclass(frozen=True)
class FaultCampaign:
    """The complete, immutable fault schedule for one run.

    Attributes
    ----------
    n_cores:
        Core count the campaign targets; per-core fault indices must be
        inside ``[0, n_cores)``.
    core_deaths, actuator_faults, blackouts, crashes:
        The scheduled fault events of each class (possibly empty).
    """

    n_cores: int
    core_deaths: Tuple[CoreDeathFault, ...] = ()
    actuator_faults: Tuple[ActuatorFault, ...] = ()
    blackouts: Tuple[TelemetryBlackout, ...] = ()
    crashes: Tuple[ControllerCrash, ...] = ()

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ValueError(f"n_cores must be >= 1, got {self.n_cores}")
        for fault in (*self.core_deaths, *self.actuator_faults):
            if fault.core >= self.n_cores:
                raise ValueError(
                    f"fault targets core {fault.core} but the campaign covers "
                    f"{self.n_cores} cores"
                )

    @property
    def n_events(self) -> int:
        """Total number of scheduled fault events."""
        return (
            len(self.core_deaths)
            + len(self.actuator_faults)
            + len(self.blackouts)
            + len(self.crashes)
        )

    @property
    def crash_epochs(self) -> Tuple[int, ...]:
        """Sorted epochs at which the controller crashes."""
        return tuple(sorted(c.epoch for c in self.crashes))

    # -- per-epoch queries ------------------------------------------------
    def dead_mask(self, epoch: int) -> np.ndarray:
        """Boolean mask of cores dead during ``epoch``."""
        mask = np.zeros(self.n_cores, dtype=bool)
        for death in self.core_deaths:
            if death.active(epoch):
                mask[death.core] = True
        return mask

    def drop_mask(self, epoch: int) -> np.ndarray:
        """Boolean mask of cores whose level command is lost at ``epoch``."""
        mask = np.zeros(self.n_cores, dtype=bool)
        for fault in self.actuator_faults:
            if fault.mode == "drop" and fault.active(epoch):
                mask[fault.core] = True
        return mask

    def stuck_mask(self, epoch: int) -> np.ndarray:
        """Boolean mask of cores whose actuator is stuck at ``epoch``."""
        mask = np.zeros(self.n_cores, dtype=bool)
        for fault in self.actuator_faults:
            if fault.mode == "stuck" and fault.active(epoch):
                mask[fault.core] = True
        return mask

    def blackout_channels(self, epoch: int) -> FrozenSet[str]:
        """The sensor channels blacked out during ``epoch``."""
        covered: set = set()
        for outage in self.blackouts:
            if outage.active(epoch):
                covered.update(outage.channels)
        return frozenset(covered)

    def crashes_at(self, epoch: int) -> bool:
        """Does the controller crash at the start of ``epoch``?"""
        return any(c.epoch == epoch for c in self.crashes)

    # -- constructors -----------------------------------------------------
    @classmethod
    def none(cls, n_cores: int) -> "FaultCampaign":
        """The empty campaign (a fault-free run)."""
        return cls(n_cores=n_cores)

    @classmethod
    def random(
        cls,
        n_cores: int,
        n_epochs: int,
        rate: float,
        seed: int,
        n_crashes: int = 0,
        death_window: Tuple[int, int] = (10, 50),
        actuator_window: Tuple[int, int] = (5, 25),
        blackout_window: Tuple[int, int] = (1, 3),
    ) -> "FaultCampaign":
        """Draw a seeded campaign with a target *combined fault rate*.

        ``rate`` is the expected fraction of (core, epoch) samples affected
        by a plant/telemetry fault, split evenly across the three fault
        classes (core death, actuator fault, telemetry blackout; a blackout
        epoch counts every core).  Event counts are rounded, so the
        realized density is approximate — the campaign itself, given the
        same arguments, is always *exactly* the same.

        Parameters
        ----------
        n_cores, n_epochs:
            Dimensions of the run the campaign is for.
        rate:
            Combined fault density in ``[0, 1)``; ``0`` yields the empty
            campaign (plus any scheduled crashes).
        seed:
            Seeds the campaign draw (independent of workload/learning
            seeds).
        n_crashes:
            Number of controller crash/restart events, spread over the
            middle of the run.
        death_window, actuator_window, blackout_window:
            Inclusive ``(min, max)`` duration ranges, in epochs, for each
            event class.
        """
        if not (0 <= rate < 1):
            raise ValueError(f"rate must be in [0, 1), got {rate}")
        if n_epochs < 1:
            raise ValueError(f"n_epochs must be >= 1, got {n_epochs}")
        if n_crashes < 0:
            raise ValueError(f"n_crashes must be >= 0, got {n_crashes}")
        rng = np.random.default_rng(seed)
        per_class = rate / 3.0

        def _durations(window: Tuple[int, int], count: int) -> np.ndarray:
            lo, hi = window
            if not (1 <= lo <= hi):
                raise ValueError(f"duration window must satisfy 1 <= lo <= hi, got {window}")
            return rng.integers(lo, hi + 1, size=count)

        def _event_count(window: Tuple[int, int], samples: float) -> int:
            mean_duration = 0.5 * (window[0] + window[1])
            return int(round(per_class * samples / mean_duration))

        deaths: List[CoreDeathFault] = []
        n_deaths = _event_count(death_window, n_cores * n_epochs)
        for duration in _durations(death_window, n_deaths):
            deaths.append(
                CoreDeathFault(
                    core=int(rng.integers(n_cores)),
                    start_epoch=int(rng.integers(n_epochs)),
                    duration=int(duration),
                )
            )

        actuators: List[ActuatorFault] = []
        n_actuators = _event_count(actuator_window, n_cores * n_epochs)
        for duration in _durations(actuator_window, n_actuators):
            actuators.append(
                ActuatorFault(
                    core=int(rng.integers(n_cores)),
                    start_epoch=int(rng.integers(n_epochs)),
                    duration=int(duration),
                    mode="drop" if rng.random() < 0.5 else "stuck",
                )
            )

        blackouts: List[TelemetryBlackout] = []
        # A blackout epoch blinds every core, so its density is per-epoch.
        n_blackouts = _event_count(blackout_window, float(n_epochs))
        for duration in _durations(blackout_window, n_blackouts):
            blackouts.append(
                TelemetryBlackout(
                    start_epoch=int(rng.integers(n_epochs)),
                    duration=int(duration),
                )
            )

        crashes: List[ControllerCrash] = []
        if n_crashes:
            # Crashes land in the middle half of the run: late enough that
            # there is learned state to lose, early enough to observe the
            # recovery.
            lo = max(1, n_epochs // 4)
            hi = max(lo + 1, (3 * n_epochs) // 4)
            epochs = rng.choice(np.arange(lo, hi), size=n_crashes, replace=False)
            crashes = [ControllerCrash(epoch=int(e)) for e in sorted(epochs)]

        return cls(
            n_cores=n_cores,
            core_deaths=tuple(deaths),
            actuator_faults=tuple(actuators),
            blackouts=tuple(blackouts),
            crashes=tuple(crashes),
        )
