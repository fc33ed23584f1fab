"""Application of :class:`FaultCampaign` schedules to the plant.

A campaign is a pure schedule that answers one epoch's query by scanning
its event list.  The epoch kernel needs every run's masks for an epoch at
once, so each campaign is compiled, once, into *planes*
(:func:`compile_planes`): the epochs at which any mask changes (its change
points) and one mask row per segment between them — dead, dropped and
stuck ``(segments, n_cores)`` tables and a blackout ``(segments, 3)``
channel table.  A fault starting at epoch ``10**9`` adds two segments,
not ``10**9`` rows.  Compiled planes are immutable and cached per
campaign, so rows and kernels that share a campaign share its tables.

:class:`FaultPlanes` stacks the planes of every row of a kernel behind
one merged change-point index, so one epoch's masks for the whole stack
are a single row gather.  Each epoch the kernel:

1. filters the controllers' level commands through the actuator faults
   (:meth:`FaultPlanes.actuate`: dropped commands leave the level
   unchanged, stuck actuators hold their frozen level);
2. zeroes the retirement and dynamic power of dead cores
   (:meth:`FaultPlanes.dead`), which draw leakage only;
3. blanks the sensor channels blacked out this epoch
   (:meth:`FaultPlanes.blackout`).

The state injection needs — the level each stuck actuator froze at, which
is only known at runtime, and per-class counters of affected
(core, epoch) samples — lives in ``(rows, ·)`` arrays the caller owns: the
epoch kernel keeps one row per run and reports a run's counters, the
*realized* fault density next to the campaign's target, through
:meth:`~repro.kernel.epoch.EpochKernel.fault_counts`.  The per-epoch
scalar reference is the campaign's own queries
(:meth:`FaultCampaign.dead_mask` and friends).
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.faults.campaign import (
    SENSOR_CHANNELS,
    ActuatorFault,
    CoreDeathFault,
    FaultCampaign,
    TelemetryBlackout,
)

__all__ = ["COUNT_KINDS", "CampaignPlanes", "FaultPlanes", "compile_planes"]

#: per-class sample counters, in the column order of the counter arrays
COUNT_KINDS = ("dead", "dropped", "stuck", "blackout")
_DEAD, _DROPPED, _STUCK, _BLACKOUT = range(len(COUNT_KINDS))

_Event = Union[CoreDeathFault, ActuatorFault, TelemetryBlackout]


@dataclass(frozen=True, eq=False)
class CampaignPlanes:
    """One campaign's masks per segment between its change points.

    Segment ``k`` covers epochs ``[starts[k], starts[k + 1])``; the last
    one runs forever.  ``starts[0]`` is always 0.
    """

    starts: Tuple[int, ...]
    dead: np.ndarray
    drop: np.ndarray
    stuck: np.ndarray
    blackout: np.ndarray


@functools.lru_cache(maxsize=256)
def compile_planes(campaign: FaultCampaign) -> CampaignPlanes:
    """``campaign``'s mask planes (cached: equal campaigns share them)."""
    events: List[_Event] = [
        *campaign.core_deaths,
        *campaign.actuator_faults,
        *campaign.blackouts,
    ]
    points = {0}
    for event in events:
        points.add(event.start_epoch)
        if event.duration is not None:
            points.add(event.start_epoch + event.duration)
    starts = tuple(sorted(points))
    n_seg, n_cores = len(starts), campaign.n_cores

    def segments(event: _Event) -> slice:
        end = (
            n_seg
            if event.duration is None
            else bisect_left(starts, event.start_epoch + event.duration)
        )
        return slice(bisect_left(starts, event.start_epoch), end)

    dead = np.zeros((n_seg, n_cores), dtype=bool)
    drop = np.zeros((n_seg, n_cores), dtype=bool)
    stuck = np.zeros((n_seg, n_cores), dtype=bool)
    blackout = np.zeros((n_seg, len(SENSOR_CHANNELS)), dtype=bool)
    for death in campaign.core_deaths:
        dead[segments(death), death.core] = True
    for fault in campaign.actuator_faults:
        plane = drop if fault.mode == "drop" else stuck
        plane[segments(fault), fault.core] = True
    for outage in campaign.blackouts:
        for channel in outage.channels:
            blackout[segments(outage), SENSOR_CHANNELS.index(channel)] = True
    for table in (dead, drop, stuck, blackout):
        table.setflags(write=False)
    return CampaignPlanes(starts, dead, drop, stuck, blackout)


class FaultPlanes:
    """The fault planes of a stack of runs, indexed by epoch.

    Row 0 of every table is fault-free; run ``r`` reads, at each merged
    change point, the table row of its campaign's segment there.  ``None``
    entries (fault-free runs) and inactive rows read row 0.

    Parameters
    ----------
    campaigns:
        One optional campaign per run; at least one must be given, and
        all given ones must cover the same cores.
    """

    def __init__(self, campaigns: Sequence[Optional[FaultCampaign]]) -> None:
        compiled = [None if c is None else compile_planes(c) for c in campaigns]
        # Each distinct campaign's segments once, after the fault-free row.
        unique: List[CampaignPlanes] = []
        offsets: Dict[int, int] = {}
        row = 1
        for planes in compiled:
            if planes is not None and id(planes) not in offsets:
                unique.append(planes)
                offsets[id(planes)] = row
                row += len(planes.starts)

        def table(name: str, width: int) -> np.ndarray:
            parts = [np.zeros((1, width), dtype=bool)]
            return np.concatenate(parts + [getattr(p, name) for p in unique])

        self.n_cores = next(c.n_cores for c in campaigns if c is not None)
        self._dead = table("dead", self.n_cores)
        self._drop = table("drop", self.n_cores)
        self._stuck = table("stuck", self.n_cores)
        self._blackout = table("blackout", len(SENSOR_CHANNELS))
        merged = sorted({s for p in unique for s in p.starts})
        self._starts: List[int] = merged
        self._rows = np.zeros((len(merged), len(campaigns)), dtype=np.intp)
        points = np.asarray(merged)
        for r, planes in enumerate(compiled):
            if planes is not None:
                segment = np.searchsorted(planes.starts, points, side="right") - 1
                self._rows[:, r] = offsets[id(planes)] + segment
        #: which fault classes any run ever meets (lets a step skip a plane)
        self.has_actuator = bool(self._drop.any() or self._stuck.any())
        self.has_dead = bool(self._dead.any())
        self.has_blackout = bool(self._blackout.any())

    def rows(self, epoch: int, active: Optional[np.ndarray] = None) -> np.ndarray:
        """Every run's table row at ``epoch``; inactive runs read row 0."""
        rows = self._rows[bisect_right(self._starts, epoch) - 1]
        return rows if active is None else np.where(active, rows, 0)

    def actuate(
        self,
        rows: np.ndarray,
        current: np.ndarray,
        commanded: np.ndarray,
        stuck_levels: np.ndarray,
        counts: np.ndarray,
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The levels actually applied after actuator faults.

        ``current`` are the levels in force during the previous epoch and
        ``commanded`` the (already clamped) commands, both
        ``(n_runs, n_cores)``.  A newly stuck actuator freezes at the
        level in force, in ``stuck_levels`` (``-1`` = no capture); the
        capture is released when the fault clears, so a later stuck
        window re-freezes at the then-current level.  Inactive rows keep
        their captures.
        """
        drop = self._drop[rows]
        stuck = self._stuck[rows]
        effective = np.where(drop, current, commanded)
        newly = stuck & (stuck_levels < 0)
        stuck_levels[newly] = current[newly]
        effective = np.where(stuck, stuck_levels, effective)
        release = ~stuck if active is None else ~stuck & active[:, None]
        stuck_levels[release] = -1
        counts[:, _DROPPED] += np.count_nonzero(drop, axis=1)
        counts[:, _STUCK] += np.count_nonzero(stuck, axis=1)
        return effective

    def dead(self, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """``(n_runs, n_cores)`` cores dead this epoch, tallied in ``counts``."""
        dead = self._dead[rows]
        counts[:, _DEAD] += np.count_nonzero(dead, axis=1)
        return dead

    def blackout(self, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """``(n_runs, 3)`` sensor channels blacked out this epoch, in
        :data:`SENSOR_CHANNELS` order; every core of a blacked-out channel
        is tallied in ``counts``."""
        black = self._blackout[rows]
        counts[:, _BLACKOUT] += self.n_cores * np.count_nonzero(black, axis=1)
        return black
