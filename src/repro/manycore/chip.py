"""The many-core chip model: the closed-loop plant controllers act on.

:class:`ManyCoreChip` is an ``n_runs=1`` view over the array-native
epoch kernel (:class:`repro.kernel.epoch.EpochKernel`), which owns the
canonical epoch step on ``(n_runs, n_cores)`` state.  The chip validates
its configuration, wraps a single-run kernel, and hands out row views —
so the serial loop, the ``jobs=N`` worker pool, and the batched backend
all execute the same code path.  Each epoch:

1. the controller supplies a per-core VF-level vector;
2. cores that changed level pay the VF transition stall;
3. the workload is sampled to get each core's current phase;
4. throughput, activity, power, and energy are computed;
5. the thermal model integrates over the epoch;
6. an :class:`EpochObservation` is returned with both ground truth (for
   metrics) and sensor readings (for controllers).

The chip itself enforces nothing about the budget — exceeding TDP is
*observed*, not prevented, exactly as on hardware where the enforcement
loop is firmware.  Budget violation accounting lives in
:mod:`repro.metrics.power_metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

if TYPE_CHECKING:  # runtime imports are lazy: repro.faults imports the
    # sim/controller layers and repro.kernel.epoch imports this module.
    from repro.faults.campaign import FaultCampaign
    from repro.faults.injector import FaultInjector
    from repro.kernel.epoch import EpochKernel

from repro.manycore.config import SystemConfig
from repro.manycore.hetero import HeterogeneousMap
from repro.manycore.memory import MemorySystem
from repro.manycore.sensors import SensorSuite
from repro.manycore.variation import CoreVariation
from repro.workloads.phases import Workload

__all__ = ["EpochObservation", "ManyCoreChip"]


@dataclass(frozen=True)
class EpochObservation:
    """Everything measurable about one elapsed control epoch.

    Ground-truth fields are used by metrics; the ``sensed_*`` fields are
    what controllers should consume.

    Attributes
    ----------
    epoch:
        Zero-based index of the epoch that just elapsed.
    time:
        Simulation time in seconds at the *end* of the epoch.
    levels:
        Per-core VF level indices in force during the epoch.
    power:
        Ground-truth per-core average power over the epoch, watts.
    instructions:
        Ground-truth per-core instructions retired during the epoch.
    temperature:
        Per-core temperature at the end of the epoch, kelvin.
    mem_intensity, compute_intensity:
        The workload phase parameters in force (ground truth; real
        controllers infer these from counters).
    sensed_power, sensed_instructions, sensed_temperature:
        Sensor readings of power, instruction counts and temperature.
    """

    epoch: int
    time: float
    levels: np.ndarray
    power: np.ndarray
    instructions: np.ndarray
    temperature: np.ndarray
    mem_intensity: np.ndarray
    compute_intensity: np.ndarray
    sensed_power: np.ndarray
    sensed_instructions: np.ndarray
    sensed_temperature: np.ndarray

    @property
    def chip_power(self) -> float:
        """Total ground-truth chip power for the epoch, watts."""
        return float(np.sum(self.power))

    @property
    def chip_instructions(self) -> float:
        """Total instructions retired chip-wide during the epoch."""
        return float(np.sum(self.instructions))


class _ThermalView:
    """One run's thermal state, read from the kernel.

    Exposes the :class:`~repro.manycore.thermal.ThermalModel` read surface
    (``temperatures``) over the kernel's ``(n_runs, n_cores)`` state; the
    integration itself lives in the kernel's epoch step.
    """

    def __init__(self, kernel: "EpochKernel", run: int = 0) -> None:
        self._kernel = kernel
        self._run = run

    @property
    def temperatures(self) -> np.ndarray:
        """Current per-core die temperatures, kelvin (row view)."""
        return self._kernel.temperatures[self._run]


class ManyCoreChip:
    """Stateful plant model of an N-core chip executing a workload.

    An ``n_runs=1`` view over :class:`repro.kernel.epoch.EpochKernel`:
    the chip owns no epoch state of its own — levels, temperatures,
    clocks, and totals live in the kernel's ``(1, n_cores)`` arrays, and
    :meth:`step` is a reshape in, row view out.

    Parameters
    ----------
    cfg:
        System configuration (cores, VF table, epoch length, TDP).
    workload:
        Phase traces the cores execute.
    sensors:
        Telemetry model; defaults to :meth:`SensorSuite.exact` so that the
        plant is deterministic unless noise is requested explicitly.
    initial_level:
        VF level all cores start at; defaults to the top level (the
        uncontrolled, performance-greedy state the paper's problem begins
        from).
    variation:
        Optional per-core process-variation multipliers; defaults to the
        nominal (variation-free) die.
    memory_system:
        Optional shared-memory contention model; when present, the chip
        solves the per-epoch latency fixed point and all cores see the
        inflated effective memory latency.  ``None`` (default) keeps the
        uncontended constant-latency model.
    hetero:
        Optional per-core :class:`HeterogeneousMap` of core types
        (big.LITTLE-class chips); ``None`` means all cores are the nominal
        type.
    validate:
        Arm the per-epoch runtime invariant contracts (finite non-negative
        power, in-range VF levels — see :mod:`repro.contracts`).  ``None``
        (default) defers to the ``REPRO_VALIDATE`` environment variable;
        the resolved switch is the public ``validate`` attribute.
    faults:
        Optional fault-injection schedule (a
        :class:`~repro.faults.campaign.FaultCampaign`, or a pre-built
        :class:`~repro.faults.injector.FaultInjector`).  Injects core
        death, VF actuator faults, and whole-epoch telemetry blackouts
        into the plant; ``None`` (default) runs fault-free.  Controller
        crashes in the campaign are the simulator's concern (see
        :class:`repro.faults.watchdog.WatchdogController`), not the
        plant's.
    """

    def __init__(
        self,
        cfg: SystemConfig,
        workload: Workload,
        sensors: SensorSuite | None = None,
        initial_level: int | None = None,
        variation: CoreVariation | None = None,
        memory_system: MemorySystem | None = None,
        hetero: HeterogeneousMap | None = None,
        validate: bool | None = None,
        faults: Union["FaultCampaign", "FaultInjector", None] = None,
    ) -> None:
        # Imported here, not at module level: the kernel imports this
        # module (for EpochObservation), so the view binds it lazily.
        from repro.kernel.epoch import EpochKernel

        self.cfg = cfg
        self.workload = workload
        self.sensors = sensors if sensors is not None else SensorSuite.exact()
        self.memory_system = memory_system
        # The kernel validates every argument (VF table, budget, per-core
        # maps, fault campaign, initial level) in the chip's own words.
        self._kernel = EpochKernel(
            [cfg],
            [workload],
            n_epochs=None,
            faults=[faults],
            validate=validate,
            sensors=[self.sensors],
            initial_levels=None if initial_level is None else [initial_level],
            variations=[variation],
            memory_systems=[memory_system],
            heteros=[hetero],
        )
        self.thermal = _ThermalView(self._kernel)
        # The kernel re-exposes variation/hetero through row views of its
        # stacked planes; adopt those so in-place edits to the chip's
        # attributes keep reaching the power math, exactly as they did
        # when the serial chip read the arrays live each step.
        self.variation = self._kernel.variations[0]
        self.hetero = self._kernel.heteros[0]

    @property
    def n_cores(self) -> int:
        return self.cfg.n_cores

    @property
    def n_levels(self) -> int:
        return self.cfg.n_levels

    @property
    def kernel(self) -> "EpochKernel":
        """The one-row epoch kernel this chip views; the simulator's
        control loop advances it directly."""
        return self._kernel

    @property
    def levels(self) -> np.ndarray:
        """Per-core VF levels currently in force (kernel row view)."""
        return self._kernel.levels[0]

    @property
    def faults(self) -> "FaultInjector | None":
        """This run's fault injector, if a campaign was supplied."""
        return self._kernel.faults[0]

    @property
    def validate(self) -> bool:
        """Whether the per-epoch invariant contracts are armed."""
        return self._kernel.validate

    @validate.setter
    def validate(self, armed: bool) -> None:
        self._kernel.validate = armed

    @property
    def epoch(self) -> int:
        return self._kernel.epoch

    @property
    def time(self) -> float:
        return self._kernel.time

    @property
    def total_energy(self) -> float:
        return float(self._kernel.total_energy[0])

    @property
    def total_instructions(self) -> float:
        return float(self._kernel.total_instructions[0])

    def reset(self) -> None:
        """Return the chip to its initial state (top VF, ambient temps)."""
        self._kernel.reset()

    def step(self, new_levels: np.ndarray) -> EpochObservation:
        """Advance one control epoch with the given per-core VF levels.

        Parameters
        ----------
        new_levels:
            Integer per-core level indices; values outside the VF table are
            clamped (a controller bug should degrade, not crash, the plant —
            matching firmware behaviour).

        Returns
        -------
        EpochObservation
        """
        new_levels = np.asarray(new_levels)
        if new_levels.shape != (self.n_cores,):
            raise ValueError(
                f"levels must have shape ({self.n_cores},), got {new_levels.shape}"
            )
        return self._kernel.step(new_levels.reshape(1, -1)).row(0)
