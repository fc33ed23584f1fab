"""The canonical array-native epoch kernel.

:class:`EpochKernel` is the single implementation of the plant's epoch
step, operating on ``(n_runs, n_cores)`` state arrays.  Every execution
backend runs it through the one control loop,
:func:`repro.sim.simulator.run_stack`:

* the serial chip (:class:`repro.manycore.chip.ManyCoreChip`) wraps an
  ``n_runs=1`` kernel and hands out row views;
* the stack (:func:`repro.batch.simulate_batch`), which is how the
  engine runs every cell at any ``jobs``, builds one kernel per stack of
  cells.

Both read workload phases the one way: the kernel keeps a block of
:data:`_PHASE_BLOCK` epochs of phases per distinct workload and refills it
with :meth:`Workload.sample_into` when its clock runs off the end, so an
open-ended serial chip and a stack of known length share one lookup.

The bit-identity contract between all of them rests on three facts:

* every serial operation on an ``(n_cores,)`` vector is elementwise, so
  running it on a ``(n_runs, n_cores)`` array produces bit-identical rows;
* per-run *reductions* (chip power and instructions) are ``axis=1``
  reductions of C-contiguous stacks, which numpy takes row by row in the
  same pairwise order as the serial 1-D array
  (``tests/kernel/test_row_reductions.py`` pins this);
* the non-elementwise pieces — the thermal Laplacian matvec, the sensor
  suites and the memory-system solves — execute per run on row views,
  calling the exact same code paths in the exact same order as an
  ``n_runs=1`` kernel would.

Fault injection is stacked, not per run: every run's campaign is compiled
into mask planes (:class:`repro.faults.injector.FaultPlanes`), and the
actuator filter, stuck-level capture, dead-core zeroing and sensor
blackout are masked ``(n_runs, n_cores)`` operations on kernel-owned
state; :meth:`EpochKernel.fault_counts` reports a run's row of it.

The kernel owns every run's plant state.  The options it is given are
values: fault campaigns, variation and hetero maps are read, memory
systems are pure, and each sensor suite is deep-copied per row, so no
caller's object is ever advanced and a run depends only on its inputs.

Ragged stacking: runs of different lengths share one kernel via the
``active`` row mask of :meth:`step`.  For an inactive (finished) row the
kernel still advances the stacked arrays — that state is never read
again, so the extra arithmetic is harmless — but every *stateful per-run
effect* is suppressed: fault injection and its counters, sensor reads,
memory-system solves, and the energy/instruction accumulators.  Active
rows therefore see exactly the operation sequence of a shorter batch,
which is what the ragged property suite in ``tests/kernel/`` verifies
against serial runs.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # runtime import is lazy: repro.faults imports the
    # sim/controller layers, which import the serial view of this kernel.
    from repro.faults.campaign import FaultCampaign
    from repro.faults.injector import FaultPlanes

from repro.contracts import (
    check_level_indices,
    check_power_samples,
    validation_enabled,
)
from repro.manycore.chip import EpochObservation
from repro.manycore.config import SystemConfig
from repro.manycore.core import activity_factor, instructions_per_second
from repro.manycore.hetero import HeterogeneousMap
from repro.manycore.memory import MemorySystem
from repro.manycore.power import dynamic_power, leakage_power
from repro.manycore.sensors import SensorSuite
from repro.manycore.thermal import ThermalModel
from repro.manycore.variation import CoreVariation
from repro.manycore.vf import transition_penalty
from repro.workloads.phases import Workload

__all__ = ["EpochObservation", "KernelObservation", "EpochKernel"]


@dataclass(frozen=True)
class KernelObservation:
    """One elapsed epoch of every run in the kernel stack.

    Same fields as :class:`EpochObservation`, with a leading run axis on
    every array: shape ``(n_runs, n_cores)``.  ``epoch`` and ``time`` are
    scalars — all runs in a stack share the epoch clock.  ``chip_power``
    and ``chip_instructions`` are the ``(n_runs,)`` row sums of ``power``
    and ``instructions``, bit-identical to each run's serial
    ``EpochObservation.chip_power``/``chip_instructions``.  :meth:`row`
    recovers one run's :class:`EpochObservation` as views, so a serial
    controller can consume a kernel observation unchanged.
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
    chip_power: np.ndarray
    chip_instructions: np.ndarray

    @property
    def n_runs(self) -> int:
        return int(self.power.shape[0])

    def row(self, run: int) -> EpochObservation:
        """Run ``run``'s slice as a serial observation (row views)."""
        return EpochObservation(
            epoch=self.epoch,
            time=self.time,
            levels=self.levels[run],
            power=self.power[run],
            instructions=self.instructions[run],
            temperature=self.temperature[run],
            mem_intensity=self.mem_intensity[run],
            compute_intensity=self.compute_intensity[run],
            sensed_power=self.sensed_power[run],
            sensed_instructions=self.sensed_instructions[run],
            sensed_temperature=self.sensed_temperature[run],
        )


#: Epochs of workload phases the kernel looks up at a time, per distinct
#: workload: large enough that the lookup is a block row copy on most
#: steps, small enough that its size never grows with the run.
_PHASE_BLOCK = 64


def _stack_rows(values: Sequence[Any], n_runs: int, n_cores: int) -> np.ndarray:
    """Per-run scalars or ``(n_cores,)`` vectors stacked by assignment.

    Assignment (not ``broadcast_to``) so every row is a real C-contiguous
    buffer: stride-0 rows reduce in a different pairwise order than the
    serial 1-D array, and these stacks feed the row reductions.
    """
    out = np.empty((n_runs, n_cores))
    for r, value in enumerate(values):
        out[r] = value
    return out


def _row_active(active: Optional[np.ndarray], run: int) -> bool:
    """Whether ``run`` is live this epoch (no mask means all rows live)."""
    return active is None or bool(active[run])


class EpochKernel:
    """``n_runs`` independent plants advanced in lockstep.

    Parameters
    ----------
    cfgs:
        One configuration per run.  May differ **only** in ``power_budget``
        (the plant never reads the budget; controllers do).
    workloads:
        One workload per run.  Rows holding the same workload object share
        its phases: the kernel looks them up a block of epochs at a time
        per distinct workload, at the times its own clock reaches, and
        each step copies its rows out, bit-identical to
        :meth:`Workload.sample` at the epoch's start time.
    faults:
        Optional per-run :class:`~repro.faults.campaign.FaultCampaign`
        entries (``None`` entries run fault-free; anything else is a
        ``TypeError``), applied as stacked mask planes on kernel-owned
        stuck-level and counter state (see :meth:`fault_counts`).
    validate:
        Arm the per-epoch invariant contracts; ``None`` defers to
        ``REPRO_VALIDATE``.  The resolved switch is the public
        ``validate`` attribute.
    sensors:
        Optional per-run :class:`SensorSuite` instances.  ``None`` (the
        whole argument, or a run's entry) reads exactly — identical
        readings to :meth:`SensorSuite.exact`, vectorized over the stack.
        A suite routes its run's reads through a deep copy of that
        (possibly noisy, stateful) suite, one copy per row, timed into the
        ``sensor`` profiler phase.  Each row starts from the given suite's
        state, also when rows share one suite object, and the caller's
        suite is never advanced.
    variations:
        Optional per-run process-variation multipliers (``None`` entries
        mean the nominal die).
    memory_systems:
        Optional per-run shared-memory contention models (``None``
        entries keep the uncontended constant-latency model).  Each
        epoch a run's model rescales its row of that step's memory
        intensities, never the shared phase block.
    heteros:
        Optional per-run core-type maps (``None`` entries mean all cores
        are the nominal type).
    """

    def __init__(
        self,
        cfgs: Sequence[SystemConfig],
        workloads: Sequence[Workload],
        faults: Optional[Sequence[Optional["FaultCampaign"]]] = None,
        validate: Optional[bool] = None,
        sensors: Optional[Sequence[Optional[SensorSuite]]] = None,
        variations: Optional[Sequence[Optional[CoreVariation]]] = None,
        memory_systems: Optional[Sequence[Optional[MemorySystem]]] = None,
        heteros: Optional[Sequence[Optional[HeterogeneousMap]]] = None,
    ) -> None:
        if not cfgs:
            raise ValueError("EpochKernel needs at least one run")
        if len(workloads) != len(cfgs):
            raise ValueError(f"{len(cfgs)} configs but {len(workloads)} workloads")
        cfg0 = cfgs[0]
        if not cfg0.vf_levels:
            raise ValueError("SystemConfig must carry a non-empty VF table")
        reference = cfg0.with_budget(1.0)
        for cfg in cfgs:
            if cfg.power_budget <= 0:
                raise ValueError("SystemConfig.power_budget must be set and positive")
            if cfg.with_budget(1.0) != reference:
                raise ValueError(
                    "batched runs may differ only in power_budget; got a "
                    "config differing elsewhere"
                )

        n_runs = len(cfgs)
        n_cores = cfg0.n_cores
        self.cfgs: Tuple[SystemConfig, ...] = tuple(cfgs)
        self.workloads: Tuple[Workload, ...] = tuple(workloads)
        self.cfg = cfg0  # shared plant constants (budget never read here)
        self.n_runs = n_runs
        self.n_cores = n_cores
        self.n_levels = cfg0.n_levels
        self.validate = validation_enabled(validate)

        # One deepcopy call per row: a suite's channels keep sharing their
        # generator, and no row shares RNG state or held registers with
        # another row or with the caller.
        self.sensors: List[Optional[SensorSuite]] = [
            copy.deepcopy(suite) for suite in self._per_run(sensors, "sensors")
        ]
        self._has_suites = any(suite is not None for suite in self.sensors)
        variation_list = self._per_run(variations, "variations")
        self.variations: List[CoreVariation] = [
            v if v is not None else CoreVariation.nominal(n_cores)
            for v in variation_list
        ]
        for v in self.variations:
            if v.n_cores != n_cores:
                raise ValueError(
                    f"variation covers {v.n_cores} cores but the chip "
                    f"has {n_cores}"
                )
        hetero_list = self._per_run(heteros, "heteros")
        self.heteros: List[HeterogeneousMap] = [
            h if h is not None else HeterogeneousMap.homogeneous(n_cores)
            for h in hetero_list
        ]
        for h in self.heteros:
            if h.n_cores != n_cores:
                raise ValueError(
                    f"hetero map covers {h.n_cores} cores but the chip "
                    f"has {n_cores}"
                )
        self.memory_systems = self._per_run(memory_systems, "memory_systems")
        self._has_memory = any(ms is not None for ms in self.memory_systems)

        # Per-run multipliers stacked into (n_runs, n_cores) rows.  Every
        # use is elementwise, so a stacked row multiplies bit-identically
        # to the serial (n_cores,) vector it was copied from.
        self._freq_scale = _stack_rows(
            [h.freq_scale for h in self.heteros], n_runs, n_cores
        )
        self._ceff_scale = _stack_rows(
            [h.ceff_scale for h in self.heteros], n_runs, n_cores
        )
        self._leak_scale = _stack_rows(
            [h.leak_scale for h in self.heteros], n_runs, n_cores
        )
        self._ceff_mult = _stack_rows(
            [v.ceff_mult for v in self.variations], n_runs, n_cores
        )
        self._leak_mult = _stack_rows(
            [v.leak_mult for v in self.variations], n_runs, n_cores
        )
        self._base_cpi = _stack_rows(
            [cfg0.base_cpi * h.cpi_scale for h in self.heteros], n_runs, n_cores
        )
        # Re-expose each run's variation/hetero through row views of the
        # stacked planes: the serial chip read these arrays live every
        # step, so in-place edits (the contract tests corrupt multipliers
        # to provoke a violation) must keep reaching the kernel's math.
        # cpi_scale stays a construction-time constant, as it always was
        # (the serial chip precomputed base_cpi * cpi_scale too).
        self.variations = [
            CoreVariation(
                leak_mult=self._leak_mult[r], ceff_mult=self._ceff_mult[r]
            )
            for r in range(n_runs)
        ]
        rebound = []
        for r, h in enumerate(self.heteros):
            view = HeterogeneousMap(h.types)
            view.freq_scale = self._freq_scale[r]
            view.ceff_scale = self._ceff_scale[r]
            view.leak_scale = self._leak_scale[r]
            rebound.append(view)
        self.heteros = rebound

        self._freqs = np.array([f for f, _ in cfg0.vf_levels])
        self._volts = np.array([v for _, v in cfg0.vf_levels])
        # transition_penalty depends only on |new - old|; table-lookup form.
        self._penalty = np.array(
            [transition_penalty(0, d) for d in range(self.n_levels)]
        )
        # Shared Laplacian (same mesh for every run); temperature state is
        # (n_runs, n_cores) and substeps apply the matvec per run.
        thermal = ThermalModel(cfg0)
        self._laplacian = thermal._laplacian
        self._temps = np.full(
            (n_runs, n_cores), cfg0.technology.t_ambient, dtype=float
        )
        #: each run's fault campaign (``None`` = fault-free)
        self.campaigns: List[Optional["FaultCampaign"]] = self._campaigns(faults)
        #: kernel-owned fault state, one row per run: the level each stuck
        #: actuator froze at (-1 = none) and the per-class sample counters
        #: (columns in ``repro.faults.injector.COUNT_KINDS`` order)
        self._stuck_levels = np.full((n_runs, n_cores), -1, dtype=int)
        self._fault_counts = np.zeros((n_runs, 4), dtype=np.int64)
        self._fault_planes: Optional["FaultPlanes"] = None
        if any(campaign is not None for campaign in self.campaigns):
            from repro.faults.injector import FaultPlanes

            self._fault_planes = FaultPlanes(self.campaigns)

        #: the distinct workloads, by identity, and each row's index into
        #: them and into the phase block
        distinct = {id(w): w for w in self.workloads}
        slots = {key: slot for slot, key in enumerate(distinct)}
        self._phase_workloads = list(distinct.values())
        self._phase_rows = np.array([slots[id(w)] for w in self.workloads])
        #: ``(mem, comp)`` of shape ``(block, n_workloads, n_cores)`` from
        #: epoch ``_block_start`` on; ``None`` until the first step
        self._phase_block: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._block_start = 0

        self.levels = np.full((n_runs, n_cores), self.n_levels - 1, dtype=int)
        #: optional :class:`repro.obs.PhaseProfiler`; when attached (the
        #: simulator does this under ``profile=True``) the kernel times
        #: its per-run sensor reads into the ``sensor`` phase.  Write-only
        #: telemetry — nothing in the kernel reads it back.
        self.profiler: Optional[Any] = None
        #: the last step's observation, ``None`` before the first
        self.last_observation: Optional[KernelObservation] = None
        self.epoch = 0
        self.time = 0.0
        self.total_energy = np.zeros(n_runs, dtype=float)
        self.total_instructions = np.zeros(n_runs, dtype=float)

    def _per_run(
        self, entries: Optional[Sequence[Any]], label: str
    ) -> List[Any]:
        """Normalize an optional per-run component list (None -> all-None)."""
        if entries is None:
            return [None] * self.n_runs
        out = list(entries)
        if len(out) != self.n_runs:
            raise ValueError(f"{self.n_runs} configs but {len(out)} {label}")
        return out

    def _campaigns(
        self, faults: Optional[Sequence[Optional["FaultCampaign"]]]
    ) -> List[Optional["FaultCampaign"]]:
        entries = self._per_run(faults, "fault entries")
        if all(entry is None for entry in entries):
            return entries
        # Imported here, not at module level: repro.faults pulls in the
        # simulator/controller layers, which import this kernel's views.
        from repro.faults.campaign import FaultCampaign

        for entry, cfg in zip(entries, self.cfgs):
            if entry is None:
                continue
            if not isinstance(entry, FaultCampaign):
                raise TypeError(
                    f"faults entries must be FaultCampaign or None, got "
                    f"{type(entry).__name__}"
                )
            if entry.n_cores != cfg.n_cores:
                raise ValueError(
                    f"fault campaign covers {entry.n_cores} cores but the "
                    f"chip has {cfg.n_cores}"
                )
        return entries

    def fault_counts(self, run: int) -> Dict[str, int]:
        """Run ``run``'s realized fault tallies, a fresh dict in
        ``repro.faults.injector.COUNT_KINDS`` order: ``{"dead": …,
        "dropped": …, "stuck": …, "blackout": …}`` affected samples."""
        from repro.faults.injector import COUNT_KINDS

        return dict(zip(COUNT_KINDS, self._fault_counts[run].tolist()))

    def _refill_phases(self) -> Tuple[np.ndarray, np.ndarray]:
        """Look up the next :data:`_PHASE_BLOCK` epochs of every distinct
        workload's phases, from the current epoch on, at the times the
        kernel's clock will reach (repeated ``+= dt``, never ``cumsum``)."""
        n = _PHASE_BLOCK
        times = np.empty(n)
        t = self.time
        for e in range(n):
            times[e] = t
            t += self.cfg.epoch_time
        shape = (n, len(self._phase_workloads), self.n_cores)
        mem, comp = np.empty(shape), np.empty(shape)
        for w, workload in enumerate(self._phase_workloads):
            workload.sample_into(times, mem[:, w], comp[:, w])
        self._phase_block = (mem, comp)
        self._block_start = self.epoch
        return mem, comp

    def _thermal_step(self, power: np.ndarray, dt: float) -> None:
        """Forward-Euler substeps on ``(n_runs, n_cores)`` temperatures.

        Identical arithmetic to :meth:`ThermalModel.step`; the Laplacian
        matvec runs per run on contiguous row views (a batched matmul
        would use a different BLAS kernel and is *not* bit-stable against
        the serial matvec).
        """
        tech = self.cfg.technology
        tau = tech.r_thermal * tech.c_thermal
        max_h = ThermalModel._MAX_STEP_FRACTION * tau
        n_sub = max(1, int(np.ceil(dt / max_h)))
        h = dt / n_sub
        temps = self._temps
        inv_rv = 1.0 / tech.r_thermal
        inv_rl = 1.0 / tech.r_lateral
        inv_c = 1.0 / tech.c_thermal
        lat = np.empty_like(temps)
        for _ in range(n_sub):
            for r in range(self.n_runs):
                lat[r] = self._laplacian @ temps[r]
            lateral = lat * inv_rl
            dT = (power - (temps - tech.t_ambient) * inv_rv + lateral) * inv_c
            temps = temps + h * dT
        self._temps = temps

    @property
    def temperatures(self) -> np.ndarray:
        """Current ``(n_runs, n_cores)`` die temperatures."""
        return self._temps

    def reset(self) -> None:
        """Return every run to its initial state (top VF, ambient temps).

        Levels go to the *top* level (the uncontrolled state the paper's
        problem begins from), the fault state is cleared, the phase block
        and last observation dropped, and the kernel's sensor suites keep
        their register/RNG state — the serial chip never reset those
        either.
        """
        self.levels = np.full(
            (self.n_runs, self.n_cores), self.n_levels - 1, dtype=int
        )
        self._temps = np.full(
            (self.n_runs, self.n_cores),
            self.cfg.technology.t_ambient,
            dtype=float,
        )
        self._stuck_levels.fill(-1)
        self._fault_counts.fill(0)
        self._phase_block = None
        self.last_observation = None
        self.epoch = 0
        self.time = 0.0
        self.total_energy = np.zeros(self.n_runs, dtype=float)
        self.total_instructions = np.zeros(self.n_runs, dtype=float)

    def step(
        self, new_levels: np.ndarray, active: Optional[np.ndarray] = None
    ) -> KernelObservation:
        """Advance every run by one control epoch.

        Parameters
        ----------
        new_levels:
            ``(n_runs, n_cores)`` integer level indices; values outside
            the VF table are clamped (a controller bug should degrade,
            not crash, the plant — matching firmware behaviour).
        active:
            Optional ``(n_runs,)`` boolean row mask for ragged stacks.
            Inactive rows advance arithmetically (their state is dead)
            but suppress every stateful per-run effect — fault injection,
            sensor reads, memory solves, totals accumulation — so active
            rows are bit-identical to a stack without the finished runs.
        """
        new_levels = np.asarray(new_levels)
        if new_levels.shape != (self.n_runs, self.n_cores):
            raise ValueError(
                f"levels must have shape ({self.n_runs}, {self.n_cores}), "
                f"got {new_levels.shape}"
            )
        n_levels = self.n_levels
        if not np.issubdtype(new_levels.dtype, np.integer):
            # .astype(int) truncates toward zero, exactly like the serial
            # per-element int(v).
            new_levels = new_levels.astype(int)
        clamped = np.clip(new_levels, 0, n_levels - 1).astype(int)
        planes = self._fault_planes
        dead: Optional[np.ndarray] = None
        blackout: Optional[np.ndarray] = None
        if planes is not None:
            counts = self._fault_counts
            rows = planes.rows(self.epoch, active)
            if planes.has_actuator:
                # Actuator faults filter the command: dropped commands
                # leave the level unchanged, stuck actuators hold their
                # frozen level.  Applied before the stall so an unchanged
                # level pays no transition penalty.
                clamped = planes.actuate(
                    rows, self.levels, clamped, self._stuck_levels, counts, active
                )
            if planes.has_dead:
                dead = planes.dead(rows, counts)
            if planes.has_blackout:
                blackout = planes.blackout(rows, counts)
        # Stall time paid by cores that switched level this epoch.
        stall = self._penalty[np.abs(clamped - self.levels)]
        self.levels = clamped

        cfg = self.cfg
        dt = cfg.epoch_time
        block = self._phase_block
        offset = self.epoch - self._block_start
        if block is None or offset >= len(block[0]):
            block = self._refill_phases()
            offset = 0
        # take copies: contention below rescales these rows, never the
        # block a row sharing the workload reads.
        mem = block[0][offset].take(self._phase_rows, axis=0)
        comp = block[1][offset].take(self._phase_rows, axis=0)
        freq = self._freqs[clamped] * self._freq_scale
        volt = self._volts[clamped]

        # Shared-memory contention inflates the effective latency everyone
        # sees; scaling mem_intensity by the multiplier is equivalent to
        # scaling the latency in the CPI model.
        if self._has_memory:
            for r, ms in enumerate(self.memory_systems):
                if ms is not None and _row_active(active, r):
                    multiplier = ms.solve_latency_multiplier(
                        self.cfgs[r], freq[r], mem[r]
                    )
                    mem[r] = mem[r] * multiplier

        # Throughput: IPS while running, times the fraction of the epoch
        # not lost to the VF transition.
        ips = instructions_per_second(cfg, freq, mem, base_cpi=self._base_cpi)
        run_fraction = np.clip(1.0 - stall / dt, 0.0, 1.0)
        instructions = ips * run_fraction * dt

        # Power: activity from the phase; temperature from the start of
        # the epoch (leakage lags by one epoch, a standard discretization).
        # Variation and core-type multipliers scale each core's components
        # in the serial order: (dyn * variation) * hetero.
        activity = activity_factor(cfg, freq, mem, comp, base_cpi=self._base_cpi)
        temps = self._temps
        dyn = (
            dynamic_power(cfg.technology, volt, freq, activity)
            * self._ceff_mult
            * self._ceff_scale
        )
        leak = (
            leakage_power(cfg.technology, volt, temps)
            * self._leak_mult
            * self._leak_scale
        )
        if dead is not None:
            # A dead core retires nothing and draws leakage only.
            instructions = np.where(dead, 0.0, instructions)
            dyn = np.where(dead, 0.0, dyn)
        power = dyn + leak

        if self.validate:
            check_level_indices(clamped, n_levels, epoch=self.epoch)
            check_power_samples(power, epoch=self.epoch)
            check_power_samples(
                self._temps, epoch=self.epoch, quantity="temperature_k"
            )

        self._thermal_step(power, dt)
        self.time += dt
        # Row reductions of C-contiguous stacks: each row sums in the
        # serial float(np.sum(row)) order bit for bit.
        chip_power = power.sum(axis=1)
        chip_instructions = instructions.sum(axis=1)
        if active is None:
            self.total_energy += chip_power * dt
            self.total_instructions += chip_instructions
        else:
            self.total_energy[active] += chip_power[active] * dt
            self.total_instructions[active] += chip_instructions[active]

        # Exact readings for every run (identical to SensorSuite.exact()
        # without per-run read calls); runs with a suite overwrite theirs.
        sensed_power = np.maximum(power, 0.0)
        sensed_instructions = np.maximum(instructions, 0.0)
        sensed_temperature = np.maximum(self._temps, 0.0)
        if blackout is not None:
            sensed_power[blackout[:, 0]] = 0.0
            sensed_instructions[blackout[:, 1]] = 0.0
            sensed_temperature[blackout[:, 2]] = 0.0
        if self._has_suites:
            profiler = self.profiler
            t_sense = time.perf_counter() if profiler is not None else 0.0
            blind = (
                blackout.tolist()
                if blackout is not None
                else [[False, False, False]] * self.n_runs
            )
            for r, suite in enumerate(self.sensors):
                if not _row_active(active, r):
                    # Finished runs read nothing: stateful (noisy) suites
                    # must not advance their RNG streams.
                    sensed_power[r] = 0.0
                    sensed_instructions[r] = 0.0
                    sensed_temperature[r] = 0.0
                    continue
                if suite is None:
                    continue  # reads exactly, as set above
                sensed_power[r] = suite.power.read(power[r], blackout=blind[r][0])
                sensed_instructions[r] = suite.perf.read(
                    instructions[r], blackout=blind[r][1]
                )
                sensed_temperature[r] = suite.temperature.read(
                    self._temps[r], blackout=blind[r][2]
                )
            if profiler is not None:
                profiler.add("sensor", time.perf_counter() - t_sense)

        obs = KernelObservation(
            epoch=self.epoch,
            time=self.time,
            levels=clamped.copy(),
            power=power,
            instructions=instructions,
            temperature=self._temps.copy(),
            mem_intensity=mem,
            compute_intensity=comp,
            sensed_power=sensed_power,
            sensed_instructions=sensed_instructions,
            sensed_temperature=sensed_temperature,
            chip_power=chip_power,
            chip_instructions=chip_instructions,
        )
        self.epoch += 1
        self.last_observation = obs
        return obs
