"""The canonical array-native epoch kernel.

:class:`EpochKernel` is the single implementation of the plant's epoch
step, operating on ``(n_runs, n_cores)`` state arrays.  Every execution
backend runs it through the one control loop,
:func:`repro.sim.simulator.run_stack`:

* the serial chip (:class:`repro.manycore.chip.ManyCoreChip`) wraps an
  ``n_runs=1`` kernel and hands out row views;
* the batched backend (:func:`repro.batch.simulate_batch`) builds one
  kernel per stack of cells, with phase streams precomputed
  (``n_epochs=...``) and the vectorized exact-sensor path;
* worker processes (``jobs=N``) run the serial view per cell.

The bit-identity contract between all of them rests on three facts:

* every serial operation on an ``(n_cores,)`` vector is elementwise, so
  running it on a ``(n_runs, n_cores)`` array produces bit-identical rows;
* per-run *reductions* (chip power, DP feasibility) are taken over row
  views of C-contiguous arrays, which numpy reduces in the same pairwise
  order as the serial 1-D array;
* the non-elementwise pieces — the thermal Laplacian matvec and the
  stateful per-run components (fault injectors, sensor suites, memory
  systems) — execute per run on row views, calling the exact same code
  paths in the exact same order as an ``n_runs=1`` kernel would.

Ragged stacking: runs of different lengths share one kernel via the
``active`` row mask of :meth:`step`.  For an inactive (finished) row the
kernel still advances the stacked arrays — that state is never read
again, so the extra arithmetic is harmless — but every *stateful per-run
effect* is suppressed: fault-injector calls, sensor reads, memory-system
solves, and the energy/instruction accumulators.  Active rows therefore
see exactly the operation sequence of a shorter batch, which is what the
ragged property suite in ``tests/kernel/`` verifies against serial runs.

Array operations go through the namespace indirection in
:mod:`repro.kernel.backend` (``numpy`` by default) so a ``cupy`` target
is a follow-on, not a rewrite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # runtime import is lazy: repro.faults imports the
    # sim/controller layers, which import the serial view of this kernel.
    from repro.faults.campaign import FaultCampaign
    from repro.faults.injector import FaultInjector

from repro.contracts import (
    check_level_indices,
    check_power_samples,
    validation_enabled,
)
from repro.kernel.backend import array_namespace
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
from repro.workloads.phases import CorePhaseSequence, Workload

__all__ = ["EpochObservation", "KernelObservation", "EpochKernel"]


@dataclass(frozen=True)
class KernelObservation:
    """One elapsed epoch of every run in the kernel stack.

    Same fields as :class:`EpochObservation`, with a leading run axis on
    every array: shape ``(n_runs, n_cores)``.  ``epoch`` and ``time`` are
    scalars — all runs in a stack share the epoch clock.  :meth:`row`
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

    def chip_power(self, run: int) -> float:
        """Total chip power of ``run`` this epoch (row-view reduction —
        bit-identical to the serial ``EpochObservation.chip_power``)."""
        return float(np.sum(self.power[run]))

    def chip_instructions(self, run: int) -> float:
        """Total instructions of ``run`` this epoch (row-view reduction)."""
        return float(np.sum(self.instructions[run]))


def _epoch_start_times(n_epochs: int, dt: float) -> np.ndarray:
    """Workload sample times per epoch, accumulated exactly as the kernel
    accumulates ``self.time`` (repeated ``+= dt``, never ``cumsum``)."""
    times = np.empty(n_epochs)
    t = 0.0
    for e in range(n_epochs):
        times[e] = t
        t += dt
    return times


def _sequence_track(
    seq: CorePhaseSequence, times: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(mem, comp)`` per epoch for one phase sequence.

    Vectorizes ``CorePhaseSequence.phase_at``: the cumulative table is
    rebuilt with the same left-to-right float accumulation, the cyclic
    wrap uses the same ``%``, and ``np.searchsorted(side="right")`` is the
    array form of ``bisect.bisect_right`` — index-identical, so the phase
    constants picked are the very same floats the live sampler returns.
    """
    phases = seq.phases
    cumulative: List[float] = []
    total = 0.0
    for p in phases:
        total += p.duration
        cumulative.append(total)
    cum = np.asarray(cumulative)
    wrapped = times % total
    idx = np.searchsorted(cum, wrapped, side="right")
    idx = np.minimum(idx, len(phases) - 1)
    mem_vals = np.array([p.mem_intensity for p in phases])
    comp_vals = np.array([p.compute_intensity for p in phases])
    return mem_vals[idx], comp_vals[idx]


def _stack_rows(values: Sequence[Any], n_runs: int, n_cores: int) -> np.ndarray:
    """Per-run scalars or ``(n_cores,)`` vectors stacked by assignment.

    Assignment (not ``broadcast_to``) so every row is a real C-contiguous
    buffer: stride-0 rows reduce in a different pairwise order than the
    serial 1-D array, and these stacks feed row-view reductions.
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
        One workload per run.
    n_epochs:
        When given, phase streams are precomputed for ``n_epochs`` so the
        epoch step is a table row lookup (the batched backend).  ``None``
        samples each workload live per epoch (the serial view) — required
        when a ``memory_systems`` entry is present, since contention
        rescales the sampled intensities in place.
    faults:
        Optional per-run fault campaigns or pre-built injectors (``None``
        entries run fault-free).  Each run gets its own stateful
        :class:`FaultInjector`, applied on row views.
    validate:
        Arm the per-epoch invariant contracts; ``None`` defers to
        ``REPRO_VALIDATE``.  The resolved switch is the public
        ``validate`` attribute.
    sensors:
        Optional per-run :class:`SensorSuite` instances.  ``None`` (the
        whole argument) uses the vectorized exact-sensor path — identical
        readings to :meth:`SensorSuite.exact`, without per-run calls.
        Passing suites routes each run's reads through its own (possibly
        noisy, stateful) suite, timed into the ``sensor`` profiler phase.
    initial_levels:
        Per-run starting VF level; ``None`` starts every run at the top
        level (:meth:`reset` always returns to the top level, matching
        the uncontrolled state the paper's problem begins from).
    variations:
        Optional per-run process-variation multipliers (``None`` entries
        mean the nominal die).
    memory_systems:
        Optional per-run shared-memory contention models (``None``
        entries keep the uncontended constant-latency model).
    heteros:
        Optional per-run core-type maps (``None`` entries mean all cores
        are the nominal type).
    """

    def __init__(
        self,
        cfgs: Sequence[SystemConfig],
        workloads: Sequence[Workload],
        n_epochs: Optional[int] = None,
        faults: Optional[
            Sequence[Union["FaultCampaign", "FaultInjector", None]]
        ] = None,
        validate: Optional[bool] = None,
        sensors: Optional[Sequence[Optional[SensorSuite]]] = None,
        initial_levels: Optional[Sequence[int]] = None,
        variations: Optional[Sequence[Optional[CoreVariation]]] = None,
        memory_systems: Optional[Sequence[Optional[MemorySystem]]] = None,
        heteros: Optional[Sequence[Optional[HeterogeneousMap]]] = None,
    ) -> None:
        if not cfgs:
            raise ValueError("EpochKernel needs at least one run")
        if len(workloads) != len(cfgs):
            raise ValueError(f"{len(cfgs)} configs but {len(workloads)} workloads")
        if n_epochs is not None and n_epochs <= 0:
            raise ValueError(f"n_epochs must be positive, got {n_epochs}")
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
        self.n_epochs = n_epochs
        self.validate = validation_enabled(validate)
        #: array namespace bound at construction (see repro.kernel.backend)
        self._xp = array_namespace()

        self.sensors = self._per_run(sensors, "sensors")
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
        if self._has_memory and n_epochs is not None:
            raise ValueError(
                "memory systems need the live phase path (n_epochs=None): "
                "contention rescales the sampled intensities per epoch"
            )

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
        self.faults = self._build_injectors(faults)

        if n_epochs is not None:
            times = _epoch_start_times(n_epochs, cfg0.epoch_time)
            streams = self._build_phase_streams(times)
            self._mem_stream: Optional[np.ndarray] = streams[0]
            self._comp_stream: Optional[np.ndarray] = streams[1]
        else:
            self._mem_stream = None
            self._comp_stream = None

        starts = (
            initial_levels
            if initial_levels is not None
            else [self.n_levels - 1] * n_runs
        )
        if len(starts) != n_runs:
            raise ValueError(f"{n_runs} configs but {len(starts)} initial levels")
        for start in starts:
            if not (0 <= start < self.n_levels):
                raise ValueError(
                    f"initial_level {start} outside VF table of {self.n_levels}"
                )
        self.levels = np.empty((n_runs, n_cores), dtype=int)
        for r, start in enumerate(starts):
            self.levels[r] = start
        #: optional :class:`repro.obs.PhaseProfiler`; when attached (the
        #: simulator does this under ``profile=True``) the kernel times
        #: its per-run sensor reads into the ``sensor`` phase.  Write-only
        #: telemetry — nothing in the kernel reads it back.
        self.profiler: Optional[Any] = None
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

    def _build_injectors(
        self,
        faults: Optional[Sequence[Union["FaultCampaign", "FaultInjector", None]]],
    ) -> List[Optional["FaultInjector"]]:
        entries = self._per_run(faults, "fault entries")
        if all(entry is None for entry in entries):
            return entries
        # Imported here, not at module level: repro.faults pulls in the
        # simulator/controller layers, which import this kernel's views.
        from repro.faults.campaign import FaultCampaign
        from repro.faults.injector import FaultInjector

        injectors: List[Optional[FaultInjector]] = []
        for entry, cfg in zip(entries, self.cfgs):
            if entry is None:
                injectors.append(None)
                continue
            injector = (
                FaultInjector(entry) if isinstance(entry, FaultCampaign) else entry
            )
            if injector.n_cores != cfg.n_cores:
                raise ValueError(
                    f"fault campaign covers {injector.n_cores} cores but the "
                    f"chip has {cfg.n_cores}"
                )
            injectors.append(injector)
        return injectors

    def _build_phase_streams(
        self, times: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        assert self.n_epochs is not None
        mem = np.empty((self.n_epochs, self.n_runs, self.n_cores))
        comp = np.empty((self.n_epochs, self.n_runs, self.n_cores))
        tracks: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for r, workload in enumerate(self.workloads):
            for i in range(self.n_cores):
                seq = workload.sequence_for_core(i)
                track = tracks.get(id(seq))
                if track is None:
                    track = _sequence_track(seq, times)
                    tracks[id(seq)] = track
                mem[:, r, i] = track[0]
                comp[:, r, i] = track[1]
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

        Mirrors the serial chip's reset exactly: levels go to the *top*
        level regardless of ``initial_levels`` (the uncontrolled state),
        stateful per-run components (memory systems, fault injectors) are
        reset, and sensor suites keep their register/RNG state — the
        serial chip never reset those either.
        """
        self.levels = np.full(
            (self.n_runs, self.n_cores), self.n_levels - 1, dtype=int
        )
        self._temps = np.full(
            (self.n_runs, self.n_cores),
            self.cfg.technology.t_ambient,
            dtype=float,
        )
        for ms in self.memory_systems:
            if ms is not None:
                ms.reset()
        for injector in self.faults:
            if injector is not None:
                injector.reset()
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
            but suppress every stateful per-run effect — injector calls,
            sensor reads, memory solves, totals accumulation — so active
            rows are bit-identical to a stack without the finished runs.
        """
        xp = self._xp
        new_levels = xp.asarray(new_levels)
        if new_levels.shape != (self.n_runs, self.n_cores):
            raise ValueError(
                f"levels must have shape ({self.n_runs}, {self.n_cores}), "
                f"got {new_levels.shape}"
            )
        n_levels = self.n_levels
        if not xp.issubdtype(new_levels.dtype, xp.integer):
            # .astype(int) truncates toward zero, exactly like the serial
            # per-element int(v).
            new_levels = new_levels.astype(int)
        clamped = xp.clip(new_levels, 0, n_levels - 1).astype(int)
        for r, injector in enumerate(self.faults):
            if injector is not None and _row_active(active, r):
                # Actuator faults filter the command: dropped commands
                # leave the level unchanged, stuck actuators hold their
                # frozen level.  Applied before the stall so an unchanged
                # level pays no transition penalty.
                clamped[r] = injector.effective_levels(
                    self.epoch, self.levels[r], clamped[r]
                )
        # Stall time paid by cores that switched level this epoch.
        stall = self._penalty[xp.abs(clamped - self.levels)]
        self.levels = clamped

        cfg = self.cfg
        dt = cfg.epoch_time
        if self._mem_stream is not None and self._comp_stream is not None:
            mem = self._mem_stream[self.epoch]
            comp = self._comp_stream[self.epoch]
        else:
            mem = xp.empty((self.n_runs, self.n_cores))
            comp = xp.empty((self.n_runs, self.n_cores))
            for r, workload in enumerate(self.workloads):
                row_mem, row_comp = workload.sample(self.time, self.n_cores)
                mem[r] = row_mem
                comp[r] = row_comp
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
        run_fraction = xp.clip(1.0 - stall / dt, 0.0, 1.0)
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
        for r, injector in enumerate(self.faults):
            if injector is not None and _row_active(active, r):
                dead = injector.dead_mask(self.epoch)
                if dead.any():
                    # A dead core retires nothing and draws leakage only.
                    instructions[r] = xp.where(dead, 0.0, instructions[r])
                    dyn[r] = xp.where(dead, 0.0, dyn[r])
        power = dyn + leak

        if self.validate:
            check_level_indices(clamped, n_levels, epoch=self.epoch)
            check_power_samples(power, epoch=self.epoch)
            check_power_samples(
                self._temps, epoch=self.epoch, quantity="temperature_k"
            )

        self._thermal_step(power, dt)
        self.time += dt
        # Per-run row reductions, matching the serial float(np.sum(...))
        # accumulation order bit for bit.
        for r in range(self.n_runs):
            if _row_active(active, r):
                self.total_energy[r] += float(xp.sum(power[r])) * dt
                self.total_instructions[r] += float(xp.sum(instructions[r]))

        blackouts: List[frozenset] = []
        for r, injector in enumerate(self.faults):
            if injector is not None and _row_active(active, r):
                blackouts.append(injector.blackout_channels(self.epoch))
            else:
                blackouts.append(frozenset())
        if self.sensors is None or all(s is None for s in self.sensors):
            # Vectorized exact-sensor path: identical readings to
            # SensorSuite.exact() without per-run read calls.
            sensed_power = xp.maximum(power, 0.0)
            sensed_instructions = xp.maximum(instructions, 0.0)
            sensed_temperature = xp.maximum(self._temps, 0.0)
            for r, blackout in enumerate(blackouts):
                if "power" in blackout:
                    sensed_power[r] = 0.0
                if "perf" in blackout:
                    sensed_instructions[r] = 0.0
                if "temperature" in blackout:
                    sensed_temperature[r] = 0.0
        else:
            profiler = self.profiler
            t_sense = time.perf_counter() if profiler is not None else 0.0
            sensed_power = xp.empty_like(power)
            sensed_instructions = xp.empty_like(instructions)
            sensed_temperature = xp.empty_like(self._temps)
            for r, suite in enumerate(self.sensors):
                if suite is None or not _row_active(active, r):
                    # Finished runs read nothing: stateful (noisy) suites
                    # must not advance their RNG streams.
                    sensed_power[r] = 0.0
                    sensed_instructions[r] = 0.0
                    sensed_temperature[r] = 0.0
                    continue
                blackout = blackouts[r]
                sensed_power[r] = suite.power.read(
                    power[r], blackout="power" in blackout
                )
                sensed_instructions[r] = suite.perf.read(
                    instructions[r], blackout="perf" in blackout
                )
                sensed_temperature[r] = suite.temperature.read(
                    self._temps[r], blackout="temperature" in blackout
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
        )
        self.epoch += 1
        return obs
