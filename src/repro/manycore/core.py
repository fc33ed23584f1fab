"""Analytic per-core performance model.

The controller in the paper only ever observes two things about a core: how
much power it draws and how many instructions it retires.  What the control
problem hinges on is the *shape* of the throughput-vs-frequency curve, which
is dictated by memory behaviour:

* A compute-bound phase retires instructions at a fixed CPI, so throughput
  scales linearly with frequency — raising the VF level buys performance.
* A memory-bound phase stalls on main memory whose latency is fixed in
  nanoseconds.  In *cycles* the stall grows linearly with frequency, so
  throughput saturates — raising the VF level mostly burns power.

The standard first-order model capturing both regimes is

    CPI(f) = CPI_base + mem_intensity * L_mem * f

where ``mem_intensity`` is long-latency memory accesses per instruction and
``L_mem`` the memory round-trip in seconds.  Throughput is then

    IPS(f) = f / CPI(f)

Switching activity (which drives dynamic power) follows the fraction of
cycles the core does useful work, so memory-bound phases draw less dynamic
power at the same VF point — exactly the coupling that makes global budget
reallocation profitable.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.manycore.config import SystemConfig

__all__ = [
    "instructions_per_second",
    "activity_factor",
    "compute_fraction",
]


def compute_fraction(
    cfg: SystemConfig,
    frequency: np.ndarray,
    mem_intensity: np.ndarray,
    base_cpi: Union[float, np.ndarray, None] = None,
) -> np.ndarray:
    """Fraction of cycles spent on useful work (not memory stalls).

    Equals ``CPI_base / CPI(f)``; 1.0 for a pure-compute phase, approaching
    0 as memory stalls dominate.  ``frequency`` is the per-core clock in
    hertz; ``base_cpi`` (scalar or per-core array) overrides
    ``cfg.base_cpi`` for heterogeneous chips.
    """
    frequency = np.asarray(frequency, dtype=float)
    mem_intensity = np.asarray(mem_intensity, dtype=float)
    if (frequency <= 0).any():
        raise ValueError("frequency must be positive")
    if (mem_intensity < 0).any():
        raise ValueError("mem_intensity must be >= 0")
    cpi0 = cfg.base_cpi if base_cpi is None else np.asarray(base_cpi, dtype=float)
    if (np.asarray(cpi0) <= 0).any():
        raise ValueError("base_cpi must be positive")
    stall_cpi = mem_intensity * cfg.mem_latency * frequency
    return cpi0 / (cpi0 + stall_cpi)


def instructions_per_second(
    cfg: SystemConfig,
    frequency: np.ndarray,
    mem_intensity: np.ndarray,
    base_cpi: Union[float, np.ndarray, None] = None,
) -> np.ndarray:
    """Retired instructions per second at ``frequency`` for a phase with the
    given memory intensity (accesses per instruction).

    Vectorized over cores: all array arguments broadcast.  ``base_cpi``
    (scalar or per-core array) overrides ``cfg.base_cpi`` for heterogeneous
    chips.
    """
    frequency = np.asarray(frequency, dtype=float)
    mem_intensity = np.asarray(mem_intensity, dtype=float)
    if (frequency <= 0).any():
        raise ValueError("frequency must be positive")
    if (mem_intensity < 0).any():
        raise ValueError("mem_intensity must be >= 0")
    cpi0 = cfg.base_cpi if base_cpi is None else np.asarray(base_cpi, dtype=float)
    if (np.asarray(cpi0) <= 0).any():
        raise ValueError("base_cpi must be positive")
    cpi = cpi0 + mem_intensity * cfg.mem_latency * frequency
    return frequency / cpi


def activity_factor(
    cfg: SystemConfig,
    frequency: np.ndarray,
    mem_intensity: np.ndarray,
    compute_intensity: np.ndarray,
    base_cpi: Union[float, np.ndarray, None] = None,
) -> np.ndarray:
    """Switching-activity factor feeding the dynamic power model.

    Activity is the product of two effects:

    * the workload's intrinsic datapath utilisation ``compute_intensity``
      (0–1; e.g. heavy floating-point code toggles more capacitance), and
    * the fraction of cycles not stalled on memory, which depends on the
      current frequency.

    The result is mapped affinely into ``cfg.activity_range`` so even a
    fully stalled core draws its clock-tree/idle dynamic floor.
    """
    compute_intensity = np.asarray(compute_intensity, dtype=float)
    if (compute_intensity < 0).any() or (compute_intensity > 1).any():
        raise ValueError("compute_intensity must be within [0, 1]")
    act_lo, act_hi = cfg.activity_range
    busy = compute_fraction(cfg, frequency, mem_intensity, base_cpi=base_cpi)
    utilisation = busy * compute_intensity
    return act_lo + (act_hi - act_lo) * utilisation
