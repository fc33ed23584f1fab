"""Shared memory-system contention model.

The base performance model treats main-memory latency as a constant.  On a
real many-core chip the memory system is a shared, bandwidth-limited
resource: when many cores stream simultaneously, requests queue and the
*effective* latency every core sees grows.  This couples the cores — one
core's DVFS decision changes everyone's throughput — which is precisely the
regime where a global budget allocator earns its keep.

The model is a standard single-queue approximation: with chip-wide demand
``D`` (memory accesses per second, summed over cores) against sustainable
bandwidth ``B``, utilization ``u = D / B`` inflates latency by the M/M/1
waiting-time factor

    latency_multiplier = 1 + sensitivity * u / (1 - u)

clamped at ``u_max`` to keep the fixed point finite.  Demand itself depends
on throughput, which depends on latency, so each epoch the chip solves the
one-dimensional fixed point ``m = 1 + s * u(m) / (1 - u(m))``.  Because
``u(m)`` is strictly decreasing in ``m`` (more latency ⇒ less throughput ⇒
less demand), ``g(m) - m`` is strictly decreasing and the root is unique;
:meth:`MemorySystem.solve_latency_multiplier` finds it by bisection, which
— unlike naive fixed-point iteration — cannot oscillate when the memory
system saturates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.manycore.config import SystemConfig

__all__ = ["MemorySystemParams", "MemorySystem", "default_memory_system"]


@dataclass(frozen=True)
class MemorySystemParams:
    """Shared memory-system description.

    Attributes
    ----------
    bandwidth:
        Sustainable chip-wide memory-access throughput, accesses/second.
    sensitivity:
        Scale of the queueing term; 1.0 is the M/M/1 waiting factor.
    u_max:
        Utilization clamp keeping the multiplier finite under saturation.
    """

    bandwidth: float
    sensitivity: float = 1.0
    u_max: float = 0.95

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.sensitivity < 0:
            raise ValueError(f"sensitivity must be >= 0, got {self.sensitivity}")
        if not (0 < self.u_max < 1):
            raise ValueError(f"u_max must be in (0, 1), got {self.u_max}")


@dataclass(frozen=True)
class MemorySystem:
    """The contention model a :class:`ManyCoreChip` solves each epoch.

    A value: the solve is a pure function of ``params`` and the epoch's
    inputs, so one model can serve any number of runs.
    """

    params: MemorySystemParams

    #: bisection iterations; the bracket is fixed so 40 gives ~1e-12 width
    _BISECTION_STEPS: ClassVar[int] = 40

    def _implied_multiplier(
        self,
        cfg: SystemConfig,
        frequency: np.ndarray,
        mem_intensity: np.ndarray,
        m: float,
    ) -> tuple:
        """``(g(m), u(m))``: the multiplier the demand at latency ``m*L``
        would produce, and that demand's utilization."""
        p = self.params
        eff_latency = cfg.mem_latency * m
        cpi = cfg.base_cpi + mem_intensity * eff_latency * frequency
        ips = frequency / cpi
        demand = float(np.sum(ips * mem_intensity))
        u = min(demand / p.bandwidth, p.u_max)
        return 1.0 + p.sensitivity * u / (1.0 - u), u

    def solve_latency_multiplier(
        self,
        cfg: SystemConfig,
        frequency: np.ndarray,
        mem_intensity: np.ndarray,
    ) -> float:
        """Solve the per-epoch latency fixed point by bisection.

        Parameters
        ----------
        cfg:
            System configuration (base CPI and nominal latency).
        frequency:
            Per-core clock frequencies, Hz.
        mem_intensity:
            Per-core memory accesses per instruction.

        Returns
        -------
        float
            Multiplier ``m >= 1`` such that with effective latency
            ``m * cfg.mem_latency`` the implied chip demand reproduces ``m``.
        """
        p = self.params
        lo = 1.0
        hi = 1.0 + p.sensitivity * p.u_max / (1.0 - p.u_max)
        g_lo, _ = self._implied_multiplier(cfg, frequency, mem_intensity, lo)
        if g_lo <= lo + 1e-12:
            # Uncontended: demand at nominal latency already implies m ~ 1.
            return g_lo
        for _ in range(self._BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            g_mid, _ = self._implied_multiplier(cfg, frequency, mem_intensity, mid)
            if g_mid > mid:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def default_memory_system(
    cfg: SystemConfig, per_core_bandwidth: float = 6e6
) -> MemorySystem:
    """A memory system provisioned at ``per_core_bandwidth`` accesses/s per
    core — deliberately less than the cores' aggregate worst-case demand,
    so memory-heavy workloads contend (the realistic provisioning point;
    memory bandwidth scales slower than core count)."""
    if per_core_bandwidth <= 0:
        raise ValueError(
            f"per_core_bandwidth must be positive, got {per_core_bandwidth}"
        )
    return MemorySystem(MemorySystemParams(bandwidth=per_core_bandwidth * cfg.n_cores))
