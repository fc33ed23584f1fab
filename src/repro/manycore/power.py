"""Per-core and chip-level power model.

Power has the two canonical components:

* **Dynamic** — ``activity * Ceff * V^2 * f``.  Activity is the switching
  factor the workload induces; it is mapped from the workload's compute
  intensity so memory-bound phases draw less dynamic power at a given VF
  point (the core spends cycles stalled).
* **Leakage** — ``V * I_leak(T)`` with ``I_leak`` exponential in
  temperature.  This is what couples the thermal model back into power and
  produces the mild positive feedback real chips exhibit.

All functions are vectorized over cores with numpy so the chip model can
evaluate hundreds of cores per epoch cheaply.
"""

from __future__ import annotations

import numpy as np

from repro.manycore.config import SystemConfig, TechnologyParams

__all__ = [
    "dynamic_power",
    "leakage_power",
    "core_power",
    "peak_chip_power",
    "idle_chip_power",
]


def dynamic_power(
    tech: TechnologyParams,
    voltage: np.ndarray,
    frequency: np.ndarray,
    activity: np.ndarray,
) -> np.ndarray:
    """Dynamic (switching) power per core, in watts.

    Parameters
    ----------
    tech:
        Process parameters supplying the effective capacitance.
    voltage, frequency, activity:
        Per-core arrays (broadcastable) of supply voltage (V), clock
        frequency (Hz), and switching activity factor.
    """
    voltage = np.asarray(voltage, dtype=float)
    frequency = np.asarray(frequency, dtype=float)
    activity = np.asarray(activity, dtype=float)
    if (voltage < 0).any() or (frequency < 0).any() or (activity < 0).any():
        raise ValueError("voltage, frequency and activity must be non-negative")
    return activity * tech.ceff * voltage**2 * frequency


def leakage_power(
    tech: TechnologyParams,
    voltage: np.ndarray,
    temperature: np.ndarray,
) -> np.ndarray:
    """Leakage power per core, in watts, exponential in temperature.

    ``P_leak = V * leak_coeff * exp(leak_temp_sens * (T - t_ref))``
    """
    voltage = np.asarray(voltage, dtype=float)
    temperature = np.asarray(temperature, dtype=float)
    if (voltage < 0).any():
        raise ValueError("voltage must be non-negative")
    if (temperature <= 0).any():
        raise ValueError("temperature is absolute (kelvin) and must be positive")
    return voltage * tech.leak_coeff * np.exp(
        tech.leak_temp_sens * (temperature - tech.t_ref)
    )


def core_power(
    tech: TechnologyParams,
    voltage: np.ndarray,
    frequency: np.ndarray,
    activity: np.ndarray,
    temperature: np.ndarray,
) -> np.ndarray:
    """Total per-core power in watts: dynamic plus leakage.

    ``voltage`` is in volts, ``frequency`` in hertz, ``activity`` a
    dimensionless switching factor, ``temperature`` in kelvin.
    """
    return dynamic_power(tech, voltage, frequency, activity) + leakage_power(
        tech, voltage, temperature
    )


def peak_chip_power(cfg: SystemConfig, hot_margin: float = 20.0) -> float:
    """Worst-case chip power used to anchor the TDP.

    All cores at the top VF point, maximum switching activity, and a
    temperature ``hot_margin`` kelvin above ambient (a conservative steady
    hot-spot estimate — exact steady temperature depends on the budget we
    are trying to compute, so a fixed margin keeps this closed-form).
    """
    if not cfg.vf_levels:
        raise ValueError("SystemConfig has an empty VF table")
    f_top, v_top = cfg.vf_levels[-1]
    tech = cfg.technology
    act_hi = cfg.activity_range[1]
    t_hot = tech.t_ambient + hot_margin
    per_core = core_power(
        tech,
        np.array(v_top),
        np.array(f_top),
        np.array(act_hi),
        np.array(t_hot),
    )
    return float(per_core) * cfg.n_cores


def idle_chip_power(cfg: SystemConfig) -> float:
    """Best-case chip power: all cores at the bottom VF point, minimum
    activity, ambient temperature.  Useful for sanity-checking budgets —
    a budget below this value is infeasible for any controller."""
    if not cfg.vf_levels:
        raise ValueError("SystemConfig has an empty VF table")
    f_bot, v_bot = cfg.vf_levels[0]
    tech = cfg.technology
    act_lo = cfg.activity_range[0]
    per_core = core_power(
        tech,
        np.array(v_bot),
        np.array(f_bot),
        np.array(act_lo),
        np.array(tech.t_ambient),
    )
    return float(per_core) * cfg.n_cores
