"""Telemetry-driven power/performance prediction for model-based baselines.

The baselines the paper compares against (MaxBIPS, steepest-drop greedy)
are *model-based*: they predict, for every core and every VF level, what
power the core would draw and what throughput it would achieve, then search
over assignments.  This module supplies that prediction, calibrated on-line
from the last epoch's telemetry:

* the core's **memory intensity** is inverted from measured IPC through the
  first-order CPI model (the kind of offline-calibrated model such
  controllers ship with);
* the core's **switching activity** is inverted from measured power after
  subtracting a leakage estimate at an *assumed* die temperature.

The temperature assumption is a deliberate, realistic model error — the
estimator has no thermal sensor, so its leakage estimate drifts from truth
as the die heats.  This is precisely the model-mismatch argument the paper
makes for learning the policy model-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.manycore.chip import EpochObservation
from repro.manycore.config import SystemConfig
from repro.manycore.hetero import HeterogeneousMap

__all__ = ["LevelPredictions", "PowerPerfEstimator"]


@dataclass(frozen=True)
class LevelPredictions:
    """Predicted behaviour of every core at every VF level.

    Attributes
    ----------
    power:
        Predicted per-core power, watts, shape ``(n_cores, n_levels)``.
    ips:
        Predicted instructions per second, same shape.
    """

    power: np.ndarray
    ips: np.ndarray

    def __post_init__(self) -> None:
        if self.power.shape != self.ips.shape:
            raise ValueError("power and ips prediction shapes must match")


class PowerPerfEstimator:
    """Predicts per-core power/throughput across VF levels from telemetry.

    Parameters
    ----------
    cfg:
        System configuration; supplies the VF table and the calibrated
        model constants (base CPI, memory latency, Ceff, leakage law).
    assumed_temperature:
        Die temperature the leakage estimate is evaluated at; defaults to
        the technology's reference temperature.
    hetero:
        Optional core-type map.  Core types are platform facts a
        model-based controller ships with, so the estimator scales its
        frequency/CPI/power constants per core when given the map.
    """

    def __init__(
        self,
        cfg: SystemConfig,
        assumed_temperature: float | None = None,
        hetero: HeterogeneousMap | None = None,
    ) -> None:
        if not cfg.vf_levels:
            raise ValueError("SystemConfig must carry a non-empty VF table")
        self.cfg = cfg
        tech = cfg.technology
        self._t_assumed = (
            tech.t_ref if assumed_temperature is None else float(assumed_temperature)
        )
        if self._t_assumed <= 0:
            raise ValueError("assumed_temperature must be positive kelvin")
        self.hetero = (
            hetero if hetero is not None else HeterogeneousMap.homogeneous(cfg.n_cores)
        )
        if self.hetero.n_cores != cfg.n_cores:
            raise ValueError(
                f"hetero map covers {self.hetero.n_cores} cores but the system "
                f"has {cfg.n_cores}"
            )
        table_freqs = np.array([f for f, _ in cfg.vf_levels])
        self._volts = np.array([v for _, v in cfg.vf_levels])
        # Per-core tables, shape (n_cores, n_levels).
        self._freqs = table_freqs[None, :] * self.hetero.freq_scale[:, None]
        self._ceff = tech.ceff * self.hetero.ceff_scale
        self._base_cpi = cfg.base_cpi * self.hetero.cpi_scale
        leak_nominal = (
            self._volts
            * tech.leak_coeff
            * np.exp(tech.leak_temp_sens * (self._t_assumed - tech.t_ref))
        )
        self._leak_per_level = leak_nominal[None, :] * self.hetero.leak_scale[:, None]
        self._cores = np.arange(cfg.n_cores)
        self._v2 = self._volts[None, :] ** 2

    def predict(self, obs: EpochObservation) -> LevelPredictions:
        """Predictions for all cores and levels from one epoch's telemetry."""
        power, ips = self.predict_tables(
            obs.levels, obs.sensed_instructions, obs.sensed_power
        )
        return LevelPredictions(power=power, ips=ips)

    def predict_tables(
        self,
        levels: np.ndarray,
        sensed_instructions: np.ndarray,
        sensed_power: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(power, ips)`` tables of shape ``(..., n_cores, n_levels)``
        from ``levels``, ``sensed_instructions`` and ``sensed_power``
        (watts) of shape ``(..., n_cores)``.  Every operation is
        elementwise, so each row of a stacked call equals a one-run call."""
        cfg = self.cfg
        levels = np.asarray(levels, dtype=int)
        cores = self._cores
        f_cur = self._freqs[cores, levels]
        v_cur = self._volts[levels]

        # Invert memory intensity from IPC via CPI(f) = CPI0 + mu * L * f.
        cycles = np.maximum(f_cur * cfg.epoch_time, 1.0)
        # max/min, not np.clip: the same values (NaN too), far cheaper.
        ipc = np.maximum(sensed_instructions / cycles, 1e-6)
        mu = np.maximum(0.0, (1.0 / ipc - self._base_cpi)) / (
            cfg.mem_latency * f_cur + 1e-30
        )

        # Invert activity from measured power minus assumed leakage.
        leak_cur = self._leak_per_level[cores, levels]
        p_dyn = np.maximum(0.0, sensed_power - leak_cur)
        act = p_dyn / (self._ceff * v_cur**2 * f_cur)
        act = np.minimum(np.maximum(act, cfg.activity_range[0]), cfg.activity_range[1])

        # Expand across all levels.
        f = self._freqs  # (n, L)
        power = act[..., None] * self._ceff[:, None] * self._v2 * f + self._leak_per_level
        ips = f / (self._base_cpi[:, None] + mu[..., None] * cfg.mem_latency * f)
        return power, ips

    def cold_predictions(self, n_cores: int) -> LevelPredictions:
        """Predictions with no telemetry (first epoch): assume worst-case
        activity and pure-compute phases — the conservative cold start."""
        cfg = self.cfg
        if n_cores != cfg.n_cores:
            raise ValueError(
                f"cold_predictions expects the configured core count "
                f"{cfg.n_cores}, got {n_cores}"
            )
        f = self._freqs
        act = cfg.activity_range[1]
        power = act * self._ceff[:, None] * self._v2 * f + self._leak_per_level
        ips = f / self._base_cpi[:, None]
        return LevelPredictions(power=power, ips=ips)
