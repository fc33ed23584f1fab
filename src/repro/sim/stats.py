"""Multi-seed statistical runs.

A single seeded run answers "what happened"; a claim needs "what happens
on average, and how much does it move".  :func:`run_seeds` repeats a
controller/workload configuration across seeds — re-sampling both the
workload trace and the learner's exploration — and aggregates any set of
scalar metrics into mean / standard deviation / confidence intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.manycore.config import SystemConfig
from repro.sim.interface import Controller
from repro.sim.results import SimulationResult
from repro.sim.simulator import run_controller
from repro.workloads.phases import Workload

__all__ = ["MetricStatistics", "run_seeds"]

MetricFn = Callable[[SimulationResult], float]
WorkloadFactory = Callable[[int], Workload]
ControllerFactory = Callable[[SystemConfig, int], Controller]


@dataclass(frozen=True)
class MetricStatistics:
    """Aggregate of one metric across seeds.

    Attributes
    ----------
    values:
        Per-seed metric values, in seed order.
    """

    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("MetricStatistics needs at least one value")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1); 0 for a single seed."""
        if self.n < 2:
            return 0.0
        return float(np.std(self.values, ddof=1))

    def confidence_interval(self, level: float = 0.95) -> Tuple[float, float]:
        """Student-t confidence interval for the mean.

        Degenerates to ``(mean, mean)`` for a single seed or zero spread.
        """
        if not (0 < level < 1):
            raise ValueError(f"level must be in (0, 1), got {level}")
        if self.n < 2 or self.std <= 0.0:
            return (self.mean, self.mean)
        # Imported here: scipy.stats costs every spawned worker ~1 s.
        from scipy import stats as scipy_stats

        half_width = scipy_stats.t.ppf(0.5 + level / 2, self.n - 1) * self.std / np.sqrt(self.n)
        return (self.mean - half_width, self.mean + half_width)


def run_seeds(
    cfg: SystemConfig,
    workload_factory: WorkloadFactory,
    controller_factory: ControllerFactory,
    n_epochs: int,
    seeds: Sequence[int],
    metrics: Mapping[str, MetricFn],
    steady_fraction: float = 0.5,
) -> Dict[str, MetricStatistics]:
    """Run one configuration across ``seeds`` and aggregate metrics.

    Parameters
    ----------
    cfg:
        System configuration, shared across seeds.
    workload_factory:
        ``seed -> Workload``; called once per seed.
    controller_factory:
        ``(cfg, seed) -> Controller``; called once per seed.
    n_epochs:
        Epochs per run.
    seeds:
        Seeds to sweep; must be non-empty.
    metrics:
        Named metric functions evaluated on the steady-state tail of each
        run.
    steady_fraction:
        Trailing fraction of each run the metrics see (1.0 = whole run).

    Returns
    -------
    dict
        ``metric name -> MetricStatistics``.
    """
    if not seeds:
        raise ValueError("seeds must be non-empty")
    if not metrics:
        raise ValueError("metrics must be non-empty")
    per_metric: Dict[str, list] = {name: [] for name in metrics}
    for seed in seeds:
        workload = workload_factory(seed)
        controller = controller_factory(cfg, seed)
        result = run_controller(cfg, workload, controller, n_epochs)
        steady = result.tail(steady_fraction)
        for name, fn in metrics.items():
            per_metric[name].append(float(fn(steady)))
    return {
        name: MetricStatistics(tuple(values))
        for name, values in per_metric.items()
    }
