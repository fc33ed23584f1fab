"""E2 — budget overshoot per benchmark and controller (claim C1).

Reconstructs the overshoot bar chart: over-budget energy for every
controller on every benchmark, plus OD-RL's reduction relative to the
baselines.  The abstract's claim is "up to 98 % less budget overshoot".
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.experiments.base import ExperimentResult, GridOptions
from repro.manycore.config import default_system
from repro.metrics.power_metrics import over_budget_energy, overshoot_fraction
from repro.metrics.report import format_table
from repro.sim.results import SimulationResult
from repro.sim.runner import run_suite, standard_controllers
from repro.workloads.suite import benchmark_names, make_benchmark

__all__ = ["run_e2", "DEFAULT_BENCHMARKS", "DEFAULT_CONTROLLERS"]

DEFAULT_BENCHMARKS = (
    "barnes",
    "ocean",
    "fft",
    "blackscholes",
    "canneal",
    "fluidanimate",
)
DEFAULT_CONTROLLERS = ("od-rl", "pid", "greedy-ascent", "steepest-drop", "maxbips")


def run_e2(
    n_cores: int = 64,
    n_epochs: int = 1500,
    budget_fraction: float = 0.6,
    benchmarks: Optional[Sequence[str]] = None,
    controllers: Optional[Sequence[str]] = None,
    seed: int = 0,
    results: Optional[Mapping[str, Mapping[str, SimulationResult]]] = None,
    grid: Optional[GridOptions] = None,
) -> ExperimentResult:
    """Run E2: over-budget energy across the suite.

    Returns an :class:`ExperimentResult` whose ``data`` contains:

    * ``obe[controller][benchmark]`` — over-budget energy in joules,
    * ``reduction_vs_baseline[baseline][benchmark]`` — OD-RL's overshoot
      reduction versus each baseline,
    * ``reduction_vs_best_baseline`` — versus the lowest-overshoot baseline,
    * ``n_undefined_reductions`` — reduction cells left ``None``: the
      baseline never overshot but OD-RL did,
    * ``max_reduction`` — the headline "up to X % less" number.

    Parameters
    ----------
    results:
        Optionally reuse a matching simulation sweep (same parameters)
        instead of re-simulating; E3/E4 accept the same mapping.
    """
    bench = list(benchmarks) if benchmarks else list(DEFAULT_BENCHMARKS)
    names = list(controllers) if controllers else list(DEFAULT_CONTROLLERS)
    unknown = set(bench) - set(benchmark_names())
    if unknown:
        raise KeyError(f"unknown benchmarks: {sorted(unknown)}")
    if "od-rl" not in names:
        raise ValueError("E2 requires 'od-rl' among the controllers")
    cfg = default_system(n_cores=n_cores, budget_fraction=budget_fraction)
    if results is None:
        workloads = {b: make_benchmark(b, n_cores, seed=seed) for b in bench}
        lineup = standard_controllers(seed=seed)
        chosen = {n: lineup[n] for n in names}
        results = run_suite(
            cfg, workloads, chosen, n_epochs,
            **(grid or GridOptions()).runner_kwargs(),
        )

    obe: Dict[str, Dict[str, float]] = {}
    ofrac: Dict[str, Dict[str, float]] = {}
    for ctrl in names:
        obe[ctrl] = {b: over_budget_energy(results[ctrl][b]) for b in bench}
        ofrac[ctrl] = {b: overshoot_fraction(results[ctrl][b]) for b in bench}

    baselines = [n for n in names if n != "od-rl"]

    def _reduction(ours: float, theirs: float) -> Optional[float]:
        if theirs <= 0:
            return 0.0 if ours <= 0 else None
        return 100.0 * (1.0 - ours / theirs)

    # Reduction of OD-RL's overshoot versus every baseline individually
    # ("up to X% less than state-of-the-art algorithms" is a max over both
    # benchmarks and baselines), plus versus the best baseline per
    # benchmark (the conservative comparison).
    reduction_vs: Dict[str, Dict[str, Optional[float]]] = {
        c: {b: _reduction(obe["od-rl"][b], obe[c][b]) for b in bench}
        for c in baselines
    }
    reduction: Dict[str, Optional[float]] = {
        b: _reduction(obe["od-rl"][b], min(obe[c][b] for c in baselines))
        for b in bench
    }
    defined = [v for row in reduction_vs.values() for v in row.values() if v is not None]
    n_undefined = sum(
        v is None for row in [*reduction_vs.values(), reduction] for v in row.values()
    )
    max_reduction = max(defined, default=0.0)

    report = "\n\n".join(
        [
            format_table(
                obe,
                bench,
                title=(
                    f"E2: over-budget energy (J), {n_cores} cores, "
                    f"budget {cfg.power_budget:.1f} W, {n_epochs} epochs"
                ),
                fmt="{:.4f}",
            ),
            format_table(
                ofrac,
                bench,
                title="E2 (aux): fraction of epochs over budget",
                fmt="{:.3f}",
            ),
            format_table(
                reduction_vs,
                bench,
                title=(
                    "E2: OD-RL overshoot reduction % vs each baseline "
                    f"(paper claim C1: up to 98% less — measured max {max_reduction:.1f}%)"
                ),
                fmt="{:.1f}",
                missing="n/a",
            ),
        ]
    )
    return ExperimentResult(
        experiment_id="E2",
        title="Budget overshoot per benchmark",
        report=report,
        data={
            "obe": obe,
            "overshoot_fraction": ofrac,
            "reduction_vs_baseline": reduction_vs,
            "reduction_vs_best_baseline": reduction,
            "n_undefined_reductions": n_undefined,
            "max_reduction": max_reduction,
            "results": results,
        },
    )
