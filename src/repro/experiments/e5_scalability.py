"""E5 — controller-runtime scalability with core count (claim C3).

Reconstructs the scalability figure: mean per-decision wall-clock time of
each controller as the chip grows from tens to hundreds of cores.  The
abstract claims "two orders of magnitude speedup over state-of-the-art
techniques for systems with hundreds of cores" — here measured as the
ratio of the centralized optimizer's decision time to OD-RL's at the
largest core count.

The centralized reference is named, not routed: the ``maxbips`` row times
:meth:`~repro.baselines.maxbips.MaxBIPSController.decide`, the serial
knapsack DP :func:`~repro.baselines.maxbips.solve_dp`, and the
``maxbips-vectorized`` row times the stacked value-row DP of
:class:`~repro.kernel.policies.BatchMaxBIPS` that a lone simulated
MaxBIPS run decides through.  Every other row times the policy a lone
run of its controller decides through
(:func:`~repro.kernel.policies.build_batch_policy`).  All rows decide on
one recorded telemetry stream per core count, so they are timed on the
same inputs, and each point is the median of interleaved repeats.
"""

from __future__ import annotations

import tempfile
import time
from contextlib import ExitStack
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.base import ExperimentResult, GridOptions
from repro.manycore.config import SystemConfig, default_system
from repro.metrics.report import format_series
from repro.obs import TimingBreakdown
from repro.sim.runner import run_suite, standard_controllers
from repro.workloads.phases import Workload
from repro.workloads.suite import make_benchmark, mixed_workload

if TYPE_CHECKING:
    from repro.kernel.epoch import KernelObservation
    from repro.kernel.policies import BatchPolicy

__all__ = ["run_e5", "VECTORIZED"]

_DEFAULT_CONTROLLERS = (
    "od-rl",
    "pid",
    "greedy-ascent",
    "steepest-drop",
    "max-swap",
    "maxbips",
)
_DEFAULT_CORE_COUNTS = (16, 64, 144, 256)
#: the second MaxBIPS row: the vectorized DP a lone simulated run uses
VECTORIZED = "maxbips-vectorized"
#: interleaved timing repeats per point; the point is their median
_REPEATS = 5


def run_e5(
    core_counts: Optional[Sequence[int]] = None,
    n_epochs: int = 60,
    warmup_epochs: int = 10,
    budget_fraction: float = 0.6,
    controllers: Optional[Sequence[str]] = None,
    seed: int = 0,
    grid: Optional[GridOptions] = None,
) -> ExperimentResult:
    """Run E5: per-decision latency vs. core count.

    Parameters
    ----------
    core_counts:
        Chip sizes to sweep (ascending).
    n_epochs:
        Decisions timed per sample: the first decides without telemetry,
        the rest on the recorded stream.
    warmup_epochs:
        Leading decisions dropped from each sample's mean (interpreter
        and cache warm-up would otherwise inflate the first decisions).
    grid:
        Parallel-execution options.  The latency sweep itself always runs
        serially — co-scheduling workers would contaminate the
        per-decision wall-clock measurement — but with ``grid.jobs > 1``
        the experiment additionally benchmarks the sharded engine on a
        64-core suite grid: serial vs. parallel wall-clock, plus a
        cold-cache vs. warm-cache re-run (see ``data["parallel"]``).
        ``grid.profile`` / ``grid.recorder`` add a closed-loop run of
        each controller at every core count, profiled and traced, and a
        decide-vs-plant wall-clock section (see ``data["timing"]``).  The
        latency table never reads those runs.
    """
    counts = list(core_counts) if core_counts else list(_DEFAULT_CORE_COUNTS)
    if sorted(counts) != counts or len(set(counts)) != len(counts):
        raise ValueError(f"core_counts must be strictly ascending, got {counts}")
    if warmup_epochs >= n_epochs:
        raise ValueError("warmup_epochs must be smaller than n_epochs")
    names = list(controllers) if controllers else list(_DEFAULT_CONTROLLERS)
    if "od-rl" not in names or "maxbips" not in names:
        raise ValueError("E5 requires 'od-rl' and 'maxbips' for the speedup ratio")
    lineup = standard_controllers(seed=seed)
    chosen = {n: lineup[n] for n in names}
    rows = [*names, VECTORIZED]

    recorder = grid.recorder if grid is not None else None
    profile = bool(grid.profile) if grid is not None else False
    latency: Dict[str, List[float]] = {n: [] for n in rows}
    timing: Dict[str, List[Dict[str, Any]]] = {n: [] for n in names}
    for n_cores in counts:
        cfg = default_system(n_cores=n_cores, budget_fraction=budget_fraction)
        workload = mixed_workload(n_cores, seed=seed)
        stream = _telemetry_stream(cfg, workload, chosen["od-rl"], n_epochs)
        samples: Dict[str, List[float]] = {n: [] for n in rows}
        for _ in range(_REPEATS):
            for row in rows:
                controller = chosen["maxbips" if row == VECTORIZED else row](cfg)
                policy = _timed_policy(row, controller)
                samples[row].append(_mean_decide_s(policy.decide, stream, warmup_epochs))
        for row in rows:
            latency[row].append(float(np.median(samples[row])))
        if profile or recorder is not None:
            results = run_suite(
                cfg, {"mixed": workload}, chosen, n_epochs,
                recorder=recorder, profile=profile,
            )
            if profile:
                for name in names:
                    timing[name].append(results[name]["mixed"].extras["timing"])

    speedups = [m / o for m, o in zip(latency["maxbips"], latency["od-rl"])]
    vectorized = [m / o for m, o in zip(latency[VECTORIZED], latency["od-rl"])]
    speedup_at_max = speedups[-1]
    series = {name: [v * 1e6 for v in vals] for name, vals in latency.items()}
    sections = [
        format_series(
            [float(c) for c in counts],
            series,
            x_label="cores",
            title=(
                "E5: mean decision latency (us) vs core count "
                f"(median of {_REPEATS} interleaved repeats)"
            ),
        ),
        format_series(
            [float(c) for c in counts],
            {"maxbips/od-rl speedup": speedups, f"{VECTORIZED}/od-rl": vectorized},
            x_label="cores",
            title=(
                "E5: OD-RL speedup over the centralized optimizer, the serial "
                "MaxBIPS DP (solve_dp) "
                f"(paper claim C3: ~100x at hundreds of cores — measured "
                f"{speedup_at_max:.0f}x at {counts[-1]} cores)"
            ),
        ),
    ]
    data: Dict[str, Any] = {
        "core_counts": counts,
        "repeats": _REPEATS,
        "latency": latency,
        "speedups": speedups,
        "vectorized_speedups": vectorized,
        "speedup_at_max_cores": speedup_at_max,
    }
    if profile:
        data["timing"] = timing
        sections.append(_timing_section(counts, names, timing))
    if grid is not None and grid.jobs > 1:
        parallel = _parallel_engine_benchmark(
            grid, n_epochs=n_epochs, seed=seed
        )
        data["parallel"] = parallel
        sections.append(
            "E5: sharded engine on the {n}-core suite grid "
            "({cells} cells, jobs={jobs})\n"
            "  serial       {t_serial_s:8.2f} s\n"
            "  parallel     {t_parallel_s:8.2f} s  ({engine_speedup:.2f}x)\n"
            "  warm cache   {t_warm_s:8.2f} s  ({warm_fraction:.1%} of cold "
            "parallel time)".format(
                n=parallel["n_cores"],
                cells=parallel["n_cells"],
                jobs=parallel["jobs"],
                t_serial_s=parallel["t_serial_s"],
                t_parallel_s=parallel["t_parallel_s"],
                engine_speedup=parallel["engine_speedup"],
                t_warm_s=parallel["t_warm_s"],
                warm_fraction=parallel["warm_fraction"],
            )
        )
    return ExperimentResult(
        experiment_id="E5",
        title="Controller runtime scalability",
        report="\n\n".join(sections),
        data=data,
    )


def _telemetry_stream(
    cfg: SystemConfig,
    workload: Workload,
    factory: Callable[[SystemConfig], Any],
    n_epochs: int,
) -> List[KernelObservation]:
    """The observations of one closed-loop run of ``factory``'s controller
    on a one-row kernel: the telemetry every row of the sweep decides on."""
    # Imported here, as in _timed_policy: importing the experiments package
    # (every perfbench set-up does) need not load the kernel and policies.
    from repro.kernel.epoch import EpochKernel
    from repro.kernel.policies import build_batch_policy

    kernel = EpochKernel([cfg], [workload])
    # Held here: a controller's own stack sees it through a weak proxy.
    controller = factory(cfg)
    policy = build_batch_policy([controller])
    policy.reset()
    stream: List[KernelObservation] = []
    obs = None
    for _ in range(n_epochs - 1):
        obs = kernel.step(policy.decide(obs))
        stream.append(obs)
    return stream


def _timed_policy(row: str, controller: Any) -> BatchPolicy:
    """The policy whose decide E5 times for ``row``, freshly reset.

    ``maxbips`` is the controller's own serial ``decide`` (``solve_dp``),
    named here rather than left to routing; every other row, the
    vectorized MaxBIPS included, is the policy a lone run of the
    controller decides through.  The caller holds ``controller``.
    """
    from repro.kernel.policies import PerRunPolicy, build_batch_policy

    if row == "maxbips":
        policy: BatchPolicy = PerRunPolicy([controller])
    else:
        policy = build_batch_policy([controller])
    policy.reset()
    return policy


def _mean_decide_s(
    decide: Callable[..., np.ndarray],
    stream: Sequence[KernelObservation],
    warmup_epochs: int,
) -> float:
    """Mean wall seconds of ``decide`` over ``[None, *stream]``, less the
    first ``warmup_epochs`` decisions."""
    seconds = []
    for obs in [None, *stream]:
        t0 = time.perf_counter()
        decide(obs)
        seconds.append(time.perf_counter() - t0)
    return float(np.mean(seconds[warmup_epochs:]))


def _timing_section(
    counts: Sequence[int],
    names: Sequence[str],
    timing: Dict[str, List[Dict[str, Any]]],
) -> str:
    """Decide-vs-plant wall-clock table from the profiled sweep.

    The latency figure above answers "how fast is the controller"; this
    section answers "where does the *experiment's* wall clock go" — how
    much of each epoch is controller decision versus plant (power /
    thermal / performance model) integration, per core count.
    """
    lines = [
        "E5: decide vs plant wall clock per epoch (profiled)",
        f"  {'controller':<16} {'cores':>6} {'decide us':>10} "
        f"{'plant us':>10} {'decide share':>13}",
    ]
    for name in names:
        for i, n_cores in enumerate(counts):
            breakdown = TimingBreakdown.from_dict(timing[name][i])
            decide = breakdown.mean("decide")
            plant = breakdown.mean("plant")
            loop = decide + plant + breakdown.mean("contracts")
            share = 100.0 * decide / loop if loop > 0 else 0.0
            lines.append(
                f"  {name:<16} {n_cores:>6d} {decide * 1e6:>10.1f} "
                f"{plant * 1e6:>10.1f} {share:>12.1f}%"
            )
    return "\n".join(lines)


_SPEEDUP_GRID_CONTROLLERS = ("od-rl", "pid", "greedy-ascent", "static-uniform")
_SPEEDUP_GRID_BENCHMARKS = ("fft", "ocean", "barnes", "x264")


def _parallel_engine_benchmark(
    grid: GridOptions,
    n_epochs: int,
    seed: int,
    n_cores: int = 64,
) -> Dict[str, Any]:
    """Wall-clock the sharded engine against the serial loop.

    Runs a 64-core controller × benchmark suite grid three ways: serial
    (``jobs=1``, no cache), parallel cold (``grid.jobs``, empty cache),
    and parallel warm (same cache, second invocation — every cell should
    hit).  Wall-clock only; the trajectories themselves are bit-identical
    by the determinism tests, so only the timings are interesting here.
    """
    lineup = standard_controllers(seed=seed)
    chosen = {name: lineup[name] for name in _SPEEDUP_GRID_CONTROLLERS}
    workloads = {
        b: make_benchmark(b, n_cores, seed=seed) for b in _SPEEDUP_GRID_BENCHMARKS
    }
    cfg = default_system(n_cores=n_cores, budget_fraction=0.6)

    with ExitStack() as stack:
        if grid.cache is None:
            cache_dir: Any = Path(
                stack.enter_context(tempfile.TemporaryDirectory(prefix="e5-cache-"))
            )
        else:
            cache_dir = grid.cache

        t0_s = time.perf_counter()
        run_suite(cfg, workloads, chosen, n_epochs)
        t1_s = time.perf_counter()
        run_suite(cfg, workloads, chosen, n_epochs, jobs=grid.jobs, cache=cache_dir)
        t2_s = time.perf_counter()
        run_suite(cfg, workloads, chosen, n_epochs, jobs=grid.jobs, cache=cache_dir)
        t3_s = time.perf_counter()

    t_serial_s = t1_s - t0_s
    t_parallel_s = t2_s - t1_s
    t_warm_s = t3_s - t2_s
    return {
        "n_cores": n_cores,
        "n_epochs": n_epochs,
        "jobs": grid.jobs,
        "n_cells": len(chosen) * len(workloads),
        "t_serial_s": t_serial_s,
        "t_parallel_s": t_parallel_s,
        "t_warm_s": t_warm_s,
        "engine_speedup": t_serial_s / t_parallel_s,
        "warm_fraction": t_warm_s / t_parallel_s,
    }
