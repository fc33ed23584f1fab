"""Benchmark-harness plumbing.

Each ``test_bench_e*.py`` regenerates one reconstructed table/figure at
evaluation scale, times it with pytest-benchmark, prints the same
rows/series the paper reports, and archives two artifacts under
``benchmarks/results/``: the rendered report (``E*.txt``, for
EXPERIMENTS.md) and a machine-readable ``BENCH_E*.json`` (experiment id,
headline ``data`` payload, wall clock, and — for the shared E2/E3/E4
sweep — the serial-vs-batched suite timing).  ``tools/bench_summary.py``
diffs two result directories by these JSON files.

The heavyweight simulation sweep behind E2/E3/E4 is shared through a
session-scope fixture so the suite runs each controller×benchmark pair
exactly once per backend: once serial, once through the batched tensor
backend (``batch=8``), asserting bit-identity between the two — the
bench harness doubles as the batched backend's at-scale differential
check, and the timing pair is the measured speedup EXPERIMENTS.md cites.
"""

import json
import time
from collections.abc import Mapping
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

# Evaluation scale used by the bench harness (paper scale is larger; the
# shapes are stable from 32 cores up — see EXPERIMENTS.md).
N_CORES = 32
N_EPOCHS = 1200
SEED = 0

#: Stack cap for the batched leg of the shared sweep (the E2 grid groups
#: six benchmarks per controller, so 8 stacks each group whole).
BATCH_SIZE = 8

#: Serial-vs-batched wall clock of the shared sweep, filled by
#: ``suite_results`` and embedded by ``save_report`` into the JSON
#: artifact of every experiment that consumed the shared sweep.
SUITE_TIMINGS = {}


def _json_default(obj):
    """Make numpy scalars/arrays JSON-representable; refuse anything else."""
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):
        return obj.item()
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON-serializable")


def _is_raw_result(value) -> bool:
    """Whether ``value`` is a simulation trace (a ``SimulationResult`` or
    a non-empty mapping nest of them) rather than a headline number."""
    from repro.sim.results import SimulationResult

    if isinstance(value, SimulationResult):
        return True
    return (
        isinstance(value, Mapping)
        and bool(value)
        and all(_is_raw_result(v) for v in value.values())
    )


def _wall_clock_s(benchmark):
    """Best-observed seconds from a pytest-benchmark fixture, if any."""
    try:
        return float(benchmark.stats.stats.min)
    except AttributeError:
        return None


def save_report(result, benchmark=None) -> None:
    """Archive an ExperimentResult's rendered report and JSON payload."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{result.experiment_id}.txt"
    path.write_text(str(result) + "\n")
    payload = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        # Raw traces (e.g. E2-E4's ``results`` sweep) stay out of the
        # artifact: it holds the headline numbers only.
        "headline": {
            k: v for k, v in result.data.items() if not _is_raw_result(v)
        },
        "wall_clock_s": _wall_clock_s(benchmark) if benchmark is not None else None,
        "suite_timing": SUITE_TIMINGS.get(result.experiment_id),
    }
    json_path = RESULTS_DIR / f"BENCH_{result.experiment_id}.json"
    json_path.write_text(
        json.dumps(
            payload,
            indent=2,
            sort_keys=True,
            allow_nan=False,
            default=_json_default,
        )
        + "\n"
    )


@pytest.fixture(scope="session")
def suite_results():
    """The shared E2/E3/E4 simulation sweep (controllers x benchmarks).

    Runs the grid twice — serial, then batched — asserts the two are
    bit-identical on every cell, records the timing pair in
    ``SUITE_TIMINGS``, and hands the serial results to the experiments.
    """
    from repro.experiments.e2_overshoot import DEFAULT_BENCHMARKS, DEFAULT_CONTROLLERS
    from repro.manycore.config import default_system
    from repro.parallel import assert_trace_equal
    from repro.sim.runner import run_suite, standard_controllers
    from repro.workloads.suite import make_benchmark

    cfg = default_system(n_cores=N_CORES, budget_fraction=0.6)
    workloads = {
        b: make_benchmark(b, N_CORES, seed=SEED) for b in DEFAULT_BENCHMARKS
    }
    lineup = standard_controllers(seed=SEED)
    chosen = {n: lineup[n] for n in DEFAULT_CONTROLLERS}

    t0_s = time.perf_counter()
    serial = run_suite(cfg, workloads, chosen, N_EPOCHS)
    serial_s = time.perf_counter() - t0_s

    t0_s = time.perf_counter()
    batched = run_suite(cfg, workloads, chosen, N_EPOCHS, batch=BATCH_SIZE)
    batch_s = time.perf_counter() - t0_s

    for ctrl in serial:
        for wl in serial[ctrl]:
            assert_trace_equal(
                serial[ctrl][wl],
                batched[ctrl][wl],
                context=f"bench sweep serial vs batch[{ctrl}][{wl}]",
            )

    timing = {
        "serial_s": serial_s,
        "batch_s": batch_s,
        "batch": BATCH_SIZE,
        "speedup": serial_s / batch_s,
    }
    for eid in ("E2", "E3", "E4"):
        SUITE_TIMINGS[eid] = timing
    return serial
