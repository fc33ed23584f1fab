"""Load-test the continuous-batching service and archive the numbers.

Drives an in-process :class:`~repro.service.ExperimentService` (no TCP —
the wire adds nothing to scheduler behaviour and everything to harness
noise) with many concurrent submissions from multiple client names,
drawn from a small pool of overlapping sweep specs so the three dedup
levels and cross-client batching all light up.  After the storm it
checks the properties the service promises:

* every job completes,
* cross-client batching happened (``engine.cells_batched`` > 0 with
  submissions from distinct clients sharing rounds,
  ``service.rounds_cross_client`` > 0),
* duplicate submissions were answered without re-simulation
  (``service.dedup_inflight`` + ``service.dedup_memo`` > 0, and the
  engine executed far fewer cells than were submitted),
* sampled jobs are bit-identical to fresh serial library runs
  (:func:`repro.parallel.compare.assert_trace_equal`),
* shutdown leaks no asyncio tasks and no worker processes.

The result goes to ``benchmarks/results/BENCH_SERVICE.json`` in the
shape ``tools/bench_summary.py`` renders (``experiment``,
``wall_clock_s``), plus throughput/latency percentiles::

    python -m tools.service_load                      # full: 1000 jobs
    python -m tools.service_load --jobs 120 --out /tmp/BENCH_SERVICE.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.parallel.compare import assert_trace_equal  # noqa: E402
from repro.service import ExperimentService, JobSpec, result_digest  # noqa: E402
from repro.service.jobs import _workload  # noqa: E402
from repro.sim.runner import run_budget_sweep, standard_controllers  # noqa: E402

#: Spec pool ingredients.  Small on purpose: ~1000 submissions collapse
#: onto at most ``len(CONTROLLERS) * len(BUDGETS)`` distinct simulations,
#: which is exactly the regime a shared service exists for.
CONTROLLERS = ("od-rl", "pid", "greedy-ascent")
BUDGETS = (20.0, 25.0, 30.0, 35.0, 40.0, 45.0)
N_CORES = 4
N_EPOCHS = 6


def make_spec(i: int) -> JobSpec:
    """Deterministic spec for submission ``i`` — overlapping sweeps."""
    ctrls = tuple(
        CONTROLLERS[(i + k) % len(CONTROLLERS)] for k in range(1 + i % 2)
    )
    budgets = tuple(
        sorted(BUDGETS[(i + k) % len(BUDGETS)] for k in range(2 + i % 2))
    )
    return JobSpec(
        kind="sweep",
        controllers=ctrls,
        benchmarks=("mixed",),
        budgets=budgets,
        n_cores=N_CORES,
        n_epochs=N_EPOCHS,
    )


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    pos = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[pos]


def verify_bit_identity(
    service: ExperimentService, job_ids: List[str], sample: List[int]
) -> int:
    """Recompute sampled jobs serially via the library path and compare."""
    verified = 0
    for i in sample:
        job_id = job_ids[i]
        spec = make_spec(i)
        merged = service.results(job_id)
        from repro.manycore.config import default_system

        cfg = default_system(
            n_cores=spec.n_cores, budget_fraction=spec.budget_fraction
        )
        lineup = standard_controllers(seed=spec.seed)
        controllers = {name: lineup[name] for name in spec.controllers}
        workload = _workload(spec.benchmarks[0], spec.n_cores, spec.seed)
        serial = run_budget_sweep(
            cfg, list(spec.budgets), workload, controllers, spec.n_epochs
        )
        for ctrl in spec.controllers:
            for budget in spec.budgets:
                svc_result = merged[ctrl][budget]
                lib_result = serial[ctrl][budget]
                assert_trace_equal(
                    svc_result,
                    lib_result,
                    context=f"job {job_id}: {ctrl} @ {budget}W",
                )
                if result_digest(svc_result) != result_digest(lib_result):
                    raise AssertionError(
                        f"digest mismatch for trace-equal results "
                        f"({ctrl} @ {budget}W)"
                    )
                verified += 1
    return verified


async def run_load(
    n_jobs: int, n_clients: int, round_size: int, cache_dir: str
) -> Dict[str, Any]:
    service = ExperimentService(cache=cache_dir, round_size=round_size)
    await service.start()
    t0 = time.perf_counter()
    job_ids = list(
        await asyncio.gather(
            *(
                service.submit(make_spec(i), client=f"c{i % n_clients}")
                for i in range(n_jobs)
            )
        )
    )
    statuses = await asyncio.gather(
        *(service.wait(job_id, timeout=600.0) for job_id in job_ids)
    )
    wall = time.perf_counter() - t0

    not_done = [s["job"] for s in statuses if s["state"] != "done"]
    if not_done:
        raise AssertionError(f"{len(not_done)} jobs not done: {not_done[:5]}")

    counters = service.counters()
    sample = sorted({0, n_jobs // 3, n_jobs // 2, n_jobs - 1})
    verified = verify_bit_identity(service, job_ids, sample)

    latencies = sorted(
        service.scheduler.jobs[job_id].elapsed_s for job_id in job_ids
    )
    payload: Dict[str, Any] = {
        "experiment": "SERVICE",
        "wall_clock_s": wall,
        "n_jobs": n_jobs,
        "n_clients": n_clients,
        "round_size": round_size,
        "cells_submitted": sum(make_spec(i).cell_count() for i in range(n_jobs)),
        "distinct_cells": int(counters.get("service.cells_enqueued", 0)),
        "throughput_jobs_per_s": n_jobs / wall if wall > 0 else 0.0,
        "latency_s": {
            "p50": _percentile(latencies, 0.50),
            "p90": _percentile(latencies, 0.90),
            "p99": _percentile(latencies, 0.99),
            "max": latencies[-1],
        },
        "verified_cells": verified,
        "counters": {
            key: counters[key]
            for key in sorted(counters)
            if key.startswith(("service.", "cache_total."))
            or key in ("engine.cells_batched", "engine.cells_completed")
        },
    }

    await service.stop()
    # -- leak checks: the service must clean up after itself entirely.
    leaked_tasks = [
        t for t in asyncio.all_tasks() if t is not asyncio.current_task()
    ]
    if leaked_tasks:
        raise AssertionError(f"leaked asyncio tasks: {leaked_tasks}")
    leaked_procs = multiprocessing.active_children()
    if leaked_procs:
        raise AssertionError(f"leaked worker processes: {leaked_procs}")
    return payload


def check_invariants(payload: Dict[str, Any]) -> List[str]:
    """The service-contract assertions, as named checks for the report."""
    counters = payload["counters"]
    dedup = counters.get("service.dedup_inflight", 0) + counters.get(
        "service.dedup_memo", 0
    )
    checks = [
        ("all jobs done", counters.get("service.jobs_done") == payload["n_jobs"]),
        ("cross-client rounds", counters.get("service.rounds_cross_client", 0) > 0),
        ("cells batched in engine", counters.get("engine.cells_batched", 0) > 0),
        ("duplicate submissions deduped", dedup > 0),
        (
            "dedup collapsed the grid",
            payload["distinct_cells"] < payload["cells_submitted"],
        ),
        ("bit-identity verified", payload["verified_cells"] > 0),
    ]
    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")
    return failed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=1000, help="concurrent submissions"
    )
    parser.add_argument(
        "--clients", type=int, default=8, help="distinct client names"
    )
    parser.add_argument(
        "--round-size", type=int, default=32, help="scheduler round size"
    )
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "benchmarks" / "results" / "BENCH_SERVICE.json"),
        help="where to write the JSON artifact",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="service-load-") as cache_dir:
        payload = asyncio.run(
            run_load(args.jobs, args.clients, args.round_size, cache_dir)
        )

    print(
        f"{payload['n_jobs']} jobs ({payload['cells_submitted']} cells, "
        f"{payload['distinct_cells']} distinct) in "
        f"{payload['wall_clock_s']:.2f}s = "
        f"{payload['throughput_jobs_per_s']:.0f} jobs/s; "
        f"latency p50 {payload['latency_s']['p50']:.3f}s "
        f"p99 {payload['latency_s']['p99']:.3f}s"
    )
    failed = check_invariants(payload)
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
