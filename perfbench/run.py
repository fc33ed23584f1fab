"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stack-sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` first runs the workload untraced for half the time, then
runs the same number of jobs again with every public function and method
of the ``repro`` layers wrapped by :mod:`tracer`, and reports the
per-layer metrics of that traced pass, the wall time its spans do not
cover, and the tracing overhead.  Both modes re-check outputs outside the
timed region and count every failed job or check.

Every time reported is scaled to the reference host speed by
:mod:`hostspeed`, from probes taken between the jobs.

The last line of standard output is the result object; a JSON artifact
with the environment, the metrics and (traced) the per-layer ledger and
every span goes to ``perfbench/out/``.  See ``perfbench/README.md`` for
the workloads and the layer -> metric -> workload map.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools are pinned before numpy loads: the benchmark host has
# two cores, and a pool per process would make timings depend on load.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: set-up is measured in this many fresh processes per run; the median counts
SETUP_REPS = 3
SETUP_TIMEOUT_S = 150.0
#: host-speed probes before each set-up process and after the last
SETUP_PROBES = 4
#: a job-latency percentile is the median of the percentiles of up to
#: GROUPS consecutive groups of the pass's jobs, each of at least
#: GROUP_JOBS
GROUPS = 5
GROUP_JOBS = 20

clock = time.perf_counter


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="build the workload's inputs and exit (how setup_s is sampled)",
    )
    return parser.parse_args(argv)


def environment() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure_setup(workload: str, seed: int) -> List[float]:
    """Seconds, at the reference host speed, of fresh processes that
    import, build the inputs and exit."""
    from hostspeed import SpeedLog

    speed = SpeedLog()
    spans = []
    for _ in range(SETUP_REPS):
        speed.sample(SETUP_PROBES)
        start = clock()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            check=True, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S,
        )
        spans.append((start, clock()))
    speed.sample(SETUP_PROBES)
    return [speed.scaled(start, end) for start, end in spans]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def busy_seconds(out: Any) -> float:
    """Seconds the pass kept the program at work, at the reference speed."""
    return sum(out.speed.scaled(start, end) for start, end in out.busy)


def end_to_end(wl: Any, out: Any, setup: List[float], rss: float) -> Dict[str, float]:
    """The end-to-end metrics of one untraced pass (see README.md)."""
    import numpy as np

    def job_latency_s(q: float) -> float:
        """The median of the ``q``th percentiles of up to ``GROUPS``
        consecutive groups of the pass's jobs, each of at least
        ``GROUP_JOBS``: one percentile of them all would follow the one
        spell when the host was slowest, which the probe, sampled between
        jobs, does not see."""
        groups = np.array_split(
            np.array(latencies), max(1, min(GROUPS, len(latencies) // GROUP_JOBS))
        )
        return float(np.median([np.percentile(group, q) for group in groups]))

    def decide_ms(q: float) -> float:
        """Per controller, the ``q``th percentile of its decide times
        pooled over all its serial runs (each run is of other inputs, so
        groups of runs would differ in content), averaged over the
        workload's controllers."""
        return 1e3 * float(np.mean([np.percentile(np.concatenate(runs), q) for runs in series]))

    series = list(wl.decide_series().values())
    latencies = [out.speed.scaled(start, end) for start, end in out.intervals]
    busy = busy_seconds(out)

    return {
        "setup_s": statistics.median(setup),
        "sim_core_epochs_per_s": out.sim_core_epochs / busy,
        "decide_ms_p50": decide_ms(50),
        "decide_ms_p90": decide_ms(90),
        "jobs_per_s": out.jobs / busy,
        "job_latency_p50_s": job_latency_s(50),
        "job_latency_p90_s": job_latency_s(90),
        "peak_rss_mb": rss,
        # In the artifact only: stalls of a fixed length on the shared host
        # hit between 1 and 5 % of the epochs, so p99 moved by more than
        # the bound between runs of the same code.
        "decide_ms_p99": decide_ms(99),
        "job_latency_p99_s": job_latency_s(99),
    }


def run_untraced(cls: Any, args: argparse.Namespace, scratch: Path) -> Tuple[Dict, Dict]:
    from layers import END_TO_END

    setup = measure_setup(args.workload, args.seed)
    wl = cls(args.seed, scratch)
    try:
        out = wl.run(seconds=args.seconds, references=True)
        rss = peak_rss_mb()
        attempted, failed = wl.check()
        values = end_to_end(wl, out, setup, rss)
    finally:
        wl.close()
    units = {name: unit for name, unit, _ in END_TO_END}
    result = {
        "attempted": out.jobs + attempted,
        "failed": out.failed + failed,
        "metrics": {name: (values[name], units[name]) for name, _, _ in END_TO_END},
    }
    detail = {
        "setup_samples_s": setup,
        "jobs": out.jobs,
        "wall_s": out.wall_s,
        "job_latencies_s": out.latencies,
        "tails": {name: values[name] for name in ("decide_ms_p99", "job_latency_p99_s")},
        "decide_samples": {
            name: sum(len(run) for run in runs) for name, runs in wl.decide_series().items()
        },
        "host_speed_samples_s": [
            seconds for _t, seconds in sorted(set(wl.speed.samples + out.speed.samples))
        ],
    }
    return result, detail


def run_traced(cls: Any, args: argparse.Namespace, scratch: Path) -> Tuple[Dict, Dict]:
    import layers
    from tracer import Tracer

    # Untraced reference on the same seed: how many jobs fit in half the
    # time, and how long they took without wrappers.
    wl = cls(args.seed, scratch)
    try:
        reference = wl.run(seconds=args.seconds / 2)
        reference_busy = busy_seconds(reference)
    finally:
        wl.close()
    del wl

    tracer = Tracer()
    counts = layers.new_counts()
    for name, observer in layers.observers(counts).items():
        tracer.observe(name, observer)
    tracer.install()
    try:
        lo = clock()
        wl = cls(args.seed, scratch)
        wl.instrument(tracer)
        t_pass = clock()
        traced = wl.run(n_jobs=reference.jobs)
        hi = clock()
    finally:
        tracer.uninstall()
    try:
        attempted, failed = wl.check()
    finally:
        wl.close()

    pass_spans = tracer.aggregate(t_pass, hi)
    whole = tracer.aggregate(lo, hi)
    covered = tracer.covered_seconds(lo, hi)
    values = layers.per_layer(pass_spans, whole, counts, traced.extra)
    values.update({
        "trace.wall_s": (hi - lo, "s"),
        "trace.unattributed_s": (max(0.0, (hi - lo) - covered), "s"),
        "trace.overhead_ratio": (busy_seconds(traced) / reference_busy, "ratio"),
        "trace.spans": (float(len(tracer.spans)), "count"),
    })
    result = {
        "attempted": reference.jobs + traced.jobs + attempted,
        "failed": reference.failed + traced.failed + failed,
        "metrics": values,
    }
    detail = {
        "jobs": traced.jobs,
        "untraced_wall_s": reference.wall_s,
        "traced_wall_s": traced.wall_s,
        "traced_setup_s": t_pass - lo,
        "end_to_end_s": hi - lo,
        "covered_s": covered,
        "layers": layers.layer_seconds(whole),
        "span_totals": whole,
        "spans": tracer.spans_payload(),
    }
    return result, detail


def write_artifact(args: argparse.Namespace, result: Dict, detail: Dict) -> None:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    payload = {
        "scenario": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": environment(),
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        **detail,
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with path.open("w") as fh:
        json.dump(payload, fh, allow_nan=False, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 3
    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    (HERE / "tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "tmp"))
    try:
        if args.setup_only:
            cls(args.seed, scratch).close()
            return 0
        runner = run_traced if args.trace else run_untraced
        result, detail = runner(cls, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    write_artifact(args, result, detail)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
