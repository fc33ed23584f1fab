"""Command-line interface.

Eight subcommands::

    python -m repro list                      # experiments + benchmarks
    python -m repro experiment E2 [options]   # run one experiment, print report
    python -m repro compare [options]         # controller comparison table
    python -m repro trace summarize FILE      # breakdown from a JSONL trace
    python -m repro cache stats|verify|gc DIR # inspect/audit/prune a cache
    python -m repro serve [options]           # continuous-batching job server
    python -m repro submit [options]          # send a job to a running server
    python -m repro offline harvest|train|eval# offline-RL dataset workflow

Every experiment accepts ``--cores``, ``--epochs`` and ``--seed`` so a
laptop-scale run is one flag away from the evaluation scale, plus
``--jobs N`` to shard the simulation grid across worker processes and
``--cache DIR`` to reuse already-computed cells across invocations (both
bit-identical to the default serial run — see ``docs/parallel.md``).
``--trace PATH`` streams the run's typed event log to a JSONL file and
``--profile`` collects the per-epoch phase timing breakdown; neither
perturbs the simulated trajectories (see ``docs/observability.md``).
``--batch [N]`` stacks compatible grid cells into shared kernel stacks,
also inside ``--jobs`` workers (see ``docs/batch.md``), again
bit-identical to serial.
``--journal PATH`` checkpoints every completed grid cell so a killed
campaign resumes where it left off, and ``--timeout SECONDS`` arms the
hung-worker watchdog (see ``docs/robustness.md``).
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the simulation grid (default 1 = serial)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="result-cache directory; repeated runs skip computed cells",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="stream the typed event log to a JSONL trace file",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="collect the per-epoch phase timing breakdown (wall clock)",
    )
    parser.add_argument(
        "--batch",
        type=int,
        nargs="?",
        const=-1,
        default=0,
        metavar="N",
        help=(
            "stack compatible grid cells into tensor batches "
            "(bare flag = unlimited stack size, N caps runs per stack); "
            "bit-identical to the serial loop"
        ),
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help=(
            "campaign journal file; a killed run resumes from it, "
            "recomputing only the missing cells"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-cell soft deadline; hung workers are cancelled and the "
            "cell retried (keep well above pool spin-up time)"
        ),
    )


def _batch_option(args: argparse.Namespace):
    """Map the ``--batch`` flag to the runner's ``batch=`` value.

    Absent → ``False``; bare ``--batch`` (sentinel ``-1``) → ``True``;
    ``--batch N`` → ``N``.
    """
    value = getattr(args, "batch", 0)
    if value == 0:
        return False
    if value == -1:
        return True
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "OD-RL reproduction: distributed RL for power-limited many-core "
            "DVFS (Chen & Marculescu, DATE 2015)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and workload benchmarks")

    exp = sub.add_parser("experiment", help="run one experiment and print its report")
    exp.add_argument("experiment_id", help="E1..E16 (see DESIGN.md)")
    exp.add_argument("--cores", type=int, default=32, help="core count (default 32)")
    exp.add_argument("--epochs", type=int, default=1000, help="epochs per run (default 1000)")
    exp.add_argument("--seed", type=int, default=0, help="workload/learning seed")
    _add_grid_flags(exp)

    cmp_ = sub.add_parser("compare", help="run the controller lineup on one workload")
    cmp_.add_argument("--cores", type=int, default=32)
    cmp_.add_argument("--epochs", type=int, default=1000)
    cmp_.add_argument("--seed", type=int, default=0)
    _add_grid_flags(cmp_)
    cmp_.add_argument(
        "--benchmark",
        default="mixed",
        help="workload: 'mixed' or a suite benchmark name (default mixed)",
    )
    cmp_.add_argument(
        "--budget-fraction",
        type=float,
        default=0.6,
        help="TDP as a fraction of worst-case peak power (default 0.6)",
    )

    trace = sub.add_parser("trace", help="inspect JSONL trace files")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="render run manifests, timing breakdown and incident totals",
    )
    summarize.add_argument("trace_file", help="JSONL trace written by --trace")

    cache = sub.add_parser("cache", help="inspect, audit or prune a result cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    stats = cache_sub.add_parser(
        "stats", help="entry counts, byte totals and quarantine inventory"
    )
    stats.add_argument("cache_dir", help="result-cache directory")
    verify = cache_sub.add_parser(
        "verify",
        help="re-checksum every entry; quarantine corrupt ones "
        "(exit 1 if any found)",
    )
    verify.add_argument("cache_dir", help="result-cache directory")
    verify.add_argument(
        "--no-heal",
        action="store_true",
        help="do not write checksum sidecars for legacy entries",
    )
    gc = cache_sub.add_parser(
        "gc", help="prune oldest entries to the given limits"
    )
    gc.add_argument("cache_dir", help="result-cache directory")
    gc.add_argument(
        "--max-entries", type=int, default=None, help="keep at most N entries"
    )
    gc.add_argument(
        "--max-bytes", type=int, default=None, help="keep at most N bytes"
    )
    gc.add_argument(
        "--purge-quarantine",
        action="store_true",
        help="also delete quarantined (corrupt) entries",
    )

    serve = sub.add_parser(
        "serve",
        help="run the continuous-batching job server (see docs/service.md)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=7421, help="TCP port (0 = OS-assigned)"
    )
    serve.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="shared result-cache directory (strongly recommended)",
    )
    serve.add_argument(
        "--engine-jobs",
        type=int,
        default=1,
        help="worker processes per scheduling round (default 1 = in-process)",
    )
    serve.add_argument(
        "--round-size",
        type=int,
        default=64,
        help="max cells per scheduling round (default 64)",
    )
    serve.add_argument(
        "--no-batch",
        action="store_true",
        help="disable tensor batching inside rounds (debugging aid)",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell soft deadline inside rounds",
    )
    serve.add_argument(
        "--allow-shutdown",
        action="store_true",
        help="honour the 'shutdown' wire op (off by default)",
    )

    submit = sub.add_parser(
        "submit", help="submit a job to a running server and wait for it"
    )
    submit.add_argument("--host", default="127.0.0.1", help="server address")
    submit.add_argument("--port", type=int, default=7421, help="server port")
    submit.add_argument(
        "--kind",
        choices=("suite", "sweep"),
        default="suite",
        help="job shape: benchmark suite or power-budget sweep",
    )
    submit.add_argument(
        "--controllers",
        default="od-rl",
        help="comma-separated controller names (default od-rl)",
    )
    submit.add_argument(
        "--benchmarks",
        default="mixed",
        help="comma-separated benchmarks; sweeps take exactly one",
    )
    submit.add_argument(
        "--budgets",
        default="",
        help="comma-separated budgets in W (sweeps only)",
    )
    submit.add_argument("--cores", type=int, default=8)
    submit.add_argument("--epochs", type=int, default=40)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument(
        "--budget-fraction",
        type=float,
        default=0.6,
        help="TDP fraction for suite jobs (default 0.6)",
    )
    submit.add_argument(
        "--client", default="cli", help="client name for fair-share queueing"
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job id and return without waiting",
    )
    submit.add_argument(
        "--digests",
        action="store_true",
        help="print per-cell result digests after completion",
    )

    offline = sub.add_parser(
        "offline",
        help="harvest traces, train offline policies, evaluate warm starts",
    )
    offline_sub = offline.add_subparsers(dest="offline_command", required=True)
    ha = offline_sub.add_parser(
        "harvest",
        help="run the OD-RL learner with transition recording enabled",
    )
    ha.add_argument("--out", required=True, metavar="DIR", help="trace output directory")
    ha.add_argument("--cores", type=int, default=16)
    ha.add_argument("--epochs", type=int, default=400)
    ha.add_argument(
        "--seeds", default="0", help="comma-separated learning seeds (default 0)"
    )
    ha.add_argument(
        "--benchmarks",
        default="mixed",
        help="comma-separated benchmarks ('mixed' or suite names)",
    )
    ha.add_argument(
        "--budget-fraction",
        type=float,
        default=0.6,
        help="TDP as a fraction of worst-case peak power (default 0.6)",
    )
    tr = offline_sub.add_parser(
        "train", help="build a replay buffer from traces and train a policy"
    )
    tr.add_argument(
        "--traces",
        required=True,
        nargs="+",
        metavar="PATH",
        help="harvest trace files (crash-truncated ones are fine)",
    )
    tr.add_argument(
        "--out", required=True, metavar="PATH", help="policy .npz output path"
    )
    tr.add_argument(
        "--trainer",
        choices=("fqi", "cql", "linear"),
        default="cql",
        help="offline trainer (default cql)",
    )
    tr.add_argument(
        "--gamma",
        type=float,
        default=None,
        help="discount override (default: the dataset's gamma)",
    )
    tr.add_argument(
        "--iterations", type=int, default=100, help="value-iteration sweeps"
    )
    tr.add_argument("--seed", type=int, default=0, help="provenance seed")
    ev = offline_sub.add_parser(
        "eval", help="run a trained policy and print steady-state metrics"
    )
    ev.add_argument("--policy", required=True, metavar="PATH", help="policy .npz")
    ev.add_argument(
        "--controller",
        choices=("od-rl-warm", "linear-q"),
        default="od-rl-warm",
        help="how to boot the policy (default od-rl-warm)",
    )
    ev.add_argument("--cores", type=int, default=16)
    ev.add_argument("--epochs", type=int, default=400)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument(
        "--benchmark",
        default="mixed",
        help="workload: 'mixed' or a suite benchmark name (default mixed)",
    )
    ev.add_argument(
        "--budget-fraction",
        type=float,
        default=0.6,
        help="TDP as a fraction of worst-case peak power (default 0.6)",
    )
    return parser


def _cmd_list() -> int:
    from repro.experiments import EXPERIMENTS
    from repro.workloads import benchmark_names

    print("experiments (python -m repro experiment <id>):")
    titles = {
        "E1": "chip power trace under TDP",
        "E2": "budget overshoot per benchmark (claim C1)",
        "E3": "throughput per over-budget energy (claim C2a)",
        "E4": "energy efficiency (claim C2b)",
        "E5": "controller runtime scalability (claim C3)",
        "E6": "on-line learning convergence",
        "E7": "budget-level sensitivity",
        "E8": "OD-RL design ablations",
        "E9": "process-variation robustness (extension)",
        "E10": "thermal-limit extension",
        "E11": "memory-bandwidth contention (extension)",
        "E12": "VFI granularity sweep (extension)",
        "E13": "heterogeneous big.LITTLE chip (extension)",
        "E14": "energy/performance frontier (extension)",
        "E15": "fault resilience and graceful degradation (extension)",
        "E16": "offline-RL warm start vs on-line cold start (extension)",
    }
    for eid in EXPERIMENTS:
        print(f"  {eid:4s} {titles.get(eid, '')}")
    print("\nworkload benchmarks (--benchmark for 'compare'):")
    print("  mixed  " + "  ".join(benchmark_names()))
    return 0


def _open_recorder(args: argparse.Namespace):
    """``JsonlRecorder`` for ``--trace PATH``, or ``None`` without the flag."""
    if getattr(args, "trace", None) is None:
        return None
    from repro.obs import JsonlRecorder

    return JsonlRecorder(args.trace)


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS
    from repro.experiments.base import GridOptions

    eid = args.experiment_id.upper()
    if eid not in EXPERIMENTS:
        print(
            f"unknown experiment {args.experiment_id!r}; choose from "
            f"{', '.join(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    run = EXPERIMENTS[eid]
    kwargs = {"seed": args.seed}
    # E5 sweeps core counts itself; every other experiment takes the flags.
    if eid == "E5":
        kwargs["n_epochs"] = max(args.epochs // 20, 20)
    else:
        kwargs["n_cores"] = args.cores
        kwargs["n_epochs"] = args.epochs
    recorder = None
    try:
        if "grid" in inspect.signature(run).parameters:
            recorder = _open_recorder(args)
            kwargs["grid"] = GridOptions(
                jobs=args.jobs,
                cache=args.cache,
                recorder=recorder,
                profile=args.profile,
                batch=_batch_option(args),
                journal=args.journal,
                timeout=args.timeout,
            )
        elif (
            args.jobs != 1
            or args.cache is not None
            or args.trace is not None
            or args.profile
            or args.batch != 0
            or args.journal is not None
            or args.timeout is not None
        ):
            print(
                f"note: {eid} does not sweep a grid; "
                "--jobs/--cache/--trace/--profile/--batch/--journal/--timeout "
                "ignored",
                file=sys.stderr,
            )
        result = run(**kwargs)
    finally:
        if recorder is not None:
            recorder.close()
    print(result)
    if args.trace is not None and recorder is not None:
        print(f"\ntrace written to {args.trace}", file=sys.stderr)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.manycore import default_system
    from repro.metrics import (
        budget_utilization,
        energy_efficiency,
        format_table,
        mean_decision_time,
        over_budget_energy,
        overshoot_fraction,
        throughput_bips,
    )
    from repro.sim import run_suite, standard_controllers
    from repro.workloads import benchmark_names, make_benchmark, mixed_workload

    if args.benchmark == "mixed":
        workload = mixed_workload(args.cores, seed=args.seed)
    elif args.benchmark in benchmark_names():
        workload = make_benchmark(args.benchmark, args.cores, seed=args.seed)
    else:
        print(
            f"unknown benchmark {args.benchmark!r}; choose 'mixed' or one of "
            f"{', '.join(benchmark_names())}",
            file=sys.stderr,
        )
        return 2
    cfg = default_system(n_cores=args.cores, budget_fraction=args.budget_fraction)
    print(
        f"{args.cores} cores, TDP {cfg.power_budget:.1f} W, {args.epochs} epochs, "
        f"workload '{workload.name}'\n"
    )
    lineup = standard_controllers(seed=args.seed)
    recorder = _open_recorder(args)
    try:
        results = run_suite(
            cfg,
            {workload.name: workload},
            lineup,
            n_epochs=args.epochs,
            jobs=args.jobs,
            cache=args.cache,
            recorder=recorder,
            profile=args.profile,
            batch=_batch_option(args),
            journal=args.journal,
            timeout=args.timeout,
        )
    finally:
        if recorder is not None:
            recorder.close()
    rows = {}
    for name in lineup:
        result = results[name][workload.name]
        steady = result.tail(0.5)
        rows[name] = {
            "BIPS": throughput_bips(steady),
            "util": budget_utilization(steady),
            "over%": 100 * overshoot_fraction(steady),
            "overJ": over_budget_energy(steady),
            "GI/J": energy_efficiency(steady) / 1e9,
            "us/dec": mean_decision_time(result) * 1e6,
        }
    print(
        format_table(
            rows,
            columns=["BIPS", "util", "over%", "overJ", "GI/J", "us/dec"],
            title="steady-state comparison (last half of the run)",
            fmt="{:.3g}",
        )
    )
    if args.profile:
        from repro.obs import TimingBreakdown

        timing_rows = {}
        for name in lineup:
            breakdown = TimingBreakdown.from_dict(
                results[name][workload.name].extras["timing"]
            )
            timing_rows[name] = {
                "decide us": breakdown.mean("decide") * 1e6,
                "plant us": breakdown.mean("plant") * 1e6,
                "contracts us": breakdown.mean("contracts") * 1e6,
            }
        print()
        print(
            format_table(
                timing_rows,
                columns=["decide us", "plant us", "contracts us"],
                title="mean wall clock per epoch by phase (--profile)",
                fmt="{:.3g}",
            )
        )
    if args.trace is not None:
        print(f"\ntrace written to {args.trace}", file=sys.stderr)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import render_summary, summarize_file

    try:
        summary = summarize_file(args.trace_file)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"malformed trace: {exc}", file=sys.stderr)
        return 2
    print(render_summary(summary))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.parallel import ResultCache

    root = Path(args.cache_dir)
    if args.cache_command != "stats" and not root.is_dir():
        # stats on a fresh directory is a legitimate "empty" answer;
        # verify/gc on a missing one is almost certainly a typo.
        print(f"no such cache directory: {root}", file=sys.stderr)
        return 2
    cache = ResultCache(root)
    if args.cache_command == "stats":
        stats = cache.stats()
        print(f"cache: {root}")
        print(f"  entries:     {stats.entries}")
        print(f"  total bytes: {stats.total_bytes}")
        print(f"  quarantined: {stats.quarantined_entries}")
        return 0
    if args.cache_command == "verify":
        report = cache.verify(heal=not args.no_heal)
        print(
            f"checked {report.checked} entries: {report.ok} ok, "
            f"{len(report.quarantined)} quarantined, {report.healed} healed"
        )
        for key in report.quarantined:
            print(f"  quarantined: {key}")
        return 0 if report.clean else 1
    if args.cache_command == "gc":
        removed, freed = cache.gc(
            max_entries=args.max_entries,
            max_bytes=args.max_bytes,
            purge_quarantine=args.purge_quarantine,
        )
        print(f"removed {removed} entries, freed {freed} bytes")
        return 0
    raise AssertionError(
        f"unhandled cache command {args.cache_command!r}"
    )  # pragma: no cover


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import ExperimentService, ServiceServer

    async def run() -> int:
        service = ExperimentService(
            cache=args.cache,
            engine_jobs=args.engine_jobs,
            batch=not args.no_batch,
            round_size=args.round_size,
            timeout=args.timeout,
        )
        server = ServiceServer(
            service,
            host=args.host,
            port=args.port,
            allow_shutdown=args.allow_shutdown,
        )
        await server.start()
        print(f"repro service listening on {server.host}:{server.port}")
        if args.cache:
            print(f"  cache: {args.cache}")
        try:
            await server.serve_until_shutdown()
        except (KeyboardInterrupt, asyncio.CancelledError):
            await server.close()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 130


def _csv(raw: str) -> List[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _cmd_submit(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import ServiceClient, ServiceError

    spec = {
        "kind": args.kind,
        "controllers": _csv(args.controllers),
        "benchmarks": _csv(args.benchmarks),
        "budgets": [float(b) for b in _csv(args.budgets)],
        "n_cores": args.cores,
        "n_epochs": args.epochs,
        "seed": args.seed,
        "budget_fraction": args.budget_fraction,
    }

    async def run() -> int:
        client = ServiceClient(
            host=args.host, port=args.port, client_name=args.client
        )
        job_id = await client.submit(spec)
        print(f"job {job_id} submitted")
        if args.no_wait:
            return 0
        status = await client.wait(job_id)
        print(
            f"job {job_id}: {status['state']} "
            f"({status['completed']}/{status['cells']} cells, "
            f"{status['elapsed_s']:.2f}s)"
        )
        for failure in status.get("failures", []):
            print(
                f"  failed: {failure['cell']}: "
                f"{failure['error_type']}: {failure['message']}"
            )
        if status["state"] != "done":
            return 1
        if args.digests:
            digests = await client.result_digests(job_id)
            for ctrl in sorted(digests):
                for key in sorted(digests[ctrl]):
                    print(f"  {ctrl} @ {key}: {digests[ctrl][key]}")
        return 0

    try:
        return asyncio.run(run())
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 2
    except ConnectionRefusedError:
        print(
            f"no server at {args.host}:{args.port} "
            "(start one with: python -m repro serve)",
            file=sys.stderr,
        )
        return 2


def _cmd_offline(args: argparse.Namespace) -> int:
    if args.offline_command == "harvest":
        from repro.offline import harvest

        benchmarks = _csv(args.benchmarks)
        seeds = tuple(int(s) for s in _csv(args.seeds))
        paths = harvest(
            args.out,
            n_cores=args.cores,
            n_epochs=args.epochs,
            benchmarks=benchmarks,
            seeds=seeds,
            budget_fraction=args.budget_fraction,
        )
        for path in paths:
            print(f"harvested: {path}")
        return 0
    if args.offline_command == "train":
        from repro.offline import (
            build_buffer,
            policy_from_training,
            save_offline_policy,
            train,
        )
        from repro.manycore import default_system

        try:
            buffer = build_buffer(args.traces)
        except (OSError, ValueError) as exc:
            print(f"cannot build replay buffer: {exc}", file=sys.stderr)
            return 2
        if len(buffer) == 0:
            print("replay buffer is empty (no harvest runs?)", file=sys.stderr)
            return 2
        print(
            f"replay buffer: {len(buffer)} transitions from {buffer.n_runs} "
            f"runs ({buffer.n_truncated_runs} truncated), "
            f"digest {buffer.digest[:12]}…"
        )
        result = train(
            buffer,
            trainer=args.trainer,
            gamma=args.gamma,
            iterations=args.iterations,
            seed=args.seed,
        )
        cfg = default_system(n_cores=buffer.n_cores)
        snapshot = policy_from_training(
            result, cfg, action_mode=buffer.action_mode
        )
        save_offline_policy(snapshot, args.out)
        print(
            f"trained {args.trainer} policy "
            f"({result.iterations} iterations, seed {result.seed}) "
            f"written to {args.out}"
        )
        return 0
    if args.offline_command == "eval":
        from repro.manycore import default_system
        from repro.metrics import (
            budget_utilization,
            over_budget_energy,
            overshoot_fraction,
            throughput_bips,
        )
        from repro.offline import build_linear_controller, build_warm_controller
        from repro.sim import run_controller
        from repro.workloads import benchmark_names, make_benchmark, mixed_workload

        if args.benchmark == "mixed":
            workload = mixed_workload(args.cores, seed=args.seed)
        elif args.benchmark in benchmark_names():
            workload = make_benchmark(args.benchmark, args.cores, seed=args.seed)
        else:
            print(
                f"unknown benchmark {args.benchmark!r}; choose 'mixed' or one "
                f"of {', '.join(benchmark_names())}",
                file=sys.stderr,
            )
            return 2
        cfg = default_system(
            n_cores=args.cores, budget_fraction=args.budget_fraction
        )
        try:
            if args.controller == "od-rl-warm":
                controller = build_warm_controller(
                    cfg, args.policy, seed=args.seed
                )
            else:
                controller = build_linear_controller(cfg, args.policy)
        except (OSError, ValueError) as exc:
            print(f"cannot load policy: {exc}", file=sys.stderr)
            return 2
        result = run_controller(cfg, workload, controller, args.epochs)
        steady = result.tail(0.5)
        print(
            f"{controller.name} on '{workload.name}' "
            f"({args.cores} cores, {args.epochs} epochs, seed {args.seed}):"
        )
        print(f"  BIPS (steady): {throughput_bips(steady):.4g}")
        print(f"  budget util:   {budget_utilization(steady):.4g}")
        print(f"  overshoot:     {100 * overshoot_fraction(steady):.3g}%")
        print(f"  over-budget J: {over_budget_energy(steady):.4g}")
        return 0
    raise AssertionError(
        f"unhandled offline command {args.offline_command!r}"
    )  # pragma: no cover


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "offline":
        return _cmd_offline(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
