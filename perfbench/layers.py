"""Per-layer metrics of a traced run, and the end-to-end metric names.

Every per-layer metric is computed on every workload, so a layer a
workload does not exercise reads 0 there (``service.*`` outside
``service-mix``, for one).  Times are inclusive seconds of the named spans
unless the name says ``self_s``; the spans are those of the traced pass,
except the ``workloads.*`` builders, which also count the traced set-up
because that is where they run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

#: (name, unit, better) of every end-to-end metric, in report order.
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("sim_core_epochs_per_s", "1/s", "higher"),
    ("decide_ms_p50", "ms", "lower"),
    ("decide_ms_p90", "ms", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("job_latency_p50_s", "s", "lower"),
    ("job_latency_p90_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

STEP = "kernel.EpochKernel.step"
PERF_POWER = (
    "manycore.instructions_per_second",
    "manycore.activity_factor",
    "manycore.dynamic_power",
    "manycore.leakage_power",
)
INJECTOR = (
    "faults.FaultInjector.effective_levels",
    "faults.FaultInjector.dead_mask",
    "faults.FaultInjector.blackout_channels",
)
POLICIES = ("BatchODRL", "BatchMaxBIPS", "PerRunPolicy")
#: metric name -> baseline controller class
BASELINES = {
    "GreedyAscent": "GreedyAscentController",
    "SteepestDrop": "SteepestDropController",
    "MaxBIPS": "MaxBIPSController",
    "PIDCapping": "PIDCappingController",
}
ENGINE = ("parallel.execute_cells", "parallel.execute_cells_report")
BUILDERS = ("make_benchmark", "mixed_workload")


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def new_counts() -> Dict[str, int]:
    """Work counted at span boundaries by the tracer's observers."""
    return {
        "kernel_rows": 0,
        "stack_rows": 0,
        "fallback_cells": 0,
        "retries": 0,
        "cache_hits": 0,
    }


def observers(counts: Dict[str, int]) -> Dict[str, Any]:
    """Span name -> observer filling ``counts``."""

    def add(key: str, amount: Any) -> None:
        counts[key] += int(amount)

    return {
        STEP: lambda a, k, r, s, e: add("kernel_rows", a[0].n_runs),
        "batch.simulate_batch": lambda a, k, r, s, e: add("stack_rows", len(a[0])),
        "batch.batch_unsupported_reason": lambda a, k, r, s, e: add(
            "fallback_cells", r is not None
        ),
        "parallel.RetryPolicy.should_retry": lambda a, k, r, s, e: add("retries", bool(r)),
        "parallel.ResultCache.get": lambda a, k, r, s, e: add("cache_hits", r is not None),
    }


def per_layer(
    spans: Dict[str, Dict[str, float]],
    whole: Dict[str, Dict[str, float]],
    counts: Dict[str, int],
    extra: Dict[str, Any],
) -> Dict[str, Tuple[float, str]]:
    """``{metric: (value, unit)}`` for every per-layer metric.

    ``spans`` aggregates the traced pass, ``whole`` the traced set-up plus
    the pass; ``extra`` carries the service counters of ``service-mix``.
    """

    def calls(*names: str) -> float:
        return float(sum(spans.get(n, {}).get("calls", 0) for n in names))

    def incl(*names: str) -> float:
        return float(sum(spans.get(n, {}).get("incl_s", 0.0) for n in names))

    def self_s(*names: str) -> float:
        return float(sum(spans.get(n, {}).get("self_s", 0.0) for n in names))

    rows = counts["kernel_rows"]
    batches = calls("batch.simulate_batch")
    lookups = calls("parallel.ResultCache.get")
    submitted = extra.get("cells_submitted", 0)
    rounds = extra.get("round_cells", [])
    waits = extra.get("queue_waits", [])
    m: Dict[str, Tuple[float, str]] = {
        "kernel.step.calls": (calls(STEP), "count"),
        "kernel.step.self_s": (self_s(STEP), "s"),
        "kernel.step.rows": (float(rows), "count"),
        "kernel.step.us_per_row": (1e6 * incl(STEP) / rows if rows else 0.0, "us"),
        "kernel.init.s": (incl("kernel.EpochKernel.__init__"), "s"),
        "manycore.perf_power.s": (incl(*PERF_POWER), "s"),
        "faults.injector.calls": (calls(*INJECTOR), "count"),
        "faults.injector.s": (incl(*INJECTOR), "s"),
        "batch.plan_batches.s": (incl("batch.plan_batches"), "s"),
        "batch.simulate_batch.calls": (batches, "count"),
        "batch.simulate_batch.self_s": (self_s("batch.simulate_batch"), "s"),
        "batch.stack_rows_mean": (counts["stack_rows"] / batches if batches else 0.0, "count"),
        "engine.fallback_cells": (float(counts["fallback_cells"]), "count"),
    }
    for policy in POLICIES:
        name = f"policy.{policy}.decide"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (incl(name), "s")
    for span, metric in (
        ("core.ODRLController.decide", "core.ODRLController.decide"),
        ("core.reallocate_budget", "core.reallocate_budget"),
    ):
        m[f"{metric}.calls"] = (calls(span), "count")
        m[f"{metric}.s"] = (incl(span), "s")
    m["core.QLearningPopulation.act.s"] = (incl("core.QLearningPopulation.act"), "s")
    m["core.QLearningPopulation.update.s"] = (incl("core.QLearningPopulation.update"), "s")
    for short, cls in BASELINES.items():
        m[f"baselines.{short}.decide.calls"] = (calls(f"baselines.{cls}.decide"), "count")
        m[f"baselines.{short}.decide.s"] = (incl(f"baselines.{cls}.decide"), "s")
    m.update({
        "parallel.execute_cells.self_s": (self_s(*ENGINE), "s"),
        "parallel.cell_key.calls": (calls("parallel.cell_key"), "count"),
        "parallel.cell_key.s": (incl("parallel.cell_key"), "s"),
        "parallel.cache.get.calls": (lookups, "count"),
        "parallel.cache.get.s": (incl("parallel.ResultCache.get"), "s"),
        "parallel.cache.put.calls": (calls("parallel.ResultCache.put"), "count"),
        "parallel.cache.put.s": (incl("parallel.ResultCache.put"), "s"),
        "parallel.cache.hit_ratio": (counts["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "parallel.retries": (float(counts["retries"]), "count"),
        "service.plan_job.calls": (calls("service.plan_job"), "count"),
        "service.plan_job.s": (incl("service.plan_job"), "s"),
        "service.round.calls": (calls("service.round"), "count"),
        "service.round.s": (incl("service.round"), "s"),
        "service.round.cells_mean": (float(np.mean(rounds)) if rounds else 0.0, "count"),
        "service.queue_wait_p50_s": (_percentile(waits, 50), "s"),
        "service.queue_wait_p99_s": (_percentile(waits, 99), "s"),
        "service.dedup_ratio": (
            extra.get("cells_simulated", 0) / submitted if submitted else 0.0, "ratio"
        ),
        "service.dedup_memo": (float(extra.get("dedup_memo", 0)), "count"),
        "service.dedup_inflight": (float(extra.get("dedup_inflight", 0)), "count"),
    })
    for builder in BUILDERS:
        m[f"workloads.{builder}.s"] = (
            float(whole.get(f"workloads.{builder}", {}).get("incl_s", 0.0)), "s"
        )
    return m


def layer_seconds(spans: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Self seconds summed per layer (the first dotted part of a span name)."""
    out: Dict[str, float] = {}
    for name, row in spans.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + row["self_s"]
    return dict(sorted(out.items()))
