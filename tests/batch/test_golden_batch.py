"""Golden fixtures reproduced through the engine, bit for bit.

The golden suite is the referee for the bit-identity contract: the same
fixtures that pin the serial ``run_controller`` reference (and the
process pool, in ``tests/golden/``) must come back byte-identical from
the engine's stacks, at every batch cap and jobs count.
"""

from __future__ import annotations

import pytest

from repro.parallel import assert_trace_equal
from repro.sim.result_io import load_result

from tools.regen_golden import (
    GOLDEN_CONTROLLERS,
    baseline_path,
    compute_baseline_results,
    compute_golden_results,
    golden_path,
)


@pytest.mark.parametrize("batch", [True, 1, 2])
def test_batched_run_is_bit_identical_to_golden(batch):
    batched = compute_golden_results(batch=batch)
    for name in GOLDEN_CONTROLLERS:
        golden = load_result(golden_path(name))
        assert_trace_equal(
            batched[name],
            golden,
            compare_decision_time=True,
            context=f"golden[{name}] vs batch={batch}",
        )


def test_batched_with_pool_fallback_matches_golden():
    # jobs=2 runs the capped stacks in its workers; the combination must
    # still reproduce the fixtures exactly.
    batched = compute_golden_results(jobs=2, batch=2)
    for name in GOLDEN_CONTROLLERS:
        golden = load_result(golden_path(name))
        assert_trace_equal(
            batched[name],
            golden,
            compare_decision_time=True,
            context=f"golden[{name}] vs jobs=2 batch=2",
        )


def test_unbatched_engine_matches_golden():
    # The engine's one-row stacks, against fixtures frozen from the
    # serial run_controller reference.
    engine = compute_golden_results(jobs=1)
    for name in GOLDEN_CONTROLLERS:
        assert_trace_equal(
            engine[name],
            load_result(golden_path(name)),
            compare_decision_time=True,
            context=f"golden[{name}] vs jobs=1 batch=False",
        )


@pytest.mark.parametrize("jobs, batch", [(1, False), (2, True)])
def test_baselines_through_the_engine_match_golden(jobs, batch):
    results = compute_baseline_results(batch=batch, jobs=jobs)
    for (controller, variant), result in results.items():
        assert_trace_equal(
            result,
            load_result(baseline_path(controller, variant)),
            compare_decision_time=True,
            context=f"golden baseline {controller}-{variant} vs jobs={jobs} batch={batch}",
        )


@pytest.mark.parametrize("jobs", [2, 4])
def test_uncapped_stacks_in_workers_match_golden(jobs):
    batched = compute_golden_results(jobs=jobs, batch=True)
    for name in GOLDEN_CONTROLLERS:
        assert_trace_equal(
            batched[name],
            load_result(golden_path(name)),
            compare_decision_time=True,
            context=f"golden[{name}] vs jobs={jobs} batch=True",
        )


def test_batch_warmed_cache_replays_into_serial(tmp_path):
    cold = compute_golden_results(batch=True, cache=tmp_path)
    warm = compute_golden_results(cache=tmp_path)
    for name in GOLDEN_CONTROLLERS:
        golden = load_result(golden_path(name))
        assert_trace_equal(
            cold[name], golden, compare_decision_time=True,
            context=f"batch-cold-cache[{name}]",
        )
        assert_trace_equal(
            warm[name], golden, compare_decision_time=True,
            context=f"batch-warmed serial replay[{name}]",
        )
