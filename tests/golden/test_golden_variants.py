"""Golden traces of the OD-RL learner's branches.

The stock od-rl fixture never takes most of the learner's branches: the
SARSA rule, absolute actions, a disabled coarse level, sanitized and raw
telemetry under faults, the thermal penalty and DTM reflex, big.LITTLE
power bounds, a warm start mid reallocation window, and a watchdog
crash/restore.  Two more pin the live phase lookup: a contended memory
system, which rescales the sampled rows in place, and a tiled workload
whose short phase cycles wrap within the run.  Each variant here pins one of them against a fixture
frozen by ``tools/regen_golden.py``, and checks that the branch it is
named for actually fired in the frozen run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel import assert_trace_equal
from repro.sim.result_io import load_result

from tools.regen_golden import (
    GOLDEN_N_CORES,
    GOLDEN_N_EPOCHS,
    GOLDEN_THERMAL_LIMIT,
    GOLDEN_VARIANTS,
    compute_variant_result,
    tiled_workload,
    golden_path,
    variant_path,
    variant_warm_snapshot,
)


@pytest.fixture(scope="module")
def stock():
    return load_result(golden_path("od-rl"))


@pytest.mark.parametrize("variant", GOLDEN_VARIANTS)
def test_variant_is_bit_identical_to_golden(variant):
    path = variant_path(variant)
    assert path.is_file(), f"missing golden fixture {path.name}; run `make golden`"
    golden = load_result(path)
    assert golden.n_epochs == GOLDEN_N_EPOCHS
    assert golden.core_levels.shape == (GOLDEN_N_EPOCHS, GOLDEN_N_CORES)
    assert_trace_equal(
        compute_variant_result(variant),
        golden,
        compare_decision_time=True,
        context=f"golden variant {variant}",
    )


@pytest.mark.parametrize(
    "variant",
    ["sarsa", "absolute", "no-realloc", "thermal", "hetero", "warm", "memory"],
)
def test_variant_leaves_the_stock_trajectory(stock, variant):
    golden = load_result(variant_path(variant))
    assert not np.array_equal(golden.core_levels, stock.core_levels)


def test_faults_variant_exercises_the_sanitizer():
    extras = load_result(variant_path("faults")).extras
    assert extras["faults"]["blackout"] > 0
    assert extras["degradation"]["rejected_samples"] > 0
    assert extras["degradation"]["fallback_samples"] > 0


def test_raw_variant_learns_from_unsanitized_telemetry():
    raw = load_result(variant_path("faults-raw"))
    sanitized = load_result(variant_path("faults"))
    assert "degradation" not in raw.extras
    assert raw.extras["faults"] == sanitized.extras["faults"]
    assert not np.array_equal(raw.core_levels, sanitized.core_levels)


def test_thermal_variant_runs_hot_enough_for_the_dtm():
    golden = load_result(variant_path("thermal"))
    assert np.count_nonzero(golden.max_temperature >= GOLDEN_THERMAL_LIMIT) > 0


def test_warm_variant_restores_a_partial_window():
    snapshot = variant_warm_snapshot()
    assert int(snapshot["window_epochs"]) > 0
    assert int(snapshot["step_count"]) > 0
    assert load_result(variant_path("warm")).controller_name == "od-rl-warm"


def test_watchdog_variant_crashes_and_restores():
    stats = load_result(variant_path("watchdog")).extras["watchdog"]
    assert stats["crashes"] == 1
    assert stats["checkpoints"] > 0
    assert stats["restores"] > 0


def test_tiled_variant_wraps_its_phase_cycles():
    workload = tiled_workload()
    assert len(workload) < GOLDEN_N_CORES
    horizon = load_result(variant_path("tiled")).duration
    assert all(seq.total_duration < horizon for seq in workload.sequences)
    assert min(len(seq) for seq in workload.sequences) == 1
