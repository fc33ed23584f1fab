"""Golden traces of the model-based baselines.

Greedy ascent, steepest drop and MaxBIPS decide from the estimator's
per-(core, level) predictions, serially one run at a time and stacked on
the batched backend.  Each is pinned on the golden spec three ways
(stock, big.LITTLE per-core estimator tables, faulted telemetry) against
a fixture frozen by ``tools/regen_golden.py``: the serial and the batched
recompute must both reproduce it byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel import assert_trace_equal
from repro.sim.result_io import load_result

from tools.regen_golden import (
    GOLDEN_BASELINE_VARIANTS,
    GOLDEN_BASELINES,
    GOLDEN_N_CORES,
    GOLDEN_N_EPOCHS,
    baseline_path,
    compute_baseline_results,
)

CELLS = [(c, v) for c in GOLDEN_BASELINES for v in GOLDEN_BASELINE_VARIANTS]


@pytest.fixture(scope="module", params=[False, True], ids=["serial", "batched"])
def fresh(request):
    return compute_baseline_results(batch=request.param)


@pytest.mark.parametrize("controller, variant", CELLS)
def test_recompute_is_bit_identical_to_golden(fresh, controller, variant):
    path = baseline_path(controller, variant)
    assert path.is_file(), f"missing golden fixture {path.name}; run `make golden`"
    golden = load_result(path)
    assert golden.controller_name == controller
    assert golden.core_levels.shape == (GOLDEN_N_EPOCHS, GOLDEN_N_CORES)
    assert_trace_equal(
        fresh[(controller, variant)],
        golden,
        compare_decision_time=True,
        context=f"golden baseline {controller}-{variant}",
    )


@pytest.mark.parametrize("controller", GOLDEN_BASELINES)
@pytest.mark.parametrize("variant", ["hetero", "faults"])
def test_variant_leaves_the_stock_trajectory(controller, variant):
    stock = load_result(baseline_path(controller, "stock"))
    golden = load_result(baseline_path(controller, variant))
    assert not np.array_equal(golden.core_levels, stock.core_levels)


@pytest.mark.parametrize("controller", GOLDEN_BASELINES)
def test_faults_variant_blacks_out_telemetry(controller):
    extras = load_result(baseline_path(controller, "faults")).extras
    assert extras["faults"]["blackout"] > 0
