"""Golden traces of the PI power cap beyond its stock run.

The stock ``pid`` fixture runs the default gains on exact-budget,
fault-free telemetry.  Each variant here pins one more input of the PI
loop against a fixture frozen by ``tools/regen_golden.py``: blackout
telemetry under faults, non-default gains and a zero proportional term,
a noisy sensor suite, and a watchdog crash that restarts the loop cold.
The serial and the engine-batched recompute must both reproduce each
fixture byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel import assert_trace_equal
from repro.sim.result_io import load_result

from tools.regen_golden import (
    GOLDEN_N_CORES,
    GOLDEN_N_EPOCHS,
    GOLDEN_PID_VARIANTS,
    compute_pid_results,
    golden_path,
    pid_path,
)


@pytest.fixture(scope="module", params=[False, True], ids=["serial", "batched"])
def fresh(request):
    return compute_pid_results(batch=request.param)


@pytest.mark.parametrize("variant", GOLDEN_PID_VARIANTS)
def test_recompute_is_bit_identical_to_golden(fresh, variant):
    path = pid_path(variant)
    assert path.is_file(), f"missing golden fixture {path.name}; run `make golden`"
    golden = load_result(path)
    assert golden.controller_name == "pid"
    assert golden.core_levels.shape == (GOLDEN_N_EPOCHS, GOLDEN_N_CORES)
    assert_trace_equal(
        fresh[variant],
        golden,
        compare_decision_time=True,
        context=f"golden pid-{variant}",
    )


@pytest.mark.parametrize("variant", GOLDEN_PID_VARIANTS)
def test_variant_leaves_the_stock_trajectory(variant):
    stock = load_result(golden_path("pid"))
    golden = load_result(pid_path(variant))
    assert not np.array_equal(golden.core_levels, stock.core_levels)


def test_faults_variant_blacks_out_telemetry():
    assert load_result(pid_path("faults")).extras["faults"]["blackout"] > 0


def test_watchdog_variant_crashes_and_restarts():
    assert load_result(pid_path("watchdog")).extras["watchdog"]["crashes"] == 1
