"""E5 times the centralized optimizer it names.

The ``maxbips`` row of the C3 sweep is the serial knapsack DP
(:func:`repro.baselines.maxbips.solve_dp`, through
``MaxBIPSController.decide``); the ``maxbips-vectorized`` row is the
stacked DP of :class:`repro.kernel.policies.BatchMaxBIPS`.  Spies on both
solvers count which one each row runs, so the reference cannot move to
the other solver through a change of routing.
"""

from __future__ import annotations

import pytest

import repro.baselines.maxbips as maxbips
import repro.experiments.e5_scalability as e5
from repro.kernel.policies import BatchMaxBIPS

CORE_COUNTS = (4, 8)
N_EPOCHS = 6


@pytest.fixture
def solver_calls(monkeypatch):
    """Calls per solver, counted by row: ``{solver: {row: calls}}``."""
    calls = {"solve_dp": {}, "_solve_dp_batch": {}}
    current = {"row": None}
    timed_policy = e5._timed_policy

    def tagged_policy(row, controller):
        policy = timed_policy(row, controller)
        decide = policy.decide

        def tagged(obs):
            current["row"] = row
            try:
                return decide(obs)
            finally:
                current["row"] = None

        policy.decide = tagged
        return policy

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            row = current["row"]
            calls[name][row] = calls[name].get(row, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(e5, "_timed_policy", tagged_policy)
    monkeypatch.setattr(maxbips, "solve_dp", spy("solve_dp", maxbips.solve_dp))
    monkeypatch.setattr(
        BatchMaxBIPS,
        "_solve_dp_batch",
        spy("_solve_dp_batch", BatchMaxBIPS._solve_dp_batch),
    )
    return calls


def test_maxbips_row_times_the_serial_dp(solver_calls):
    result = e5.run_e5(
        core_counts=CORE_COUNTS,
        n_epochs=N_EPOCHS,
        warmup_epochs=2,
        controllers=("od-rl", "maxbips"),
    )
    decides = len(CORE_COUNTS) * e5._REPEATS * N_EPOCHS
    assert solver_calls["solve_dp"] == {"maxbips": decides}
    assert solver_calls["_solve_dp_batch"] == {e5.VECTORIZED: decides}
    assert set(result.data["latency"]) == {"od-rl", "maxbips", e5.VECTORIZED}
    assert "solve_dp" in result.report
