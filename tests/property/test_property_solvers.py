"""Property-based tests: allocation solver invariants (greedy, max-swap,
MaxBIPS-DP) on random problem instances."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import solve_dp, solve_exhaustive, solve_max_swap
from repro.baselines.estimator import LevelPredictions
from repro.baselines.greedy import GREEDY_ASCENT, STEEPEST_DROP


@st.composite
def instance(draw):
    """A random monotone (power, ips) table plus a feasible budget."""
    n = draw(st.integers(1, 8))
    n_levels = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    power = np.sort(rng.uniform(0.2, 3.0, (n, n_levels)), axis=1)
    # Strictly increasing power per level (degenerate equal columns break
    # the "upgrade frees nothing" assumption in ways real VF tables never do).
    power += np.arange(n_levels) * 1e-3
    ips = np.sort(rng.uniform(0.2, 3.0, (n, n_levels)), axis=1)
    ips += np.arange(n_levels) * 1e-3
    slack = draw(st.floats(0.0, 1.2))
    bottom = float(np.sum(power[:, 0]))
    top = float(np.sum(power[:, -1]))
    budget = bottom + slack * (top - bottom)
    return LevelPredictions(power, ips), budget


SOLVERS = {
    "greedy": GREEDY_ASCENT.levels,
    "steepest": STEEPEST_DROP.levels,
    "max-swap": solve_max_swap,
    "dp": solve_dp,
}


def totals(pred, levels):
    idx = np.arange(pred.power.shape[0])
    return float(np.sum(pred.power[idx, levels])), float(np.sum(pred.ips[idx, levels]))


@given(instance(), st.sampled_from(sorted(SOLVERS)))
@settings(max_examples=150, deadline=None)
def test_solutions_feasible(inst, solver_name):
    pred, budget = inst
    levels = SOLVERS[solver_name](pred, budget)
    n, n_levels = pred.power.shape
    assert levels.shape == (n,)
    assert np.all((levels >= 0) & (levels < n_levels))
    power, _ = totals(pred, levels)
    assert power <= budget + 1e-9


@given(instance())
@settings(max_examples=100, deadline=None)
def test_max_swap_dominates_greedy(inst):
    pred, budget = inst
    _, ips_swap = totals(pred, solve_max_swap(pred, budget))
    _, ips_greedy = totals(pred, GREEDY_ASCENT.levels(pred, budget))
    assert ips_swap >= ips_greedy - 1e-9


@given(instance())
@settings(max_examples=100, deadline=None)
def test_dp_dominates_greedy_up_to_quantization(inst):
    # Sound guarantee: the DP ceil-quantizes each core's power, losing at
    # most n * quantum of budget.  Any assignment feasible under the
    # shrunken budget is feasible for the DP, and the DP is optimal over
    # those — so it must match or beat greedy-at-shrunken-budget.
    pred, budget = inst
    n_quanta = 1500
    n = pred.power.shape[0]
    quantum = budget / n_quanta
    _, ips_dp = totals(pred, solve_dp(pred, budget, n_quanta=n_quanta))
    shrunk = budget - n * quantum
    if shrunk < float(np.sum(pred.power[:, 0])):
        return  # shrunken problem infeasible; nothing to compare
    _, ips_greedy = totals(pred, GREEDY_ASCENT.levels(pred, shrunk))
    assert ips_dp >= ips_greedy - 1e-9


@given(instance(), st.floats(1.05, 2.0))
@settings(max_examples=60, deadline=None)
def test_optimal_monotone_in_budget(inst, factor):
    """A larger budget can only raise the OPTIMAL achieved throughput.

    Note this is deliberately asserted on the exhaustive solver: hypothesis
    originally found that greedy ascent is *not* monotone in budget — a
    slightly larger budget can steer the ratio-ordered heap into an early
    upgrade that blocks a better configuration (a Braess-style anomaly
    inherent to the heuristic, worth knowing about, not a bug).
    """
    pred, budget = inst
    n, n_levels = pred.power.shape
    if n_levels**n > 5000:
        return  # keep the exhaustive search cheap
    _, ips_small = totals(pred, solve_exhaustive(pred, budget))
    _, ips_large = totals(pred, solve_exhaustive(pred, budget * factor))
    assert ips_large >= ips_small - 1e-9


@given(instance())
@settings(max_examples=100, deadline=None)
def test_loose_budget_all_solvers_agree_on_top(inst):
    pred, _ = inst
    loose = float(np.sum(pred.power[:, -1])) + 1.0
    n_levels = pred.power.shape[1]
    for solver in SOLVERS.values():
        assert np.all(solver(pred, loose) == n_levels - 1)
