"""Property-based tests: invariants of the global budget reallocation.

The water-filling allocator is the piece of OD-RL with the sharpest
correctness contract (conservation, bounds, monotonicity), so it gets the
heaviest property coverage.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import reallocate_budget
from repro.core.budget import reallocate_budgets

N = st.integers(min_value=1, max_value=40)


@st.composite
def allocation_problem(draw):
    """A random feasible reallocation instance."""
    n = draw(N)
    floors = draw(
        arrays(float, n, elements=st.floats(0.0, 3.0, allow_nan=False))
    )
    headroom = draw(
        arrays(float, n, elements=st.floats(0.0, 5.0, allow_nan=False))
    )
    caps = floors + headroom
    scores = draw(
        arrays(float, n, elements=st.floats(0.0, 10.0, allow_nan=False))
    )
    # Budget between the floors total and a bit beyond the caps total.
    slack = draw(st.floats(0.0, 1.3, allow_nan=False))
    budget = float(np.sum(floors) + slack * (np.sum(caps) - np.sum(floors) + 1.0))
    return budget, scores, floors, caps


@given(allocation_problem())
@settings(max_examples=200, deadline=None)
def test_bounds_always_respected(problem):
    budget, scores, floors, caps = problem
    alloc = reallocate_budget(budget, scores, floors, caps)
    assert np.all(alloc >= floors - 1e-9)
    assert np.all(alloc <= caps + 1e-9)


@given(allocation_problem())
@settings(max_examples=200, deadline=None)
def test_budget_conserved_up_to_caps(problem):
    budget, scores, floors, caps = problem
    alloc = reallocate_budget(budget, scores, floors, caps)
    target = min(budget, float(np.sum(caps)))
    assert float(np.sum(alloc)) <= target + 1e-6
    # If any core still has headroom, the target must be fully spent.
    if np.any(caps - alloc > 1e-6):
        assert float(np.sum(alloc)) >= target - 1e-6


@given(allocation_problem())
@settings(max_examples=100, deadline=None)
def test_deterministic(problem):
    budget, scores, floors, caps = problem
    a = reallocate_budget(budget, scores, floors, caps)
    b = reallocate_budget(budget, scores, floors, caps)
    assert np.array_equal(a, b)


@given(allocation_problem(), st.floats(1.01, 3.0))
@settings(max_examples=100, deadline=None)
def test_monotone_in_budget(problem, factor):
    """A bigger budget never reduces any core's allocation."""
    budget, scores, floors, caps = problem
    small = reallocate_budget(budget, scores, floors, caps)
    large = reallocate_budget(budget * factor, scores, floors, caps)
    assert np.all(large >= small - 1e-6)


@given(allocation_problem())
@settings(max_examples=100, deadline=None)
def test_scale_invariance_of_scores(problem):
    """Scores are relative: scaling them all changes nothing."""
    budget, scores, floors, caps = problem
    a = reallocate_budget(budget, scores, floors, caps)
    b = reallocate_budget(budget, scores * 7.3, floors, caps)
    assert np.allclose(a, b, atol=1e-8)


@given(allocation_problem())
@settings(max_examples=100, deadline=None)
def test_all_zero_scores_still_feasible(problem):
    """All-zero IPC scores (e.g. every core dead or blacked out) must not
    crash or break bounds/conservation — the degenerate case the fault
    campaigns actually produce."""
    budget, scores, floors, caps = problem
    alloc = reallocate_budget(budget, np.zeros_like(scores), floors, caps)
    assert np.all(np.isfinite(alloc))
    assert np.all(alloc >= floors - 1e-9)
    assert np.all(alloc <= caps + 1e-9)
    target = min(budget, float(np.sum(caps)))
    if np.any(caps - alloc > 1e-6):
        assert float(np.sum(alloc)) >= target - 1e-6


@given(allocation_problem())
@settings(max_examples=100, deadline=None)
def test_caps_equal_floors_pins_every_core(problem):
    """Zero headroom anywhere: the only feasible point is the floor vector."""
    budget, scores, floors, _ = problem
    alloc = reallocate_budget(budget, scores, floors, floors)
    assert np.allclose(alloc, floors, atol=1e-9)


@given(
    st.floats(0.0, 10.0, allow_nan=False),
    st.floats(0.0, 5.0, allow_nan=False),
    st.floats(0.0, 20.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_single_core_gets_clamped_budget(floor, headroom, extra):
    """n=1: the core gets the budget clamped into [floor, cap]."""
    cap = floor + headroom
    budget = floor + extra
    alloc = reallocate_budget(
        budget, np.array([1.0]), np.array([floor]), np.array([cap])
    )
    assert alloc.shape == (1,)
    assert floor - 1e-9 <= alloc[0] <= cap + 1e-9
    assert alloc[0] >= min(budget, cap) - 1e-9


@given(allocation_problem())
@settings(max_examples=200, deadline=None)
def test_terminates_and_returns_finite(problem):
    """The water-filling loop always terminates with a finite vector, even
    on adversarial score/floor/cap draws."""
    budget, scores, floors, caps = problem
    alloc = reallocate_budget(budget, scores, floors, caps)
    assert alloc.shape == scores.shape
    assert np.all(np.isfinite(alloc))


@given(allocation_problem())
@settings(max_examples=100, deadline=None)
def test_zero_score_core_gets_floor_when_budget_tight(problem):
    budget, scores, floors, caps = problem
    n = len(scores)
    if n < 2:
        return
    scores = scores.copy()
    scores[0] = 0.0
    scores[1:] = np.maximum(scores[1:], 0.5)
    # With budget below what the scored cores can absorb, the zero-score
    # core must stay at its floor.
    others_cap = float(np.sum(caps[1:]))
    tight_budget = float(np.sum(floors)) + 0.5 * (others_cap - float(np.sum(floors[1:])))
    tight_budget = max(tight_budget, float(np.sum(floors)))
    alloc = reallocate_budget(tight_budget, scores, floors, caps)
    if others_cap - float(np.sum(alloc[1:])) > 1e-6:
        # Scored cores still had headroom, so the zero-score core got nothing.
        assert alloc[0] <= floors[0] + 1e-6


@st.composite
def stacked_problem(draw):
    """Several runs' budgets and scores over shared floors and caps;
    some score rows are all-zero or have zeros on the active cores, so
    the uniform-share fallback and early exits are exercised."""
    n = draw(N)
    n_runs = draw(st.integers(1, 6))
    floors = draw(arrays(float, n, elements=st.floats(0.0, 3.0, allow_nan=False)))
    headroom = draw(arrays(float, n, elements=st.floats(0.0, 5.0, allow_nan=False)))
    caps = floors + headroom
    scores = draw(
        arrays(
            float,
            (n_runs, n),
            elements=st.one_of(st.just(0.0), st.floats(0.0, 10.0, allow_nan=False)),
        )
    )
    scores[draw(arrays(bool, n_runs))] = 0.0
    slack = draw(
        arrays(float, n_runs, elements=st.floats(0.0, 1.3, allow_nan=False))
    )
    budgets = np.sum(floors) + slack * (np.sum(caps) - np.sum(floors) + 1.0)
    return budgets, scores, floors, caps


@given(stacked_problem())
@settings(max_examples=300, deadline=None)
def test_stacked_rows_are_the_serial_allocations(problem):
    budgets, scores, floors, caps = problem
    stacked = reallocate_budgets(budgets, scores, floors, caps)
    for r, budget in enumerate(budgets.tolist()):
        serial = reallocate_budget(budget, scores[r], floors, caps)
        assert stacked[r].tobytes() == serial.tobytes(), f"run {r}"
