"""Differential tests: the list-driven greedy heaps against their
per-step scalar originals.

``_greedy_ascent`` and ``_steepest_drop`` compute each core's step tables
once (``np.diff`` power deltas and ``∓Δips / max(Δpower, 1e-12)`` keys) and
run the heap over Python floats.  The scalar implementations they replaced
are frozen below as the oracle: for any predictions and budget, both must
return the same levels — same pop order, same ties, same ``total``
accumulation — including one- and two-level tables, power steps below the
``1e-12`` clamp, and budgets below all-bottom or above all-top.
"""

from __future__ import annotations

import heapq

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.estimator import LevelPredictions
from repro.baselines.greedy import _greedy_ascent, _steepest_drop


def _oracle_greedy_ascent(pred: LevelPredictions, budget: float) -> np.ndarray:
    power, ips = pred.power, pred.ips
    n, n_levels = power.shape
    levels = np.zeros(n, dtype=int)
    total = float(np.sum(power[:, 0]))
    heap = []
    for i in range(n):
        if n_levels > 1:
            dp = power[i, 1] - power[i, 0]
            dips = ips[i, 1] - ips[i, 0]
            heap.append((-dips / max(dp, 1e-12), i, 1))
    heapq.heapify(heap)
    while heap:
        _, i, lvl = heapq.heappop(heap)
        if levels[i] != lvl - 1:
            continue
        dp = power[i, lvl] - power[i, lvl - 1]
        if total + dp > budget:
            continue
        levels[i] = lvl
        total += dp
        if lvl + 1 < n_levels:
            dp_next = power[i, lvl + 1] - power[i, lvl]
            dips_next = ips[i, lvl + 1] - ips[i, lvl]
            heapq.heappush(heap, (-dips_next / max(dp_next, 1e-12), i, lvl + 1))
    return levels


def _oracle_steepest_drop(pred: LevelPredictions, budget: float) -> np.ndarray:
    power, ips = pred.power, pred.ips
    n, n_levels = power.shape
    levels = np.full(n, n_levels - 1, dtype=int)
    total = float(np.sum(power[:, -1]))
    heap = []

    def push(i: int) -> None:
        lvl = levels[i]
        if lvl == 0:
            return
        dp = power[i, lvl] - power[i, lvl - 1]
        dips = ips[i, lvl] - ips[i, lvl - 1]
        heap.append((dips / max(dp, 1e-12), i, lvl))

    for i in range(n):
        push(i)
    heapq.heapify(heap)
    while total > budget and heap:
        _, i, lvl = heapq.heappop(heap)
        if levels[i] != lvl:
            continue
        levels[i] = lvl - 1
        total -= power[i, lvl] - power[i, lvl - 1]
        if levels[i] > 0:
            dp = power[i, levels[i]] - power[i, levels[i] - 1]
            dips = ips[i, levels[i]] - ips[i, levels[i] - 1]
            heapq.heappush(heap, (dips / max(dp, 1e-12), i, levels[i]))
    return levels


# Level steps from a small set, so ties (equal keys, equal deltas) and
# sub-clamp power steps (< 1e-12, including zero) are common.
_STEPS = st.sampled_from([0.0, 1e-14, 5e-13, 0.25, 0.5, 1.0, 1.0, 2.0])
# Budget position: below all-bottom, at all-bottom, in between, at
# all-top, above all-top.
_BUDGET_AT = st.sampled_from([-1.0, 0.0, 0.3, 0.5, 0.9, 1.0, 2.0])


@st.composite
def _tables(draw):
    n = draw(st.integers(1, 8))
    n_levels = draw(st.sampled_from([1, 2, 2, 3, 5]))
    base = st.floats(0.0, 3.0, allow_nan=False)
    power = np.empty((n, n_levels))
    ips = np.empty((n, n_levels))
    for i in range(n):
        power[i, 0] = draw(base)
        ips[i, 0] = draw(base)
        for lvl in range(1, n_levels):
            power[i, lvl] = power[i, lvl - 1] + draw(_STEPS)
            ips[i, lvl] = ips[i, lvl - 1] + draw(_STEPS)
    bottom = float(np.sum(power[:, 0]))
    top = float(np.sum(power[:, -1]))
    at = draw(_BUDGET_AT)
    if at < 0:
        budget = bottom - 1.0
    elif at > 1:
        budget = top + 1.0
    else:
        budget = bottom + at * (top - bottom)
    return LevelPredictions(power=power, ips=ips), budget


def _check(new, oracle, pred, budget):
    got = new(pred, budget)
    want = oracle(pred, budget)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


_TIE = LevelPredictions(
    power=np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]),
    ips=np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]),
)
_FLAT = LevelPredictions(
    power=np.array([[1.0, 1.0 + 1e-14], [1.0, 1.0]]),
    ips=np.array([[1.0, 2.0], [1.0, 3.0]]),
)


class TestHeapsMatchScalarOracle:
    @settings(max_examples=300, deadline=None)
    @given(_tables())
    @example((_TIE, 5.0))
    @example((_FLAT, 2.0))
    @example((LevelPredictions(np.ones((2, 1)), np.ones((2, 1))), 1.0))
    def test_greedy_ascent(self, case):
        _check(_greedy_ascent, _oracle_greedy_ascent, *case)

    @settings(max_examples=300, deadline=None)
    @given(_tables())
    @example((_TIE, 7.0))
    @example((_FLAT, 2.0))
    @example((LevelPredictions(np.ones((2, 1)), np.ones((2, 1))), 1.0))
    def test_steepest_drop(self, case):
        _check(_steepest_drop, _oracle_steepest_drop, *case)

    def test_estimator_shaped_tables(self):
        """Monotone estimator-like tables at a realistic size."""
        rng = np.random.default_rng(7)
        power = np.cumsum(rng.uniform(0.1, 1.0, (32, 8)), axis=1)
        ips = np.cumsum(rng.uniform(0.1, 1.0, (32, 8)), axis=1)
        pred = LevelPredictions(power=power, ips=ips)
        for frac in np.linspace(0.0, 1.2, 13):
            budget = float(frac * np.sum(power[:, -1]))
            _check(_greedy_ascent, _oracle_greedy_ascent, pred, budget)
            _check(_steepest_drop, _oracle_steepest_drop, pred, budget)
