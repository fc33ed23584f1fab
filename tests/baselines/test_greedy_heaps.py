"""Differential tests: the sorted scan of the greedy heuristics against
their per-step scalar heap passes.

``GREEDY_ASCENT`` and ``STEEPEST_DROP`` compute step tables (power deltas
and ``∓Δips / max(Δpower, 1e-12)`` keys) for a stack of runs and replace
the heap by one stable sort and cumulative sums (``sorted_scan``).  The
scalar heap implementations are frozen below as the oracle: for any
predictions and budget, every row must get the same levels — same pop
order, same ties, same ``total`` accumulation — including one- and
two-level tables, power steps below the ``1e-12`` clamp, keys that are
not monotone along levels, budgets below all-bottom or above all-top, and
finished rows of a ragged stack.  The order lemma the scan rests on is
tested against ``heapq`` directly, and the NaN rule is pinned.
"""

from __future__ import annotations

import functools
import heapq

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.estimator import LevelPredictions
from repro.baselines.greedy import (
    GREEDY_ASCENT,
    STEEPEST_DROP,
    GreedyAscentController,
    SteepestDropController,
)
from repro.kernel.policies import BatchGreedy
from repro.manycore import default_system


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
# Signed steps: power and throughput that fall along levels, so keys are
# not monotone along a core's steps and power deltas may be negative.
_SIGNED_STEPS = st.sampled_from([-1.0, -0.5, 0.0, 1e-14, 0.5, 1.0, 1.0, 3.0])
# Budget position: below all-bottom, at all-bottom, in between, at
# all-top, above all-top.
_BUDGET_AT = st.sampled_from([-1.0, 0.0, 0.3, 0.5, 0.9, 1.0, 2.0])


def _row(draw, n, n_levels, steps):
    """One run's ``(power, ips)`` tables, cumulative sums of ``steps``."""
    base = st.floats(0.0, 3.0, allow_nan=False)
    power = np.empty((n, n_levels))
    ips = np.empty((n, n_levels))
    for i in range(n):
        power[i, 0] = draw(base)
        ips[i, 0] = draw(base)
        for lvl in range(1, n_levels):
            power[i, lvl] = power[i, lvl - 1] + draw(steps)
            ips[i, lvl] = ips[i, lvl - 1] + draw(steps)
    return power, ips


def _budget(draw, power):
    bottom = float(np.sum(power[:, 0]))
    top = float(np.sum(power[:, -1]))
    at = draw(_BUDGET_AT)
    if at < 0:
        return bottom - 1.0
    if at > 1:
        return top + 1.0
    return bottom + at * (top - bottom)


@st.composite
def _tables(draw, steps=_STEPS):
    n = draw(st.integers(1, 8))
    n_levels = draw(st.sampled_from([1, 2, 2, 3, 5]))
    power, ips = _row(draw, n, n_levels, steps)
    return LevelPredictions(power=power, ips=ips), _budget(draw, power)


@st.composite
def _stacks(draw):
    """A ``(n_rows, n_cores, n_levels)`` stack whose rows mix monotone and
    signed steps, per-row budgets, and a ragged ``active`` mask (``None``
    for all rows live)."""
    n_rows = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    n_levels = draw(st.sampled_from([1, 2, 3, 5]))
    rows = [
        _row(draw, n, n_levels, draw(st.sampled_from([_STEPS, _SIGNED_STEPS])))
        for _ in range(n_rows)
    ]
    power = np.array([p for p, _ in rows])
    ips = np.array([i for _, i in rows])
    budgets = np.array([_budget(draw, p) for p, _ in rows])
    active = draw(st.none() | st.lists(st.booleans(), min_size=n_rows, max_size=n_rows))
    return power, ips, budgets, None if active is None else np.array(active)


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


@functools.lru_cache(maxsize=None)
def _cfg(n_cores):
    return default_system(n_cores=n_cores)


#: controller class -> its frozen heap oracle
_ORACLES = {
    GreedyAscentController: _oracle_greedy_ascent,
    SteepestDropController: _oracle_steepest_drop,
}


class TestHeapsMatchScalarOracle:
    @settings(max_examples=300, deadline=None)
    @given(_tables())
    @example((_TIE, 5.0))
    @example((_FLAT, 2.0))
    @example((LevelPredictions(np.ones((2, 1)), np.ones((2, 1))), 1.0))
    def test_greedy_ascent(self, case):
        _check(GREEDY_ASCENT.levels, _oracle_greedy_ascent, *case)

    @settings(max_examples=300, deadline=None)
    @given(_tables())
    @example((_TIE, 7.0))
    @example((_FLAT, 2.0))
    @example((LevelPredictions(np.ones((2, 1)), np.ones((2, 1))), 1.0))
    def test_steepest_drop(self, case):
        _check(STEEPEST_DROP.levels, _oracle_steepest_drop, *case)

    @settings(max_examples=300, deadline=None)
    @given(_tables(steps=_SIGNED_STEPS))
    def test_keys_not_monotone_along_levels(self, case):
        _check(GREEDY_ASCENT.levels, _oracle_greedy_ascent, *case)
        _check(STEEPEST_DROP.levels, _oracle_steepest_drop, *case)

    def test_estimator_shaped_tables(self):
        """Monotone estimator-like tables at a realistic size."""
        rng = np.random.default_rng(7)
        power = np.cumsum(rng.uniform(0.1, 1.0, (32, 8)), axis=1)
        ips = np.cumsum(rng.uniform(0.1, 1.0, (32, 8)), axis=1)
        pred = LevelPredictions(power=power, ips=ips)
        for frac in np.linspace(0.0, 1.2, 13):
            budget = float(frac * np.sum(power[:, -1]))
            _check(GREEDY_ASCENT.levels, _oracle_greedy_ascent, pred, budget)
            _check(STEEPEST_DROP.levels, _oracle_steepest_drop, pred, budget)


class TestStackedScan:
    """Every live row of a ``BatchGreedy`` decide is its row's heap pass;
    finished rows decide nothing (zeros)."""

    @settings(max_examples=200, deadline=None)
    @given(_stacks(), st.sampled_from(sorted(_ORACLES, key=lambda c: c.name)))
    def test_rows_match_their_oracles(self, stack, cls):
        power, ips, budgets, active = stack
        oracle = _ORACLES[cls]
        n_rows, n_cores, _ = power.shape
        policy = BatchGreedy([cls(_cfg(n_cores)) for _ in range(n_rows)])
        policy._budgets = budgets
        policy._predict = lambda bobs: (power, ips)  # type: ignore[method-assign]
        got = policy.decide(None, active)
        assert got.shape == (n_rows, n_cores)
        for r in range(n_rows):
            if active is not None and not active[r]:
                np.testing.assert_array_equal(got[r], 0)
                continue
            want = oracle(LevelPredictions(power=power[r], ips=ips[r]), budgets[r])
            assert got[r].dtype == want.dtype
            np.testing.assert_array_equal(got[r], want)


def _heap_pop_order(keys: np.ndarray) -> list:
    """Flat ``core * n_steps + step`` indices in the order a heap holding
    each core's next step pops them."""
    n_cores, n_steps = keys.shape
    heap = [(keys[i, 0], i, 0) for i in range(n_cores)]
    heapq.heapify(heap)
    popped = []
    while heap:
        _, i, k = heapq.heappop(heap)
        popped.append(i * n_steps + k)
        if k + 1 < n_steps:
            heapq.heappush(heap, (keys[i, k + 1], i, k + 1))
    return popped


class TestOrderLemma:
    """The heap's pop order is a stable sort by each core's running
    maximum of keys."""

    @settings(max_examples=500, deadline=None)
    @given(
        st.integers(1, 7).flatmap(
            lambda n_steps: st.lists(
                st.lists(st.integers(-3, 3), min_size=n_steps, max_size=n_steps),
                min_size=1,
                max_size=7,
            )
        )
    )
    def test_stable_sort_of_running_maximum_is_the_heap_order(self, rows):
        keys = np.array(rows, dtype=float)
        running = np.maximum.accumulate(keys, axis=1)
        order = np.argsort(running.ravel(), kind="stable")
        assert order.tolist() == _heap_pop_order(keys)


class TestNaNRule:
    """A NaN key sorts last and the running maximum carries it forward:
    from a core's first NaN key on, its steps come after every step with
    a number key.  Core 1's throughput predictions are NaN."""

    POWER = np.array([[0.0, 1.0, 2.0]] * 3)
    IPS = np.array([[0.0, 1.0, 2.0], [0.0, np.nan, np.nan], [0.0, 2.0, 2.5]])

    def test_greedy_ascent_grants_nan_steps_last(self):
        pred = LevelPredictions(power=self.POWER, ips=self.IPS)
        # core 2 step 0, core 0 steps 0 and 1, core 2 step 1; then core 1
        np.testing.assert_array_equal(GREEDY_ASCENT.levels(pred, 4.0), [2, 0, 2])
        np.testing.assert_array_equal(GREEDY_ASCENT.levels(pred, 5.0), [2, 1, 2])

    def test_steepest_drop_sheds_nan_steps_last(self):
        pred = LevelPredictions(power=self.POWER, ips=self.IPS)
        # core 2 step 1, core 0 steps 1 and 0; then core 2 step 0; then core 1
        np.testing.assert_array_equal(STEEPEST_DROP.levels(pred, 3.0), [0, 2, 1])
        np.testing.assert_array_equal(STEEPEST_DROP.levels(pred, 1.0), [0, 1, 0])

    def test_nan_chip_power_fails_every_budget_test(self):
        """A NaN starting chip power fails every ``>`` comparison, as in
        the heap passes: greedy ascent grants every step, steepest drop
        sheds none."""
        power = self.POWER.copy()
        power[1] = np.nan
        pred = LevelPredictions(power=power, ips=self.POWER)
        np.testing.assert_array_equal(GREEDY_ASCENT.levels(pred, 1.0), [2, 2, 2])
        np.testing.assert_array_equal(STEEPEST_DROP.levels(pred, 1.0), [2, 2, 2])
