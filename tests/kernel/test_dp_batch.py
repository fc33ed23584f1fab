"""The batched MaxBIPS DP against the serial one, and its memory bound.

``BatchMaxBIPS._solve_dp_batch`` keeps each core's value rows and
backtracks by recomputing the candidates of a level and taking the first
one equal to the stored value.  Every row it returns must equal the
serial :func:`~repro.baselines.maxbips.solve_dp` on that row's tables:
under equal-value ties, NaN throughput, per-row budgets, the smallest
quantizations, costs at the cap and infeasible rows.  Rows run in chunks
whose value-row history fits a fixed byte bound; chunking must not change
a result, and a 256-core x 32-row stack must stay within its memory
budget.
"""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest

import repro.kernel.policies as policies
from repro.baselines.estimator import LevelPredictions
from repro.baselines.maxbips import MaxBIPSController, solve_dp
from repro.kernel.policies import BatchMaxBIPS, build_batch_policy
from repro.manycore import default_system

N_LEVELS = 5

#: power and throughput drawn from small sets, so equal costs and equal
#: values (ties) are common; 40.0 costs more than the budget on every row,
#: so its cost is capped at n_quanta + 1
_POWERS = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 3.0, 40.0])
_GAINS = np.array([0.0, 1.0, 1.0, 2.0, 2.5, np.nan])
#: budgets per core: below the all-bottom draw (infeasible rows) up to
#: loose
_BUDGET_PER_CORE = np.array([0.1, 0.5, 1.0, 1.7, 3.0, 9.0])


@functools.lru_cache(maxsize=None)
def _cfg(n_cores):
    return default_system(n_cores=n_cores, n_levels=N_LEVELS)


def _policy(budgets, n_quanta, n_cores):
    cfg = _cfg(n_cores)
    policy = build_batch_policy(
        [
            MaxBIPSController(cfg.with_budget(float(b)), n_quanta=n_quanta)
            for b in budgets
        ]
    )
    assert isinstance(policy, BatchMaxBIPS)
    return policy


def _serial_rows(power3, ips3, budgets, n_quanta):
    return np.stack(
        [
            solve_dp(
                LevelPredictions(power=power3[r].copy(), ips=ips3[r].copy()),
                float(budget),
                n_quanta,
            )
            for r, budget in enumerate(budgets)
        ]
    )


def _random_case(seed):
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(1, 6))
    n_cores = int(rng.integers(1, 9))
    n_levels = int(rng.integers(1, N_LEVELS + 1))
    n_quanta = int(rng.choice([2, 3, 4, 7, 16, 40]))
    shape = (n_rows, n_cores, n_levels)
    power = rng.choice(_POWERS, shape)
    ips = rng.choice(_GAINS, shape)
    budgets = rng.choice(_BUDGET_PER_CORE, n_rows) * n_cores
    return power, ips, budgets, n_quanta


class TestDifferential:
    @pytest.mark.parametrize("block", range(4))
    def test_random_tables_match_serial_rows(self, block):
        seen = {"nan": 0, "infeasible": 0, "capped": 0}
        for seed in range(block * 400, (block + 1) * 400):
            power, ips, budgets, n_quanta = _random_case(seed)
            got = _policy(budgets, n_quanta, power.shape[1])._solve_dp_batch(power, ips)
            want = _serial_rows(power, ips, budgets, n_quanta)
            assert np.array_equal(got, want), f"seed {seed}"
            seen["nan"] += bool(np.isnan(ips).any())
            seen["infeasible"] += bool(
                (power[:, :, 0].sum(axis=1) > budgets).any()
            )
            quantum = budgets / n_quanta
            seen["capped"] += bool(
                (np.ceil(power / quantum[:, None, None]) > n_quanta).any()
            )
        # the draw reaches every edge the generator is built for
        assert min(seen.values()) > 0, seen

    def test_nan_gain_never_wins(self):
        """A NaN throughput loses the serial strict-``>`` sweep.  ``max``
        would propagate it, so the batched DP maps NaN gains to ``-inf``
        first; without that mapping this case returns all-zeros."""
        power = np.array([[[1.0, 1.0], [1.0, 2.0]]])
        ips = np.array([[[np.nan, 1.0], [1.0, np.nan]]])
        budgets = [10.0]
        want = _serial_rows(power, ips, budgets, 20)
        np.testing.assert_array_equal(want, [[1, 0]])
        got = _policy(budgets, 20, 2)._solve_dp_batch(power, ips)
        np.testing.assert_array_equal(got, want)

    def test_all_nan_row_parks_at_the_bottom(self):
        power = np.ones((2, 3, 2))
        ips = np.ones((2, 3, 2))
        ips[1] = np.nan
        budgets = [10.0, 10.0]
        got = _policy(budgets, 10, 3)._solve_dp_batch(power, ips)
        np.testing.assert_array_equal(got, _serial_rows(power, ips, budgets, 10))
        np.testing.assert_array_equal(got[1], 0)


def _estimator_shaped(n_rows, n_cores, seed=0):
    rng = np.random.default_rng(seed)
    power = np.cumsum(rng.uniform(0.2, 3.0, (n_rows, n_cores, N_LEVELS)), axis=2)
    ips = np.cumsum(rng.uniform(0.0, 1e9, (n_rows, n_cores, N_LEVELS)), axis=2)
    budgets = np.linspace(0.4, 1.2, n_rows) * power[:, :, -1].sum(axis=1)
    return power, ips, budgets


class TestChunking:
    @pytest.mark.parametrize("rows_per_chunk", [1, 2, 3])
    def test_chunked_rows_equal_unchunked(self, monkeypatch, rows_per_chunk):
        power, ips, budgets = _estimator_shaped(7, 9)
        policy = _policy(budgets, 64, 9)
        whole = policy._solve_dp_batch(power, ips)
        row_bytes = 9 * (64 + 1) * 8
        monkeypatch.setattr(policies, "_DP_HISTORY_BYTES", rows_per_chunk * row_bytes)
        np.testing.assert_array_equal(policy._solve_dp_batch(power, ips), whole)
        np.testing.assert_array_equal(whole, _serial_rows(power, ips, budgets, 64))


class TestMemory:
    #: the bound at 256 cores x 32 rows: the value-row history of one chunk
    #: (at most 32 MiB) plus the work buffers
    PEAK_MIB = 48

    def test_256_cores_by_32_rows_stays_bounded(self):
        n_cores, n_rows = 256, 32
        power, ips, budgets = _estimator_shaped(n_rows, n_cores, seed=1)
        policy = build_batch_policy(
            [MaxBIPSController(_cfg(n_cores).with_budget(float(b))) for b in budgets]
        )
        assert isinstance(policy, BatchMaxBIPS)
        assert policy.n_quanta == 8 * n_cores
        tracemalloc.start()
        try:
            got = policy._solve_dp_batch(power, ips)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_MIB * 2**20, f"peak {peak / 2**20:.1f} MiB"
        for r in (0, n_rows // 2, n_rows - 1):
            want = solve_dp(
                LevelPredictions(power=power[r], ips=ips[r]),
                float(budgets[r]),
                policy.n_quanta,
            )
            np.testing.assert_array_equal(got[r], want)
