"""Tests for repro.baselines.maxswap."""

import numpy as np
import pytest

from repro.baselines import MaxSwapController, solve_exhaustive, solve_max_swap
from repro.baselines.estimator import LevelPredictions
from repro.baselines.greedy import GREEDY_ASCENT
from repro.manycore import default_system
from repro.sim import run_controller
from repro.workloads import mixed_workload


def predictions(power, ips):
    return LevelPredictions(power=np.asarray(power, float), ips=np.asarray(ips, float))


def total(pred, levels, field):
    arr = getattr(pred, field)
    return sum(arr[i, l] for i, l in enumerate(levels))


class TestSolveMaxSwap:
    def test_respects_budget_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            power = np.sort(rng.uniform(0.5, 3.0, (6, 4)), axis=1)
            ips = np.sort(rng.uniform(0.5, 3.0, (6, 4)), axis=1)
            pred = predictions(power, ips)
            budget = float(np.sum(power[:, 0]) + rng.uniform(1.0, 6.0))
            levels = solve_max_swap(pred, budget)
            assert total(pred, levels, "power") <= budget + 1e-9

    def test_never_worse_than_greedy(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            power = np.sort(rng.uniform(0.5, 3.0, (5, 4)), axis=1)
            ips = np.sort(rng.uniform(0.5, 3.0, (5, 4)), axis=1)
            pred = predictions(power, ips)
            budget = float(np.sum(power[:, 0]) + rng.uniform(1.0, 5.0))
            ms = total(pred, solve_max_swap(pred, budget), "ips")
            greedy = total(pred, GREEDY_ASCENT.levels(pred, budget), "ips")
            assert ms >= greedy - 1e-9

    def test_near_optimal_on_average(self):
        rng = np.random.default_rng(3)
        ratios = []
        for _ in range(30):
            power = np.sort(rng.uniform(0.5, 3.0, (5, 3)), axis=1)
            ips = np.sort(rng.uniform(0.5, 3.0, (5, 3)), axis=1)
            pred = predictions(power, ips)
            budget = float(np.sum(power[:, 0]) + rng.uniform(1.0, 4.0))
            ms = total(pred, solve_max_swap(pred, budget), "ips")
            opt = total(pred, solve_exhaustive(pred, budget), "ips")
            ratios.append(ms / opt)
        assert np.mean(ratios) > 0.95

    def test_swap_fixes_blocked_upgrade(self):
        # Greedy ascent takes core 0's high-ratio upgrade first, which then
        # blocks core 1's bigger-total-gain upgrade; the swap phase undoes
        # core 0 to make room.
        pred = predictions(
            [[1.0, 1.5], [1.0, 3.0]],
            [[1.0, 4.0], [1.0, 9.0]],
        )
        budget = 4.0
        greedy = GREEDY_ASCENT.levels(pred, budget)
        assert list(greedy) == [1, 0]  # stuck at the local optimum
        swap = solve_max_swap(pred, budget)
        assert list(swap) == [0, 1]
        assert total(pred, swap, "ips") > total(pred, greedy, "ips")

    def test_loose_budget_gives_top(self):
        pred = predictions(
            np.tile([[1.0, 2.0, 3.0]], (3, 1)),
            np.tile([[1.0, 2.0, 3.0]], (3, 1)),
        )
        assert np.all(solve_max_swap(pred, budget=100.0) == 2)

    def test_single_core(self):
        pred = predictions([[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0]])
        assert list(solve_max_swap(pred, budget=2.5)) == [1]

    def test_round_cap_terminates(self):
        pred = predictions(
            np.tile([[1.0, 2.0]], (4, 1)),
            np.tile([[1.0, 2.0]], (4, 1)),
        )
        levels = solve_max_swap(pred, budget=6.0, max_rounds=1)
        assert total(pred, levels, "power") <= 6.0


class TestController:
    @pytest.fixture
    def cfg(self):
        return default_system(n_cores=8, n_levels=4, budget_fraction=0.6)

    def test_closed_loop(self, cfg):
        result = run_controller(cfg, mixed_workload(8, seed=1), MaxSwapController(cfg), 300)
        tail = result.tail(0.5)
        assert 0.75 * cfg.power_budget < tail.chip_power.mean() < 1.1 * cfg.power_budget

    def test_in_standard_lineup(self, cfg):
        from repro.sim import standard_controllers
        lineup = standard_controllers()
        assert "max-swap" in lineup
        assert lineup["max-swap"](cfg).name == "max-swap"

    def test_matches_or_beats_greedy_throughput(self, cfg):
        from repro.baselines import GreedyAscentController
        wl = mixed_workload(8, seed=2)
        swap = run_controller(cfg, wl, MaxSwapController(cfg), 300)
        greedy = run_controller(cfg, wl, GreedyAscentController(cfg), 300)
        assert swap.total_instructions >= 0.97 * greedy.total_instructions
