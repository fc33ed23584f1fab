"""Tests for repro.baselines.greedy (greedy ascent / steepest drop)."""

import numpy as np
import pytest

from repro.baselines import GreedyAscentController, SteepestDropController
from repro.baselines.estimator import LevelPredictions
from repro.baselines.greedy import GREEDY_ASCENT, STEEPEST_DROP
from repro.manycore import default_system
from repro.sim import run_controller
from repro.workloads import mixed_workload


def predictions(power, ips):
    return LevelPredictions(power=np.asarray(power, float), ips=np.asarray(ips, float))


class TestGreedyAscentAlgorithm:
    def test_fits_budget(self):
        pred = predictions(
            [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]],
            [[1.0, 2.0, 3.0], [1.0, 1.1, 1.2]],
        )
        levels = GREEDY_ASCENT.levels(pred, budget=5.0)
        total = sum(pred.power[i, l] for i, l in enumerate(levels))
        assert total <= 5.0

    def test_prefers_high_marginal_utility(self):
        # Core 0 converts watts to throughput 10x better: it gets upgraded.
        pred = predictions(
            [[1.0, 2.0], [1.0, 2.0]],
            [[1.0, 11.0], [1.0, 2.0]],
        )
        levels = GREEDY_ASCENT.levels(pred, budget=3.0)
        assert levels[0] == 1
        assert levels[1] == 0

    def test_budget_below_bottom_keeps_bottom(self):
        pred = predictions([[2.0, 3.0]], [[1.0, 2.0]])
        levels = GREEDY_ASCENT.levels(pred, budget=1.0)
        assert levels[0] == 0

    def test_loose_budget_gives_top(self):
        pred = predictions(
            [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]],
            [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]],
        )
        levels = GREEDY_ASCENT.levels(pred, budget=100.0)
        assert np.all(levels == 2)

    def test_skips_unaffordable_but_continues(self):
        # Core 0's upgrade is huge; core 1's is small and affordable.
        pred = predictions(
            [[1.0, 10.0], [1.0, 1.5]],
            [[1.0, 100.0], [1.0, 1.4]],
        )
        levels = GREEDY_ASCENT.levels(pred, budget=3.0)
        assert levels[0] == 0
        assert levels[1] == 1


class TestSteepestDropAlgorithm:
    def test_stops_when_under_budget(self):
        pred = predictions(
            [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]],
            [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]],
        )
        levels = STEEPEST_DROP.levels(pred, budget=100.0)
        assert np.all(levels == 2)

    def test_sheds_power_to_fit(self):
        pred = predictions(
            [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]],
            [[1.0, 2.0, 3.0], [1.0, 1.1, 1.2]],
        )
        levels = STEEPEST_DROP.levels(pred, budget=4.0)
        total = sum(pred.power[i, l] for i, l in enumerate(levels))
        assert total <= 4.0

    def test_drops_cheapest_throughput_first(self):
        # Core 1 loses almost nothing per watt shed: it drops first.
        pred = predictions(
            [[1.0, 2.0], [1.0, 2.0]],
            [[1.0, 5.0], [1.0, 1.01]],
        )
        levels = STEEPEST_DROP.levels(pred, budget=3.0)
        assert levels[0] == 1
        assert levels[1] == 0

    def test_infeasible_ends_all_bottom(self):
        pred = predictions([[2.0, 3.0], [2.0, 3.0]], [[1.0, 2.0], [1.0, 2.0]])
        levels = STEEPEST_DROP.levels(pred, budget=1.0)
        assert np.all(levels == 0)


class TestControllers:
    @pytest.fixture
    def cfg(self):
        return default_system(n_cores=8, n_levels=4, budget_fraction=0.6)

    @pytest.mark.parametrize("cls", [GreedyAscentController, SteepestDropController])
    def test_closed_loop_tracks_budget(self, cfg, cls):
        result = run_controller(cfg, mixed_workload(8, seed=1), cls(cfg), n_epochs=300)
        tail = result.tail(0.5)
        assert 0.75 * cfg.power_budget < tail.chip_power.mean() < 1.1 * cfg.power_budget

    @pytest.mark.parametrize("cls", [GreedyAscentController, SteepestDropController])
    def test_levels_valid(self, cfg, cls):
        ctl = cls(cfg)
        levels = ctl.decide(None)
        assert levels.shape == (8,)
        assert np.all((levels >= 0) & (levels < cfg.n_levels))

    def test_two_heuristics_agree_roughly(self, cfg):
        # Ascent and drop attack the same optimization from both ends; on
        # the same telemetry their achieved throughput should be close.
        wl = mixed_workload(8, seed=2)
        up = run_controller(cfg, wl, GreedyAscentController(cfg), n_epochs=300)
        down = run_controller(cfg, wl, SteepestDropController(cfg), n_epochs=300)
        assert up.total_instructions == pytest.approx(down.total_instructions, rel=0.1)
