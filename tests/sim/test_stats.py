"""Tests for repro.sim.stats (multi-seed aggregation)."""

import pytest

from repro.core import ODRLController
from repro.manycore import default_system
from repro.metrics import budget_utilization, throughput_bips
from repro.sim.stats import MetricStatistics, run_seeds
from repro.workloads import mixed_workload


class TestMetricStatistics:
    def test_mean_std(self):
        s = MetricStatistics((1.0, 2.0, 3.0))
        assert s.n == 3
        assert s.mean == pytest.approx(2.0)
        assert s.std == pytest.approx(1.0)

    def test_single_value(self):
        s = MetricStatistics((5.0,))
        assert s.std == 0.0
        assert s.confidence_interval() == (5.0, 5.0)

    def test_needs_values(self):
        with pytest.raises(ValueError):
            MetricStatistics(())

    def test_confidence_interval_contains_mean(self):
        s = MetricStatistics((1.0, 2.0, 3.0, 4.0, 5.0))
        lo, hi = s.confidence_interval(0.95)
        assert lo < s.mean < hi

    def test_wider_at_higher_level(self):
        s = MetricStatistics((1.0, 2.0, 3.0, 4.0))
        lo95, hi95 = s.confidence_interval(0.95)
        lo99, hi99 = s.confidence_interval(0.99)
        assert hi99 - lo99 > hi95 - lo95

    def test_level_validation(self):
        s = MetricStatistics((1.0, 2.0))
        with pytest.raises(ValueError, match="level"):
            s.confidence_interval(1.0)

    def test_t_interval_matches_known_value(self):
        # n=4, std=1, 95%: half width = t_{0.975,3} * 1/2 = 3.1824/2
        values = (0.0, 1.0, 2.0, 3.0)
        s = MetricStatistics(values)
        lo, hi = s.confidence_interval(0.95)
        expected_half = 3.182446 * s.std / 2
        assert hi - s.mean == pytest.approx(expected_half, rel=1e-4)


class TestRunSeeds:
    @pytest.fixture
    def cfg(self):
        return default_system(n_cores=6, n_levels=4, budget_fraction=0.6)

    def test_aggregates_metrics(self, cfg):
        stats = run_seeds(
            cfg,
            workload_factory=lambda seed: mixed_workload(6, seed=seed),
            controller_factory=lambda c, seed: ODRLController(c, seed=seed),
            n_epochs=150,
            seeds=(0, 1, 2),
            metrics={"bips": throughput_bips, "util": budget_utilization},
        )
        assert set(stats) == {"bips", "util"}
        assert stats["bips"].n == 3
        assert stats["bips"].mean > 0
        assert 0 < stats["util"].mean <= 1.1

    def test_seed_variation_nonzero(self, cfg):
        stats = run_seeds(
            cfg,
            workload_factory=lambda seed: mixed_workload(6, seed=seed),
            controller_factory=lambda c, seed: ODRLController(c, seed=seed),
            n_epochs=150,
            seeds=(0, 1, 2),
            metrics={"bips": throughput_bips},
        )
        assert stats["bips"].std > 0

    def test_identical_seeds_zero_spread(self, cfg):
        stats = run_seeds(
            cfg,
            workload_factory=lambda seed: mixed_workload(6, seed=7),
            controller_factory=lambda c, seed: ODRLController(c, seed=7),
            n_epochs=100,
            seeds=(7, 7),
            metrics={"bips": throughput_bips},
        )
        assert stats["bips"].std == 0.0

    def test_validation(self, cfg):
        with pytest.raises(ValueError, match="seeds"):
            run_seeds(cfg, lambda s: None, lambda c, s: None, 10, (), {"m": throughput_bips})
        with pytest.raises(ValueError, match="metrics"):
            run_seeds(cfg, lambda s: None, lambda c, s: None, 10, (0,), {})
