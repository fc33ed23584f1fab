"""Tests for repro.sim.islands (VFI granularity wrapper)."""

import numpy as np
import pytest

from repro.core import ODRLController
from repro.manycore import ManyCoreChip, default_system
from repro.sim import IslandedController, island_map, run_controller
from repro.workloads import mixed_workload


@pytest.fixture
def cfg():
    return default_system(n_cores=12, n_levels=4, budget_fraction=0.6)


class TestIslandMap:
    def test_contiguous_groups(self):
        assert list(island_map(8, 4)) == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_partial_last_island(self):
        assert list(island_map(7, 3)) == [0, 0, 0, 1, 1, 1, 2]

    def test_size_one_is_identity(self):
        assert list(island_map(5, 1)) == [0, 1, 2, 3, 4]

    def test_validation(self):
        with pytest.raises(ValueError):
            island_map(0, 2)
        with pytest.raises(ValueError):
            island_map(4, 0)


class TestIslandedController:
    def test_island_count(self, cfg):
        ctl = IslandedController(cfg, island_size=4)
        assert ctl.n_islands == 3
        assert ctl.inner.cfg.n_cores == 3

    def test_virtual_tech_scaled(self, cfg):
        ctl = IslandedController(cfg, island_size=4)
        assert ctl.inner.cfg.technology.ceff == pytest.approx(
            4 * cfg.technology.ceff
        )
        assert ctl.inner.cfg.technology.leak_coeff == pytest.approx(
            4 * cfg.technology.leak_coeff
        )

    def test_validation(self, cfg):
        with pytest.raises(ValueError, match="island_size"):
            IslandedController(cfg, island_size=0)
        with pytest.raises(ValueError, match="island_size"):
            IslandedController(cfg, island_size=13)

    def test_cores_in_island_share_level(self, cfg):
        ctl = IslandedController(cfg, island_size=4)
        chip = ManyCoreChip(cfg, mixed_workload(12, seed=1))
        obs = None
        for _ in range(60):
            levels = ctl.decide(obs)
            for isl in range(3):
                group = levels[4 * isl : 4 * (isl + 1)]
                assert len(np.unique(group)) == 1
            obs = chip.step(levels)

    def test_island_budget_compliance(self, cfg):
        ctl = IslandedController(cfg, island_size=4)
        result = run_controller(cfg, mixed_workload(12, seed=2), ctl, 700)
        tail = result.tail(0.4)
        over = np.maximum(tail.chip_power - cfg.power_budget, 0)
        assert over.mean() < 0.03 * cfg.power_budget

    def test_size_one_matches_bare_controller(self, cfg):
        # island_size=1 must be behaviourally identical to the inner
        # controller run directly (the virtual config equals the real one).
        wl = mixed_workload(12, seed=3)
        bare = run_controller(cfg, wl, ODRLController(cfg), 300)
        wrapped = run_controller(cfg, wl, IslandedController(cfg, island_size=1), 300)
        assert np.array_equal(bare.chip_power, wrapped.chip_power)

    def test_granularity_monotone_throughput(self, cfg):
        # Coarser islands cannot beat finer ones by a meaningful margin on
        # a heterogeneous workload.
        wl = mixed_workload(12, seed=4)
        fine = run_controller(cfg, wl, IslandedController(cfg, island_size=1), 800)
        coarse = run_controller(cfg, wl, IslandedController(cfg, island_size=12), 800)
        fine_bips = fine.tail(0.4).mean_throughput
        coarse_bips = coarse.tail(0.4).mean_throughput
        assert coarse_bips < fine_bips * 1.02

    def test_custom_inner_factory(self, cfg):
        from repro.baselines import PIDCappingController

        ctl = IslandedController(
            cfg, island_size=4, inner_factory=PIDCappingController
        )
        assert ctl.name == "vfi4:pid"
        result = run_controller(cfg, mixed_workload(12, seed=5), ctl, 200)
        assert result.n_epochs == 200

    def test_reset_propagates(self, cfg):
        ctl = IslandedController(cfg, island_size=4)
        run_controller(cfg, mixed_workload(12, seed=1), ctl, 100)
        assert ctl.inner.step_count > 0
        ctl.reset()
        assert ctl.inner.step_count == 0
