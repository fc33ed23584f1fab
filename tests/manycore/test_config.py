"""Tests for repro.manycore.config."""

import pytest

from repro.manycore import (
    SystemConfig,
    TechnologyParams,
    default_system,
    default_technology,
    idle_chip_power,
    peak_chip_power,
)


class TestTechnologyParams:
    def test_defaults_valid(self):
        tech = default_technology()
        assert tech.ceff > 0
        assert tech.t_ambient < tech.t_ref

    def test_rejects_nonpositive_ceff(self):
        with pytest.raises(ValueError, match="ceff"):
            TechnologyParams(ceff=0.0)

    def test_rejects_negative_leak_coeff(self):
        with pytest.raises(ValueError, match="leak_coeff"):
            TechnologyParams(leak_coeff=-1.0)

    def test_rejects_nonpositive_thermal_rc(self):
        with pytest.raises(ValueError, match="thermal"):
            TechnologyParams(r_thermal=0.0)
        with pytest.raises(ValueError, match="thermal"):
            TechnologyParams(c_thermal=-0.1)

    def test_rejects_nonpositive_temperatures(self):
        with pytest.raises(ValueError, match="kelvin"):
            TechnologyParams(t_ambient=0.0)

    def test_frozen(self):
        tech = default_technology()
        with pytest.raises(AttributeError):
            tech.ceff = 1.0


class TestSystemConfig:
    def test_default_system_has_budget_and_vf(self):
        cfg = default_system(n_cores=16)
        assert cfg.power_budget > 0
        assert cfg.n_levels == 8
        assert cfg.n_cores == 16

    def test_budget_fraction_scales_budget(self):
        lo = default_system(n_cores=16, budget_fraction=0.4)
        hi = default_system(n_cores=16, budget_fraction=0.8)
        assert hi.power_budget == pytest.approx(2 * lo.power_budget)

    def test_budget_is_fraction_of_peak(self):
        cfg = default_system(n_cores=16, budget_fraction=0.5)
        assert cfg.power_budget == pytest.approx(0.5 * peak_chip_power(cfg))

    def test_budget_above_idle(self):
        # The default budget must be feasible: idle power fits under it.
        cfg = default_system(n_cores=32, budget_fraction=0.4)
        assert idle_chip_power(cfg) < cfg.power_budget

    def test_rejects_bad_budget_fraction(self):
        with pytest.raises(ValueError, match="budget_fraction"):
            default_system(budget_fraction=0.0)
        with pytest.raises(ValueError, match="budget_fraction"):
            default_system(budget_fraction=1.5)

    def test_rejects_nonpositive_cores(self):
        with pytest.raises(ValueError, match="n_cores"):
            SystemConfig(n_cores=0)

    def test_rejects_nonpositive_epoch(self):
        with pytest.raises(ValueError, match="epoch_time"):
            SystemConfig(epoch_time=0.0)

    def test_rejects_unsorted_vf(self):
        with pytest.raises(ValueError, match="sorted"):
            SystemConfig(vf_levels=((2.0e9, 1.0), (1.0e9, 0.8)))

    def test_rejects_nonpositive_vf_entries(self):
        with pytest.raises(ValueError, match="positive"):
            SystemConfig(vf_levels=((0.0, 1.0), (1.0e9, 0.8)))

    def test_rejects_bad_activity_range(self):
        with pytest.raises(ValueError, match="activity_range"):
            SystemConfig(activity_range=(0.9, 0.3))
        with pytest.raises(ValueError, match="activity_range"):
            SystemConfig(activity_range=(0.0, 0.5))

    @pytest.mark.parametrize("n,expected", [(1, (1, 1)), (4, (2, 2)), (6, (2, 3)), (64, (8, 8)), (10, (3, 4))])
    def test_mesh_shape_covers_cores(self, n, expected):
        cfg = SystemConfig(n_cores=n)
        rows, cols = cfg.mesh_shape
        assert (rows, cols) == expected
        assert rows * cols >= n

    def test_mesh_is_near_square(self):
        for n in (3, 7, 12, 17, 100, 200):
            rows, cols = SystemConfig(n_cores=n).mesh_shape
            assert abs(rows - cols) <= 1
            assert rows * cols >= n

    def test_with_budget_returns_copy(self):
        cfg = default_system(n_cores=8)
        cfg2 = cfg.with_budget(10.0)
        assert cfg2.power_budget == 10.0
        assert cfg.power_budget != 10.0
        assert cfg2.n_cores == cfg.n_cores

    def test_with_budget_rejects_nonpositive(self):
        cfg = default_system(n_cores=8)
        with pytest.raises(ValueError, match="power_budget"):
            cfg.with_budget(0.0)

    def test_with_cores_returns_copy(self):
        cfg = default_system(n_cores=8)
        cfg2 = cfg.with_cores(32)
        assert cfg2.n_cores == 32
        assert cfg.n_cores == 8

    def test_hashable(self):
        cfg = default_system(n_cores=8)
        assert hash(cfg) == hash(cfg.with_budget(cfg.power_budget))


class TestPeakAndIdle:
    def test_peak_exceeds_idle(self):
        cfg = default_system(n_cores=16)
        assert peak_chip_power(cfg) > idle_chip_power(cfg)

    def test_peak_scales_with_cores(self):
        p16 = peak_chip_power(default_system(n_cores=16))
        p64 = peak_chip_power(default_system(n_cores=64))
        assert p64 == pytest.approx(4 * p16, rel=1e-9)

    def test_peak_requires_vf_table(self):
        cfg = SystemConfig(n_cores=4)  # empty VF table
        with pytest.raises(ValueError, match="VF table"):
            peak_chip_power(cfg)
        with pytest.raises(ValueError, match="VF table"):
            idle_chip_power(cfg)
