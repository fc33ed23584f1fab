"""Tests for repro.manycore.power."""

import numpy as np
import pytest

from repro.manycore import (
    core_power,
    default_system,
    default_technology,
    dynamic_power,
    leakage_power,
)


@pytest.fixture
def tech():
    return default_technology()


class TestDynamicPower:
    def test_cv2f_scaling(self, tech):
        base = dynamic_power(tech, np.array(1.0), np.array(1e9), np.array(1.0))
        # Doubling voltage quadruples dynamic power.
        v2 = dynamic_power(tech, np.array(2.0), np.array(1e9), np.array(1.0))
        assert float(v2) == pytest.approx(4 * float(base))
        # Doubling frequency doubles it.
        f2 = dynamic_power(tech, np.array(1.0), np.array(2e9), np.array(1.0))
        assert float(f2) == pytest.approx(2 * float(base))
        # Activity is linear.
        a_half = dynamic_power(tech, np.array(1.0), np.array(1e9), np.array(0.5))
        assert float(a_half) == pytest.approx(0.5 * float(base))

    def test_vectorized_over_cores(self, tech):
        v = np.array([0.8, 1.0, 1.1])
        f = np.array([1e9, 2e9, 2.4e9])
        a = np.array([0.3, 0.6, 1.0])
        p = dynamic_power(tech, v, f, a)
        assert p.shape == (3,)
        assert np.all(np.diff(p) > 0)

    def test_zero_inputs_give_zero(self, tech):
        assert float(dynamic_power(tech, np.array(0.0), np.array(1e9), np.array(1.0))) == 0.0
        assert float(dynamic_power(tech, np.array(1.0), np.array(0.0), np.array(1.0))) == 0.0

    def test_rejects_negative(self, tech):
        with pytest.raises(ValueError):
            dynamic_power(tech, np.array(-1.0), np.array(1e9), np.array(1.0))


class TestLeakagePower:
    def test_exponential_in_temperature(self, tech):
        t1 = leakage_power(tech, np.array(1.0), np.array(tech.t_ref))
        t2 = leakage_power(tech, np.array(1.0), np.array(tech.t_ref + 10))
        expected_ratio = np.exp(tech.leak_temp_sens * 10)
        assert float(t2) / float(t1) == pytest.approx(expected_ratio)

    def test_linear_in_voltage(self, tech):
        lo = leakage_power(tech, np.array(0.7), np.array(tech.t_ref))
        hi = leakage_power(tech, np.array(1.4), np.array(tech.t_ref))
        assert float(hi) == pytest.approx(2 * float(lo))

    def test_reference_point(self, tech):
        p = leakage_power(tech, np.array(1.0), np.array(tech.t_ref))
        assert float(p) == pytest.approx(tech.leak_coeff)

    def test_rejects_nonpositive_temperature(self, tech):
        with pytest.raises(ValueError, match="kelvin"):
            leakage_power(tech, np.array(1.0), np.array(0.0))

    def test_rejects_negative_voltage(self, tech):
        with pytest.raises(ValueError):
            leakage_power(tech, np.array(-0.1), np.array(300.0))


class TestCorePower:
    def test_is_sum_of_components(self, tech):
        v, f, a, t = np.array(1.0), np.array(2e9), np.array(0.8), np.array(340.0)
        total = core_power(tech, v, f, a, t)
        assert float(total) == pytest.approx(
            float(dynamic_power(tech, v, f, a)) + float(leakage_power(tech, v, t))
        )

    def test_realistic_magnitude(self, tech):
        # A 22nm-class core at 2.4 GHz / 1.1 V, fully active, warm:
        # should land in the single-digit-watt range.
        p = core_power(tech, np.array(1.1), np.array(2.4e9), np.array(1.0), np.array(340.0))
        assert 1.0 < float(p) < 10.0

    def test_leakage_fraction_reasonable(self, tech):
        # At nominal conditions leakage should be a minority share.
        v, f, a, t = np.array(1.0), np.array(2e9), np.array(0.8), np.array(335.0)
        leak = float(leakage_power(tech, v, t))
        total = float(core_power(tech, v, f, a, t))
        assert 0.05 < leak / total < 0.5

    def test_monotone_in_level(self):
        cfg = default_system(n_cores=1)
        tech = cfg.technology
        powers = [
            float(core_power(tech, np.array(v), np.array(f), np.array(0.8), np.array(330.0)))
            for f, v in cfg.vf_levels
        ]
        assert powers == sorted(powers)
        # Top-to-bottom dynamic range must be meaningful for DVFS (>2x).
        assert powers[-1] / powers[0] > 2.0


@pytest.mark.parametrize(
    "arg, bad",
    [("voltage", -0.1), ("frequency", -1.0), ("activity", -1e-3)],
)
def test_dynamic_power_guards_still_raise(tech, arg, bad):
    kwargs = {"voltage": np.full(4, 1.0), "frequency": np.full(4, 2e9),
              "activity": np.full(4, 0.5)}
    kwargs[arg][1] = bad
    with pytest.raises(
        ValueError, match="voltage, frequency and activity must be non-negative"
    ):
        dynamic_power(tech, **kwargs)


@pytest.mark.parametrize(
    "voltage, temperature, message",
    [
        (-0.1, 330.0, "voltage must be non-negative"),
        (1.0, 0.0, "temperature is absolute"),
        (1.0, -5.0, "temperature is absolute"),
        # Both bad: the voltage guard runs first.
        (-0.1, 0.0, "voltage must be non-negative"),
    ],
)
def test_leakage_power_guards_still_raise_in_order(tech, voltage, temperature, message):
    v = np.full(4, 1.0)
    t = np.full(4, 330.0)
    v[3] = voltage
    t[3] = temperature
    with pytest.raises(ValueError, match=message):
        leakage_power(tech, v, t)
