"""Tests for repro.manycore.core (the analytic performance model)."""

import numpy as np
import pytest

from repro.manycore import (
    activity_factor,
    compute_fraction,
    default_system,
    instructions_per_second,
)


@pytest.fixture
def cfg():
    return default_system(n_cores=4)


class TestInstructionsPerSecond:
    def test_compute_bound_linear_in_frequency(self, cfg):
        # Zero memory intensity: IPS = f / CPI_base exactly.
        f = np.array([1e9, 2e9])
        ips = instructions_per_second(cfg, f, np.zeros(2))
        assert ips[0] == pytest.approx(1e9 / cfg.base_cpi)
        assert ips[1] == pytest.approx(2 * ips[0])

    def test_memory_bound_saturates(self, cfg):
        # Heavy memory intensity: doubling f should gain far less than 2x.
        mu = 0.02
        lo = float(instructions_per_second(cfg, np.array(1.2e9), np.array(mu)))
        hi = float(instructions_per_second(cfg, np.array(2.4e9), np.array(mu)))
        assert hi / lo < 1.35

    def test_saturation_limit(self, cfg):
        # As f -> inf, IPS -> 1 / (mu * L).
        mu = 0.01
        limit = 1.0 / (mu * cfg.mem_latency)
        huge = float(instructions_per_second(cfg, np.array(1e12), np.array(mu)))
        assert huge == pytest.approx(limit, rel=0.01)

    def test_monotone_in_frequency(self, cfg):
        # More frequency never hurts raw throughput, any memory intensity.
        freqs = np.linspace(0.8e9, 2.4e9, 8)
        for mu in (0.0, 0.005, 0.02):
            ips = instructions_per_second(cfg, freqs, np.full(8, mu))
            assert np.all(np.diff(ips) > 0)

    def test_monotone_decreasing_in_memory_intensity(self, cfg):
        mus = np.linspace(0.0, 0.03, 10)
        ips = instructions_per_second(cfg, np.full(10, 2e9), mus)
        assert np.all(np.diff(ips) < 0)

    def test_rejects_invalid(self, cfg):
        with pytest.raises(ValueError, match="frequency"):
            instructions_per_second(cfg, np.array(0.0), np.array(0.0))
        with pytest.raises(ValueError, match="mem_intensity"):
            instructions_per_second(cfg, np.array(1e9), np.array(-0.1))


class TestComputeFraction:
    def test_pure_compute_is_one(self, cfg):
        frac = compute_fraction(cfg, np.array(2e9), np.array(0.0))
        assert float(frac) == pytest.approx(1.0)

    def test_decreases_with_frequency_when_memory_bound(self, cfg):
        # Higher clock means more stall cycles per instruction.
        lo = float(compute_fraction(cfg, np.array(1e9), np.array(0.01)))
        hi = float(compute_fraction(cfg, np.array(2.4e9), np.array(0.01)))
        assert hi < lo < 1.0

    def test_bounded(self, cfg):
        freqs = np.linspace(0.8e9, 2.4e9, 5)
        frac = compute_fraction(cfg, freqs, np.full(5, 0.02))
        assert np.all((frac > 0) & (frac <= 1))


class TestActivityFactor:
    def test_within_configured_range(self, cfg):
        lo, hi = cfg.activity_range
        act = activity_factor(
            cfg,
            np.linspace(0.8e9, 2.4e9, 6),
            np.linspace(0.0, 0.03, 6),
            np.linspace(0.0, 1.0, 6),
        )
        assert np.all(act >= lo - 1e-12)
        assert np.all(act <= hi + 1e-12)

    def test_idle_core_draws_floor(self, cfg):
        act = activity_factor(cfg, np.array(2e9), np.array(0.0), np.array(0.0))
        assert float(act) == pytest.approx(cfg.activity_range[0])

    def test_full_compute_draws_ceiling(self, cfg):
        act = activity_factor(cfg, np.array(2e9), np.array(0.0), np.array(1.0))
        assert float(act) == pytest.approx(cfg.activity_range[1])

    def test_memory_bound_below_compute_bound(self, cfg):
        f = np.array(2.4e9)
        compute = activity_factor(cfg, f, np.array(0.0), np.array(0.9))
        memory = activity_factor(cfg, f, np.array(0.02), np.array(0.9))
        assert float(memory) < float(compute)

    def test_rejects_out_of_range_compute_intensity(self, cfg):
        with pytest.raises(ValueError, match="compute_intensity"):
            activity_factor(cfg, np.array(1e9), np.array(0.0), np.array(1.5))



def _bad_at(value, bad, index=2, n=4):
    """A per-core vector of ``value`` with one ``bad`` element."""
    out = np.full(n, value, dtype=float)
    out[index] = bad
    return out


def _call(func, cfg, frequency, mem_intensity, base_cpi=None):
    if func is activity_factor:
        return activity_factor(
            cfg, frequency, mem_intensity, np.full(4, 0.5), base_cpi=base_cpi
        )
    return func(cfg, frequency, mem_intensity, base_cpi=base_cpi)


GUARDED = [compute_fraction, instructions_per_second, activity_factor]


@pytest.mark.parametrize("func", GUARDED)
@pytest.mark.parametrize(
    "frequency, mem_intensity, base_cpi, message",
    [
        (_bad_at(2e9, 0.0), np.full(4, 0.01), None, "frequency must be positive"),
        (_bad_at(2e9, -1e9), np.full(4, 0.01), None, "frequency must be positive"),
        (np.full(4, 2e9), _bad_at(0.01, -1e-4), None, "mem_intensity must be >= 0"),
        (np.full(4, 2e9), np.full(4, 0.01), _bad_at(1.0, 0.0), "base_cpi must be positive"),
        (np.full(4, 2e9), np.full(4, 0.01), -1.0, "base_cpi must be positive"),
        # Several bad arguments: the guards run in order.
        (_bad_at(2e9, 0.0), _bad_at(0.01, -1.0), -1.0, "frequency must be positive"),
        (np.full(4, 2e9), _bad_at(0.01, -1.0), -1.0, "mem_intensity must be >= 0"),
    ],
)
def test_every_guard_still_raises(cfg, func, frequency, mem_intensity, base_cpi, message):
    """Each argument guard fires on a single bad core (or a bad scalar
    ``base_cpi``) with its message; ``activity_factor`` reaches them
    through ``compute_fraction``."""
    with pytest.raises(ValueError, match=message):
        _call(func, cfg, frequency, mem_intensity, base_cpi)


@pytest.mark.parametrize("bad", [-0.1, 1.1])
def test_compute_intensity_guards_still_raise_first(cfg, bad):
    # The compute-intensity range check runs before compute_fraction's
    # guards, so it wins even when the frequency is bad too.
    with pytest.raises(ValueError, match=r"compute_intensity must be within \[0, 1\]"):
        activity_factor(cfg, np.zeros(4), np.full(4, 0.01), _bad_at(0.5, bad))
