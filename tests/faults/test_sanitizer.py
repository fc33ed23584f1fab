"""TelemetrySanitizer: reject, hold-last-good, allocation-neutral fallback."""

import numpy as np
import pytest

from repro.faults import SanitizedTelemetry, SanitizerPolicy, TelemetrySanitizer

N = 4
GOOD_POWER = np.array([2.0, 3.0, 1.5, 2.5])
GOOD_INSTR = np.array([1e9, 2e9, 5e8, 1.5e9])
GOOD_TEMP = np.array([320.0, 330.0, 315.0, 325.0])
ALLOCATION = np.array([4.0, 4.0, 4.0, 4.0])


def feed(sanitizer, power=GOOD_POWER, instructions=GOOD_INSTR, temperature=GOOD_TEMP):
    return sanitizer.sanitize(power, instructions, temperature, ALLOCATION)


class TestPolicyValidation:
    def test_defaults_are_sane(self):
        policy = SanitizerPolicy()
        assert policy.max_staleness_epochs == 5
        assert policy.power_floor_w > 0

    def test_negative_staleness_rejected(self):
        with pytest.raises(ValueError, match="max_staleness_epochs"):
            SanitizerPolicy(max_staleness_epochs=-1)

    def test_negative_power_floor_rejected(self):
        with pytest.raises(ValueError, match="power_floor_w"):
            SanitizerPolicy(power_floor_w=-0.1)

    def test_sanitizer_rejects_nonpositive_core_count(self):
        with pytest.raises(ValueError, match="n_cores"):
            TelemetrySanitizer(0)


class TestAcceptance:
    def test_healthy_readings_pass_through_untouched(self):
        out = feed(TelemetrySanitizer(N))
        assert isinstance(out, SanitizedTelemetry)
        np.testing.assert_array_equal(out.power, GOOD_POWER)
        np.testing.assert_array_equal(out.instructions, GOOD_INSTR)
        np.testing.assert_array_equal(out.temperature, GOOD_TEMP)
        assert out.trusted.all()
        assert not out.staleness.any()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda p, i, t: (p * np.where(np.arange(N) == 1, np.nan, 1.0), i, t),
            lambda p, i, t: (p + np.where(np.arange(N) == 1, np.inf, 0.0), i, t),
            lambda p, i, t: (np.where(np.arange(N) == 1, 0.0, p), i, t),
            lambda p, i, t: (p, np.where(np.arange(N) == 1, -1.0, i), t),
            lambda p, i, t: (p, np.where(np.arange(N) == 1, np.nan, i), t),
            lambda p, i, t: (p, i, np.where(np.arange(N) == 1, 50.0, t)),
            lambda p, i, t: (p, i, np.where(np.arange(N) == 1, np.nan, t)),
        ],
        ids=[
            "nan-power", "inf-power", "zero-power", "negative-instr",
            "nan-instr", "cold-temp", "nan-temp",
        ],
    )
    def test_implausible_reading_marks_core_untrusted(self, corrupt):
        sanitizer = TelemetrySanitizer(N)
        power, instructions, temperature = corrupt(
            GOOD_POWER.copy(), GOOD_INSTR.copy(), GOOD_TEMP.copy()
        )
        out = feed(sanitizer, power, instructions, temperature)
        np.testing.assert_array_equal(out.trusted, np.arange(N) != 1)
        assert sanitizer.rejected_samples == 1
        # outputs are always finite and physical, whatever came in
        assert np.isfinite(out.power).all()
        assert np.isfinite(out.instructions).all()
        assert np.isfinite(out.temperature).all()


class TestHoldAndFallback:
    def test_hold_last_good_within_staleness_window(self):
        sanitizer = TelemetrySanitizer(N, SanitizerPolicy(max_staleness_epochs=2))
        feed(sanitizer)  # establish last-good
        bad_power = GOOD_POWER.copy()
        bad_power[0] = np.nan
        for epoch in range(2):
            out = feed(sanitizer, power=bad_power)
            assert out.power[0] == GOOD_POWER[0]
            assert out.instructions[0] == GOOD_INSTR[0]
            assert not out.trusted[0]
            assert out.staleness[0] == epoch + 1

    def test_fallback_beyond_staleness_window(self):
        sanitizer = TelemetrySanitizer(N, SanitizerPolicy(max_staleness_epochs=1))
        feed(sanitizer)
        bad_power = GOOD_POWER.copy()
        bad_power[0] = 0.0
        feed(sanitizer, power=bad_power)  # held
        out = feed(sanitizer, power=bad_power)  # past the window
        assert out.power[0] == ALLOCATION[0]
        assert out.instructions[0] == 0.0
        assert out.temperature[0] == sanitizer.policy.fallback_temperature_k
        assert not out.trusted[0]
        assert sanitizer.fallback_samples == 1

    def test_core_with_no_history_falls_back_immediately(self):
        sanitizer = TelemetrySanitizer(N)
        bad_power = GOOD_POWER.copy()
        bad_power[2] = np.nan
        out = feed(sanitizer, power=bad_power)
        assert out.power[2] == ALLOCATION[2]
        assert out.instructions[2] == 0.0
        assert sanitizer.fallback_samples == 1

    def test_recovery_clears_staleness(self):
        sanitizer = TelemetrySanitizer(N)
        bad_power = GOOD_POWER.copy()
        bad_power[0] = np.nan
        feed(sanitizer, power=bad_power)
        out = feed(sanitizer)
        assert out.trusted.all()
        assert out.staleness[0] == 0
        assert out.power[0] == GOOD_POWER[0]

    def test_counters_and_reset(self):
        sanitizer = TelemetrySanitizer(N, SanitizerPolicy(max_staleness_epochs=0))
        bad_power = np.zeros(N)
        feed(sanitizer, power=bad_power)
        assert sanitizer.rejected_samples == N
        assert sanitizer.fallback_samples == N
        sanitizer.reset()
        assert sanitizer.rejected_samples == 0
        assert sanitizer.fallback_samples == 0
        # held state is forgotten too: the next bad epoch cannot hold
        feed(sanitizer)
        sanitizer.reset()
        out = feed(sanitizer, power=bad_power)
        np.testing.assert_array_equal(out.power, ALLOCATION)

    def test_shape_mismatch_rejected(self):
        sanitizer = TelemetrySanitizer(N)
        with pytest.raises(ValueError, match="power"):
            sanitizer.sanitize(np.ones(N + 1), GOOD_INSTR, GOOD_TEMP, ALLOCATION)
        with pytest.raises(ValueError, match="allocation"):
            sanitizer.sanitize(GOOD_POWER, GOOD_INSTR, GOOD_TEMP, np.ones(2))

    def test_zero_instructions_with_live_power_is_trusted(self):
        """An idle core (0 retired instructions, real power draw) is data,
        not a dropout — only the power channel distinguishes failure."""
        sanitizer = TelemetrySanitizer(N)
        out = feed(sanitizer, instructions=np.zeros(N))
        assert out.trusted.all()
        np.testing.assert_array_equal(out.instructions, np.zeros(N))


class TestBlackoutScheduleTick:
    def test_whole_epoch_blackouts_freeze_the_epsilon_clock(self):
        """Regression (ISSUE 4): a blackout-heavy campaign used to keep
        decaying epsilon through epochs where every agent was masked out,
        so long fault campaigns under-explored once telemetry returned."""
        from repro.faults.campaign import FaultCampaign, TelemetryBlackout
        from repro.manycore.config import default_system
        from repro.sim.simulator import run_controller
        from repro.workloads.suite import mixed_workload

        n_cores, n_epochs, start, duration = 8, 40, 10, 10
        cfg = default_system(n_cores=n_cores, budget_fraction=0.6)
        workload = mixed_workload(n_cores, seed=0)

        from repro.core import ODRLController

        clean = ODRLController(cfg, seed=0)
        run_controller(cfg, workload, clean, n_epochs)
        # The first two decides cannot update (no previous state/action
        # pair yet), so a clean run ticks n_epochs - 2 times.
        assert clean.step_count == n_epochs - 2

        campaign = FaultCampaign(
            n_cores=n_cores,
            blackouts=(TelemetryBlackout(start_epoch=start, duration=duration),),
        )
        dark = ODRLController(cfg, seed=0)
        run_controller(cfg, workload, dark, n_epochs, faults=campaign)
        # Each blacked-out epoch skips its own update, and the first epoch
        # after the outage skips too (its previous sample was fabricated).
        assert dark.step_count == (n_epochs - 2) - (duration + 1)


class TestRunAxis:
    """A sanitizer built for ``(n_runs, n_cores)`` is that many independent
    streams: each row is a one-stream sanitizer fed that row, and a
    finished (inactive) row's counters freeze."""

    def test_rows_match_independent_streams(self):
        rng = np.random.default_rng(3)
        stacked = TelemetrySanitizer((3, N))
        singles = [TelemetrySanitizer(N) for _ in range(3)]
        allocation = np.tile(ALLOCATION, (3, 1))
        for _ in range(12):
            power = np.where(rng.random((3, N)) < 0.3, 0.0, 2.0 + rng.random((3, N)))
            instr = np.where(rng.random((3, N)) < 0.1, np.nan, 1e9 * rng.random((3, N)))
            temp = np.full((3, N), 320.0)
            out = stacked.sanitize(power, instr, temp, allocation)
            for r, single in enumerate(singles):
                row = single.sanitize(power[r], instr[r], temp[r], ALLOCATION)
                for field in ("power", "instructions", "temperature", "trusted"):
                    np.testing.assert_array_equal(getattr(out, field)[r], getattr(row, field))
        assert stacked.rejected_samples.tolist() == [s.rejected_samples for s in singles]
        assert stacked.fallback_samples.tolist() == [s.fallback_samples for s in singles]

    def test_inactive_rows_freeze_their_counters(self):
        stacked = TelemetrySanitizer((2, N))
        dark = np.zeros((2, N))
        for _ in range(8):
            stacked.sanitize(
                dark,
                np.tile(GOOD_INSTR, (2, 1)),
                np.tile(GOOD_TEMP, (2, 1)),
                np.tile(ALLOCATION, (2, 1)),
                active=np.array([True, False]),
            )
        assert stacked.rejected_samples.tolist() == [8 * N, 0]
        assert stacked.fallback_samples.tolist() == [8 * N, 0]

    def test_stacked_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"power must have shape \(2, 4\)"):
            TelemetrySanitizer((2, N)).sanitize(
                GOOD_POWER, GOOD_INSTR, GOOD_TEMP, ALLOCATION
            )
