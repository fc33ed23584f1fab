"""One-row fault application: actuator filtering, stuck-level capture,
realized counts.

Each case applies a campaign through a one-row :class:`FaultPlanes` on
one row of stuck-level and counter state, exactly as the kernel applies
every row of a stack to its own rows of that state.
"""

import numpy as np

from repro.faults import (
    ActuatorFault,
    CoreDeathFault,
    FaultCampaign,
    TelemetryBlackout,
)
from repro.faults.campaign import SENSOR_CHANNELS
from repro.faults.injector import COUNT_KINDS, FaultPlanes


class OneRow:
    """A campaign's planes plus one row of injection state."""

    def __init__(self, campaign):
        self.planes = FaultPlanes([campaign])
        self.stuck_levels = np.full((1, campaign.n_cores), -1, dtype=int)
        self.counts = np.zeros((1, len(COUNT_KINDS)), dtype=np.int64)

    @property
    def tallies(self):
        return dict(zip(COUNT_KINDS, self.counts[0].tolist()))

    def reset(self):
        """Clear the row as :meth:`EpochKernel.reset` clears its rows."""
        self.stuck_levels.fill(-1)
        self.counts.fill(0)

    def levels(self, epoch, current, commanded):
        return self.planes.actuate(
            self.planes.rows(epoch),
            np.asarray(current)[None],
            np.asarray(commanded)[None],
            self.stuck_levels,
            self.counts,
        )[0]

    def dead(self, epoch):
        return self.planes.dead(self.planes.rows(epoch), self.counts)[0]

    def blackout(self, epoch):
        black = self.planes.blackout(self.planes.rows(epoch), self.counts)[0]
        return frozenset(c for c, on in zip(SENSOR_CHANNELS, black) if on)


def make_row(**kwargs):
    return OneRow(FaultCampaign(n_cores=4, **kwargs))


class TestEffectiveLevels:
    def test_healthy_actuators_pass_commands_through(self):
        row = make_row()
        current = np.array([0, 1, 2, 3])
        commanded = np.array([3, 2, 1, 0])
        np.testing.assert_array_equal(row.levels(0, current, commanded), commanded)

    def test_drop_holds_current_level(self):
        row = make_row(
            actuator_faults=(ActuatorFault(core=1, start_epoch=0, duration=2, mode="drop"),)
        )
        current = np.array([0, 3, 0, 0])
        commanded = np.array([2, 0, 2, 2])
        effective = row.levels(0, current, commanded)
        np.testing.assert_array_equal(effective, [2, 3, 2, 2])
        # after the window, commands land again
        effective = row.levels(2, current, commanded)
        np.testing.assert_array_equal(effective, commanded)

    def test_stuck_freezes_at_level_in_force_when_fault_began(self):
        row = make_row(
            actuator_faults=(ActuatorFault(core=2, start_epoch=1, duration=3, mode="stuck"),)
        )
        # epoch 0: healthy
        row.levels(0, np.full(4, 1), np.full(4, 2))
        # epoch 1: fault begins with level 2 in force — capture it
        effective = row.levels(1, np.full(4, 2), np.full(4, 3))
        assert effective[2] == 2
        # epoch 2-3: commands keep changing, the capture holds
        effective = row.levels(2, effective, np.full(4, 0))
        assert effective[2] == 2
        effective = row.levels(3, effective, np.full(4, 1))
        assert effective[2] == 2
        # epoch 4: fault cleared, command lands
        effective = row.levels(4, effective, np.full(4, 1))
        assert effective[2] == 1

    def test_cleared_stuck_fault_refreezes_at_new_level(self):
        row = make_row(
            actuator_faults=(
                ActuatorFault(core=0, start_epoch=0, duration=1, mode="stuck"),
                ActuatorFault(core=0, start_epoch=3, duration=1, mode="stuck"),
            )
        )
        effective = row.levels(0, np.full(4, 3), np.full(4, 0))
        assert effective[0] == 3
        row.levels(1, effective, np.full(4, 1))
        row.levels(2, np.full(4, 1), np.full(4, 1))
        # second window freezes at the level now in force, not the old capture
        effective = row.levels(3, np.full(4, 1), np.full(4, 2))
        assert effective[0] == 1

    def test_returns_int_dtype(self):
        row = make_row()
        effective = row.levels(0, np.zeros(4, dtype=int), np.ones(4, dtype=int))
        assert effective.dtype.kind == "i"


class TestDeadMaskAndCounts:
    def test_dead_mask_delegates_to_campaign(self):
        row = make_row(core_deaths=(CoreDeathFault(core=3, start_epoch=1, duration=1),))
        assert not row.dead(0).any()
        np.testing.assert_array_equal(row.dead(1), [False, False, False, True])

    def test_counts_accumulate_realized_samples(self):
        row = make_row(
            core_deaths=(CoreDeathFault(core=0, start_epoch=0, duration=2),),
            actuator_faults=(
                ActuatorFault(core=1, start_epoch=0, duration=2, mode="drop"),
                ActuatorFault(core=2, start_epoch=0, duration=1, mode="stuck"),
            ),
            blackouts=(),
        )
        current = np.zeros(4, dtype=int)
        for epoch in range(3):
            row.dead(epoch)
            row.levels(epoch, current, current)
            row.blackout(epoch)
        assert row.tallies == {"dead": 2, "dropped": 2, "stuck": 1, "blackout": 0}

    def test_blackout_counts_every_core_per_channel(self):
        row = make_row(
            blackouts=(TelemetryBlackout(start_epoch=0, duration=2, channels=("power", "perf")),)
        )
        assert row.blackout(0) == {"power", "perf"}
        assert row.tallies["blackout"] == 4 * 2

    def test_reset_clears_state_and_counters(self):
        row = make_row(
            core_deaths=(CoreDeathFault(core=0, start_epoch=0),),
            actuator_faults=(ActuatorFault(core=1, start_epoch=0, mode="stuck"),),
        )
        row.dead(0)
        row.levels(0, np.full(4, 2), np.full(4, 3))
        assert row.tallies["dead"] == 1
        row.reset()
        assert row.tallies == {"dead": 0, "dropped": 0, "stuck": 0, "blackout": 0}
        # the stuck capture is forgotten: next epoch re-freezes at current
        effective = row.levels(5, np.full(4, 1), np.full(4, 3))
        assert effective[1] == 1

    def test_n_cores_property(self):
        assert make_row().planes.n_cores == 4

    def test_deterministic_replay_after_reset(self):
        row = OneRow(FaultCampaign.random(4, 30, rate=0.3, seed=11))
        rng = np.random.default_rng(0)
        currents = rng.integers(0, 4, size=(30, 4))
        commands = rng.integers(0, 4, size=(30, 4))

        def trace():
            return np.stack(
                [row.levels(e, currents[e], commands[e]).copy() for e in range(30)]
            )

        first = trace()
        row.reset()
        np.testing.assert_array_equal(first, trace())
