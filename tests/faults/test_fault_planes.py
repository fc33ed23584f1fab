"""Fault planes: the stacked fault step against one-row kernels.

The kernel applies every run's campaign through stacked mask planes
(:class:`repro.faults.injector.FaultPlanes`) on kernel-owned state.  The
conformance property: on a ragged stack mixing campaign rows and
fault-free rows, every active row equals an ``n_runs=1`` kernel of that
row after every step — levels, power, all three sensed arrays and the
fault counts — and finished rows freeze.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.campaign import (
    SENSOR_CHANNELS,
    ActuatorFault,
    CoreDeathFault,
    FaultCampaign,
    TelemetryBlackout,
)
from repro.faults.injector import COUNT_KINDS, FaultPlanes, compile_planes
from repro.kernel.epoch import EpochKernel
from repro.manycore import default_system
from repro.manycore.sensors import SensorSuite
from repro.workloads import mixed_workload

N_CORES = 4
N_LEVELS = 4
MAX_EPOCHS = 12
FAR = 10**9
CFG = default_system(n_cores=N_CORES, n_levels=N_LEVELS, budget_fraction=0.6)
WL = mixed_workload(N_CORES, seed=1)
ZERO_COUNTS = {"dead": 0, "dropped": 0, "stuck": 0, "blackout": 0}

#: start epochs: inside the run, just past its last epoch, or very far out
_starts = st.one_of(
    st.integers(0, MAX_EPOCHS - 1),
    st.integers(MAX_EPOCHS, MAX_EPOCHS + 3),
    st.just(FAR),
)
_cores = st.integers(0, N_CORES - 1)
_windows = st.one_of(st.none(), st.integers(1, 5))


@st.composite
def _refreezing_stuck(draw):
    """Two stuck windows on one core: the second re-freezes at whatever
    level is in force when it begins."""
    core = draw(_cores)
    start = draw(st.integers(0, MAX_EPOCHS - 2))
    first = draw(st.integers(1, 3))
    gap = draw(st.integers(1, 3))
    return (
        ActuatorFault(core, start, first, "stuck"),
        ActuatorFault(core, start + first + gap, draw(_windows), "stuck"),
    )


@st.composite
def _campaigns(draw):
    deaths = draw(
        st.lists(st.builds(CoreDeathFault, _cores, _starts, _windows), max_size=3)
    )
    actuators = draw(
        st.lists(
            st.builds(
                ActuatorFault,
                _cores,
                _starts,
                _windows,
                st.sampled_from(("drop", "stuck")),
            ),
            max_size=3,
        )
    )
    for pair in draw(st.lists(_refreezing_stuck(), max_size=1)):
        actuators.extend(pair)
    blackouts = draw(
        st.lists(
            st.builds(
                TelemetryBlackout,
                _starts,
                st.integers(1, 4),
                st.lists(
                    st.sampled_from(SENSOR_CHANNELS), min_size=1, max_size=3, unique=True
                ).map(tuple),
            ),
            max_size=2,
        )
    )
    return FaultCampaign(
        n_cores=N_CORES,
        core_deaths=tuple(deaths),
        actuator_faults=tuple(actuators),
        blackouts=tuple(blackouts),
    )


@st.composite
def _stacks(draw):
    """Rows of ``(campaign or None, n_epochs)``; rows may share a campaign."""
    pool = draw(st.lists(_campaigns(), min_size=1, max_size=3))
    n_runs = draw(st.integers(1, 5))
    rows = [
        (
            draw(st.one_of(st.none(), st.sampled_from(pool))),
            draw(st.integers(1, MAX_EPOCHS)),
        )
        for _ in range(n_runs)
    ]
    return rows, draw(st.integers(0, 2**32 - 1)), draw(st.booleans())


def _kernel(campaigns, suites):
    n = len(campaigns)
    return EpochKernel(
        [CFG] * n,
        [WL] * n,
        faults=campaigns,
        sensors=[SensorSuite.exact() for _ in range(n)] if suites else None,
    )


class TestStackedFaultConformance:
    @settings(max_examples=60, deadline=None)
    @given(_stacks())
    def test_ragged_stack_rows_match_one_row_kernels(self, case):
        rows, seed, suites = case
        campaigns = [c for c, _ in rows]
        lengths = np.array([n for _, n in rows])
        horizon = int(lengths.max())
        stack = _kernel(campaigns, suites)
        singles = [_kernel([c], suites) for c in campaigns]
        commands = np.random.default_rng(seed).integers(
            0, N_LEVELS, (horizon, len(rows), N_CORES)
        )
        for e in range(horizon):
            active = lengths > e
            levels = np.where(active[:, None], commands[e], stack.levels)
            obs = stack.step(levels, active=active)
            for r, single in enumerate(singles):
                if active[r]:
                    want = single.step(commands[e, r][None])
                    for field in (
                        "levels",
                        "power",
                        "sensed_power",
                        "sensed_instructions",
                        "sensed_temperature",
                    ):
                        got = getattr(obs, field)[r]
                        assert got.tobytes() == getattr(want, field)[0].tobytes(), (
                            f"epoch {e} row {r} {field}"
                        )
                assert stack.fault_counts(r) == single.fault_counts(0), (
                    f"epoch {e} row {r} counts"
                )
        stack.reset()
        for r in range(len(rows)):
            assert stack.fault_counts(r) == ZERO_COUNTS


class TestPlanes:
    def test_far_start_compiles_to_a_few_segments(self):
        campaign = FaultCampaign(
            n_cores=N_CORES,
            core_deaths=(CoreDeathFault(0, FAR, None),),
            actuator_faults=(ActuatorFault(1, FAR, 3, "stuck"),),
            blackouts=(TelemetryBlackout(FAR, 2, ("perf",)),),
        )
        planes = compile_planes(campaign)
        assert planes.starts == (0, FAR, FAR + 2, FAR + 3)
        assert planes.dead.shape == (4, N_CORES)
        assert planes.blackout.shape == (4, len(SENSOR_CHANNELS))
        row = FaultPlanes([campaign])
        counts = np.zeros((1, len(COUNT_KINDS)), dtype=np.int64)
        assert not row.dead(row.rows(FAR - 1), counts).any()
        assert row.dead(row.rows(FAR + 10**6), counts)[0, 0]
        black = row.blackout(row.rows(FAR + 1), counts)[0]
        assert [c for c, on in zip(SENSOR_CHANNELS, black) if on] == ["perf"]
        assert not row.blackout(row.rows(FAR + 2), counts)[0].any()

    def test_equal_campaigns_share_compiled_planes(self):
        a = FaultCampaign.random(N_CORES, 40, rate=0.3, seed=5)
        b = FaultCampaign.random(N_CORES, 40, rate=0.3, seed=5)
        assert a is not b
        assert compile_planes(a) is compile_planes(b)

    def test_planes_match_campaign_queries(self):
        campaign = FaultCampaign.random(N_CORES, 60, rate=0.4, seed=9)
        planes = compile_planes(campaign)
        for epoch in range(70):
            k = int(np.searchsorted(planes.starts, epoch, side="right")) - 1
            np.testing.assert_array_equal(planes.dead[k], campaign.dead_mask(epoch))
            np.testing.assert_array_equal(planes.drop[k], campaign.drop_mask(epoch))
            np.testing.assert_array_equal(planes.stuck[k], campaign.stuck_mask(epoch))
            channels = {
                c for c, on in zip(SENSOR_CHANNELS, planes.blackout[k]) if on
            }
            assert channels == campaign.blackout_channels(epoch)

    def test_kernel_step_makes_no_injector_call(self, monkeypatch):
        # Each step applies the whole stack through one call per fault
        # plane, never one call per row.
        calls = {"actuate": 0, "dead": 0, "blackout": 0}
        for name in calls:
            original = getattr(FaultPlanes, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(FaultPlanes, name, counted)
        campaign = FaultCampaign.random(N_CORES, 20, rate=0.4, seed=3)
        kernel = _kernel([campaign, None, campaign], suites=False)
        for _ in range(20):
            kernel.step(np.ones((3, N_CORES), dtype=int))
        assert 0 < max(calls.values()) <= 20
        assert kernel.fault_counts(0) == kernel.fault_counts(2)
        assert sum(kernel.fault_counts(0).values()) > 0
        assert kernel.fault_counts(1) == ZERO_COUNTS


@pytest.mark.parametrize("kind", ["dead", "dropped", "stuck", "blackout"])
def test_counts_are_a_fresh_dict(kind):
    kernel = _kernel([FaultCampaign.none(N_CORES)], suites=False)
    counts = kernel.fault_counts(0)
    counts[kind] = 99
    assert kernel.fault_counts(0) == ZERO_COUNTS


class TestCampaignsOnly:
    def test_kernel_keeps_each_rows_campaign(self):
        campaign = FaultCampaign.random(N_CORES, 20, rate=0.4, seed=3)
        kernel = _kernel([campaign, None], suites=False)
        assert kernel.campaigns == [campaign, None]

    @pytest.mark.parametrize("entry", [object(), "campaign", 0.1])
    def test_other_entries_raise_type_error(self, entry):
        with pytest.raises(TypeError, match="FaultCampaign or None"):
            _kernel([entry], suites=False)
