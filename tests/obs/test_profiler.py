"""Phase profiler: per-epoch accumulation and breakdown aggregation."""

import pytest

from repro.kernel import EpochKernel
from repro.kernel.policies import build_batch_policy
from repro.manycore import SensorSuite, default_system
from repro.obs import NESTED_IN, PHASES, BufferRecorder, PhaseProfiler, TimingBreakdown
from repro.sim import standard_controllers
from repro.sim.simulator import run_stack
from repro.workloads import mixed_workload


class TestPhaseProfiler:
    def test_repeated_add_sums_within_an_epoch(self):
        prof = PhaseProfiler()
        prof.add("plant", 0.25)
        prof.add("plant", 0.25)
        prof.add("decide", 1.0)
        row = prof.end_epoch()
        assert row == {"plant": 0.5, "decide": 1.0}

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError, match="unknown phase"):
            PhaseProfiler().add("network", 1.0)

    def test_breakdown_aggregates_across_epochs(self):
        prof = PhaseProfiler()
        for _ in range(4):
            prof.add("decide", 2.0)
            prof.add("plant", 1.0)
            prof.end_epoch()
        breakdown = prof.breakdown()
        assert breakdown.n_epochs == 4
        assert breakdown.totals == {"decide": 8.0, "plant": 4.0}
        assert breakdown.mean("decide") == 2.0
        assert breakdown.mean("sensor") == 0.0  # never recorded

    def test_end_share_keeps_the_row_decide_and_splits_the_rest(self):
        prof = PhaseProfiler()
        row = prof.end_share({"sensor": 0.5, "decide": 3.0, "plant": 1.0}, 2.0, 2)
        assert row == {"sensor": 0.25, "decide": 2.0, "plant": 0.5}
        assert list(row) == ["sensor", "decide", "plant"]
        assert prof.n_epochs == 1

    def test_end_epoch_closes_the_row(self):
        prof = PhaseProfiler()
        prof.add("decide", 1.0)
        assert prof.end_epoch() == {"decide": 1.0}
        assert prof.end_epoch() == {}  # fresh row, nothing recorded
        assert prof.n_epochs == 2


class TestTimingBreakdown:
    def test_dict_round_trip(self):
        breakdown = TimingBreakdown(
            totals={"decide": 3.0, "plant": 1.5}, n_epochs=3
        )
        data = breakdown.as_dict()
        assert data["n_epochs"] == 3
        assert set(data["totals"]) == set(PHASES)
        assert data["means"]["decide"] == 1.0
        restored = TimingBreakdown.from_dict(data)
        assert restored.n_epochs == 3
        assert restored.totals["decide"] == 3.0
        assert restored.mean("plant") == 0.5

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(ValueError, match="TimingBreakdown"):
            TimingBreakdown.from_dict({"totals": 3})
        with pytest.raises(ValueError, match="TimingBreakdown"):
            TimingBreakdown.from_dict({"totals": {}, "n_epochs": "ten"})

    def test_zero_epochs_mean_is_zero(self):
        assert TimingBreakdown(totals={"decide": 1.0}, n_epochs=0).mean("decide") == 0.0

    def test_nested_phases_declared_within_measured_parents(self):
        assert set(NESTED_IN) < set(PHASES)
        assert set(NESTED_IN.values()) <= set(PHASES)


CFG = default_system(n_cores=4, n_levels=3, budget_fraction=0.6)
WORKLOAD = mixed_workload(4, seed=0)


class RowKeepingProfiler(PhaseProfiler):
    """Keeps the stack's epoch rows, as :meth:`end_epoch` returns them."""

    def __init__(self):
        super().__init__()
        self.rows = []

    def end_epoch(self):
        row = super().end_epoch()
        self.rows.append(row)
        return row


def _profiled_stack(name, lengths, sensors=None):
    """A ragged stack of ``name`` rows run under one profiler, each row
    traced: ``(results, stack profiler, per-row event lists)``."""
    cfgs = [CFG.with_budget(CFG.power_budget * (0.8 + 0.2 * r)) for r in range(len(lengths))]
    kernel = EpochKernel(cfgs, [WORKLOAD] * len(cfgs), sensors=sensors)
    factory = standard_controllers(seed=0)[name]
    # Held: a lone controller's policy is its own stack, which sees it
    # through a weak proxy.
    controllers = [factory(cfg) for cfg in cfgs]
    policy = build_batch_policy(controllers)
    policy.reset()
    profiler = RowKeepingProfiler()
    recorders = [BufferRecorder() for _ in cfgs]
    results = run_stack(kernel, policy, lengths, recorders=recorders, profiler=profiler)
    return results, profiler, [rec.events for rec in recorders]


class TestStackShares:
    """A stack's profile splits per row: each row's ``decide`` is its own
    ``decision_time``, every other phase an equal share of the epoch."""

    @pytest.mark.parametrize("name", ["od-rl", "static-uniform"])
    def test_row_totals_sum_to_the_stack(self, name):
        lengths = [9, 6, 4]
        sensors = [SensorSuite.exact(), None, SensorSuite.exact()]
        results, profiler, events = _profiled_stack(name, lengths, sensors)
        stack = profiler.breakdown().totals
        for phase in PHASES:
            rows = sum(r.extras["timing"]["totals"][phase] for r in results)
            assert rows == pytest.approx(stack.get(phase, 0.0), rel=1e-9, abs=0.0)
        assert stack["sensor"] > 0.0
        for result, n, row_events in zip(results, lengths, events):
            timing = result.extras["timing"]
            assert timing["n_epochs"] == n
            assert timing["totals"]["decide"] == pytest.approx(
                sum(result.decision_time.tolist()), rel=1e-9
            )
            (end,) = [e for e in row_events if e["type"] == "run_end"]
            assert end["timing"] == timing
            phases = [e["phases"] for e in row_events if e["type"] == "epoch"]
            assert [p["decide"] for p in phases] == result.decision_time.tolist()

    def test_one_row_keeps_the_stack_timing(self):
        (result,), profiler, (row_events,) = _profiled_stack("pid", [7])
        assert result.extras["timing"] == profiler.breakdown().as_dict()
        phases = [e["phases"] for e in row_events if e["type"] == "epoch"]
        assert phases == profiler.rows
