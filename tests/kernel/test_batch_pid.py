"""Differential tests of the stacked PI power cap against a serial oracle.

:class:`~repro.kernel.policies.BatchPID` holds one
:class:`~repro.baselines.pid.PIDCappingController` per row.  The oracle,
:class:`SerialPI`, is the velocity-form PI step written out in Python
floats, one run at a time, as the controller's docstring states it.  A
ragged stack is driven side by side with one oracle per row on the same
sensed power, and at every epoch the levels and the internal command /
previous error must agree bit for bit.  Power values are drawn
from a dyadic grid, so errors and commands are exact binary fractions:
commands land on ``x.5`` (where half-to-even rounding differs from
half-up), clip at both ends of the ladder, and blackout rows read all
zeros.  A NaN command must raise, as the serial ``int(round(nan))`` does.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.pid import PIDCappingController
from repro.kernel.epoch import EpochKernel, KernelObservation
from repro.kernel.policies import BatchPID, PerRunPolicy, build_batch_policy
from repro.manycore import default_system
from repro.manycore.chip import EpochObservation
from repro.sim.interface import Controller
from repro.sim.simulator import run_stack
from repro.workloads import mixed_workload

N_CORES = 4
#: Dyadic budgets and per-core powers: every error is an exact fraction.
BUDGETS = (8.0, 16.0, 32.0)
POWERS = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 8.0, 16.0, 64.0)
GAINS = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0)


class SerialPI(Controller):
    """The PI power cap one run at a time, in Python floats: the reference
    :class:`BatchPID` must reproduce bit for bit.

    ``command += kp * (error - prev_error) + ki * error`` with ``error =
    (budget - power) / budget`` on the summed sensed power, the first
    step taking the integral term alone; the command is clipped to the
    ladder and rounded half to even at actuation.
    """

    name = "pid"

    def __init__(self, cfg, kp: float = 2.0, ki: float = 1.5) -> None:
        super().__init__(cfg)
        self.kp = kp
        self.ki = ki
        self.reset()

    def reset(self) -> None:
        self._prev_error = None
        self._command = (self.n_levels - 1) / 2.0

    def decide(self, obs: EpochObservation | None) -> np.ndarray:
        if obs is None:
            return self._full(int(round(self._command)))
        power = float(np.sum(obs.sensed_power))
        error = (self.cfg.power_budget - power) / self.cfg.power_budget
        delta = self.ki * error
        if self._prev_error is not None:
            delta += self.kp * (error - self._prev_error)
        self._prev_error = error
        self._command = float(np.clip(self._command + delta, 0.0, self.n_levels - 1))
        return self._full(int(round(self._command)))


def _cfg(n_levels: int, budget: float):
    return default_system(n_cores=N_CORES, n_levels=n_levels).with_budget(budget)


def _observation(sensed_power: np.ndarray) -> KernelObservation:
    """A kernel observation whose only meaningful field is the sensed
    power (the one PID reads); the rest are zeros of the right shape."""
    zeros = np.zeros_like(sensed_power)
    return KernelObservation(
        epoch=0,
        time=0.0,
        levels=np.zeros(sensed_power.shape, dtype=int),
        power=zeros,
        instructions=zeros,
        temperature=zeros,
        mem_intensity=zeros,
        compute_intensity=zeros,
        sensed_power=sensed_power,
        sensed_instructions=zeros,
        sensed_temperature=zeros,
        chip_power=zeros.sum(axis=1),
        chip_instructions=zeros.sum(axis=1),
    )


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@st.composite
def _scenarios(draw):
    n_runs = draw(st.integers(1, 6), label="n_runs")
    n_levels = draw(st.integers(2, 9), label="n_levels")
    kp = draw(st.sampled_from(GAINS), label="kp")
    ki = draw(st.sampled_from(GAINS), label="ki")
    if kp == 0 and ki == 0:
        ki = 1.0
    budgets = draw(
        st.lists(st.sampled_from(BUDGETS), min_size=n_runs, max_size=n_runs),
        label="budgets",
    )
    lengths = draw(
        st.lists(st.integers(1, 12), min_size=n_runs, max_size=n_runs),
        label="lengths",
    )
    n_epochs = max(lengths)
    cell = st.sampled_from(POWERS)
    if draw(st.booleans(), label="with_specials"):
        cell = st.one_of(cell, st.sampled_from((np.nan, np.inf)))
    rows = st.one_of(
        st.lists(cell, min_size=N_CORES, max_size=N_CORES),
        st.just([0.0] * N_CORES),  # a sensor blackout
    )
    powers = draw(
        st.lists(
            st.lists(rows, min_size=n_runs, max_size=n_runs),
            min_size=n_epochs,
            max_size=n_epochs,
        ),
        label="powers",
    )
    return n_levels, kp, ki, budgets, lengths, np.array(powers, dtype=float)


class TestBatchPIDDifferential:
    @settings(max_examples=300, deadline=None)
    @given(_scenarios())
    def test_ragged_stack_matches_serial_rows(self, scenario):
        n_levels, kp, ki, budgets, lengths, powers = scenario
        serial = [SerialPI(_cfg(n_levels, b), kp=kp, ki=ki) for b in budgets]
        # Held: a lone controller's policy is its own stack, which sees it
        # through a weak proxy.
        ctrls = [PIDCappingController(_cfg(n_levels, b), kp=kp, ki=ki) for b in budgets]
        batch = build_batch_policy(ctrls)
        assert isinstance(batch, BatchPID)
        batch.reset()
        n_runs = len(budgets)
        rows = [None] * n_runs
        bobs = None
        for e in range(powers.shape[0] + 1):
            active = np.array([length > e for length in lengths])
            if not active.any():
                break
            expected = {}
            raised = False
            for r in np.flatnonzero(active):
                try:
                    expected[r] = serial[r].decide(rows[r])
                except ValueError:
                    raised = True
            if raised:
                with pytest.raises(ValueError, match="non-finite"):
                    batch.decide(bobs, active)
                return
            levels = batch.decide(bobs, active)
            assert levels.shape == (n_runs, N_CORES)
            assert levels.dtype.kind == "i"
            for r, ctrl in enumerate(serial):
                if r in expected:
                    assert np.array_equal(levels[r], expected[r]), (e, r)
                assert _bits(batch._command[r]) == _bits(ctrl._command), (e, r)
                assert bool(batch._has_prev[r]) == (ctrl._prev_error is not None)
                if ctrl._prev_error is not None:
                    assert _bits(batch._prev_error[r]) == _bits(ctrl._prev_error)
            if e < powers.shape[0]:
                bobs = _observation(np.ascontiguousarray(powers[e]))
                rows = [bobs.row(r) for r in range(n_runs)]

    def test_half_commands_round_to_even(self):
        # Eight levels start the command at 3.5; a zero error holds it there,
        # and an error of -0.5 (power 1.5x budget) steps it by -0.5.
        ctrls = [PIDCappingController(_cfg(8, 16.0), kp=0.0, ki=1.0)]
        policy = build_batch_policy(ctrls)
        policy.reset()
        assert policy.decide(None)[0, 0] == 4  # round(3.5) == 4
        on_budget = _observation(np.full((1, N_CORES), 4.0))
        assert policy.decide(on_budget)[0, 0] == 4
        over = _observation(np.full((1, N_CORES), 6.0))
        assert policy.decide(over)[0, 0] == 3  # 3.0
        assert policy.decide(over)[0, 0] == 2  # 2.5 rounds to even
        assert policy._command[0] == 2.5
        assert policy.decide(over)[0, 0] == 2  # 2.0
        assert policy.decide(over)[0, 0] == 2  # 1.5 rounds to even
        assert policy.decide(over)[0, 0] == 1  # 1.0
        assert policy.decide(over)[0, 0] == 0  # 0.5 rounds to even

    @pytest.mark.parametrize("power, level", [(0.0, 7), (1e6, 0)])
    def test_clips_at_both_ends(self, power, level):
        policy = build_batch_policy(
            [PIDCappingController(_cfg(8, b)) for b in BUDGETS]
        )
        policy.reset()
        obs = _observation(np.full((len(BUDGETS), N_CORES), power))
        for _ in range(20):
            levels = policy.decide(obs)
        assert (levels == level).all()
        assert (policy._command == float(level)).all()

    def test_nan_command_raises(self):
        ctrl = SerialPI(_cfg(8, 16.0))
        lone = PIDCappingController(_cfg(8, 16.0))
        policy = build_batch_policy([lone])
        policy.reset()
        obs = _observation(np.array([[1.0, np.nan, 1.0, 1.0]]))
        with pytest.raises(ValueError):
            ctrl.decide(obs.row(0))
        with pytest.raises(ValueError, match="non-finite"):
            policy.decide(obs)

    def test_nan_in_finished_row_does_not_raise(self):
        policy = build_batch_policy(
            [PIDCappingController(_cfg(8, 16.0)) for _ in range(2)]
        )
        policy.reset()
        obs = _observation(np.array([[1.0] * N_CORES, [np.nan] * N_CORES]))
        levels = policy.decide(obs, np.array([True, False]))
        serial = SerialPI(_cfg(8, 16.0))
        assert np.array_equal(levels[0], serial.decide(obs.row(0)))
        assert policy._command[1] == 3.5  # the finished row never moved


class TestBatchPIDOnKernel:
    def test_run_stack_is_trace_equal_to_per_run(self):
        from repro.faults import FaultCampaign
        from repro.parallel import assert_trace_equal

        n_epochs = [40, 25, 40]
        cfgs = [_cfg(8, b) for b in (12.0, 18.0, 30.0)]
        workload = mixed_workload(N_CORES, seed=3)
        faults = FaultCampaign.random(N_CORES, 40, rate=0.3, seed=5)

        def run(policy):
            kernel = EpochKernel(
                cfgs, [workload] * 3, faults=[faults, None, faults]
            )
            policy.reset()
            return run_stack(kernel, policy, n_epochs)

        stacked = run(build_batch_policy([PIDCappingController(c) for c in cfgs]))
        per_run = run(PerRunPolicy([SerialPI(c) for c in cfgs]))
        for r, (a, b) in enumerate(zip(per_run, stacked)):
            assert_trace_equal(a, b, context=f"row {r}")


class TestRouting:
    """Groups :class:`BatchPID` does not model stay on the serial decide
    (mixed gains are pinned in ``test_fallback_regression.py``)."""

    def test_subclass_stays_per_run(self):
        class Tuned(PIDCappingController):
            pass

        cfg = _cfg(8, 16.0)
        group = [PIDCappingController(cfg), Tuned(cfg)]
        assert isinstance(build_batch_policy(group), PerRunPolicy)

    def test_different_vf_tables_stay_per_run(self):
        group = [PIDCappingController(_cfg(8, 16.0)), PIDCappingController(_cfg(5, 16.0))]
        assert isinstance(build_batch_policy(group), PerRunPolicy)
