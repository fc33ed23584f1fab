"""Unit coverage for the batched policy layer's option branches.

The conformance matrix drives the default controller configurations end
to end; these tests pin the branches it never reaches — non-default
OD-RL options (SARSA, absolute actions, energy-weighted rewards, raw
telemetry), the graceful-degradation repair path, the per-field
compatibility checks behind :func:`build_batch_policy`'s fallback, and
the MaxBIPS infeasible-budget early exit.  Every option branch that
batches is also checked bit-for-bit against the serial controllers it
replaces; the batched MaxBIPS DP and the stacked estimator inversion are
property-tested against per-row serial ``solve_dp`` / ``predict``, and
``decide_seconds`` of every vectorized policy against the stack's wall
time.
"""

from __future__ import annotations

import dataclasses
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import GreedyAscentController, SteepestDropController
from repro.baselines.estimator import LevelPredictions, PowerPerfEstimator
from repro.baselines.maxbips import MaxBIPSController, solve_dp
from repro.core.agent import QLearningPopulation
from repro.core.controller import ODRLController
from repro.core.reward import RewardParams
from repro.core.state import StateEncoder
from repro.faults.sanitizer import SanitizerPolicy
from repro.kernel.epoch import EpochKernel
from repro.kernel.policies import (
    BatchGreedy,
    BatchMaxBIPS,
    BatchODRL,
    PerRunPolicy,
    build_batch_policy,
)
from repro.manycore import default_system
from repro.manycore.hetero import big_little_map
from repro.sim.interface import Controller
from repro.workloads import mixed_workload

N_CORES = 4
CFG = default_system(n_cores=N_CORES, n_levels=3, budget_fraction=0.6)
WL = mixed_workload(N_CORES, seed=0)
N_RUNS = 2


def _drive(policy, n_epochs, active=None):
    """Advance a batch policy against a fresh kernel; return the level
    trajectory it produced (one ``(n_runs, n_cores)`` array per epoch)."""
    kernel = EpochKernel([CFG] * policy.n_runs, [WL] * policy.n_runs)
    trajectory = []
    bobs = None
    for _ in range(n_epochs):
        levels = policy.decide(bobs, active)
        trajectory.append(np.array(levels, copy=True))
        bobs = kernel.step(levels, active=active)
    return trajectory, bobs


def _serial_trajectory(controllers, n_epochs):
    """The same telemetry loop, decided by the serial controllers."""
    n_runs = len(controllers)
    kernel = EpochKernel([CFG] * n_runs, [WL] * n_runs)
    trajectory = []
    rows = [None] * n_runs
    for _ in range(n_epochs):
        levels = np.stack([c.decide(rows[r]) for r, c in enumerate(controllers)])
        trajectory.append(levels.copy())
        bobs = kernel.step(levels)
        rows = [bobs.row(r) for r in range(n_runs)]
    return trajectory


class TestODRLOptionParity:
    """Non-default OD-RL options must batch, and batch bit-identically."""

    @pytest.mark.parametrize(
        "options",
        [
            {"td_rule": "sarsa"},
            {"action_mode": "absolute"},
            {"degradation": False},
            {"reward_params": RewardParams(energy_weight=0.1)},
        ],
        ids=["sarsa", "absolute", "raw-telemetry", "energy-weight"],
    )
    def test_option_batches_bit_identically(self, options):
        batched = build_batch_policy(
            [ODRLController(CFG, seed=s, **options) for s in range(N_RUNS)]
        )
        assert isinstance(batched, BatchODRL)
        got, _ = _drive(batched, n_epochs=12)
        want = _serial_trajectory(
            [ODRLController(CFG, seed=s, **options) for s in range(N_RUNS)],
            n_epochs=12,
        )
        for epoch, (g, w) in enumerate(zip(got, want)):
            np.testing.assert_array_equal(g, w, err_msg=f"epoch {epoch}")

    def test_raw_telemetry_reports_no_degradation_extras(self):
        policy = build_batch_policy(
            [ODRLController(CFG, seed=s, degradation=False) for s in range(N_RUNS)]
        )
        assert isinstance(policy, BatchODRL)
        assert policy.degradation_extras(0) is None


class TestODRLDegradation:
    def test_nonfinite_agent_repaired_and_parked(self):
        policy = build_batch_policy(
            [ODRLController(CFG, seed=s) for s in range(N_RUNS)]
        )
        assert isinstance(policy, BatchODRL)
        kernel = EpochKernel([CFG] * N_RUNS, [WL] * N_RUNS)
        bobs = kernel.step(policy.decide(None))
        policy.learner.q[0, 1] = np.nan  # corrupt run 0's agent on core 1
        levels = policy.decide(bobs)
        assert policy.agents_repaired.tolist() == [1, 0]
        assert levels[0, 1] == 0  # safe-state reflex parks the core
        assert np.isfinite(policy.learner.q).all()  # table reinitialized

    def test_all_finite_repair_is_a_no_op(self):
        policy = BatchODRL([ODRLController(CFG, seed=s) for s in range(N_RUNS)])
        _drive(policy, n_epochs=3)
        q_before = policy.learner.q.copy()
        assert not policy.learner.repair_nonfinite(None).any()
        np.testing.assert_array_equal(policy.learner.q, q_before)
        assert policy.agents_repaired.tolist() == [0, 0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_bad_agent_reset_others_kept(self, bad):
        policy = BatchODRL([ODRLController(CFG, seed=s) for s in range(N_RUNS)])
        _drive(policy, n_epochs=4)
        learner = policy.learner
        assert learner.visits[1, 2].sum() > 0
        survivors = learner.q.copy(), learner.visits.copy()
        learner.q[1, 2, 0, 1] = bad
        repaired = learner.repair_nonfinite(None)
        assert repaired.tolist() == [[False] * N_CORES, [False, False, True, False]]
        assert np.all(learner.q[1, 2] == 1.0 / (1.0 - policy.controllers[0].gamma))
        assert learner.visits[1, 2].sum() == 0
        keep = ~repaired
        np.testing.assert_array_equal(learner.q[keep], survivors[0][keep])
        np.testing.assert_array_equal(learner.visits[keep], survivors[1][keep])

    def test_fully_masked_update_learns_nothing(self):
        policy = build_batch_policy(
            [ODRLController(CFG, seed=s) for s in range(N_RUNS)]
        )
        assert isinstance(policy, BatchODRL)
        _drive(policy, n_epochs=3)
        learner = policy.learner
        q_before = learner.q.copy()
        counts_before = learner.step_counts.tolist()
        states = np.zeros((N_RUNS, N_CORES), dtype=int)
        actions = np.zeros((N_RUNS, N_CORES), dtype=int)
        rewards = np.ones((N_RUNS, N_CORES))
        masks = np.zeros((N_RUNS, N_CORES), dtype=bool)
        learner.update(states, actions, rewards, states, actions, mask=masks)
        np.testing.assert_array_equal(learner.q, q_before)
        assert learner.step_counts.tolist() == counts_before

    def test_validated_agents_check_updated_cells(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        policy = build_batch_policy(
            [ODRLController(CFG, seed=s) for s in range(N_RUNS)]
        )
        assert isinstance(policy, BatchODRL)
        assert policy.learner.validate
        _drive(policy, n_epochs=4)  # TD updates run through check_q_table
        assert all(c > 0 for c in policy.learner.step_counts)

    @pytest.mark.parametrize(
        "options",
        [{}, {"td_rule": "sarsa", "degradation": False}],
        ids=["stock", "sarsa-raw"],
    )
    def test_decide_skips_the_learners_argument_checks(self, monkeypatch, options):
        """The decide builds the learner's inputs itself; re-checking their
        shapes and ranges every epoch would only slow it down."""

        def checked(*args, **kwargs):
            raise AssertionError("per-epoch decide ran a public learner check")

        for name in ("act", "update", "_check_states", "_check_active"):
            monkeypatch.setattr(QLearningPopulation, name, checked)
        controllers = [ODRLController(CFG, seed=s, **options) for s in range(N_RUNS)]
        policy = build_batch_policy(controllers)
        assert isinstance(policy, BatchODRL)
        _drive(policy, n_epochs=5, active=np.array([True, False]))
        single = ODRLController(CFG, seed=0, **options)
        _serial_trajectory([single], n_epochs=5)
        assert policy.learner.step_counts[0] == single.step_count > 0

    def test_inactive_rows_skip_reallocation(self):
        policy = build_batch_policy(
            [ODRLController(CFG, realloc_period=3, seed=s) for s in range(N_RUNS)]
        )
        assert isinstance(policy, BatchODRL)
        alloc_frozen = policy.allocation[1].copy()
        active = np.array([True, False])
        _drive(policy, n_epochs=5, active=active)
        # the inactive run's guard and allocation stay exactly as a
        # shorter standalone run left them
        assert policy.guard[1] == 0.0
        np.testing.assert_array_equal(policy.allocation[1], alloc_frozen)


class TestMaxBIPSBatch:
    def test_infeasible_budget_parks_all_cores(self):
        starved = dataclasses.replace(CFG, power_budget=1e-6)
        policy = build_batch_policy(
            [MaxBIPSController(CFG), MaxBIPSController(starved)]
        )
        assert isinstance(policy, BatchMaxBIPS)  # budgets may differ
        levels = policy.decide(None)
        assert (levels[1] == 0).all()  # serial solve_dp's early return
        np.testing.assert_array_equal(levels[0], MaxBIPSController(CFG).decide(None))


def _maxbips_policy(budgets, n_quanta):
    policy = build_batch_policy(
        [
            MaxBIPSController(
                dataclasses.replace(CFG, power_budget=b), n_quanta=n_quanta
            )
            for b in budgets
        ]
    )
    assert isinstance(policy, BatchMaxBIPS)
    return policy


@st.composite
def _dp_case(draw):
    """Stacked DP inputs: power on a coarse grid (equal costs), ips from a
    small set (equal-value ties), budgets mixed per run — some below the
    all-bottom draw (infeasible rows), some so small that top levels cost
    more than ``n_quanta`` quanta."""
    n_runs = draw(st.integers(1, 4))
    n_cores = draw(st.integers(1, 6))
    n_levels = draw(st.integers(1, 4))
    n_quanta = draw(st.integers(2, 40))
    shape = (n_runs, n_cores, n_levels)
    power = np.array(
        draw(st.lists(st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 3.0, 9.0]),
                      min_size=n_runs * n_cores * n_levels,
                      max_size=n_runs * n_cores * n_levels))
    ).reshape(shape)
    ips = np.array(
        draw(st.lists(st.sampled_from([0.0, 1.0, 1.0, 2.0, 2.5]),
                      min_size=power.size, max_size=power.size))
    ).reshape(shape)
    budgets = [
        float(draw(st.sampled_from([0.1, 0.5, 1.0, 1.7, 3.0])) * n_cores)
        for _ in range(n_runs)
    ]
    return power, ips, budgets, n_quanta


class TestMaxBIPSDPDifferential:
    """``_solve_dp_batch`` against per-row serial ``solve_dp``."""

    @settings(max_examples=200, deadline=None)
    @given(_dp_case())
    def test_batched_dp_matches_serial_rows(self, case):
        power, ips, budgets, n_quanta = case
        got = _maxbips_policy(budgets, n_quanta)._solve_dp_batch(power, ips)
        for r, budget in enumerate(budgets):
            want = solve_dp(
                LevelPredictions(power=power[r].copy(), ips=ips[r].copy()),
                budget,
                n_quanta,
            )
            assert np.array_equal(got[r], want), f"run {r}"

    def test_estimator_shaped_tables_match_serial_rows(self):
        rng = np.random.default_rng(3)
        budgets = [20.0, 35.0, 50.0, 5.0, 90.0]
        power = np.cumsum(rng.uniform(0.2, 4.0, (5, 16, 6)), axis=2)
        ips = np.cumsum(rng.uniform(0.0, 1e9, (5, 16, 6)), axis=2)
        got = _maxbips_policy(budgets, 300)._solve_dp_batch(power, ips)
        for r, budget in enumerate(budgets):
            want = solve_dp(LevelPredictions(power[r], ips[r]), budget, 300)
            assert np.array_equal(got[r], want), f"run {r}"


@st.composite
def _telemetry(draw):
    n_runs = draw(st.integers(1, 4))
    size = n_runs * N_CORES
    levels = draw(st.lists(st.integers(0, CFG.n_levels - 1), min_size=size, max_size=size))
    values = st.one_of(st.just(0.0), st.floats(1e-3, 1e10, allow_nan=False))
    instr = draw(st.lists(values, min_size=size, max_size=size))
    power = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 50.0)),
                          min_size=size, max_size=size))
    shape = (n_runs, N_CORES)
    return (
        np.array(levels).reshape(shape),
        np.array(instr).reshape(shape),
        np.array(power).reshape(shape),
    )


class TestStackedEstimator:
    """``predict_tables`` on a stack equals per-row ``predict``, bytewise."""

    @settings(max_examples=100, deadline=None)
    @given(_telemetry(), st.booleans())
    def test_stack_rows_match_predict(self, telemetry, hetero):
        levels, instr, power = telemetry
        estimator = PowerPerfEstimator(
            CFG, hetero=big_little_map(N_CORES) if hetero else None
        )
        power3, ips3 = estimator.predict_tables(levels, instr, power)
        for r in range(levels.shape[0]):
            row = SimpleNamespace(
                levels=levels[r].copy(),
                sensed_instructions=instr[r].copy(),
                sensed_power=power[r].copy(),
            )
            pred = estimator.predict(row)
            assert power3[r].tobytes() == pred.power.tobytes()
            assert ips3[r].tobytes() == pred.ips.tobytes()

    def test_kernel_rows_match_predict(self):
        estimator = PowerPerfEstimator(CFG)
        kernel = EpochKernel([CFG] * 3, [WL] * 3)
        rng = np.random.default_rng(0)
        for _ in range(6):
            bobs = kernel.step(rng.integers(0, CFG.n_levels, (3, N_CORES)))
            power3, ips3 = estimator.predict_tables(
                bobs.levels, bobs.sensed_instructions, bobs.sensed_power
            )
            for r in range(3):
                pred = estimator.predict(bobs.row(r))
                assert power3[r].tobytes() == pred.power.tobytes()
                assert ips3[r].tobytes() == pred.ips.tobytes()


class TestDecideSeconds:
    """Per-run ``decision_time`` attribution of one stacked decide."""

    def _timed(self, policy, bobs, active=None):
        t0 = time.perf_counter()
        policy.decide(bobs, active)
        stack_s = time.perf_counter() - t0
        return stack_s, policy.decide_seconds(stack_s, active)

    def test_per_run_rows_are_own_decide_times(self):
        policy = PerRunPolicy([MaxBIPSController(CFG) for _ in range(3)])
        kernel = EpochKernel([CFG] * 3, [WL] * 3)
        bobs = kernel.step(policy.decide(None))
        active = np.array([True, False, True])
        stack_s, rows = self._timed(policy, bobs, active)
        assert rows.shape == (3,)
        assert (rows[active] > 0).all()
        assert (rows <= stack_s).all()
        assert rows[1] == 0.0  # a finished run decided nothing
        assert np.sum(rows) <= stack_s

    @pytest.mark.parametrize(
        "make, policy_type",
        [
            (lambda s: ODRLController(CFG, seed=s), BatchODRL),
            (lambda s: MaxBIPSController(CFG), BatchMaxBIPS),
            (lambda s: GreedyAscentController(CFG), BatchGreedy),
            (lambda s: SteepestDropController(CFG), BatchGreedy),
        ],
        ids=["od-rl", "maxbips", "greedy-ascent", "steepest-drop"],
    )
    def test_vectorized_rows_sum_to_stack_time(self, make, policy_type):
        policy = build_batch_policy([make(s) for s in range(4)])
        assert type(policy) is policy_type
        kernel = EpochKernel([CFG] * 4, [WL] * 4)
        bobs = kernel.step(policy.decide(None))
        stack_s, rows = self._timed(policy, bobs)
        assert np.sum(rows) == pytest.approx(stack_s)
        assert np.all(rows == rows[0])
        active = np.array([True, True, False, False])
        stack_s, rows = self._timed(policy, bobs, active)
        assert np.sum(rows[active]) == pytest.approx(stack_s)

    def test_batched_results_record_amortized_time(self):
        from repro.sim import run_suite, standard_controllers

        lineup = {"maxbips": standard_controllers(seed=0)["maxbips"]}
        workloads = {f"w{s}": mixed_workload(N_CORES, seed=s) for s in range(3)}
        results = run_suite(CFG, workloads, lineup, 6, batch=True)
        times = np.stack([results["maxbips"][w].decision_time for w in workloads])
        # one vectorized decide per epoch, charged evenly to the 3 runs
        np.testing.assert_array_equal(times, np.broadcast_to(times[0], times.shape))


class _OneLevelController(Controller):
    """Returns a ``(1,)`` level vector: malformed on any multi-core chip."""

    name = "one-level"

    def decide(self, obs):
        return np.array([1])


class TestPerRunLevelShape:
    """A controller's level vector must cover every core, as the serial
    chip has always required: a row assignment would otherwise broadcast
    a scalar or a ``(1,)`` array across the whole row."""

    SHAPE_ERROR = rf"levels must have shape \({N_CORES},\), got \(1,\)"

    def test_policy_rejects_short_level_vector(self):
        policy = PerRunPolicy([_OneLevelController(CFG) for _ in range(N_RUNS)])
        with pytest.raises(ValueError, match=self.SHAPE_ERROR):
            policy.decide(None)

    def test_serial_and_batched_entry_points_both_raise(self):
        from repro.batch import simulate_batch
        from repro.parallel import CellTask, RunCell
        from repro.sim import run_controller

        with pytest.raises(ValueError, match=self.SHAPE_ERROR):
            run_controller(CFG, WL, _OneLevelController(CFG), 5)
        cell = RunCell(
            controller="one-level", workload=WL.name, budget=None, seed=0,
            n_epochs=5,
        )
        task = CellTask(cell, CFG, WL, _OneLevelController, {})
        with pytest.raises(ValueError, match=self.SHAPE_ERROR):
            simulate_batch([task])


class _TweakedODRL(ODRLController):
    pass


class _TweakedMaxBIPS(MaxBIPSController):
    pass


def _odrl_pair(**second_kwargs):
    return [ODRLController(CFG, seed=0), ODRLController(CFG, seed=1, **second_kwargs)]


class TestCompatFallback:
    """Each per-field mismatch must decline to the serial fallback."""

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="at least one controller"):
            build_batch_policy([])
        with pytest.raises(ValueError, match="at least one controller"):
            PerRunPolicy([])

    @pytest.mark.parametrize(
        "make_group",
        [
            lambda: [_TweakedODRL(CFG), ODRLController(CFG)],
            lambda: [
                ODRLController(
                    CFG, thermal_limit=CFG.technology.t_ambient + 40.0
                ),
                ODRLController(
                    CFG, thermal_limit=CFG.technology.t_ambient + 30.0
                ),
            ],
            lambda: _odrl_pair(action_mode="absolute"),
            lambda: _odrl_pair(realloc_period=5),
            lambda: _odrl_pair(degradation=False),
            lambda: _odrl_pair(
                encoder=StateEncoder(n_levels=CFG.n_levels, include_level=True)
            ),
            lambda: _odrl_pair(reward_params=RewardParams(overshoot_weight=2.0)),
            lambda: _odrl_pair(
                sanitizer_policy=SanitizerPolicy(max_staleness_epochs=1)
            ),
            lambda: _odrl_pair(gamma=0.7),
            lambda: _odrl_pair(hetero=big_little_map(N_CORES)),
            lambda: [_TweakedMaxBIPS(CFG), MaxBIPSController(CFG)],
            lambda: [
                MaxBIPSController(CFG, method="exhaustive"),
                MaxBIPSController(CFG, method="exhaustive"),
            ],
            lambda: [
                MaxBIPSController(CFG, n_quanta=200),
                MaxBIPSController(CFG, n_quanta=256),
            ],
            lambda: [
                MaxBIPSController(CFG),
                MaxBIPSController(CFG, hetero=big_little_map(N_CORES)),
            ],
            lambda: [ODRLController(CFG), MaxBIPSController(CFG)],
        ],
        ids=[
            "odrl-subclass",
            "thermal-limit",
            "action-mode",
            "realloc-period",
            "degradation-flag",
            "encoder",
            "reward-params",
            "sanitizer-policy",
            "agent-gamma",
            "floors-caps",
            "maxbips-subclass",
            "exhaustive-method",
            "n-quanta",
            "estimator-tables",
            "mixed-kinds",
        ],
    )
    def test_mismatch_falls_back_to_serial(self, make_group):
        policy = build_batch_policy(make_group())
        assert isinstance(policy, PerRunPolicy)

    def test_profiled_controller_stacks(self):
        """A profiler attached to a controller times its own one-row
        stack; it is no reason to keep the group off the stacked learner."""
        first = ODRLController(CFG, seed=0)
        first.profiler = object()
        policy = build_batch_policy([first, ODRLController(CFG, seed=1)])
        assert isinstance(policy, BatchODRL)
