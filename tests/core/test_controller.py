"""Tests for repro.core.controller (the OD-RL controller)."""

import numpy as np
import pytest

from repro.core import ODRLController
from repro.manycore import ManyCoreChip, default_system
from repro.sim import run_controller, simulate
from repro.workloads import mixed_workload


@pytest.fixture
def cfg():
    return default_system(n_cores=8, n_levels=4, budget_fraction=0.6)


@pytest.fixture
def wl(cfg):
    return mixed_workload(cfg.n_cores, seed=7)


class TestConstruction:
    def test_defaults(self, cfg):
        ctl = ODRLController(cfg)
        assert ctl.name == "od-rl"
        assert ctl.action_mode == "relative"
        assert ctl.q.shape[0] == cfg.n_cores

    def test_absolute_mode_action_space(self, cfg):
        ctl = ODRLController(cfg, action_mode="absolute")
        assert ctl.n_actions == cfg.n_levels

    def test_relative_mode_action_space(self, cfg):
        ctl = ODRLController(cfg, action_mode="relative")
        assert ctl.n_actions == len(ODRLController.RELATIVE_DELTAS)

    def test_rejects_bad_action_mode(self, cfg):
        with pytest.raises(ValueError, match="action_mode"):
            ODRLController(cfg, action_mode="sideways")

    def test_td_rule_options(self, cfg):
        assert ODRLController(cfg, td_rule="sarsa").td_rule == "sarsa"
        assert ODRLController(cfg).td_rule == "q"
        with pytest.raises(ValueError, match="td_rule"):
            ODRLController(cfg, td_rule="monte-carlo")

    def test_sarsa_controls_budget_too(self, cfg, wl):
        import numpy as np
        ctl = ODRLController(cfg, td_rule="sarsa", seed=0)
        result = run_controller(cfg, wl, ctl, n_epochs=600)
        tail = result.tail(0.3)
        over = np.maximum(tail.chip_power - cfg.power_budget, 0)
        assert over.mean() < 0.03 * cfg.power_budget
        assert tail.chip_power.mean() > 0.6 * cfg.power_budget

    def test_rejects_negative_realloc_period(self, cfg):
        with pytest.raises(ValueError, match="realloc_period"):
            ODRLController(cfg, realloc_period=-1)

    def test_rejects_infeasible_budget(self, cfg):
        bad = cfg.with_budget(0.1)
        with pytest.raises(ValueError, match="infeasible"):
            ODRLController(bad)

    def test_initial_allocation_uniform_within_bounds(self, cfg):
        ctl = ODRLController(cfg)
        assert ctl.allocation.shape == (cfg.n_cores,)
        assert np.all(ctl.allocation >= ctl._floors - 1e-12)
        assert np.all(ctl.allocation <= ctl._caps + 1e-12)
        assert np.allclose(ctl.allocation, ctl.allocation[0])


class TestDecide:
    def test_first_decision_mid_ladder(self, cfg):
        ctl = ODRLController(cfg)
        levels = ctl.decide(None)
        assert levels.shape == (cfg.n_cores,)
        assert np.all(levels == cfg.n_levels // 2)

    def test_decisions_in_range(self, cfg, wl):
        ctl = ODRLController(cfg, seed=2)
        chip = ManyCoreChip(cfg, wl)
        obs = None
        for _ in range(60):
            levels = ctl.decide(obs)
            assert np.all((levels >= 0) & (levels < cfg.n_levels))
            obs = chip.step(levels)

    def test_relative_steps_bounded(self, cfg, wl):
        ctl = ODRLController(cfg, seed=2)
        chip = ManyCoreChip(cfg, wl)
        obs = None
        prev = None
        max_delta = max(abs(d) for d in ODRLController.RELATIVE_DELTAS)
        for _ in range(40):
            levels = ctl.decide(obs)
            if prev is not None and obs is not None:
                assert np.all(np.abs(levels - obs.levels) <= max_delta)
            obs = chip.step(levels)
            prev = levels

    def test_reset_clears_learning(self, cfg, wl):
        ctl = ODRLController(cfg, seed=2)
        run_controller(cfg, wl, ctl, n_epochs=100)
        assert ctl.step_count > 0
        ctl.reset()
        assert ctl.step_count == 0
        assert ctl.guard == 0.0
        assert np.allclose(ctl.allocation, ctl.allocation[0])

    def test_deterministic_given_seed(self, cfg, wl):
        r1 = run_controller(cfg, wl, ODRLController(cfg, seed=3), n_epochs=150)
        r2 = run_controller(cfg, wl, ODRLController(cfg, seed=3), n_epochs=150)
        assert np.array_equal(r1.chip_power, r2.chip_power)

    def test_seed_changes_trajectory(self, cfg, wl):
        r1 = run_controller(cfg, wl, ODRLController(cfg, seed=3), n_epochs=150)
        r2 = run_controller(cfg, wl, ODRLController(cfg, seed=4), n_epochs=150)
        assert not np.array_equal(r1.chip_power, r2.chip_power)


class TestBudgetReallocation:
    def test_allocation_conserved(self, cfg, wl):
        ctl = ODRLController(cfg, realloc_period=5, seed=1)
        run_controller(cfg, wl, ctl, n_epochs=100)
        assert ctl.allocation.sum() <= cfg.power_budget + 1e-9
        assert np.all(ctl.allocation >= ctl._floors - 1e-12)
        assert np.all(ctl.allocation <= ctl._caps + 1e-12)

    def test_realloc_moves_shares(self, cfg, wl):
        ctl = ODRLController(cfg, realloc_period=5, seed=1)
        initial = ctl.allocation.copy()
        run_controller(cfg, wl, ctl, n_epochs=100)
        assert not np.allclose(ctl.allocation, initial)

    def test_compute_bound_cores_get_more(self, cfg):
        # Half the cores compute-bound, half memory-bound: after learning
        # the compute-bound half should hold more budget.
        from repro.workloads import CorePhaseSequence, Phase, Workload

        compute = CorePhaseSequence([Phase(1.0, 0.0005, 0.9)])
        memory = CorePhaseSequence([Phase(1.0, 0.02, 0.4)])
        w = Workload([compute] * 4 + [memory] * 4)
        ctl = ODRLController(cfg, realloc_period=10, seed=1)
        run_controller(cfg, w, ctl, n_epochs=300)
        assert ctl.allocation[:4].mean() > ctl.allocation[4:].mean()

    def test_no_realloc_keeps_uniform(self, cfg, wl):
        ctl = ODRLController(cfg, realloc_period=0, seed=1)
        run_controller(cfg, wl, ctl, n_epochs=100)
        assert np.allclose(ctl.allocation, ctl.allocation[0])

    def test_guard_bounded(self, cfg, wl):
        ctl = ODRLController(cfg, seed=1)
        run_controller(cfg, wl, ctl, n_epochs=300)
        assert 0.0 <= ctl.guard <= ODRLController.GUARD_MAX


class TestDegradation:
    def test_transparent_on_healthy_telemetry(self, cfg, wl):
        """With exact sensors the sanitizer must change nothing: the
        degradation layer is bit-for-bit transparent on clean data."""
        from repro.manycore import SensorSuite

        on = run_controller(
            cfg, wl, ODRLController(cfg, seed=3), n_epochs=80,
            sensors=SensorSuite.exact(),
        )
        off = run_controller(
            cfg, wl, ODRLController(cfg, degradation=False, seed=3), n_epochs=80,
            sensors=SensorSuite.exact(),
        )
        assert np.array_equal(on.chip_power, off.chip_power)
        assert np.array_equal(on.chip_instructions, off.chip_instructions)

    def test_untrusted_cores_do_not_learn(self, cfg, wl):
        """A power dropout (sensed 0 W) must not drive a TD update."""
        ctl = ODRLController(cfg, seed=4)
        chip = ManyCoreChip(cfg, wl)
        obs = chip.step(ctl.decide(None))
        ctl.decide(obs)  # primes prev state/action
        obs2 = chip.step(ctl._full(1))
        steps_before = ctl.step_count
        visits_before = ctl.visits.sum(axis=(1, 2)).copy()
        obs2.sensed_power[0] = 0.0  # failed transaction on core 0
        ctl.decide(obs2)
        assert ctl.step_count == steps_before + 1
        visits_after = ctl.visits.sum(axis=(1, 2))
        assert visits_after[0] == visits_before[0]
        assert np.all(visits_after[1:] == visits_before[1:] + 1)

    def test_safe_state_reflex_repairs_and_parks(self, cfg, wl):
        """Non-finite Q rows are reinitialized and the core parked at the
        bottom level for the epoch."""
        ctl = ODRLController(cfg, seed=4)
        chip = ManyCoreChip(cfg, wl)
        obs = chip.step(ctl.decide(None))
        ctl.q[2] = np.nan
        levels = ctl.decide(obs)
        assert np.isfinite(ctl.q).all()
        assert ctl.agents_repaired == 1
        assert levels[2] == 0

    def test_checkpoint_restore_roundtrip(self, cfg, wl):
        ctl = ODRLController(cfg, seed=5)
        run_controller(cfg, wl, ctl, n_epochs=60)
        snapshot = ctl.checkpoint()
        fresh = ODRLController(cfg, seed=99)
        fresh.reset()
        fresh.restore(snapshot)
        assert np.array_equal(fresh.q, ctl.q)
        assert np.array_equal(fresh.allocation, ctl.allocation)
        assert fresh.guard == ctl.guard
        assert fresh.checkpoint()["epoch"] == ctl.checkpoint()["epoch"]

    def test_checkpoint_is_a_copy(self, cfg, wl):
        """Mutating the controller after checkpoint() must not mutate the
        snapshot — the watchdog holds it across epochs."""
        ctl = ODRLController(cfg, seed=5)
        run_controller(cfg, wl, ctl, n_epochs=30)
        snapshot = ctl.checkpoint()
        q_at_snapshot = snapshot["q"].copy()
        ctl.q[...] += 1.0
        ctl.allocation += 0.5
        assert np.array_equal(snapshot["q"], q_at_snapshot)
        assert not np.array_equal(snapshot["allocation"], ctl.allocation)


class TestOneRowView:
    def test_state_lives_in_row_zero_of_the_stack(self, cfg, wl):
        ctl = ODRLController(cfg, seed=5)
        run_controller(cfg, wl, ctl, n_epochs=30)
        assert ctl.stack.n_runs == 1
        assert np.shares_memory(ctl.q, ctl.stack.learner.q)
        assert ctl.step_count == int(ctl.stack.learner.step_counts[0])
        assert ctl.checkpoint()["epoch"] == 29

    def test_pickled_controller_decides_identically(self, cfg, wl):
        import pickle

        ctl = ODRLController(cfg, seed=5)
        run_controller(cfg, wl, ctl, n_epochs=30)
        twin = pickle.loads(pickle.dumps(ctl))
        np.testing.assert_array_equal(twin.q, ctl.q)
        # the twin's learner explores from the twin's own stream
        assert twin.stack.learner._rngs[0] is twin._rng
        chips = [ManyCoreChip(cfg, wl), ManyCoreChip(cfg, wl)]
        obs = [chip.step(c.decide(None)) for chip, c in zip(chips, (ctl, twin))]
        for _ in range(10):
            levels = [c.decide(o) for c, o in zip((ctl, twin), obs)]
            np.testing.assert_array_equal(levels[0], levels[1])
            obs = [chip.step(lv) for chip, lv in zip(chips, levels)]

    def test_mis_shaped_telemetry_is_refused(self, cfg, wl):
        ctl = ODRLController(cfg, seed=5)
        chip = ManyCoreChip(cfg, wl)
        obs = chip.step(ctl.decide(None))
        bad = type(obs)(**{**vars(obs), "sensed_power": obs.sensed_power[:-1]})
        with pytest.raises(ValueError, match="sensed_power must have shape"):
            ctl.decide(bad)


    def test_pickles_before_its_stack_is_built(self, cfg, wl):
        import pickle

        twin = pickle.loads(pickle.dumps(ODRLController(cfg, seed=5)))
        result = run_controller(cfg, wl, twin, n_epochs=10)
        ref = run_controller(cfg, wl, ODRLController(cfg, seed=5), n_epochs=10)
        assert result.chip_power.tobytes() == ref.chip_power.tobytes()
        assert twin.stack.learner._rngs[0] is twin._rng


def _count_stacks(monkeypatch):
    """Spy on ``BatchODRL.__init__``: the list grows by one per stack."""
    from repro.kernel.policies import BatchODRL

    built = []
    original = BatchODRL.__init__

    def counting(self, controllers):
        built.append(len(controllers))
        original(self, controllers)

    monkeypatch.setattr(BatchODRL, "__init__", counting)
    return built


class TestOneStackPerRun:
    """A controller builds its one-row stack on first use, so a controller
    that a larger stack adopts never builds one."""

    @pytest.mark.parametrize("batch, rows", [(False, [1, 1, 1, 1]), (True, [4])])
    def test_budget_sweep_builds_one_stack_per_decider(self, monkeypatch, batch, rows):
        from repro.sim import run_budget_sweep, standard_controllers

        built = _count_stacks(monkeypatch)
        cfg = default_system(n_cores=16, budget_fraction=0.6)
        budgets = [cfg.power_budget * f for f in (0.6, 0.8, 1.0, 1.2)]
        lineup = {"od-rl": standard_controllers(seed=0)["od-rl"]}
        run_budget_sweep(
            cfg, budgets, mixed_workload(16, seed=0), lineup, 12, batch=batch
        )
        assert built == rows

    def test_construction_builds_no_stack(self, monkeypatch, cfg):
        built = _count_stacks(monkeypatch)
        ctl = ODRLController(cfg, pretrained=ODRLController(cfg).checkpoint())
        assert built == [1]  # the snapshot's source decided nothing either
        ctl.reset()
        assert built == [1, 1]

    def test_constructor_rejects_a_structurally_bad_snapshot(self, cfg):
        other = default_system(n_cores=4, n_levels=4, budget_fraction=0.6)
        snapshot = ODRLController(other).checkpoint()
        with pytest.raises(ValueError, match="n_cores mismatch"):
            ODRLController(cfg, pretrained=snapshot)
        five = default_system(n_cores=8, n_levels=5, budget_fraction=0.6)
        relative = ODRLController(five, action_mode="relative").checkpoint()
        with pytest.raises(ValueError, match="action_mode mismatch"):
            ODRLController(five, pretrained=relative, action_mode="absolute")
        snapshot = {**ODRLController(cfg).checkpoint(), "format_version": np.array(99)}
        with pytest.raises(ValueError, match="format version"):
            ODRLController(cfg, pretrained=snapshot)


class TestControlQuality:
    def test_steady_state_power_under_budget(self, cfg, wl):
        ctl = ODRLController(cfg, seed=0)
        result = run_controller(cfg, wl, ctl, n_epochs=800)
        tail = result.tail(0.3)
        # Mean steady-state power within budget; brief excursions tolerated.
        assert tail.chip_power.mean() < cfg.power_budget
        over = np.maximum(tail.chip_power - cfg.power_budget, 0)
        assert over.mean() / cfg.power_budget < 0.02

    def test_utilizes_budget(self, cfg, wl):
        ctl = ODRLController(cfg, seed=0)
        result = run_controller(cfg, wl, ctl, n_epochs=800)
        tail = result.tail(0.3)
        assert tail.chip_power.mean() > 0.6 * cfg.power_budget

    def test_beats_static_bottom(self, cfg, wl):
        # OD-RL must outperform pinning everything to the bottom level.
        from repro.manycore import ManyCoreChip

        ctl = ODRLController(cfg, seed=0)
        result = run_controller(cfg, wl, ctl, n_epochs=600)
        chip = ManyCoreChip(cfg, wl)
        bottom_instr = 0.0
        for _ in range(600):
            obs = chip.step(np.zeros(cfg.n_cores, dtype=int))
            bottom_instr += obs.chip_instructions
        assert result.total_instructions > bottom_instr

    def test_adapts_budget_increase(self, cfg, wl):
        # Loosening the budget mid-run should raise power use.
        ctl = ODRLController(cfg, seed=0)
        chip = ManyCoreChip(cfg, wl)
        res1 = simulate(chip, ctl, 500)
        loose = cfg.with_budget(cfg.power_budget * 1.3)
        ctl2 = ODRLController(loose, seed=0)
        chip2 = ManyCoreChip(loose, wl)
        res2 = simulate(chip2, ctl2, 500)
        assert res2.tail(0.3).chip_power.mean() > res1.tail(0.3).chip_power.mean()
