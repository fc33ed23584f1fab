"""Tests for repro.core.agent (stacked tabular Q-learning)."""

import numpy as np
import pytest

from repro.core import ConstantSchedule, QLearningPopulation


def make_pop(n_agents=3, n_states=4, n_actions=2, **kw):
    """A one-run population: every array argument is ``(1, n_agents)``."""
    kw.setdefault("rng", [np.random.default_rng(0)])
    return QLearningPopulation(n_agents, n_states, n_actions, **kw)


def row(*values, dtype=int):
    """One run's per-agent array, shape ``(1, len(values))``."""
    return np.array([values], dtype=dtype)


def zeros(n, dtype=int):
    return np.zeros((1, n), dtype=dtype)


def greedy(pop):
    """Greedy action per (run, agent, state) of the current tables."""
    return np.argmax(pop.q, axis=-1)


class TestConstruction:
    def test_table_shapes(self):
        pop = make_pop(5, 7, 3)
        assert pop.q.shape == (1, 5, 7, 3)
        assert pop.visits.shape == (1, 5, 7, 3)
        stacked = make_pop(5, 7, 3, rng=[np.random.default_rng(s) for s in range(4)])
        assert stacked.q.shape == (4, 5, 7, 3)
        assert stacked.step_counts.shape == (4,)

    def test_optimistic_init(self):
        pop = make_pop(optimistic_init=2.5)
        assert np.all(pop.q == 2.5)

    def test_rng_is_required(self):
        # DET001 regression: the old rng=None default silently handed every
        # population the same default_rng(0) stream.
        with pytest.raises(ValueError, match="explicit RNG stream"):
            QLearningPopulation(3, 4, 2)
        with pytest.raises(ValueError, match="explicit RNG stream"):
            QLearningPopulation(3, 4, 2, rng=[])
        with pytest.raises(TypeError, match="one per run"):
            QLearningPopulation(3, 4, 2, rng=np.random.default_rng(0))

    def test_validation(self):
        with pytest.raises(ValueError):
            make_pop(n_agents=0)
        with pytest.raises(ValueError, match="gamma"):
            make_pop(gamma=1.0)
        with pytest.raises(ValueError, match="gamma"):
            make_pop(gamma=-0.1)


class TestAct:
    def test_action_shape_and_range(self):
        pop = make_pop(10, 4, 3)
        actions = pop.act(zeros(10))
        assert actions.shape == (1, 10)
        assert np.all((actions >= 0) & (actions < 3))

    def test_epsilon_one_is_uniform(self):
        pop = make_pop(1, 1, 4, epsilon=ConstantSchedule(1.0))
        counts = np.zeros(4)
        for _ in range(2000):
            counts[pop.act(zeros(1))[0, 0]] += 1
        assert np.all(counts > 350)  # roughly uniform

    def test_ties_broken_randomly(self):
        # All-equal Q: repeated exploitation acts (epsilon 0) must not
        # always pick action 0.
        pop = make_pop(1, 1, 4, epsilon=ConstantSchedule(0.0))
        seen = {int(pop.act(zeros(1))[0, 0]) for _ in range(200)}
        assert len(seen) > 1

    def test_state_validation(self):
        pop = make_pop(2, 3, 2)
        with pytest.raises(ValueError, match="shape"):
            pop.act(zeros(5))
        with pytest.raises(ValueError, match="shape"):
            pop.act(np.zeros(2, dtype=int))  # missing the run axis
        with pytest.raises(ValueError, match="range"):
            pop.act(row(0, 3))

    def test_active_validation(self):
        pop = make_pop(2, 3, 2)
        with pytest.raises(ValueError, match="active"):
            pop.act(zeros(2), active=np.ones(2, dtype=bool))


class TestUpdate:
    def test_q_moves_toward_target(self):
        pop = make_pop(1, 2, 2, gamma=0.0, alpha=ConstantSchedule(0.5), optimistic_init=0.0)
        pop.update(row(0), row(1), row(1.0, dtype=float), row(1))
        assert pop.q[0, 0, 0, 1] == pytest.approx(0.5)
        pop.update(row(0), row(1), row(1.0, dtype=float), row(1))
        assert pop.q[0, 0, 0, 1] == pytest.approx(0.75)

    def test_bellman_backup_uses_max_next(self):
        pop = make_pop(1, 2, 2, gamma=0.5, alpha=ConstantSchedule(1.0), optimistic_init=0.0)
        pop.q[0, 0, 1] = [0.0, 0.8]
        pop.update(row(0), row(0), row(0.0, dtype=float), row(1))
        assert pop.q[0, 0, 0, 0] == pytest.approx(0.5 * 0.8)

    def test_agents_independent(self):
        pop = make_pop(2, 2, 2, gamma=0.0, alpha=ConstantSchedule(1.0), optimistic_init=0.0)
        pop.update(row(0, 0), row(0, 1), row(1.0, -1.0, dtype=float), row(0, 0))
        assert pop.q[0, 0, 0, 0] == pytest.approx(1.0)
        assert pop.q[0, 0, 0, 1] == 0.0
        assert pop.q[0, 1, 0, 1] == pytest.approx(-1.0)
        assert pop.q[0, 1, 0, 0] == 0.0

    def test_visit_counts(self):
        pop = make_pop(2, 2, 2)
        for _ in range(3):
            pop.update(row(0, 1), row(1, 0), zeros(2, float), row(0, 1))
        assert pop.visits[0, 0, 0, 1] == 3
        assert pop.visits[0, 1, 1, 0] == 3
        assert pop.visits.sum() == 6

    def test_step_count_advances(self):
        pop = make_pop()
        assert pop.step_counts[0] == 0
        pop.update(zeros(3), zeros(3), zeros(3, float), zeros(3))
        assert pop.step_counts[0] == 1

    def test_per_cell_alpha_fast_on_fresh_cells(self):
        # Default harmonic alpha: a cell's first update moves Q most of the
        # way to the target even late in training.
        pop = make_pop(1, 3, 2, gamma=0.0, optimistic_init=0.0)
        for _ in range(500):
            pop.update(row(0), row(0), row(0.2, dtype=float), row(0))
        # Fresh (state 1) cell, first visit:
        pop.update(row(1), row(1), row(1.0, dtype=float), row(1))
        assert pop.q[0, 0, 1, 1] > 0.6

    def test_update_validation(self):
        pop = make_pop(2, 2, 2)
        with pytest.raises(ValueError, match="shape"):
            pop.update(zeros(2), zeros(3), zeros(2, float), zeros(2))
        with pytest.raises(ValueError, match="action"):
            pop.update(zeros(2), row(0, 5), zeros(2, float), zeros(2))


class TestMaskedUpdate:
    def test_masked_agents_are_skipped_entirely(self):
        pop = make_pop(3, 2, 2, gamma=0.0, alpha=ConstantSchedule(1.0), optimistic_init=0.0)
        mask = row(True, False, True, dtype=bool)
        pop.update(zeros(3), zeros(3), np.ones((1, 3)), zeros(3), mask=mask)
        assert pop.q[0, 0, 0, 0] == pytest.approx(1.0)
        assert pop.q[0, 1, 0, 0] == 0.0  # no Q write
        assert pop.q[0, 2, 0, 0] == pytest.approx(1.0)
        assert pop.visits[0, 1].sum() == 0  # no visit increment
        assert pop.visits[0, 0, 0, 0] == 1

    def test_all_true_mask_is_bit_identical_to_no_mask(self):
        def run(mask):
            pop = make_pop(4, 3, 2)
            rng = np.random.default_rng(11)
            for _ in range(50):
                states = rng.integers(0, 3, size=(1, 4))
                actions = pop.act(states)
                pop.update(states, actions, rng.random((1, 4)),
                           rng.integers(0, 3, size=(1, 4)), mask=mask)
            return pop.q.copy(), pop.visits.copy()

        q_none, v_none = run(mask=None)
        q_true, v_true = run(mask=np.ones((1, 4), dtype=bool))
        assert np.array_equal(q_none, q_true)
        assert np.array_equal(v_none, v_true)

    def test_mask_shape_validation(self):
        pop = make_pop(2, 2, 2)
        with pytest.raises(ValueError, match="mask"):
            pop.update(zeros(2), zeros(2), zeros(2, float), zeros(2),
                       mask=np.ones((1, 3), dtype=bool))

    def test_fully_masked_update_skips_schedule_tick(self):
        # Regression (ISSUE 4): a whole-epoch blackout masks out every
        # agent; epsilon must not decay through an epoch where nothing
        # was learned.
        pop = make_pop(3, 2, 2)
        z = zeros(3)
        pop.update(z, z, zeros(3, float), z, mask=zeros(3, bool))
        assert pop.step_counts[0] == 0
        assert pop.visits.sum() == 0
        assert np.all(pop.q == pop.q[0, 0, 0, 0])
        # A partially masked update still ticks the schedule.
        pop.update(z, z, zeros(3, float), z, mask=row(True, False, False, dtype=bool))
        assert pop.step_counts[0] == 1


class TestSarsa:
    def test_rule_validation(self):
        with pytest.raises(ValueError, match="td_rule"):
            make_pop(td_rule="expected-sarsa")

    def test_requires_next_actions(self):
        pop = make_pop(1, 2, 2, td_rule="sarsa")
        with pytest.raises(ValueError, match="next_actions"):
            pop.update(row(0), row(0), row(1.0, dtype=float), row(1))

    def test_bootstraps_from_taken_action(self):
        pop = make_pop(1, 2, 2, gamma=0.5, alpha=ConstantSchedule(1.0),
                       optimistic_init=0.0, td_rule="sarsa")
        pop.q[0, 0, 1] = [0.2, 0.8]
        # SARSA with the WORSE next action taken must use 0.2, not max 0.8.
        pop.update(row(0), row(0), row(0.0, dtype=float), row(1), next_actions=row(0))
        assert pop.q[0, 0, 0, 0] == pytest.approx(0.5 * 0.2)

    def test_q_rule_ignores_next_actions(self):
        pop_with = make_pop(1, 2, 2, gamma=0.5, alpha=ConstantSchedule(1.0), optimistic_init=0.0)
        pop_without = make_pop(1, 2, 2, gamma=0.5, alpha=ConstantSchedule(1.0), optimistic_init=0.0)
        pop_with.q[0, 0, 1] = [0.2, 0.8]
        pop_without.q[0, 0, 1] = [0.2, 0.8]
        pop_with.update(row(0), row(0), row(0.0, dtype=float), row(1), next_actions=row(0))
        pop_without.update(row(0), row(0), row(0.0, dtype=float), row(1))
        assert np.array_equal(pop_with.q, pop_without.q)
        assert pop_with.q[0, 0, 0, 0] == pytest.approx(0.5 * 0.8)

    def test_sarsa_next_action_validation(self):
        pop = make_pop(2, 2, 2, td_rule="sarsa")
        with pytest.raises(ValueError, match="next_actions"):
            pop.update(zeros(2), zeros(2), zeros(2, float), zeros(2),
                       next_actions=zeros(3))
        with pytest.raises(ValueError, match="next action"):
            pop.update(zeros(2), zeros(2), zeros(2, float), zeros(2),
                       next_actions=row(0, 9))

    def test_sarsa_learns_bandit(self):
        pop = make_pop(2, 1, 2, gamma=0.0, epsilon=ConstantSchedule(0.2), td_rule="sarsa")
        rewards = np.array([0.2, 0.8])
        states = zeros(2)
        prev_actions = pop.act(states)
        for _ in range(400):
            actions = pop.act(states)
            pop.update(states, prev_actions, rewards[prev_actions], states,
                       next_actions=actions)
            prev_actions = actions
        assert np.all(greedy(pop)[0, :, 0] == 1)


class TestConvergence:
    def test_learns_two_armed_bandit(self):
        # One state, two actions with deterministic rewards 0.2 / 0.8.
        pop = make_pop(4, 1, 2, gamma=0.0, epsilon=ConstantSchedule(0.2))
        rewards = np.array([0.2, 0.8])
        states = zeros(4)
        for _ in range(400):
            actions = pop.act(states)
            pop.update(states, actions, rewards[actions], states)
        assert np.all(greedy(pop)[0, :, 0] == 1)

    def test_learns_state_dependent_policy(self):
        # Reward depends on (state, action): best action differs per state.
        pop = make_pop(2, 2, 2, gamma=0.0, epsilon=ConstantSchedule(0.3))
        rng = np.random.default_rng(7)
        table = np.array([[1.0, 0.0], [0.0, 1.0]])  # state 0 -> a0, state 1 -> a1
        for _ in range(600):
            states = rng.integers(0, 2, size=(1, 2))
            actions = pop.act(states)
            r = table[states, actions]
            pop.update(states, actions, r, rng.integers(0, 2, size=(1, 2)))
        policy = greedy(pop)[0]
        assert np.all(policy[:, 0] == 0)
        assert np.all(policy[:, 1] == 1)

    def test_reset_restores_cold_state(self):
        pop = make_pop(optimistic_init=1.0)
        pop.update(zeros(3), zeros(3), np.ones((1, 3)), zeros(3))
        pop.reset()
        assert np.all(pop.q == 1.0)
        assert pop.visits.sum() == 0
        assert pop.step_counts[0] == 0

    def test_deterministic_given_seed(self):
        def run(seed):
            pop = QLearningPopulation(3, 4, 2, rng=[np.random.default_rng(seed)])
            rng = np.random.default_rng(99)
            for _ in range(100):
                states = rng.integers(0, 4, size=(1, 3))
                actions = pop.act(states)
                pop.update(states, actions, rng.random((1, 3)),
                           rng.integers(0, 4, size=(1, 3)))
            return pop.q.copy()

        assert np.array_equal(run(1), run(1))
        assert not np.array_equal(run(1), run(2))


class TestStackedRuns:
    """Each row of a stacked learner is the one-run learner on its seed."""

    N_AGENTS, N_STATES, N_ACTIONS = 4, 5, 3
    SEEDS = (3, 8, 21)

    def _episode(self, steps=60):
        """Per-step inputs for three runs: states, rewards, next states, a
        mask with agent 2 of run 1 masked, and an active mask that
        finishes run 2 after step 25."""
        rng = np.random.default_rng(17)
        shape = (len(self.SEEDS), self.N_AGENTS)
        for step in range(steps):
            mask = np.ones(shape, dtype=bool)
            mask[1, 2] = False
            active = np.array([True, True, step < 25])
            yield (
                rng.integers(0, self.N_STATES, size=shape),
                rng.uniform(-1.0, 1.0, size=shape),
                rng.integers(0, self.N_STATES, size=shape),
                mask,
                active,
            )

    @pytest.mark.parametrize("td_rule", ["q", "sarsa"])
    def test_rows_equal_one_run_learners(self, td_rule):
        def pop(seeds):
            return QLearningPopulation(
                self.N_AGENTS, self.N_STATES, self.N_ACTIONS,
                rng=[np.random.default_rng(s) for s in seeds], td_rule=td_rule,
            )

        stacked = pop(self.SEEDS)
        singles = [pop([s]) for s in self.SEEDS]
        for states, rewards, next_states, mask, active in self._episode():
            actions = stacked.act(states, active)
            next_actions = stacked.act(next_states, active)
            stacked.update(states, actions, rewards, next_states,
                           next_actions=next_actions, mask=mask, active=active)
            for r, single in enumerate(singles):
                if not active[r]:
                    assert np.all(actions[r] == 0)
                    continue
                one = slice(r, r + 1)
                assert np.array_equal(single.act(states[one]), actions[one])
                assert np.array_equal(single.act(next_states[one]), next_actions[one])
                single.update(states[one], actions[one], rewards[one],
                              next_states[one], next_actions=next_actions[one],
                              mask=mask[one])
        for r, single in enumerate(singles):
            assert np.array_equal(stacked.q[r], single.q[0])
            assert np.array_equal(stacked.visits[r], single.visits[0])
            assert stacked.step_counts[r] == single.step_counts[0]
        assert stacked.visits[1, 2].sum() == 0  # the masked agent never learned
        assert stacked.step_counts[2] < stacked.step_counts[0]  # frozen when finished

    def test_repair_resets_only_bad_active_agents(self):
        pop = QLearningPopulation(
            2, 3, 2, rng=[np.random.default_rng(s) for s in range(3)],
            optimistic_init=0.5,
        )
        pop.visits[:] = 1
        pop.q[0, 1, 2, 0] = np.nan
        pop.q[2, 0, 0, 1] = np.inf
        repaired = pop.repair_nonfinite(np.array([True, True, False]))
        assert repaired.tolist() == [[False, True], [False, False], [False, False]]
        assert np.all(pop.q[0, 1] == 0.5) and pop.visits[0, 1].sum() == 0
        assert np.isinf(pop.q[2, 0, 0, 1])  # a finished run stays frozen
        assert pop.visits[2].sum() == 12
