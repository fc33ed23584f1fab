"""Tests for repro.core.agent (vectorized tabular Q-learning)."""

import numpy as np
import pytest

from repro.core import ConstantSchedule, QLearningPopulation


def make_pop(n_agents=3, n_states=4, n_actions=2, **kw):
    kw.setdefault("rng", np.random.default_rng(0))
    return QLearningPopulation(n_agents, n_states, n_actions, **kw)


class TestConstruction:
    def test_table_shapes(self):
        pop = make_pop(5, 7, 3)
        assert pop.q.shape == (5, 7, 3)
        assert pop.visits.shape == (5, 7, 3)

    def test_optimistic_init(self):
        pop = make_pop(optimistic_init=2.5)
        assert np.all(pop.q == 2.5)

    def test_rng_is_required(self):
        # DET001 regression: the old rng=None default silently handed every
        # population the same default_rng(0) stream.
        with pytest.raises(ValueError, match="explicit RNG stream"):
            QLearningPopulation(3, 4, 2)

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
        actions = pop.act(np.zeros(10, dtype=int))
        assert actions.shape == (10,)
        assert np.all((actions >= 0) & (actions < 3))

    def test_greedy_picks_argmax(self):
        pop = make_pop(2, 2, 3, epsilon=ConstantSchedule(0.0))
        pop.q[0, 0] = [0.1, 0.9, 0.2]
        pop.q[1, 1] = [0.7, 0.1, 0.2]
        actions = pop.act(np.array([0, 1]), greedy=True)
        assert actions[0] == 1
        assert actions[1] == 0

    def test_epsilon_one_is_uniform(self):
        pop = make_pop(1, 1, 4, epsilon=ConstantSchedule(1.0))
        counts = np.zeros(4)
        for _ in range(2000):
            counts[pop.act(np.zeros(1, dtype=int))[0]] += 1
        assert np.all(counts > 350)  # roughly uniform

    def test_ties_broken_randomly(self):
        # All-equal Q: repeated exploitation acts (epsilon 0, control path)
        # must not always pick action 0.
        pop = make_pop(1, 1, 4, epsilon=ConstantSchedule(0.0))
        seen = {int(pop.act(np.zeros(1, dtype=int))[0]) for _ in range(200)}
        assert len(seen) > 1

    def test_greedy_path_is_deterministic(self):
        # The greedy (inspection) path breaks ties by first index, with no
        # randomness: every call returns the same actions.
        pop = make_pop(1, 1, 4, epsilon=ConstantSchedule(0.0))
        first = pop.act(np.zeros(1, dtype=int), greedy=True)
        for _ in range(20):
            assert np.array_equal(pop.act(np.zeros(1, dtype=int), greedy=True), first)
        assert first[0] == 0  # all-equal table: first maximal action

    def test_greedy_act_does_not_consume_rng(self):
        # Regression (ISSUE 4): greedy inspection mid-run used to draw
        # tie-break jitter from the exploration RNG, perturbing every
        # subsequent epsilon-greedy decision.
        states = np.zeros(3, dtype=int)

        def trajectory(inspect):
            pop = make_pop(3, 4, 5, epsilon=ConstantSchedule(0.3))
            out = []
            for step in range(50):
                if inspect and step % 7 == 0:
                    pop.act(states, greedy=True)  # must be a pure read
                out.append(pop.act(states).copy())
            return np.stack(out)

        assert np.array_equal(trajectory(inspect=False), trajectory(inspect=True))

    def test_greedy_matches_greedy_policy(self):
        pop = make_pop(4, 3, 5)
        pop.q += np.random.default_rng(9).random(pop.q.shape)
        states = np.array([0, 1, 2, 0])
        expected = pop.greedy_policy()[np.arange(4), states]
        assert np.array_equal(pop.act(states, greedy=True), expected)

    def test_state_validation(self):
        pop = make_pop(2, 3, 2)
        with pytest.raises(ValueError, match="shape"):
            pop.act(np.zeros(5, dtype=int))
        with pytest.raises(ValueError, match="range"):
            pop.act(np.array([0, 3]))


class TestUpdate:
    def test_q_moves_toward_target(self):
        pop = make_pop(1, 2, 2, gamma=0.0, alpha=ConstantSchedule(0.5), optimistic_init=0.0)
        pop.update(np.array([0]), np.array([1]), np.array([1.0]), np.array([1]))
        assert pop.q[0, 0, 1] == pytest.approx(0.5)
        pop.update(np.array([0]), np.array([1]), np.array([1.0]), np.array([1]))
        assert pop.q[0, 0, 1] == pytest.approx(0.75)

    def test_bellman_backup_uses_max_next(self):
        pop = make_pop(1, 2, 2, gamma=0.5, alpha=ConstantSchedule(1.0), optimistic_init=0.0)
        pop.q[0, 1] = [0.0, 0.8]
        pop.update(np.array([0]), np.array([0]), np.array([0.0]), np.array([1]))
        assert pop.q[0, 0, 0] == pytest.approx(0.5 * 0.8)

    def test_agents_independent(self):
        pop = make_pop(2, 2, 2, gamma=0.0, alpha=ConstantSchedule(1.0), optimistic_init=0.0)
        pop.update(np.array([0, 0]), np.array([0, 1]), np.array([1.0, -1.0]), np.array([0, 0]))
        assert pop.q[0, 0, 0] == pytest.approx(1.0)
        assert pop.q[0, 0, 1] == 0.0
        assert pop.q[1, 0, 1] == pytest.approx(-1.0)
        assert pop.q[1, 0, 0] == 0.0

    def test_visit_counts(self):
        pop = make_pop(2, 2, 2)
        for _ in range(3):
            pop.update(np.array([0, 1]), np.array([1, 0]), np.zeros(2), np.array([0, 1]))
        assert pop.visits[0, 0, 1] == 3
        assert pop.visits[1, 1, 0] == 3
        assert pop.visits.sum() == 6

    def test_step_count_advances(self):
        pop = make_pop()
        assert pop.step_count == 0
        pop.update(np.zeros(3, dtype=int), np.zeros(3, dtype=int), np.zeros(3), np.zeros(3, dtype=int))
        assert pop.step_count == 1

    def test_per_cell_alpha_fast_on_fresh_cells(self):
        # Default harmonic alpha: a cell's first update moves Q most of the
        # way to the target even late in training.
        pop = make_pop(1, 3, 2, gamma=0.0, optimistic_init=0.0)
        for _ in range(500):
            pop.update(np.array([0]), np.array([0]), np.array([0.2]), np.array([0]))
        # Fresh (state 1) cell, first visit:
        pop.update(np.array([1]), np.array([1]), np.array([1.0]), np.array([1]))
        assert pop.q[0, 1, 1] > 0.6

    def test_update_validation(self):
        pop = make_pop(2, 2, 2)
        with pytest.raises(ValueError, match="shape"):
            pop.update(np.zeros(2, dtype=int), np.zeros(3, dtype=int), np.zeros(2), np.zeros(2, dtype=int))
        with pytest.raises(ValueError, match="action"):
            pop.update(np.zeros(2, dtype=int), np.array([0, 5]), np.zeros(2), np.zeros(2, dtype=int))


class TestMaskedUpdate:
    def test_masked_agents_are_skipped_entirely(self):
        pop = make_pop(3, 2, 2, gamma=0.0, alpha=ConstantSchedule(1.0), optimistic_init=0.0)
        mask = np.array([True, False, True])
        pop.update(np.zeros(3, dtype=int), np.zeros(3, dtype=int),
                   np.ones(3), np.zeros(3, dtype=int), mask=mask)
        assert pop.q[0, 0, 0] == pytest.approx(1.0)
        assert pop.q[1, 0, 0] == 0.0  # no Q write
        assert pop.q[2, 0, 0] == pytest.approx(1.0)
        assert pop.visits[1].sum() == 0  # no visit increment
        assert pop.visits[0, 0, 0] == 1

    def test_all_true_mask_is_bit_identical_to_no_mask(self):
        def run(mask):
            pop = make_pop(4, 3, 2)
            rng = np.random.default_rng(11)
            for _ in range(50):
                states = rng.integers(0, 3, size=4)
                actions = pop.act(states)
                pop.update(states, actions, rng.random(4),
                           rng.integers(0, 3, size=4), mask=mask)
            return pop.q.copy(), pop.visits.copy()

        q_none, v_none = run(mask=None)
        q_true, v_true = run(mask=np.ones(4, dtype=bool))
        assert np.array_equal(q_none, q_true)
        assert np.array_equal(v_none, v_true)

    def test_mask_shape_validation(self):
        pop = make_pop(2, 2, 2)
        with pytest.raises(ValueError, match="mask"):
            pop.update(np.zeros(2, dtype=int), np.zeros(2, dtype=int),
                       np.zeros(2), np.zeros(2, dtype=int),
                       mask=np.ones(3, dtype=bool))

    def test_fully_masked_update_skips_schedule_tick(self):
        # Regression (ISSUE 4): a whole-epoch blackout masks out every
        # agent; epsilon must not decay through an epoch where nothing
        # was learned.
        pop = make_pop(3, 2, 2)
        z = np.zeros(3, dtype=int)
        pop.update(z, z, np.zeros(3), z, mask=np.zeros(3, dtype=bool))
        assert pop.step_count == 0
        assert pop.visits.sum() == 0
        assert np.all(pop.q == pop.q[0, 0, 0])
        # A partially masked update still ticks the schedule.
        pop.update(z, z, np.zeros(3), z, mask=np.array([True, False, False]))
        assert pop.step_count == 1


class TestSarsa:
    def test_rule_validation(self):
        with pytest.raises(ValueError, match="td_rule"):
            make_pop(td_rule="expected-sarsa")

    def test_requires_next_actions(self):
        pop = make_pop(1, 2, 2, td_rule="sarsa")
        with pytest.raises(ValueError, match="next_actions"):
            pop.update(np.array([0]), np.array([0]), np.array([1.0]), np.array([1]))

    def test_bootstraps_from_taken_action(self):
        pop = make_pop(1, 2, 2, gamma=0.5, alpha=ConstantSchedule(1.0),
                       optimistic_init=0.0, td_rule="sarsa")
        pop.q[0, 1] = [0.2, 0.8]
        # SARSA with the WORSE next action taken must use 0.2, not max 0.8.
        pop.update(np.array([0]), np.array([0]), np.array([0.0]),
                   np.array([1]), next_actions=np.array([0]))
        assert pop.q[0, 0, 0] == pytest.approx(0.5 * 0.2)

    def test_q_rule_ignores_next_actions(self):
        pop_with = make_pop(1, 2, 2, gamma=0.5, alpha=ConstantSchedule(1.0), optimistic_init=0.0)
        pop_without = make_pop(1, 2, 2, gamma=0.5, alpha=ConstantSchedule(1.0), optimistic_init=0.0)
        pop_with.q[0, 1] = [0.2, 0.8]
        pop_without.q[0, 1] = [0.2, 0.8]
        pop_with.update(np.array([0]), np.array([0]), np.array([0.0]),
                        np.array([1]), next_actions=np.array([0]))
        pop_without.update(np.array([0]), np.array([0]), np.array([0.0]), np.array([1]))
        assert np.array_equal(pop_with.q, pop_without.q)
        assert pop_with.q[0, 0, 0] == pytest.approx(0.5 * 0.8)

    def test_sarsa_next_action_validation(self):
        pop = make_pop(2, 2, 2, td_rule="sarsa")
        with pytest.raises(ValueError, match="next_actions"):
            pop.update(np.zeros(2, dtype=int), np.zeros(2, dtype=int),
                       np.zeros(2), np.zeros(2, dtype=int),
                       next_actions=np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match="next action"):
            pop.update(np.zeros(2, dtype=int), np.zeros(2, dtype=int),
                       np.zeros(2), np.zeros(2, dtype=int),
                       next_actions=np.array([0, 9]))

    def test_sarsa_learns_bandit(self):
        pop = make_pop(2, 1, 2, gamma=0.0, epsilon=ConstantSchedule(0.2), td_rule="sarsa")
        rewards = np.array([0.2, 0.8])
        states = np.zeros(2, dtype=int)
        prev_actions = pop.act(states)
        for _ in range(400):
            actions = pop.act(states)
            pop.update(states, prev_actions, rewards[prev_actions], states,
                       next_actions=actions)
            prev_actions = actions
        assert np.all(pop.greedy_policy()[:, 0] == 1)


class TestConvergence:
    def test_learns_two_armed_bandit(self):
        # One state, two actions with deterministic rewards 0.2 / 0.8.
        pop = make_pop(4, 1, 2, gamma=0.0, epsilon=ConstantSchedule(0.2))
        rng = np.random.default_rng(5)
        rewards = np.array([0.2, 0.8])
        states = np.zeros(4, dtype=int)
        for _ in range(400):
            actions = pop.act(states)
            pop.update(states, actions, rewards[actions], states)
        assert np.all(pop.greedy_policy()[:, 0] == 1)

    def test_learns_state_dependent_policy(self):
        # Reward depends on (state, action): best action differs per state.
        pop = make_pop(2, 2, 2, gamma=0.0, epsilon=ConstantSchedule(0.3))
        rng = np.random.default_rng(7)
        table = np.array([[1.0, 0.0], [0.0, 1.0]])  # state 0 -> a0, state 1 -> a1
        for _ in range(600):
            states = rng.integers(0, 2, size=2)
            actions = pop.act(states)
            r = table[states, actions]
            pop.update(states, actions, r, rng.integers(0, 2, size=2))
        policy = pop.greedy_policy()
        assert np.all(policy[:, 0] == 0)
        assert np.all(policy[:, 1] == 1)

    def test_reset_restores_cold_state(self):
        pop = make_pop(optimistic_init=1.0)
        pop.update(np.zeros(3, dtype=int), np.zeros(3, dtype=int), np.ones(3), np.zeros(3, dtype=int))
        pop.reset()
        assert np.all(pop.q == 1.0)
        assert pop.visits.sum() == 0
        assert pop.step_count == 0

    def test_deterministic_given_seed(self):
        def run(seed):
            pop = QLearningPopulation(3, 4, 2, rng=np.random.default_rng(seed))
            rng = np.random.default_rng(99)
            for _ in range(100):
                states = rng.integers(0, 4, size=3)
                actions = pop.act(states)
                pop.update(states, actions, rng.random(3), rng.integers(0, 4, size=3))
            return pop.q.copy()

        assert np.array_equal(run(1), run(1))
        assert not np.array_equal(run(1), run(2))
