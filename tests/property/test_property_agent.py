"""Property-based tests: Q-learning population invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QLearningPopulation


@st.composite
def episode(draw):
    n_agents = draw(st.integers(1, 8))
    n_states = draw(st.integers(1, 6))
    n_actions = draw(st.integers(1, 5))
    length = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2**31))
    return n_agents, n_states, n_actions, length, seed


@given(episode())
@settings(max_examples=100, deadline=None)
def test_q_values_bounded_by_reward_geometry(ep):
    """With rewards in [lo, hi] and gamma < 1, Q stays within
    [min(lo, init)/(1-gamma), max(hi, init)/(1-gamma)] scaled bounds."""
    n_agents, n_states, n_actions, length, seed = ep
    gamma = 0.5
    pop = QLearningPopulation(
        n_agents, n_states, n_actions, gamma=gamma,
        rng=[np.random.default_rng(seed)], optimistic_init=1.0,
    )
    rng = np.random.default_rng(seed + 1)
    lo, hi = -1.0, 1.0
    for _ in range(length):
        states = rng.integers(0, n_states, (1, n_agents))
        actions = pop.act(states)
        rewards = rng.uniform(lo, hi, (1, n_agents))
        pop.update(states, actions, rewards, rng.integers(0, n_states, (1, n_agents)))
    bound_hi = max(1.0, hi / (1 - gamma)) + 1e-9
    bound_lo = min(0.0, lo / (1 - gamma)) - 1e-9
    assert np.all(pop.q <= bound_hi)
    assert np.all(pop.q >= bound_lo)


@given(episode())
@settings(max_examples=100, deadline=None)
def test_visits_equal_updates(ep):
    n_agents, n_states, n_actions, length, seed = ep
    pop = QLearningPopulation(
        n_agents, n_states, n_actions, rng=[np.random.default_rng(seed)]
    )
    rng = np.random.default_rng(seed + 1)
    for _ in range(length):
        states = rng.integers(0, n_states, (1, n_agents))
        actions = pop.act(states)
        pop.update(states, actions, rng.random((1, n_agents)), rng.integers(0, n_states, (1, n_agents)))
    assert pop.visits.sum() == length * n_agents
    assert pop.step_counts[0] == length


@given(episode())
@settings(max_examples=50, deadline=None)
def test_update_touches_only_acted_cells(ep):
    n_agents, n_states, n_actions, length, seed = ep
    pop = QLearningPopulation(
        n_agents, n_states, n_actions, rng=[np.random.default_rng(seed)],
        optimistic_init=0.25,
    )
    rng = np.random.default_rng(seed + 1)
    states = rng.integers(0, n_states, (1, n_agents))
    actions = rng.integers(0, n_actions, (1, n_agents))
    before = pop.q.copy()
    pop.update(states, actions, rng.random((1, n_agents)), rng.integers(0, n_states, (1, n_agents)))
    changed = np.argwhere(pop.q != before)
    for run, agent, state, action in changed:
        assert state == states[run, agent]
        assert action == actions[run, agent]
