"""The learner's exploration draws and TD bootstrap against numpy's own calls.

:meth:`QLearningPopulation._act` reads a row's random actions as raw PCG64
words where that is exact, and the TD update takes its Q-learning
bootstrap as a column-chained maximum.  Both must reproduce, bit for bit,
the numpy calls they replace: the reference here is a test-local copy of
those calls (per row: ``random(out=jitter)``, ``random(n_agents)``,
``integers(n_actions, size=n_agents)``; ``np.max(axis=1)`` over the
gathered next-state rows), compared on the actions, on every stream's
observable state and on the draws that follow.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.core import ConstantSchedule, ODRLController, QLearningPopulation
from repro.core import agent as agent_module
from repro.manycore import ManyCoreChip, default_system
from repro.workloads import mixed_workload

SEEDS = (0, 7, 12345)
N_STATES = 3

#: PCG64's state multiplier (numpy's ``PCG64``: step, then output).
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK128 = (1 << 128) - 1


def reference_act(pop, rngs, states, active):
    """The act of ``pop``'s tables with numpy's three per-row draws from
    ``rngs`` (the population's own streams are not touched)."""
    n_runs, n_agents, n_actions = pop.n_runs, pop.n_agents, pop.n_actions
    jitter = np.zeros((n_runs, n_agents, n_actions))
    coins = np.ones((n_runs, n_agents))
    random_actions = np.zeros((n_runs, n_agents), dtype=np.int64)
    eps = np.zeros(n_runs)
    for r in range(n_runs):
        if active is not None and not active[r]:
            continue
        rngs[r].random(out=jitter[r])
        coins[r] = rngs[r].random(n_agents)
        random_actions[r] = rngs[r].integers(n_actions, size=n_agents)
        eps[r] = pop.epsilon(int(pop.step_counts[r]))
    jitter *= 1e-12
    rows = np.arange(n_runs)[:, None]
    agents = np.arange(n_agents)[None, :]
    greedy = np.argmax(pop.q[rows, agents, states] + jitter, axis=2)
    actions = np.where(coins < eps[:, None], random_actions, greedy)
    if active is not None:
        actions[~active] = 0
    return actions


def observable_state(rng):
    """What a generator's later draws can see of its state: all of it,
    less a buffered half-word that is no longer pending."""
    state = dict(rng.bit_generator.state)
    if not state.get("has_uint32"):
        state.pop("uinteger", None)
    return pickle.dumps(state)


def assert_same_streams(got, want):
    for g, w in zip(got, want):
        assert observable_state(g) == observable_state(w)
        assert np.array_equal(g.integers(2**31, size=3), w.integers(2**31, size=3))
        assert np.array_equal(g.random(2), w.random(2))


def twin_streams(seeds, prepare=None):
    """Two independent, identical generator lists (``prepare`` runs on
    every generator before it is handed out)."""
    streams = []
    for _ in range(2):
        rngs = [np.random.default_rng(s) for s in seeds]
        if prepare is not None:
            for g in rngs:
                prepare(g)
        streams.append(rngs)
    return streams


def run_twins(n_agents, n_actions, masks, epsilon=0.5, seeds=SEEDS, prepare=None, rngs=None):
    """Act through ``masks`` on a population and on the reference draws;
    assert equal actions per epoch, then equal streams."""
    mine, ref = rngs if rngs is not None else twin_streams(seeds, prepare)
    pop = QLearningPopulation(
        n_agents, N_STATES, n_actions, epsilon=ConstantSchedule(epsilon), rng=mine
    )
    states_rng = np.random.default_rng(99)
    for active in masks:
        states = states_rng.integers(N_STATES, size=(pop.n_runs, n_agents))
        want = reference_act(pop, ref, states, active)
        got = pop.act(states, active)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert_same_streams(mine, ref)
    return pop


RAGGED = [
    None,
    np.array([True, False, True]),
    np.array([False, True, False]),
    None,
    np.array([False, False, True]),
]


@pytest.mark.parametrize("epsilon", [0.5, 1.0])
@pytest.mark.parametrize("n_actions", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("n_agents", [1, 7, 16, 33, 64, 256])
def test_draws_match_the_numpy_calls(n_agents, n_actions, epsilon):
    run_twins(n_agents, n_actions, RAGGED, epsilon=epsilon)


@pytest.mark.parametrize("n_agents", [16, 33])
def test_a_one_row_population_draws_as_numpy(n_agents):
    run_twins(n_agents, 5, [None, np.array([False]), None], seeds=(5,))


@pytest.mark.parametrize("n_agents", [16, 33])
def test_a_pending_half_word_is_drawn_through(n_agents):
    """A stream handed over with a pending 32-bit half-word: numpy's
    ``integers`` uses that half first, so the raw read must not run."""

    def leave_half(g):
        g.integers(5, size=1)
        assert g.bit_generator.state["has_uint32"]

    run_twins(n_agents, 5, RAGGED, epsilon=1.0, prepare=leave_half)


@pytest.mark.parametrize("n_actions", [2, 3, 5, 8])
def test_forced_rejections_redraw_exactly(n_actions, monkeypatch):
    """Rows flagged as rejected are rewound and redrawn through numpy;
    flagging rows whose words numpy would accept must change nothing."""
    flagged = []
    lemire = agent_module._lemire_actions

    def flag_rows(words, n):
        values, rejected = lemire(words, n)
        flagged.append(True)
        rejected[[0, 2], -1] = True
        return values, rejected

    monkeypatch.setattr(agent_module, "_lemire_actions", flag_rows)
    run_twins(16, n_actions, RAGGED, epsilon=1.0)
    assert flagged


def word_ahead(low32_zero_at, seed=0):
    """A PCG64 generator whose raw word number ``low32_zero_at`` (from
    now) has a zero low half, the half Lemire's method rejects for 3 and
    5 actions."""
    g = np.random.default_rng(seed)
    state = g.bit_generator.state
    inc = state["state"]["inc"]
    hi = 0x0123456789ABCDEF  # top six bits clear: the output rotates by 0
    target = (hi << 64) | (hi ^ (0xDEADBEEF << 32))
    before = ((target - inc) * pow(PCG64_MULT, -1, 1 << 128)) & MASK128
    state["state"] = {"state": before, "inc": inc}
    state["has_uint32"] = 0
    state["uinteger"] = 0
    g.bit_generator.state = state
    g.bit_generator.advance(2**128 - low32_zero_at)
    return g


@pytest.mark.parametrize("n_actions", [3, 5])
def test_a_real_rejection_redraws_and_leaves_a_half_word(n_actions):
    """A word whose low half numpy rejects: the row is redrawn through
    ``integers``, which consumes one extra half and leaves one pending;
    the row's next act must then keep numpy's call too."""
    n_agents = 8
    doubles = n_agents * (n_actions + 1)
    make = [
        np.random.default_rng(1),
        word_ahead(doubles + 2),  # the third raw word of the first act
        np.random.default_rng(2),
    ]
    mine = [copy.deepcopy(g) for g in make]
    ref = [copy.deepcopy(g) for g in make]
    pop = run_twins(n_agents, n_actions, [None, None, None], epsilon=1.0, rngs=(mine, ref))
    assert pop._raw_ok == [True, False, True]


@pytest.mark.parametrize(
    "bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64]
)
def test_other_bit_generators_keep_numpy_calls(bit_generator):
    rngs = [
        [np.random.Generator(bit_generator(s)) for s in SEEDS] for _ in range(2)
    ]
    pop = run_twins(16, 5, RAGGED, epsilon=1.0, rngs=rngs)
    assert pop._raw_ok == [False] * len(SEEDS)


# -- the TD bootstrap ---------------------------------------------------------

#: IEEE specials whose maxima depend on comparison order or NaN handling:
#: both zeros, infinities, subnormals, and NaNs of either sign and of a
#: non-default payload (an x86 invalid operation yields the negative one).
SPECIALS = np.array(
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, np.nan]
    + [
        np.uint64(bits).view(np.float64)
        for bits in (0xFFF8000000000000, 0x7FF8000000000123, 0x7FF0000000000001)
    ]
)


def reference_update(pop, states, actions, rewards, next_states):
    """Q-learning's TD update of ``pop``'s tables with the np.max
    bootstrap (no mask, every run live)."""
    n_actions = pop.n_actions
    q = pop.q.reshape(-1)
    visits = pop.visits.reshape(-1)
    base = pop._table_base.reshape(-1)
    next_rows = base + next_states.reshape(-1)
    bootstrap = np.max(np.take(pop.q.reshape(-1, n_actions), next_rows, axis=0), axis=1)
    sa = (base + states.reshape(-1)) * n_actions + actions.reshape(-1)
    a = pop.alpha.value(visits[sa])
    target = rewards.reshape(-1) + pop.gamma * bootstrap
    td = target - q[sa]
    q[sa] += a * td
    visits[sa] += 1
    pop.step_counts += 1


def poisoned_population(n_runs, n_agents, n_actions, pool, seed):
    rng = np.random.default_rng(seed)
    pop = QLearningPopulation(
        n_agents, 4, n_actions, rng=[np.random.default_rng(s) for s in range(n_runs)]
    )
    pop.q[:] = rng.choice(pool, size=pop.q.shape)
    return pop, rng


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("pool", ["specials", "zeros"])
@pytest.mark.parametrize("n_actions", [1, 2, 3, 5, 8, 9, 12])
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (3, 64), (2, 256)])
def test_bootstrap_is_the_np_max_reduction(shape, n_actions, pool):
    """Tables of IEEE specials (or of ±0.0 and negatives only, so most
    maxima are a zero of either sign, which the chained maximum may pick
    differently from np.max): the updated tables are byte-equal to the
    np.max bootstrap's."""
    values = SPECIALS if pool == "specials" else np.array([0.0, -0.0, -1.0, -5e-324])
    for seed in range(3):
        pop, rng = poisoned_population(*shape, n_actions, values, seed)
        ref = copy.deepcopy(pop)
        states = rng.integers(4, size=pop._shape)
        actions = rng.integers(n_actions, size=pop._shape)
        rewards = rng.choice(np.array([0.0, -0.0, 1.0, np.nan]), size=pop._shape)
        next_states = rng.integers(4, size=pop._shape)
        pop.update(states, actions, rewards, next_states)
        reference_update(ref, states, actions, rewards, next_states)
        assert pop.q.tobytes() == ref.q.tobytes()
        assert np.array_equal(pop.visits, ref.visits)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_table_poisoned_through_the_controller_learns_as_np_max_would():
    """An ODRLController's table poisoned between decides through its
    ``q`` view (no safe-state reflex): the decide's TD update equals the
    np.max bootstrap's on that table."""
    cfg = default_system(n_cores=8)
    ctl = ODRLController(cfg, seed=3, degradation=False)
    chip = ManyCoreChip(cfg, mixed_workload(8, seed=0))
    obs = chip.step(ctl.decide(None))
    obs = chip.step(ctl.decide(obs))
    rng = np.random.default_rng(5)
    ctl.q[:] = rng.choice(SPECIALS, size=ctl.q.shape)
    learner = ctl.stack.learner
    ref = copy.deepcopy(learner)
    ctl.decide(obs)
    update = ctl.stack.last_update(0)
    reference_update(
        ref,
        update["states"][None],
        update["actions"][None],
        update["rewards"][None],
        update["next_states"][None],
    )
    assert learner.q.tobytes() == ref.q.tobytes()
