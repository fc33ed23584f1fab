"""Tests for repro.core.state (state discretization)."""

import numpy as np
import pytest

from repro.core import StateEncoder


@pytest.fixture
def enc():
    return StateEncoder.variant("slack_ipc", n_levels=8)


class TestConstruction:
    def test_state_space_sizes(self):
        slack_only = StateEncoder.variant("slack", 8)
        slack_ipc = StateEncoder.variant("slack_ipc", 8)
        full = StateEncoder.variant("slack_ipc_level", 8)
        assert slack_only.n_states == slack_only.n_slack_bins
        assert slack_ipc.n_states == slack_only.n_states * slack_ipc.n_ipc_bins
        assert full.n_states == slack_ipc.n_states * 8

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            StateEncoder.variant("bogus", 8)

    def test_requires_slack_edges(self):
        with pytest.raises(ValueError, match="slack"):
            StateEncoder(n_levels=8, slack_edges=())

    def test_rejects_unsorted_edges(self):
        with pytest.raises(ValueError, match="ascending"):
            StateEncoder(n_levels=8, slack_edges=(0.1, -0.1))
        with pytest.raises(ValueError, match="ascending"):
            StateEncoder(n_levels=8, ipc_edges=(0.8, 0.3))

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError, match="n_levels"):
            StateEncoder(n_levels=0)


class TestEncoding:
    def test_output_in_range(self, enc):
        rng = np.random.default_rng(0)
        power = rng.uniform(0.1, 5.0, 100)
        alloc = rng.uniform(0.5, 4.0, 100)
        ipc = rng.uniform(0.0, 1.2, 100)
        levels = rng.integers(0, 8, 100)
        states = enc.encode(power, alloc, ipc, levels)
        assert states.dtype.kind == "i"
        assert np.all(states >= 0)
        assert np.all(states < enc.n_states)

    def test_slack_bins_separate(self, enc):
        alloc = np.full(3, 2.0)
        ipc = np.full(3, 0.9)
        levels = np.zeros(3, dtype=int)
        # Deep over budget, near budget, deep under budget.
        power = np.array([3.5, 2.0, 0.5])
        states = enc.encode(power, alloc, ipc, levels)
        assert len(set(states.tolist())) == 3

    def test_ipc_bins_separate(self, enc):
        power = np.full(2, 1.0)
        alloc = np.full(2, 2.0)
        levels = np.zeros(2, dtype=int)
        states = enc.encode(power, alloc, np.array([0.1, 0.95]), levels)
        assert states[0] != states[1]

    def test_slack_only_ignores_ipc(self):
        enc = StateEncoder.variant("slack", 8)
        power = np.full(2, 1.0)
        alloc = np.full(2, 2.0)
        levels = np.zeros(2, dtype=int)
        states = enc.encode(power, alloc, np.array([0.1, 0.95]), levels)
        assert states[0] == states[1]

    def test_level_component(self):
        enc = StateEncoder.variant("slack_ipc_level", 8)
        power = np.full(2, 1.0)
        alloc = np.full(2, 2.0)
        ipc = np.full(2, 0.9)
        states = enc.encode(power, alloc, ipc, np.array([0, 7]))
        assert states[0] != states[1]

    def test_level_clamped_when_included(self):
        enc = StateEncoder.variant("slack_ipc_level", 4)
        s = enc.encode(np.array([1.0]), np.array([2.0]), np.array([0.5]), np.array([99]))
        assert 0 <= s[0] < enc.n_states

    def test_same_inputs_same_state(self, enc):
        args = (np.array([1.5]), np.array([2.0]), np.array([0.6]), np.array([3]))
        assert enc.encode(*args)[0] == enc.encode(*args)[0]

    def test_rejects_nonpositive_allocation(self, enc):
        with pytest.raises(ValueError, match="allocation"):
            enc.encode(np.array([1.0]), np.array([0.0]), np.array([0.5]), np.array([0]))

    def test_boundary_slack_is_deterministic(self, enc):
        # Exactly on a bin edge must not be ambiguous.
        alloc = np.array([2.0])
        power = alloc * (1 - enc.slack_edges[1])  # slack == edge
        s1 = enc.encode(power, alloc, np.array([0.5]), np.array([0]))
        s2 = enc.encode(power, alloc, np.array([0.5]), np.array([0]))
        assert s1[0] == s2[0]

    def test_all_slack_bins_reachable(self, enc):
        alloc = np.full(enc.n_slack_bins, 2.0)
        # Pick slacks strictly inside each bin.
        edges = (-np.inf,) + enc.slack_edges + (np.inf,)
        slacks = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            lo_f = max(lo, -1.0)
            hi_f = min(hi, 1.0)
            slacks.append((lo_f + hi_f) / 2)
        power = alloc * (1 - np.array(slacks))
        states = enc.encode(power, alloc, np.full(enc.n_slack_bins, 0.5), np.zeros(enc.n_slack_bins, dtype=int))
        assert len(set(states.tolist())) == enc.n_slack_bins


def digitize_reference(enc, power, allocation, ipc, levels):
    """encode as np.digitize states it, edges converted on every call."""
    slack = (allocation - power) / allocation
    idx = np.digitize(slack, enc.slack_edges)
    if enc.ipc_edges:
        idx = idx * enc.n_ipc_bins + np.digitize(ipc, enc.ipc_edges)
    if enc.include_level:
        idx = idx * enc.n_levels + np.clip(levels.astype(int), 0, enc.n_levels - 1)
    return idx.astype(int)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "enc",
    [
        StateEncoder.variant("slack", 8),
        StateEncoder.variant("slack_ipc", 8),
        StateEncoder.variant("slack_ipc_level", 8),
        StateEncoder(n_levels=4, slack_edges=(-1, 0, 0, 2), ipc_edges=(0.5, 0.5)),
    ],
)
def test_encode_matches_digitize_on_edges_and_specials(enc):
    """NaN and ±inf slack and IPC, and values on, just below and just
    above every edge: the searchsorted encoding is np.digitize's."""
    edges = np.array(enc.slack_edges + enc.ipc_edges, dtype=float)
    near = np.concatenate(
        [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
    )
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300, -1e300])
    values = np.concatenate([near, specials])
    # power = allocation * (1 - slack) puts slack on or next to the picked
    # values; the reference recomputes it from the same inputs.
    slack_pick, ipc_pick = np.meshgrid(values, values)
    slack = slack_pick.ravel()
    ipc = ipc_pick.ravel()
    allocation = np.full(slack.size, 4.0)
    power = allocation - slack * allocation
    levels = np.arange(slack.size) % 11 - 1
    got = enc.encode(power, allocation, ipc, levels)
    want = digitize_reference(enc, power, allocation, ipc, levels)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
