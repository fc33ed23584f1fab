"""Property tests: truncation safety, sampling determinism, shard order.

The harvested stream fixtures are session-scoped and treated read-only;
each Hypothesis example only slices, permutes, or re-serializes them, so
examples stay cheap despite the simulator behind the fixture.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import JsonlRecorder, replay_events
from repro.offline import build_buffer, buffer_from_events, extract_runs

SHARED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@given(cut=st.integers(0, 200))
@SHARED
def test_truncated_stream_never_fabricates_transitions(harvest_streams, cut):
    """Cutting a stream anywhere yields a prefix of the full transition
    set — never a new, fabricated (state, action, next_state) row."""
    events = harvest_streams[0]
    prefix = events[: min(cut, len(events))]
    runs = extract_runs(prefix)
    full = extract_runs(events)[0]
    if not runs:
        # The cut fell before the run_start: nothing may be invented.
        assert all(e["type"] != "run_start" for e in prefix)
        return
    run = runs[0]
    t = run.n_transitions
    assert t == sum(e["type"] == "transition" for e in prefix)
    for field in ("states", "actions", "rewards", "next_states", "mask"):
        assert np.array_equal(
            getattr(run, field), getattr(full, field)[:t]
        ), field
    # Completed only if the cut kept the run_end.
    assert run.completed == any(e["type"] == "run_end" for e in prefix)


@given(cut=st.integers(0, 200))
@SHARED
def test_truncated_buffer_has_no_terminal_rows(harvest_streams, cut):
    events = harvest_streams[0]
    prefix = events[: min(cut, len(events))]
    if sum(e["type"] == "transition" for e in prefix) == 0:
        return
    buffer = buffer_from_events([prefix])
    if any(e["type"] == "run_end" for e in prefix):
        assert buffer.n_truncated_runs == 0
        assert buffer.dones.any()
    else:
        # A truncated run's last transition is mid-episode: bootstrapping
        # from it is fine, terminating on it would be fabrication.
        assert buffer.n_truncated_runs == 1
        assert not buffer.dones.any()


@given(torn_bytes=st.integers(1, 80), data=st.data())
@SHARED
def test_torn_tail_on_disk_never_fabricates(
    harvest_streams, tmp_path_factory, torn_bytes, data
):
    """A file cut mid-line loses at most the torn record — the ingested
    transitions are exactly the complete lines before the tear."""
    tmp_path = tmp_path_factory.mktemp("torn")
    path = tmp_path / "shard.jsonl"
    with JsonlRecorder(str(path)) as rec:
        replay_events(rec, harvest_streams[0])
    raw = path.read_bytes()
    lines = raw.splitlines(keepends=True)
    line_idx = data.draw(st.integers(2, len(lines) - 1))
    victim = lines[line_idx]
    kept = min(torn_bytes, len(victim) - 1)
    torn = b"".join(lines[:line_idx]) + victim[:kept]
    path.write_bytes(torn)
    buffer = build_buffer([path])
    expected = buffer_from_events(
        [harvest_streams[0][: _count_events(torn)]]
    )
    assert buffer.digest == expected.digest


def _count_events(torn: bytes) -> int:
    """Complete JSONL records in a byte blob with a possibly torn tail."""
    text = torn.decode("utf-8")
    return sum(1 for line in text.split("\n") if line and line.endswith("}"))


@given(seed=st.integers(0, 2**31), n=st.integers(0, 256))
@SHARED
def test_sample_deterministic_under_fixed_seed(replay_buffer, seed, n):
    a = replay_buffer.sample(n, seed=seed)
    b = replay_buffer.sample(n, seed=seed)
    for key in a:
        assert np.array_equal(a[key], b[key])
        assert a[key].shape[0] == n


@given(seed=st.integers(0, 2**31))
@SHARED
def test_shuffle_deterministic_and_row_preserving(replay_buffer, seed):
    s1 = replay_buffer.shuffled(seed)
    s2 = replay_buffer.shuffled(seed)
    assert s1.digest == s2.digest
    # A permutation: same multiset of (state, action, reward) rows.
    key = np.lexsort((s1.rewards, s1.actions, s1.states))
    ref = np.lexsort(
        (replay_buffer.rewards, replay_buffer.actions, replay_buffer.states)
    )
    assert np.array_equal(s1.states[key], replay_buffer.states[ref])
    assert np.array_equal(s1.rewards[key], replay_buffer.rewards[ref])


@given(data=st.data())
@SHARED
def test_shard_arrangement_invariance(harvest_streams, data):
    """Any permutation — with duplicates and truncated prefixes mixed in
    — of the same underlying runs builds a byte-identical buffer."""
    base = buffer_from_events(harvest_streams)
    shards = list(harvest_streams)
    if data.draw(st.booleans()):
        shards.append(harvest_streams[0])  # duplicate shard
    if data.draw(st.booleans()):
        cut = data.draw(st.integers(0, len(harvest_streams[1])))
        shards.append(harvest_streams[1][:cut])  # truncated prefix shard
    order = data.draw(st.permutations(range(len(shards))))
    arranged = buffer_from_events([shards[i] for i in order])
    assert arranged.digest == base.digest
    assert len(arranged) == len(base)


@pytest.mark.parametrize("stream_idx", [0, 1])
def test_full_stream_roundtrip_through_disk(
    harvest_streams, tmp_path, stream_idx
):
    path = tmp_path / "shard.jsonl"
    with JsonlRecorder(str(path)) as rec:
        replay_events(rec, harvest_streams[stream_idx])
    assert (
        build_buffer([path]).digest
        == buffer_from_events([harvest_streams[stream_idx]]).digest
    )
