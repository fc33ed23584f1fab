"""Trace → replay-buffer ingestion: extraction, dedupe, content addressing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import JsonlRecorder
from repro.offline import build_buffer, buffer_from_events, extract_runs

from tests.offline.conftest import HARVEST_SEEDS, N_CORES, N_EPOCHS


class TestHarvestStream:
    def test_transition_events_present(self, harvest_streams):
        for events in harvest_streams:
            kinds = [e["type"] for e in events]
            assert kinds.count("run_start") == 1
            assert kinds.count("run_end") == 1
            assert kinds.count("epoch") == N_EPOCHS
            # The learner's first decide sees no observation and its
            # second seeds the (state, action) pair, so updates — and
            # therefore transitions — start at the third epoch.
            assert kinds.count("transition") == N_EPOCHS - 2

    def test_manifest_carries_learner_geometry(self, harvest_streams):
        manifest = harvest_streams[0][0]
        assert manifest["type"] == "run_start"
        assert manifest["harvest"] is True
        assert manifest["rl_n_states"] == 20
        assert manifest["rl_n_actions"] == 5
        assert manifest["rl_action_mode"] == "relative"
        assert 0.0 < manifest["rl_gamma"] < 1.0

    def test_transitions_are_self_contained(self, harvest_streams):
        # Every transition carries its own successor: consecutive events
        # chain (next_states of one == states of the next) precisely
        # because each row is a complete (s, a, r, s') record.
        events = [e for e in harvest_streams[0] if e["type"] == "transition"]
        for prev, cur in zip(events, events[1:]):
            assert prev["next_states"] == cur["states"]
            assert prev["next_actions"] == cur["actions"]


class TestExtractRuns:
    def test_complete_run(self, harvest_streams):
        runs = extract_runs(harvest_streams[0])
        assert len(runs) == 1
        run = runs[0]
        assert run.completed
        assert run.n_transitions == N_EPOCHS - 2
        assert run.states.shape == (N_EPOCHS - 2, N_CORES)
        assert run.mask.dtype == bool

    def test_truncated_run_not_completed(self, harvest_streams):
        events = harvest_streams[0]
        cut = next(
            i for i, e in enumerate(events) if e["type"] == "transition"
        ) + 4
        runs = extract_runs(events[:cut])
        assert len(runs) == 1
        assert not runs[0].completed
        assert runs[0].n_transitions < N_EPOCHS - 2

    def test_non_harvest_trace_extracts_nothing(self, harvest_streams):
        events = [e for e in harvest_streams[0] if e["type"] != "transition"]
        start = dict(events[0])
        start["harvest"] = False
        assert extract_runs([start] + events[1:]) == []

    def test_transition_outside_run_raises(self, harvest_streams):
        transition = next(
            e for e in harvest_streams[0] if e["type"] == "transition"
        )
        with pytest.raises(ValueError, match="outside any run"):
            extract_runs([transition])

    def test_out_of_range_state_raises(self, harvest_streams):
        events = [dict(e) for e in harvest_streams[0]]
        bad = next(e for e in events if e["type"] == "transition")
        bad["states"] = [999] * N_CORES
        with pytest.raises(ValueError, match="out of range"):
            extract_runs(events)

    def test_run_key_is_identity_digest(self, harvest_streams):
        run0 = extract_runs(harvest_streams[0])[0]
        run1 = extract_runs(harvest_streams[1])[0]
        assert run0.run_key != run1.run_key  # different seeds
        assert run0.run_key == extract_runs(harvest_streams[0])[0].run_key


class TestBufferGeometry:
    def test_shapes_and_metadata(self, replay_buffer):
        b = replay_buffer
        assert len(b) > 0
        assert b.n_states == 20
        assert b.n_actions == 5
        assert b.n_cores == N_CORES
        assert b.action_mode == "relative"
        assert b.n_runs == len(HARVEST_SEEDS)
        assert b.n_truncated_runs == 0
        for arr in (b.states, b.actions, b.next_states, b.next_actions):
            assert arr.dtype == np.int64
        assert b.rewards.dtype == np.float64
        assert b.dones.dtype == bool

    def test_done_only_on_final_transition_of_completed_runs(
        self, replay_buffer
    ):
        # One terminal row-block per completed run, at most n_cores rows.
        assert 0 < int(replay_buffer.dones.sum()) <= len(HARVEST_SEEDS) * N_CORES

    def test_index_ranges(self, replay_buffer):
        b = replay_buffer
        assert b.states.min() >= 0 and b.states.max() < b.n_states
        assert b.actions.min() >= 0 and b.actions.max() < b.n_actions


class TestCanonicalization:
    def test_duplicate_shards_ingested_once(self, harvest_streams):
        once = buffer_from_events(harvest_streams)
        doubled = buffer_from_events(list(harvest_streams) * 2)
        assert len(doubled) == len(once)
        assert doubled.digest == once.digest
        assert doubled.n_runs == once.n_runs

    def test_arrangement_invariance(self, harvest_streams):
        fwd = buffer_from_events(harvest_streams)
        rev = buffer_from_events(list(reversed(harvest_streams)))
        assert rev.digest == fwd.digest
        assert np.array_equal(rev.states, fwd.states)
        assert np.array_equal(rev.rewards, fwd.rewards)

    def test_truncated_shard_subsumed_by_complete_one(self, harvest_streams):
        full = buffer_from_events(harvest_streams)
        cut = len(harvest_streams[0]) // 2
        with_prefix = buffer_from_events(
            [harvest_streams[0][:cut]] + list(harvest_streams)
        )
        assert with_prefix.digest == full.digest
        assert with_prefix.n_truncated_runs == 0

    def test_prefix_missing_only_run_end_loses_tie(self, harvest_streams):
        # Same transition count as the complete shard; listed first, it
        # must still yield to the completed one (terminal flag kept).
        full = buffer_from_events(harvest_streams)
        assert harvest_streams[0][-1]["type"] == "run_end"
        with_prefix = buffer_from_events(
            [harvest_streams[0][:-1]] + list(harvest_streams)
        )
        assert with_prefix.digest == full.digest
        assert with_prefix.n_truncated_runs == 0

    def test_mixed_geometry_shards_rejected(self, harvest_streams):
        events = [dict(e) for e in harvest_streams[1]]
        events[0] = dict(events[0], rl_gamma=0.99)
        with pytest.raises(ValueError, match="mix learner geometries"):
            buffer_from_events([harvest_streams[0], events])

    def test_no_harvest_runs_is_an_error(self):
        with pytest.raises(ValueError, match="no harvested runs"):
            buffer_from_events([[]])


class TestSampling:
    def test_sample_deterministic_in_seed(self, replay_buffer):
        a = replay_buffer.sample(64, seed=7)
        b = replay_buffer.sample(64, seed=7)
        for key in a:
            assert np.array_equal(a[key], b[key])

    def test_shuffled_deterministic_and_preserves_rows(self, replay_buffer):
        s1 = replay_buffer.shuffled(seed=3)
        s2 = replay_buffer.shuffled(seed=3)
        assert s1.digest == s2.digest
        assert len(s1) == len(replay_buffer)
        assert np.array_equal(
            np.sort(s1.rewards), np.sort(replay_buffer.rewards)
        )

    def test_sample_rejects_negative(self, replay_buffer):
        with pytest.raises(ValueError, match=">= 0"):
            replay_buffer.sample(-1, seed=0)


class TestFileIngestion:
    def test_build_buffer_matches_in_memory(
        self, harvest_streams, replay_buffer, tmp_path
    ):
        paths = []
        for i, events in enumerate(harvest_streams):
            path = tmp_path / f"shard{i}.jsonl"
            with JsonlRecorder(str(path)) as rec:
                rec.record_all(events)
            paths.append(path)
        from_files = build_buffer(paths)
        assert from_files.digest == replay_buffer.digest

    def test_torn_trailing_line_tolerated(
        self, harvest_streams, replay_buffer, tmp_path
    ):
        path = tmp_path / "torn.jsonl"
        with JsonlRecorder(str(path)) as rec:
            for events in harvest_streams:
                rec.record_all(events)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "transition", "sta')
        assert build_buffer([path]).digest == replay_buffer.digest

    def test_empty_path_list_rejected(self):
        with pytest.raises(ValueError, match="at least one trace path"):
            build_buffer([])
