"""Recorder implementations: null no-op, JSONL streaming, buffering."""

import json

import numpy as np
import pytest

from repro.obs import (
    NULL_RECORDER,
    BufferRecorder,
    JsonlRecorder,
    NullRecorder,
    Recorder,
    replay_events,
)


class TestNullRecorder:
    def test_disabled(self):
        assert NullRecorder().enabled is False
        assert NULL_RECORDER.enabled is False

    def test_emit_is_a_total_no_op(self):
        rec = NullRecorder()
        # No validation, no return value — even garbage event types must
        # cost nothing on the disabled path.
        assert rec.emit("epoch", epoch=0) is None
        assert rec.emit("not-an-event-type") is None
        assert rec.emit("epoch", type="collides", seq=-1) is None

    def test_satisfies_protocol(self):
        assert isinstance(NullRecorder(), Recorder)
        assert isinstance(BufferRecorder(), Recorder)


class TestBufferRecorder:
    def test_collects_in_order_with_monotone_seq(self):
        rec = BufferRecorder()
        rec.emit("cell_start", cell="a")
        rec.emit("cell_done", cell="a", attempts=1)
        assert [e["type"] for e in rec.events] == ["cell_start", "cell_done"]
        assert [e["seq"] for e in rec.events] == [0, 1]

    def test_validates_payloads(self):
        rec = BufferRecorder()
        with pytest.raises(ValueError, match="missing required"):
            rec.emit("cell_done", cell="a")  # attempts missing
        assert rec.events == []


class TestJsonlRecorder:
    def test_streams_sorted_json_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlRecorder(str(path)) as rec:
            rec.emit("cell_start", cell="b")
            rec.emit("cell_start", cell="a")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert [r["seq"] for r in records] == [0, 1]
        assert [r["cell"] for r in records] == ["b", "a"]
        # sort_keys makes the byte content canonical.
        assert lines[0] == json.dumps(records[0], sort_keys=True)

    def test_emit_after_close_raises(self, tmp_path):
        rec = JsonlRecorder(str(tmp_path / "t.jsonl"))
        rec.close()
        assert rec.enabled is False
        with pytest.raises(ValueError, match="closed"):
            rec.emit("cell_start", cell="a")
        rec.close()  # idempotent

    def test_replay_events_restamps_sequence(self, tmp_path):
        buffer = BufferRecorder()
        buffer.emit("cell_start", cell="w")
        buffer.emit("cell_done", cell="w", attempts=2)
        path = tmp_path / "t.jsonl"
        with JsonlRecorder(str(path)) as rec:
            rec.emit("cell_start", cell="parent")
            replay_events(rec, buffer.events)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert records[2] == {
            "type": "cell_done", "seq": 2, "cell": "w", "attempts": 2,
        }

    def test_numpy_scalars_serialize(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlRecorder(str(path)) as rec:
            rec.emit(
                "epoch",
                epoch=np.int64(3),
                chip_power=np.float64(17.5),
                chip_instructions=np.float32(1.0),
                max_temperature=341.0,
            )
        record = json.loads(path.read_text())
        assert record["epoch"] == 3
        assert record["chip_power"] == 17.5

    def test_missing_parent_directory_fails_loudly(self, tmp_path):
        with pytest.raises(OSError):
            JsonlRecorder(str(tmp_path / "no" / "such" / "dir" / "t.jsonl"))
