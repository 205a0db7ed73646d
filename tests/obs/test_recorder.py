"""Tests for the flight recorder: JSONL stream, loader, obs front door."""

import json

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FORMAT, Recorder, load_recording
from repro.obs.trace import tracer


@pytest.fixture(autouse=True)
def _detached_tracer():
    """Every test starts and ends with no active recording."""
    obs.stop_recording()
    yield
    obs.stop_recording()


class TestRecorder:
    def test_stream_shape(self, tmp_path):
        path = tmp_path / "run.jsonl"
        reg = MetricsRegistry()
        reg.counter("before").inc(7)  # pre-recording activity: excluded
        recorder = Recorder(path, registry=reg, meta={"run": "t1"})
        reg.counter("c").inc(2)
        recorder.emit(
            {"type": "span", "name": "root", "trace": 1, "span": 1,
             "parent": None, "start": 0.0, "end": 3.0, "clock": "sim",
             "attrs": {"outcome": "ok"}}
        )
        recorder.emit(
            {"type": "event", "name": "tick", "trace": 1, "span": 1,
             "time": 1.0, "clock": "sim", "attrs": {}}
        )
        recorder.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["type"] for l in lines] == [
            "meta", "span", "event", "metrics", "summary",
        ]
        assert lines[0]["format"] == FORMAT
        assert lines[0]["run"] == "t1"
        assert lines[3]["snapshot"]["c"]["values"][""] == 2.0
        assert "before" not in lines[3]["snapshot"]
        assert lines[4] == {
            "type": "summary",
            "spans": 1,
            "events": 1,
            "sessions": [
                {"trace": 1, "name": "root", "start": 0.0, "end": 3.0,
                 "clock": "sim", "attrs": {"outcome": "ok"}}
            ],
        }

    def test_close_is_idempotent_and_emit_after_close_is_dropped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        recorder = Recorder(path, registry=MetricsRegistry())
        recorder.close()
        recorder.close()
        recorder.emit({"type": "event", "name": "late"})
        assert recorder.closed
        assert len(path.read_text().splitlines()) == 3  # meta+metrics+summary

    def test_non_json_attrs_are_stringified(self, tmp_path):
        path = tmp_path / "run.jsonl"
        recorder = Recorder(path, registry=MetricsRegistry())
        recorder.emit(
            {"type": "event", "name": "e", "trace": None, "span": None,
             "time": 0.0, "clock": "wall", "attrs": {"inst": object()}}
        )
        recorder.close()
        assert "object object" in path.read_text()


class TestLoader:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        reg = MetricsRegistry()
        with Recorder(path, registry=reg):
            reg.counter("sflow.sessions").inc(outcome="succeeded")
        recording = load_recording(path)
        assert recording.meta["format"] == FORMAT
        assert recording.counter_total("sflow.sessions") == 1.0
        assert recording.counter_total("missing") == 0.0
        assert recording.sessions() == []

    def test_unknown_record_types_ignored(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            '{"type":"meta","format":"x"}\n'
            '{"type":"hologram","data":1}\n'
            '\n'
            '{"type":"event","name":"e","trace":1,"span":1,"time":0,'
            '"clock":"sim","attrs":{}}\n'
        )
        recording = load_recording(path)
        assert len(recording.events) == 1
        assert recording.summary == {}  # truncated stream still loads

    def test_session_and_trace_accessors(self, tmp_path):
        path = tmp_path / "run.jsonl"
        recorder = Recorder(path, registry=MetricsRegistry())
        for trace in (1, 2):
            recorder.emit(
                {"type": "span", "name": "s", "trace": trace, "span": trace * 10,
                 "parent": None, "start": 0.0, "end": 1.0, "clock": "sim",
                 "attrs": {}}
            )
        recorder.emit(
            {"type": "span", "name": "child", "trace": 1, "span": 11,
             "parent": 10, "start": 0.0, "end": 0.5, "clock": "sim",
             "attrs": {}}
        )
        recorder.close()
        recording = load_recording(path)
        assert [s["trace"] for s in recording.sessions()] == [1, 2]
        assert len(recording.spans_of(1)) == 2
        assert recording.events_of(1) == []

    def test_format_is_v2_and_v1_still_loads(self, tmp_path):
        assert FORMAT == "sflow-flight-recorder/2"
        path = tmp_path / "v1.jsonl"
        path.write_text(
            '{"type":"meta","format":"sflow-flight-recorder/1"}\n'
            '{"type":"event","name":"e","trace":1,"span":1,"time":0,'
            '"clock":"sim","attrs":{}}\n'
        )
        recording = load_recording(path)
        assert len(recording.events) == 1
        assert recording.errors == []

    def test_malformed_lines_collect_into_errors(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"type":"meta","format":"sflow-flight-recorder/2"}\n'
            '{"type":"event","name":"ok","trace":1,"span":1,"time":0,'
            '"clock":"sim","attrs":{}}\n'
            '{"type":"event","name":"trunc","tra\n'
            '[1, 2, 3]\n'
        )
        recording = load_recording(path)
        assert [e["name"] for e in recording.events] == ["ok"]
        linenos = [lineno for lineno, _ in recording.errors]
        assert linenos == [3, 4]
        assert "malformed JSON" in recording.errors[0][1]
        assert "not an object" in recording.errors[1][1]


class TestObsFrontDoor:
    def test_recording_context_attaches_and_detaches(self, tmp_path):
        path = tmp_path / "run.jsonl"
        assert not tracer().enabled
        with obs.recording(path) as recorder:
            assert tracer().enabled
            assert obs.active_recorder() is recorder
            tracer().session("s").end()
        assert not tracer().enabled
        assert obs.active_recorder() is None
        assert len(load_recording(path).spans) == 1

    def test_start_twice_closes_first(self, tmp_path):
        first = obs.start_recording(tmp_path / "a.jsonl")
        second = obs.start_recording(tmp_path / "b.jsonl")
        assert first.closed
        assert obs.active_recorder() is second
        obs.stop_recording()
        assert second.closed

    def test_stop_without_start_is_noop(self):
        assert obs.stop_recording() is None
