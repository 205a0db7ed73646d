"""Tests for the exporters: Prometheus text format, Chrome trace JSON."""

import json
import re

import pytest

from repro import obs
from repro.obs.export import chrome_trace, prometheus_exposition
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import Recording, load_recording

# The text-format grammar, per the Prometheus exposition-format spec.
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})?"
    r" (\+Inf|-Inf|NaN|-?[0-9.e+-]+)$"
)


def _assert_valid_exposition(text):
    assert text.endswith("\n")
    for line in text.splitlines():
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        assert _SAMPLE_RE.match(line), f"bad sample line: {line!r}"


class TestPrometheus:
    def _snapshot(self):
        reg = MetricsRegistry()
        reg.counter("sflow.test.sent").inc(20, outcome="ok")
        reg.gauge("monitor.bottleneck").set(2.5)
        hist = reg.histogram("sflow.test.lat", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        return reg.snapshot()

    def test_grammar(self):
        _assert_valid_exposition(prometheus_exposition(self._snapshot()))

    def test_counter_total_suffix_and_labels(self):
        text = prometheus_exposition(self._snapshot())
        assert 'sflow_test_sent_total{outcome="ok"} 20' in text
        assert "# TYPE sflow_test_sent_total counter" in text

    def test_gauge_value(self):
        text = prometheus_exposition(self._snapshot())
        assert "monitor_bottleneck 2.5" in text
        assert "# TYPE monitor_bottleneck gauge" in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        text = prometheus_exposition(self._snapshot())
        assert 'sflow_test_lat_bucket{le="1.0"} 1' in text
        assert 'sflow_test_lat_bucket{le="10.0"} 2' in text
        assert 'sflow_test_lat_bucket{le="+Inf"} 3' in text
        assert "sflow_test_lat_sum 55.5" in text
        assert "sflow_test_lat_count 3" in text

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.counter("sflow.test.c").inc(detail='say "hi"\\now')
        text = prometheus_exposition(reg.snapshot())
        assert '\\"hi\\"' in text
        assert "\\\\now" in text
        _assert_valid_exposition(text)

    def test_help_text_override(self):
        text = prometheus_exposition(
            self._snapshot(),
            help_texts={"monitor.bottleneck": "last bottleneck bandwidth"},
        )
        assert "# HELP monitor_bottleneck last bottleneck bandwidth" in text

    def test_empty_snapshot_is_empty_text(self):
        assert prometheus_exposition({}) == ""

    def test_leading_digit_names_are_prefixed(self):
        snapshot = {"9lives": {"kind": "counter", "values": {"": 1.0}}}
        text = prometheus_exposition(snapshot)
        assert "_9lives_total 1" in text
        _assert_valid_exposition(text)


class TestChromeTrace:
    def _recording(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.recording(path):
            from repro.obs.trace import tracer

            session = tracer().session("sflow.federate")
            session.child("negotiate").end(generations=1)
            session.event("recovery.crash", detail="x")
            session.end(outcome="succeeded")
        return load_recording(path)

    def test_payload_is_json_and_has_all_phases(self, tmp_path):
        payload = chrome_trace(self._recording(tmp_path))
        assert json.loads(json.dumps(payload)) == payload
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert phases == {"M", "X", "i"}
        assert payload["displayTimeUnit"] == "ms"

    def test_required_keys_per_phase(self, tmp_path):
        for event in chrome_trace(self._recording(tmp_path))["traceEvents"]:
            assert {"name", "ph", "pid"} <= set(event)
            if event["ph"] in ("X", "i"):
                assert "ts" in event
            if event["ph"] == "X":
                assert event["dur"] >= 0

    def test_sim_time_maps_to_microseconds(self, tmp_path):
        recording = Recording()
        recording.spans.append(
            {"name": "negotiate", "trace": 1, "span": 2, "parent": 1,
             "start": 2.0, "end": 5.0, "clock": "sim", "attrs": {}}
        )
        (span,) = [e for e in chrome_trace(recording)["traceEvents"] if e["ph"] == "X"]
        assert span["ts"] == 2_000_000.0  # 2.0 sim units in µs
        assert span["dur"] == 3_000_000.0

    def test_process_and_thread_metadata(self, tmp_path):
        payload = chrome_trace(self._recording(tmp_path))
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        names = {e["name"] for e in meta}
        assert names == {"process_name", "thread_name"}
        thread = next(e for e in meta if e["name"] == "thread_name")
        assert "sflow.federate" in thread["args"]["name"]

    def test_in_trace_events_use_thread_scope(self, tmp_path):
        payload = chrome_trace(self._recording(tmp_path))
        instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert all(e["s"] == "t" for e in instants)

    def test_free_standing_events_are_process_scoped(self):
        recording = Recording()
        recording.events.append(
            {"name": "dataflow.stream", "trace": None, "span": None,
             "time": 1.0, "clock": "sim", "attrs": {}}
        )
        payload = chrome_trace(recording)
        instant = next(e for e in payload["traceEvents"] if e["ph"] == "i")
        assert instant["s"] == "p" and instant["tid"] == 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
