"""Tests for the causal profiler subcommand (sflow-trace profile)."""

import json

import pytest

from repro import obs
from repro.core.sflow import SFlowAlgorithm, SFlowConfig
from repro.services.workloads import ScenarioConfig, generate_scenario
from repro.tools.trace import main as trace_main


@pytest.fixture(autouse=True)
def _no_active_recording():
    obs.stop_recording()
    yield
    obs.stop_recording()


def _record_campaign(path, seeds):
    """Flight-record one federation per seed into ``path``."""
    results = []
    with obs.recording(path):
        for seed in seeds:
            scenario = generate_scenario(
                ScenarioConfig(network_size=12, n_services=4, seed=seed)
            )
            results.append(
                SFlowAlgorithm(SFlowConfig()).federate(
                    scenario.requirement,
                    scenario.overlay,
                    source_instance=scenario.source_instance,
                )
            )
    return results


@pytest.fixture(scope="module")
def recorded_pair(tmp_path_factory):
    """A one-session recording and a three-session campaign."""
    root = tmp_path_factory.mktemp("profile")
    fast = root / "fast.jsonl"
    slow = root / "slow.jsonl"
    fast_results = _record_campaign(fast, [11])
    slow_results = _record_campaign(slow, [11, 12, 13])
    return fast, slow, fast_results, slow_results


class TestProfile:
    def test_end_to_end_prints_path_and_blame(self, recorded_pair, capsys):
        fast, _, results, _ = recorded_pair
        assert trace_main(["profile", str(fast)]) == 0
        out = capsys.readouterr().out
        assert "causal critical-path profile" in out
        assert "critical path:" in out
        assert "blame by kind:" in out
        assert "blame by link" in out
        assert "transmit" in out and "process" in out
        assert "phases (self vs. total sim-time):" in out

    def test_json_payload_matches_convergence_time(self, recorded_pair, capsys):
        fast, _, results, _ = recorded_pair
        assert trace_main(["profile", str(fast), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (session,) = payload["sessions"]
        assert session["path_duration"] == pytest.approx(
            results[0].convergence_time
        )
        assert payload["campaign"]["sessions"] == 1

    def test_session_filter(self, recorded_pair, capsys):
        _, slow, _, _ = recorded_pair
        assert trace_main(["profile", str(slow), "--session", "2"]) == 0
        out = capsys.readouterr().out
        assert "session 2:" in out
        assert "session 1:" not in out and "session 3:" not in out

    def test_session_filter_applies_to_json(self, recorded_pair, capsys):
        _, slow, _, slow_results = recorded_pair
        assert trace_main(["profile", str(slow), "--json", "--session", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (session,) = payload["sessions"]
        assert session["path_duration"] == pytest.approx(
            slow_results[1].convergence_time
        )
        assert payload["campaign"]["sessions"] == 1

    @pytest.mark.parametrize("session", ["0", "4"])
    def test_session_out_of_range_is_an_error(
        self, recorded_pair, capsys, session
    ):
        _, slow, _, _ = recorded_pair
        assert trace_main(["profile", str(slow), "--session", session]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "outside 1..3" in captured.err

    def test_multi_session_recording_gets_a_campaign_rollup(
        self, recorded_pair, capsys
    ):
        _, slow, _, _ = recorded_pair
        assert trace_main(["profile", str(slow)]) == 0
        out = capsys.readouterr().out
        assert "campaign: 3 sessions" in out
        assert "hot link" in out

    def test_out_writes_the_report(self, recorded_pair, tmp_path, capsys):
        fast, _, _, _ = recorded_pair
        out = tmp_path / "blame.txt"
        assert trace_main(["profile", str(fast), "--out", str(out)]) == 0
        assert "critical path:" in out.read_text()
        assert f"wrote {out}" in capsys.readouterr().err

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert trace_main(["profile", str(tmp_path / "absent.jsonl")]) == 2
        assert capsys.readouterr().err != ""

    def test_bad_top_k_is_an_error(self, recorded_pair, capsys):
        fast, _, _, _ = recorded_pair
        assert trace_main(["profile", str(fast), "--top-k", "0"]) == 2
