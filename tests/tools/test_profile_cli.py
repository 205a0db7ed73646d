"""Tests for the causal profiler subcommands (sflow-trace profile / diff)."""

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
    """A fast recording and a slower one (bigger campaign) to diff."""
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


class TestDiff:
    def test_identical_recordings_are_flat(self, recorded_pair, capsys):
        fast, _, _, _ = recorded_pair
        assert trace_main(["diff", str(fast), str(fast)]) == 0
        out = capsys.readouterr().out
        assert "verdict: ok" in out
        assert "+0.0%" in out

    def test_regression_fails_with_exit_one(self, recorded_pair, capsys):
        single, campaign, single_results, campaign_results = recorded_pair
        single_mean = single_results[0].convergence_time
        campaign_mean = sum(
            r.convergence_time for r in campaign_results
        ) / len(campaign_results)
        # The seed-11 scenario converges well above the campaign mean, so
        # campaign -> single is a genuine critical-path regression.
        assert single_mean > campaign_mean * 1.2
        assert trace_main(["diff", str(campaign), str(single)]) == 1
        captured = capsys.readouterr()
        assert "verdict: REGRESSION" in captured.out
        assert "FAIL: mean critical path regressed" in captured.err

    def test_threshold_is_tunable(self, recorded_pair, capsys):
        single, campaign, _, _ = recorded_pair
        assert (
            trace_main(
                ["diff", str(campaign), str(single), "--max-regression", "10.0"]
            )
            == 0
        )
        assert "verdict: ok" in capsys.readouterr().out

    def test_json_diff_payload(self, recorded_pair, capsys):
        single, campaign, single_results, campaign_results = recorded_pair
        assert (
            trace_main(["diff", str(campaign), str(single), "--json"]) == 1
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["regression"] is True
        assert payload["baseline_sessions"] == 3
        assert payload["candidate_sessions"] == 1
        assert payload["candidate_mean"] == pytest.approx(
            single_results[0].convergence_time
        )
        assert set(payload["kind_deltas"]) <= {
            "initial", "transmit", "process", "emit", "backoff",
        }

    def test_missing_candidate_is_an_error(self, recorded_pair, tmp_path):
        fast, _, _, _ = recorded_pair
        missing = tmp_path / "absent.jsonl"
        assert trace_main(["diff", str(fast), str(missing)]) == 2
