"""Tests for the gray-failure experiment sweep (detection + degradation)."""

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.eval.robustness import (
    GrayFailureConfig,
    main,
    run_gray_failure,
    summarize_gray,
    write_gray_csv,
)
from tests.eval.contract import folds, same_integer_metrics, same_records

SMALL = GrayFailureConfig(
    network_sizes=(10,),
    intensities=(0.0, 0.5),
    trials=2,
    n_services=5,
    seed=1,
)


@pytest.fixture(scope="module")
def records():
    return run_gray_failure(SMALL)


class TestConfigValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            GrayFailureConfig(trials=0)
        with pytest.raises(ValueError):
            GrayFailureConfig(network_sizes=())
        with pytest.raises(ValueError):
            GrayFailureConfig(intensities=())
        with pytest.raises(ValueError):
            GrayFailureConfig(intensities=(1.5,))
        with pytest.raises(ValueError):
            GrayFailureConfig(required_fraction=0.0)

    def test_protocol_config_is_adaptive_only_with_requirement(self):
        config = GrayFailureConfig()
        plain = config.protocol_config()
        assert plain.required_bandwidth is None
        assert plain.detector is None and plain.breaker is None
        adaptive = config.protocol_config(required_bandwidth=10.0)
        assert adaptive.required_bandwidth == 10.0
        assert adaptive.detector is not None
        assert adaptive.breaker is not None
        assert adaptive.retry_policy is not None


class TestSweep:
    def test_full_grid_covered(self, records):
        cells = {(r.network_size, r.intensity, r.trial) for r in records}
        assert cells == {
            (size, intensity, trial)
            for size in SMALL.network_sizes
            for intensity in SMALL.intensities
            for trial in range(SMALL.trials)
        }

    def test_intensity_zero_is_bit_for_bit_baseline(self, records):
        """Acceptance criterion: at intensity 0 the sweep reproduces the
        fault-free run exactly (graphs, messages, recovery logs)."""
        quiet = [r for r in records if r.intensity == 0.0]
        assert quiet and all(r.identical_to_baseline for r in quiet)
        assert all(r.outcome == "succeeded" for r in quiet)
        assert all(r.delivered_fraction == 1.0 for r in quiet)

    def test_every_session_reaches_a_terminal_state(self, records):
        assert all(
            r.outcome in {"succeeded", "degraded", "failed"} for r in records
        )
        for record in records:
            if record.outcome == "degraded":
                assert 0.0 < record.delivered_fraction < 1.0
            if record.outcome == "failed":
                assert record.failure_reason

    def test_rates_are_well_formed(self, records):
        for record in records:
            assert 0.0 <= record.delivered_fraction <= 1.0
            assert 0.0 <= record.false_suspicion_rate <= 1.0
            assert record.false_suspicions <= record.suspected
            assert record.detection_latency >= 0.0

    def test_deterministic(self):
        first = run_gray_failure(SMALL)
        second = run_gray_failure(SMALL)
        assert first == second

    def test_summarize_aggregates_cells(self, records):
        cells = summarize_gray(records)
        assert len(cells) == len(SMALL.network_sizes) * len(SMALL.intensities)
        by_key = {(c.network_size, c.intensity): c for c in cells}
        quiet = by_key[(10, 0.0)]
        assert quiet.all_identical_to_baseline
        assert quiet.committed_rate == 1.0
        for cell in cells:
            total = cell.committed_rate + cell.degraded_rate + cell.failed_rate
            assert total == pytest.approx(1.0)

    def test_csv_round_trip(self, records, tmp_path):
        path = tmp_path / "gray.csv"
        write_gray_csv(records, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(records) + 1
        header = lines[0].split(",")
        expected = [
            f.name
            for f in dataclasses.fields(records[0])
        ]
        assert header == expected
        assert "delivered_fraction" in header
        assert "detection_latency" in header
        assert "false_suspicion_rate" in header


class TestBaselineCampaign:
    """CI's fault-free campaign meets the service objectives it is held to:
    federation latency, no recovery, delivered bandwidth and no exception
    escaping a simulation handler, read straight off its records."""

    ARGS = ["--sizes", "10", "16", "--intensities", "0.0", "--trials", "3",
            "--seed", "0"]
    CONFIG = GrayFailureConfig(
        network_sizes=(10, 16), intensities=(0.0,), trials=3, seed=0
    )

    def test_baseline_campaign_meets_its_objectives(self, capsys):
        records = run_gray_failure(self.CONFIG)
        assert len(records) == 6
        for record in records:
            key = (record.network_size, record.trial)
            assert record.outcome == "succeeded", key
            assert record.identical_to_baseline, key
            assert record.convergence_time <= 600.0, key
            assert record.recovery_latency == 0.0, key
            assert record.delivered_fraction >= 0.5, key
        # The CLI exits 0 only when engine.handler_error did not grow.
        assert main(self.ARGS) == 0
        assert "engine.handler_error: 0" in capsys.readouterr().out


class TestParallelDeterminism:
    """Same seed => bit-identical records and metric counters between
    serial and multi-worker sweeps."""

    def test_parallel_records_bit_identical_to_serial(self):
        same_records(*folds("gray"))

    def test_metric_snapshots_match_across_worker_split(self):
        same_integer_metrics(*folds("gray"))

    def test_recovery_event_logs_identical_across_worker_split(self):
        """The gray arms actually recovered from something, and the pooled
        run logged event for event what the serial one did."""
        serial, pooled = folds("gray")
        assert any(r.recovery_events > 0 for r in serial.records)
        assert [r.recovery_events for r in serial.records] == [
            r.recovery_events for r in pooled.records
        ]


class TestCli:
    ARGS = ["--sizes", "10", "--intensities", "0.0", "--trials", "2"]

    def test_recording_a_pooled_campaign_is_refused(self, tmp_path, capsys):
        """``--record`` under ``--workers 2`` used to write a recording
        with no worker span or event in it and exit 0."""
        target = tmp_path / "flight.jsonl"
        with pytest.raises(SystemExit) as exit_info:
            main(self.ARGS + ["--workers", "2", "--record", str(target)])
        assert exit_info.value.code == 2
        error = capsys.readouterr().err
        assert "--record" in error and "--workers" in error
        assert not target.exists()

    def test_recording_a_serial_campaign_works(self, tmp_path, capsys):
        target = tmp_path / "flight.jsonl"
        assert main(self.ARGS + ["--record", str(target)]) == 0
        assert '"type":"span"' in target.read_text()
        assert "flight recording written" in capsys.readouterr().out

    def test_module_runs_without_import_warnings(self):
        """``python -m repro.eval.robustness`` used to warn that the
        package had already imported the module it was about to run."""
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.eval.robustness", "--help"],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.returncode == 0, done.stderr
