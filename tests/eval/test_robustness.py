"""Tests for the crash-tolerance (robustness) experiment sweep."""

import pytest

from repro.eval.figures import fig_robustness, format_table, write_csv
from repro.eval.robustness import RobustnessConfig, run_robustness, summarize
from tests.eval.contract import FAMILIES, folds, same_integer_metrics, same_records

SMALL = RobustnessConfig(
    network_sizes=(10, 14),
    crash_rates=(0.0, 0.25),
    trials=3,
    n_services=5,
    seed=1,
)


@pytest.fixture(scope="module")
def records():
    return run_robustness(SMALL)


class TestConfigValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            RobustnessConfig(trials=0)
        with pytest.raises(ValueError):
            RobustnessConfig(network_sizes=())
        with pytest.raises(ValueError):
            RobustnessConfig(crash_rates=())
        with pytest.raises(ValueError):
            RobustnessConfig(crash_rates=(1.5,))

    def test_instance_range_scales_with_network(self):
        config = RobustnessConfig()
        low, high = config.instance_range(30)
        assert low >= 1 and high > low


class TestSweep:
    def test_full_grid_covered(self, records):
        cells = {(r.network_size, r.crash_rate) for r in records}
        assert cells == {
            (size, rate)
            for size in SMALL.network_sizes
            for rate in SMALL.crash_rates
        }
        assert len(records) == (
            len(SMALL.network_sizes) * len(SMALL.crash_rates) * SMALL.trials
        )

    def test_crash_rate_zero_is_bit_for_bit_baseline(self, records):
        """Acceptance criterion: at crash rate 0 the experiment reproduces
        the crash-free run exactly -- same flow graphs, same message
        counts, same virtual convergence times."""
        crash_free = [r for r in records if r.crash_rate == 0.0]
        assert crash_free
        for record in crash_free:
            assert record.succeeded
            assert record.identical_to_baseline
            assert record.extra_messages == 0
            assert record.extra_time == 0.0

    def test_disturbed_runs_record_chaos(self, records):
        disturbed = [r for r in records if r.crash_rate > 0.0]
        assert disturbed
        assert any(r.crashes > 0 for r in disturbed)
        # Something was disturbed somewhere: the sweep recovered (extra
        # traffic) or failed (structured, with a reason).
        assert any(
            r.extra_messages > 0 or not r.succeeded for r in disturbed
        )
        for record in disturbed:
            if not record.succeeded:
                assert record.failure_reason

    def test_deterministic(self):
        config = RobustnessConfig(
            network_sizes=(10,), crash_rates=(0.2,), trials=2, seed=5
        )
        assert run_robustness(config) == run_robustness(config)


class TestSummaries:
    def test_summarize_aggregates_cells(self, records):
        cells = summarize(records)
        assert len(cells) == len(SMALL.network_sizes) * len(SMALL.crash_rates)
        for cell in cells:
            assert 0.0 <= cell.success_rate <= 1.0
            assert cell.trials == SMALL.trials
            if cell.crash_rate == 0.0:
                assert cell.success_rate == 1.0
                assert cell.all_identical_to_baseline

    def test_figure_table_renders_and_persists(self, records, tmp_path):
        table = fig_robustness(SMALL, records)
        assert table.sizes == SMALL.network_sizes
        assert set(table.series) == {"crash=0", "crash=0.25"}
        rendered = format_table(table)
        assert "crash_tolerance" in rendered
        path = write_csv(table, tmp_path)
        assert path.exists()
        assert path.read_text().startswith("network_size")


class TestParallelDeterminism:
    def test_parallel_records_bit_identical_to_serial(self):
        """Every RobustnessRecord field is virtual-time or a counter, so
        the parallel sweep must equal the serial one bit for bit."""
        same_records(*folds("crash"))


class TestMergedMetrics:
    def test_run_with_metrics_counters_match_across_worker_split(self):
        serial, pooled = folds("crash")
        same_integer_metrics(serial, pooled)
        config = FAMILIES["crash"][0]
        # Each cell runs 1 baseline + len(crash_rates) disturbed sessions.
        sessions = sum(serial.metrics["sflow.sessions"]["values"].values())
        assert sessions == config.trials * (1 + len(config.crash_rates))
        # The crash-rate-0.2 runs crashed instances; the registry saw them.
        crashes = sum(serial.metrics["sflow.crashes"]["values"].values())
        assert crashes == sum(r.crashes for r in serial.records) > 0
