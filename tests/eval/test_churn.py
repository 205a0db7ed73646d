"""Tests for the churn experiment."""

import pytest

from benchmarks.churn import ChurnConfig, ChurnReport, run_churn_experiment
from repro.core.monitor import MonitorConfig
from repro.services.workloads import (
    ScenarioConfig,
    generate_scenario,
    travel_agency_scenario,
)


@pytest.fixture
def scenario():
    return travel_agency_scenario()


class TestConfig:
    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            ChurnConfig(duration=0)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            ChurnConfig(churn_interval=0)

    def test_invalid_rejoin_delay(self):
        with pytest.raises(ValueError):
            ChurnConfig(rejoin_delay=0)

    def test_permanent_departures_allowed(self):
        ChurnConfig(rejoin_delay=None)


class TestRun:
    def test_quiet_config_full_availability(self, scenario):
        # Churn slower than the experiment: nothing ever leaves.
        report = run_churn_experiment(
            scenario, ChurnConfig(duration=30, churn_interval=100)
        )
        assert report.availability == 1.0
        assert report.repairs == 0
        assert not report.departures

    def test_churn_produces_departures_and_rejoins(self, scenario):
        report = run_churn_experiment(
            scenario,
            ChurnConfig(duration=100, churn_interval=20, rejoin_delay=10),
        )
        assert report.departures
        assert report.rejoins
        # Every rejoin corresponds to an earlier departure of the same node.
        departed = {inst for _, inst in report.departures}
        assert {inst for _, inst in report.rejoins} <= departed

    def test_rejoin_restores_connectivity(self, scenario):
        report = run_churn_experiment(
            scenario,
            ChurnConfig(duration=100, churn_interval=20, rejoin_delay=10),
        )
        final_overlay_events = report.monitor_report.events_of("mutation")
        assert final_overlay_events  # churn visible in the event log

    def test_federation_survives_aggressive_churn(self, scenario):
        report = run_churn_experiment(
            scenario,
            ChurnConfig(
                duration=120,
                churn_interval=10,
                rejoin_delay=25,
                monitor=MonitorConfig(probe_interval=2.0),
            ),
        )
        final = report.monitor_report.final_graph
        final.validate()
        assert report.final_bandwidth > 0
        assert 0.0 <= report.availability <= 1.0

    def test_repairs_triggered_when_assigned_instances_leave(self, scenario):
        # High churn + long absence: assigned instances will be hit.
        report = run_churn_experiment(
            scenario,
            ChurnConfig(
                duration=150,
                churn_interval=8,
                rejoin_delay=None,
                monitor=MonitorConfig(probe_interval=2.0),
                seed=1,
            ),
        )
        assert report.repairs >= 1

    def test_deterministic(self, scenario):
        config = ChurnConfig(duration=80, churn_interval=15, seed=3)
        a = run_churn_experiment(scenario, config)
        b = run_churn_experiment(scenario, config)
        assert a.departures == b.departures
        assert a.repairs == b.repairs
        assert a.availability == b.availability

    def test_bandwidth_retention_metric(self, scenario):
        report = run_churn_experiment(
            scenario, ChurnConfig(duration=60, churn_interval=15)
        )
        assert report.bandwidth_retention == pytest.approx(
            report.final_bandwidth / report.initial_bandwidth
        )

    def test_availability_grades_against_required_bandwidth(self):
        # With a requirement the monitor enforces that absolute floor, so
        # availability counts the probes that meet it -- not 0.7x initial.
        scenario = generate_scenario(
            ScenarioConfig(
                network_size=20, n_services=4, instances_per_service=(2, 4), seed=0
            )
        )
        initial = run_churn_experiment(
            scenario, ChurnConfig(duration=1, churn_interval=10)
        ).initial_bandwidth
        required = 0.95 * initial
        report = run_churn_experiment(
            scenario,
            ChurnConfig(
                duration=100,
                churn_interval=10,
                rejoin_delay=15,
                monitor=MonitorConfig(probe_interval=2.0, required_bandwidth=required),
            ),
        )
        probes = report.monitor_report.timeline
        met = sum(1 for _, observed in probes if observed >= required)
        assert report.availability == pytest.approx(met / len(probes))
        assert report.availability < 1.0
