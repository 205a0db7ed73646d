"""Tests for runtime QoS monitoring and automatic repair."""

import pytest

from repro.core.degradation import SessionState
from repro.core.monitor import MonitorConfig, MonitoredFederation
from repro.network.failures import (
    degrade_links,
    fail_instances,
    fail_links,
    revive_links,
)
from repro.services.workloads import travel_agency_scenario


@pytest.fixture
def scenario():
    return travel_agency_scenario()


def monitored(scenario, **config_kwargs):
    return MonitoredFederation(
        scenario.requirement,
        scenario.overlay,
        source_instance=scenario.source_instance,
        config=MonitorConfig(**config_kwargs) if config_kwargs else None,
    )


class TestConfig:
    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            MonitorConfig(probe_interval=0)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            MonitorConfig(bandwidth_threshold=0.0)
        with pytest.raises(ValueError):
            MonitorConfig(bandwidth_threshold=1.5)

    def test_invalid_max_repairs(self):
        with pytest.raises(ValueError):
            MonitorConfig(max_repairs=-1)


class TestQuietRun:
    def test_stable_overlay_never_repairs(self, scenario):
        fed = monitored(scenario)
        report = fed.run(until=50)
        assert report.repairs == 0
        assert not report.events_of("violation")
        assert len(report.timeline) == 10  # every 5 time units

    def test_probes_observe_baseline(self, scenario):
        fed = monitored(scenario)
        baseline = fed.graph.bottleneck_bandwidth()
        report = fed.run(until=20)
        for _time, observed in report.timeline:
            assert observed >= baseline  # probes may find better routes

    def test_invalid_until(self, scenario):
        fed = monitored(scenario)
        with pytest.raises(ValueError):
            fed.run(until=0)


class TestDegradation:
    def degrade_bottleneck(self, fed, factor):
        graph = fed.graph
        victims = [(e.src, e.dst) for e in graph.edges()]
        live = [
            (src, dst)
            for src, dst in victims
            if fed.overlay.link(src, dst) is not None
        ]

        def mutation(overlay):
            targets = [
                (src, dst) for src, dst in live
                if overlay.link(src, dst) is not None
            ]
            return degrade_links(overlay, targets, bandwidth_factor=factor)

        return mutation

    def test_mild_degradation_tolerated(self, scenario):
        fed = monitored(scenario, bandwidth_threshold=0.5)
        fed.schedule_mutation(7.0, self.degrade_bottleneck(fed, 0.9), "mild")
        report = fed.run(until=30)
        assert report.repairs == 0

    def test_severe_degradation_triggers_repair(self, scenario):
        fed = monitored(scenario, bandwidth_threshold=0.7)
        fed.schedule_mutation(
            7.0, self.degrade_bottleneck(fed, 0.05), "severe"
        )
        report = fed.run(until=30)
        assert report.repairs >= 1
        first_violation = report.events_of("violation")[0]
        assert first_violation.time == 10.0  # first probe after t=7
        assert report.events_of("repair")

    def test_repair_restores_quality(self, scenario):
        fed = monitored(scenario, bandwidth_threshold=0.7)
        before = fed.graph.bottleneck_bandwidth()
        fed.schedule_mutation(
            7.0, self.degrade_bottleneck(fed, 0.05), "severe"
        )
        report = fed.run(until=40)
        # After the repair, observed bottleneck recovers to a healthy level
        # (other instances/links were untouched).
        post_repair_probes = [
            obs
            for time, obs in report.timeline
            if time > report.events_of("repair")[0].time
        ]
        assert post_repair_probes
        assert max(post_repair_probes) > 0.5 * before


class TestInstanceFailure:
    def test_assigned_instance_crash_triggers_repair(self, scenario):
        fed = monitored(scenario)
        victim = fed.graph.instance_for("hotel")
        fed.schedule_mutation(
            12.0, lambda overlay: fail_instances(overlay, [victim]), "crash"
        )
        report = fed.run(until=40)
        assert report.repairs >= 1
        assert fed.graph.instance_for("hotel") != victim
        fed.graph.validate()

    def test_unassigned_instance_crash_ignored(self, scenario):
        fed = monitored(scenario)
        assigned = set(fed.graph.assignment.values())
        spare = next(
            inst
            for inst in scenario.overlay.instances_of("hotel")
            if inst not in assigned
        )
        fed.schedule_mutation(
            12.0, lambda overlay: fail_instances(overlay, [spare]), "spare crash"
        )
        report = fed.run(until=40)
        assert report.repairs == 0

    def test_max_repairs_respected(self, scenario):
        fed = monitored(scenario, max_repairs=0)
        victim = fed.graph.instance_for("hotel")
        fed.schedule_mutation(
            6.0, lambda overlay: fail_instances(overlay, [victim]), "crash"
        )
        report = fed.run(until=30)
        assert report.repairs == 0
        assert report.events_of("violation")  # detected but not acted on

    def test_mutation_in_past_rejected(self, scenario):
        fed = monitored(scenario)
        fed.run(until=10)
        with pytest.raises(ValueError):
            fed.schedule_mutation(5.0, lambda overlay: overlay)

    def test_unrepairable_failure_logged_not_fatal(self, scenario):
        """When a service loses its *last* instance, repair cannot succeed;
        the monitor must log repair_failed and keep running."""
        fed = monitored(scenario)
        victims = list(scenario.overlay.instances_of("hotel"))

        def wipe_hotel(overlay):
            present = [v for v in victims if v in overlay]
            return fail_instances(overlay, present)

        fed.schedule_mutation(8.0, wipe_hotel, "hotel extinct")
        report = fed.run(until=30)
        assert report.repairs == 0
        assert report.events_of("repair_failed")
        # The monitor survived to keep probing after the failure.
        assert any(t > 10.0 for t, _ in report.timeline)

    def test_event_log_is_chronological(self, scenario):
        fed = monitored(scenario)
        victim = fed.graph.instance_for("map")
        fed.schedule_mutation(
            8.0, lambda overlay: fail_instances(overlay, [victim]), "crash"
        )
        report = fed.run(until=30)
        times = [e.time for e in report.events]
        assert times == sorted(times)


class TestEventOrdering:
    def test_shared_timestamps_keep_log_order(self):
        """Events at one sim instant sort by their append sequence."""
        from repro.core.monitor import MonitorEvent, MonitorReport

        shuffled = [
            MonitorEvent(5.0, "violation", 1.0, seq=3),
            MonitorEvent(5.0, "probe", 1.0, seq=2),
            MonitorEvent(0.0, "probe", 4.0, seq=0),
            MonitorEvent(5.0, "repair", 4.0, seq=4),
            MonitorEvent(0.0, "mutation", 4.0, seq=1),
        ]
        report = MonitorReport(events=shuffled, final_graph=None, repairs=1)
        assert [(e.time, e.kind) for e in report.events] == [
            (0.0, "probe"),
            (0.0, "mutation"),
            (5.0, "probe"),
            (5.0, "violation"),
            (5.0, "repair"),
        ]
        assert [e.seq for e in report.events] == [0, 1, 2, 3, 4]

    def test_live_run_assigns_unique_increasing_seq(self, scenario):
        fed = monitored(scenario)
        victim = fed.graph.instance_for("map")
        fed.schedule_mutation(
            10.0, lambda overlay: fail_instances(overlay, [victim]), "crash"
        )
        report = fed.run(until=30)
        seqs = [e.seq for e in report.events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        # The mutation fires at t=10.0, the same instant as a probe round:
        # (time, seq) keeps their observed order stable.
        at_ten = [e for e in report.events if e.time == 10.0]
        assert len(at_ten) >= 2

    def test_events_of_unknown_kind_returns_empty(self, scenario):
        fed = monitored(scenario)
        report = fed.run(until=10)
        assert report.events_of("hologram") == []
        assert report.events_of("") == []


class TestSessionStateMachine:
    """COMMITTED -> DEGRADED -> (repair | refederate | FAILED) -> recover,
    active only when ``required_bandwidth`` is configured."""

    def all_graph_links(self, fed):
        return [
            (e.src, e.dst)
            for e in fed.graph.edges()
            if fed.overlay.link(e.src, e.dst) is not None
        ]

    def degrade_all(self, fed, factor):
        def mutation(overlay):
            targets = [
                (src, dst)
                for src, dst in self.all_graph_links(fed)
                if overlay.link(src, dst) is not None
            ]
            return degrade_links(overlay, targets, bandwidth_factor=factor)

        return mutation

    def monitored_with_requirement(self, scenario, fraction, **extra):
        fed = monitored(scenario)  # probe once to learn the baseline
        baseline = fed.graph.bottleneck_bandwidth()
        return MonitoredFederation(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
            config=MonitorConfig(
                required_bandwidth=baseline * fraction, **extra
            ),
        )

    def test_healthy_run_stays_committed(self, scenario):
        fed = self.monitored_with_requirement(scenario, 0.5)
        report = fed.run(until=30)
        assert report.final_state is SessionState.COMMITTED
        assert report.degradations == ()
        assert not report.events_of("degrade")

    def test_degradation_records_and_transitions(self, scenario):
        fed = self.monitored_with_requirement(scenario, 0.8)
        fed.schedule_mutation(12.0, self.degrade_all(fed, 0.01), "collapse")
        report = fed.run(until=40)
        degrades = report.events_of("degrade")
        assert len(degrades) == 1  # no flap-storm: one transition
        assert len(report.degradations) == 1
        record = report.degradations[0]
        assert record.achieved_bandwidth < record.required_bandwidth
        assert record.delivered_fraction < 1.0

    def test_heal_recovers_after_consecutive_probes(self, scenario):
        # Two repair charges: one for the collapse (which re-federates onto
        # alternative links), one to re-find the healed originals.
        fed = self.monitored_with_requirement(
            scenario, 0.8, recovery_probes=2, max_repairs=2,
            max_refederations=1,
        )
        reference = fed.overlay
        victims = self.all_graph_links(fed)

        def heal(overlay):
            targets = [
                (src, dst)
                for src, dst in victims
                if overlay.link(src, dst) is not None
            ]
            return revive_links(overlay, reference, targets)

        fed.schedule_mutation(12.0, self.degrade_all(fed, 0.01), "collapse")
        fed.schedule_mutation(32.0, heal, "heal")
        report = fed.run(until=60)
        assert report.events_of("degrade")
        recoveries = report.events_of("recover")
        assert len(recoveries) == 1
        # recovery_probes=2: the first healthy probe after the heal does
        # not recover; the second does.
        assert recoveries[0].time > 32.0 + fed.config.probe_interval
        assert report.final_state is SessionState.COMMITTED

    def test_unhealable_session_serves_degraded(self, scenario):
        fed = self.monitored_with_requirement(
            scenario, 0.8, max_repairs=1, max_refederations=1
        )
        fed.schedule_mutation(12.0, self.degrade_all(fed, 0.01), "collapse")
        report = fed.run(until=60)
        assert report.final_state is SessionState.DEGRADED
        assert report.refederations <= 1

    def test_refederation_respects_hysteresis_and_budget(self, scenario):
        fed = self.monitored_with_requirement(
            scenario,
            0.8,
            max_repairs=0,
            max_refederations=2,
            refederate_hysteresis=15.0,
        )
        fed.schedule_mutation(7.0, self.degrade_all(fed, 0.01), "collapse")
        report = fed.run(until=100)
        refederations = report.events_of("refederate")
        assert 1 <= len(refederations) <= 2
        for earlier, later in zip(refederations, refederations[1:]):
            assert later.time - earlier.time >= 15.0

    def test_total_outage_fails_structurally(self, scenario):
        fed = self.monitored_with_requirement(
            scenario, 0.5, max_repairs=0, max_refederations=0
        )
        source = fed.graph.instance_for(scenario.requirement.source)

        def cut_links(overlay):
            targets = [
                (link.src, link.dst) for link in overlay.out_links(source)
            ]
            return fail_links(overlay, targets)

        fed.schedule_mutation(12.0, cut_links, "amputate source")
        report = fed.run(until=40)
        assert report.final_state is SessionState.FAILED
        assert report.events_of("failed")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MonitorConfig(required_bandwidth=0.0)
        with pytest.raises(ValueError):
            MonitorConfig(recovery_probes=0)
        with pytest.raises(ValueError):
            MonitorConfig(refederate_hysteresis=-1.0)
        with pytest.raises(ValueError):
            MonitorConfig(max_refederations=-1)

    def test_legacy_reports_default_committed(self, scenario):
        report = monitored(scenario).run(until=20)
        assert report.final_state is SessionState.COMMITTED
        assert report.degradations == ()
        assert report.refederations == 0
