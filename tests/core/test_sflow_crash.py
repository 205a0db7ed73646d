"""Tests for crash-tolerant federation: mid-protocol crash-stop failures,
in-protocol failover, bounded re-federation, deadlines, and the structured
FAILED outcome (no exception may escape the simulation)."""

import pytest

from repro.core.sflow import (
    FederationOutcome,
    SFlowAlgorithm,
    SFlowConfig,
    _Federation,
)
from repro.errors import FederationError, SFlowError
from repro.network.failures import ChaosPlan, CrashEvent, CrashSchedule
from repro.network.overlay import ServiceInstance
from repro.routing.oracle import RouteOracle
from repro.services.workloads import ScenarioConfig, generate_scenario
from tests.core.test_sflow_golden import _pin

#: Recovery-friendly protocol knobs: suspicion after 3 transmissions and a
#: short backoff keep virtual recovery times small and deterministic.
CONFIG = SFlowConfig(
    retransmit_timeout=10.0,
    max_retries=2,
    failover_backoff=5.0,
    deadline=600.0,
)


#: Several instances per service (seed chosen so the baseline run
#: federates successfully).
SCENARIO = ScenarioConfig(
    network_size=16, n_services=5, instances_per_service=(2, 4), seed=7
)


@pytest.fixture
def scenario():
    return generate_scenario(SCENARIO)


def federate(scenario, chaos=None, config=CONFIG):
    return SFlowAlgorithm(config).federate(
        scenario.requirement,
        scenario.overlay,
        source_instance=scenario.source_instance,
        chaos=chaos,
    )


def pick_victim(scenario, baseline):
    """A downstream instance the crash-free run actually chose, with at
    least one alternative instance of its service available."""
    for sid, inst in sorted(baseline.flow_graph.assignment.items()):
        if inst == scenario.source_instance:
            continue
        if len(scenario.overlay.instances_of(sid)) > 1:
            return inst
    raise AssertionError("scenario has no replaceable downstream instance")


def crash_plan(*events, seed=3):
    return ChaosPlan(schedule=CrashSchedule(events=tuple(events)), seed=seed)


class TestCrashBeforeAck:
    def test_failover_completes_federation(self, scenario):
        baseline = federate(scenario)
        victim = pick_victim(scenario, baseline)
        # The victim dies before the sfederate naming it can be delivered.
        result = federate(scenario, crash_plan(CrashEvent(victim, at=0.5)))
        assert result.outcome is FederationOutcome.SUCCEEDED
        assert result.flow_graph is not None
        assert result.flow_graph.is_complete()
        assert victim not in result.flow_graph.assignment.values()
        result.flow_graph.validate()

    def test_recovery_is_logged_and_costed(self, scenario):
        baseline = federate(scenario)
        victim = pick_victim(scenario, baseline)
        result = federate(scenario, crash_plan(CrashEvent(victim, at=0.5)))
        kinds = [event.kind for event in result.recovery_log]
        assert "crash" in kinds
        assert "retry_exhausted" in kinds
        assert result.failovers + result.refederations >= 1
        # Virtual-time cost: recovery events are time-stamped and ordered,
        # and suspicion alone costs at least the retransmission budget.
        times = [event.time for event in result.recovery_log]
        assert times == sorted(times)
        assert result.convergence_time > baseline.convergence_time

    def test_recovery_overhead_in_messages(self, scenario):
        baseline = federate(scenario)
        victim = pick_victim(scenario, baseline)
        result = federate(scenario, crash_plan(CrashEvent(victim, at=0.5)))
        # Retransmissions toward the dead instance plus the re-send to the
        # replacement make the disturbed run strictly chattier.
        assert result.messages > baseline.messages


class TestUnrecoverableCrash:
    def test_sole_instance_crash_returns_structured_failure(self, scenario):
        baseline = federate(scenario)
        victim = pick_victim(scenario, baseline)
        # Kill *every* instance of the victim's service: no failover target
        # and no re-federation can help.
        events = tuple(
            CrashEvent(inst, at=0.5 + 0.01 * k)
            for k, inst in enumerate(scenario.overlay.instances_of(victim.sid))
        )
        result = federate(scenario, crash_plan(*events))
        assert result.outcome is FederationOutcome.FAILED
        assert result.flow_graph is None
        assert result.failure_reason
        assert result.recovery_log  # non-empty: the runtime tried
        assert any(e.kind == "failed" for e in result.recovery_log)

    def test_solve_raises_but_federate_does_not(self, scenario):
        baseline = federate(scenario)
        victim = pick_victim(scenario, baseline)
        events = tuple(
            CrashEvent(inst, at=0.5 + 0.01 * k)
            for k, inst in enumerate(scenario.overlay.instances_of(victim.sid))
        )
        # federate() never raises for in-protocol failures...
        result = federate(scenario, crash_plan(*events))
        assert result.outcome is FederationOutcome.FAILED
        # ...solve() keeps the exception-based contract of the
        # FederationAlgorithm interface.
        with pytest.raises(FederationError):
            SFlowAlgorithm(CONFIG).solve(
                scenario.requirement,
                scenario.overlay,
                source_instance=scenario.source_instance,
                chaos=crash_plan(*events),
            )


class TestCrashAndRevival:
    def test_revived_instance_receives_retransmission(self, scenario):
        baseline = federate(scenario)
        victim = pick_victim(scenario, baseline)
        # Down only briefly: the victim is back before the sender's retry
        # budget runs out, so a retransmission lands and no failover occurs.
        result = federate(
            scenario, crash_plan(CrashEvent(victim, at=0.5, revive_at=5.0))
        )
        assert result.outcome is FederationOutcome.SUCCEEDED
        kinds = [event.kind for event in result.recovery_log]
        assert "crash" in kinds
        assert "revival" in kinds
        assert result.failovers == 0
        # The revived instance keeps its place in the flow graph.
        assert result.flow_graph.assignment == baseline.flow_graph.assignment

    def test_revival_after_failover_does_not_confuse_the_run(self, scenario):
        baseline = federate(scenario)
        victim = pick_victim(scenario, baseline)
        # Revival long after the sender gave up: the failover decision must
        # stand and the run still completes exactly once.
        result = federate(
            scenario, crash_plan(CrashEvent(victim, at=0.5, revive_at=200.0))
        )
        assert result.outcome is FederationOutcome.SUCCEEDED
        assert result.flow_graph.is_complete()


class TestCrashedInstanceInCachedTrees:
    """Cold oracle == warm oracle.  Ego views and their routing trees are
    shared by every session on an overlay, so a crash must leave no trace
    in them: a planner learns of it only through its own suspicions, and a
    session's record cannot depend on what ran (or crashed) before it."""

    @staticmethod
    def plans(scenario):
        """The session under test (crash, failover, late revival) and
        another crash session with a different victim."""
        baseline = federate(scenario)
        victim = pick_victim(scenario, baseline)
        other = next(
            inst
            for inst in sorted(baseline.flow_graph.assignment.values())
            if inst not in (victim, scenario.source_instance)
        )
        return (
            crash_plan(CrashEvent(victim, at=0.5, revive_at=200.0), seed=21),
            crash_plan(CrashEvent(other, at=0.2, revive_at=5.0), seed=4),
        )

    @pytest.mark.parametrize(
        "earlier",
        [("calm",), ("crash",), ("calm", "crash"), ("crash", "calm"), ("self",)],
        ids="-".join,
    )
    def test_cold_equals_warm(self, scenario, earlier):
        """The same record on a cold oracle and after ``earlier`` sessions."""
        subject, other = self.plans(scenario)
        chaos = {"calm": None, "crash": other, "self": subject}
        RouteOracle.reset_default()
        cold = _pin(federate(scenario, subject))
        assert cold["crashes"] == 1 and cold["failovers"] + cold["refederations"]
        # A fresh overlay (nothing memoised on it) and a fresh oracle, then
        # other sessions warm both before the session under test runs.
        warm_scenario = generate_scenario(SCENARIO)
        RouteOracle.reset_default()
        for kind in earlier:
            federate(warm_scenario, chaos[kind])
        assert _pin(federate(warm_scenario, subject)) == cold
        # ... and once more with the views kept but the trees dropped.
        RouteOracle.reset_default()
        assert _pin(federate(warm_scenario, subject)) == cold


class TestNodesCreatedWhenFirstAddressed:
    """A session creates the protocol node of an instance only when an
    ``sfederate`` is first addressed to it; a crash of an instance nobody
    ever addressed must leave the session exactly as it is with a node
    created up front for every overlay instance."""

    @staticmethod
    def federate_with(monkeypatch, scenario, chaos, *, eager):
        """The session's result and the instances it made nodes for."""
        run = _Federation.run
        made = {}

        def wrapped(fed):
            if eager:
                for inst in fed.overlay.instances():
                    fed.endpoint(inst)
            result = run(fed)
            made["nodes"] = set(fed.nodes)
            return result

        with monkeypatch.context() as patch:
            patch.setattr(_Federation, "run", wrapped)
            result = federate(scenario, chaos)
        return result, made["nodes"]

    def test_crash_of_a_never_addressed_instance_matches_eager_nodes(
        self, scenario, monkeypatch
    ):
        baseline = federate(scenario)
        victim = pick_victim(scenario, baseline)
        used = set(baseline.flow_graph.assignment.values())
        bystander = next(
            inst
            for inst in scenario.overlay.instances()
            if inst not in used and inst.sid != victim.sid
        )
        chaos = crash_plan(
            CrashEvent(bystander, at=0.2, revive_at=40.0),
            CrashEvent(victim, at=0.5),
            seed=21,
        )
        lazy, lazy_nodes = self.federate_with(
            monkeypatch, scenario, chaos, eager=False
        )
        eager, eager_nodes = self.federate_with(
            monkeypatch, scenario, chaos, eager=True
        )
        assert bystander not in lazy_nodes  # the premise: never addressed
        assert victim in lazy_nodes
        assert eager_nodes == set(scenario.overlay.instances())
        assert lazy.crashes == 2 and lazy.failovers + lazy.refederations >= 1
        assert _pin(lazy) == _pin(eager)


class TestDeterminism:
    def test_recovery_is_deterministic_under_fixed_seed(self, scenario):
        baseline = federate(scenario)
        victim = pick_victim(scenario, baseline)
        chaos = crash_plan(CrashEvent(victim, at=0.5), seed=21)

        def run():
            result = federate(scenario, chaos)
            return (
                result.outcome,
                result.flow_graph.assignment
                if result.flow_graph is not None
                else None,
                result.messages,
                result.convergence_time,
                result.recovery_log,
            )

        assert run() == run()

    def test_inactive_chaos_plan_is_bit_for_bit_invisible(self, scenario):
        baseline = federate(scenario)
        result = federate(scenario, ChaosPlan())  # inactive plan
        assert result.flow_graph.assignment == baseline.flow_graph.assignment
        assert result.messages == baseline.messages
        assert result.convergence_time == baseline.convergence_time
        assert result.acks == baseline.acks == 0
        assert result.recovery_log == ()


class TestDeadline:
    def test_expired_deadlines_fail_the_run_structurally(self, scenario):
        baseline = federate(scenario)
        victim = pick_victim(scenario, baseline)
        # A deadline so tight no recovery can meet it: the watchdog burns
        # every re-federation, then fails the run -- without an exception.
        config = SFlowConfig(
            retransmit_timeout=10.0,
            max_retries=2,
            failover_backoff=5.0,
            deadline=1.0,
            max_refederations=1,
        )
        result = federate(
            scenario, crash_plan(CrashEvent(victim, at=0.5)), config=config
        )
        assert result.outcome is FederationOutcome.FAILED
        assert any(
            e.kind == "deadline_expired" for e in result.recovery_log
        )
        assert result.refederations <= 1

    def test_generous_deadline_never_triggers(self, scenario):
        config = SFlowConfig(deadline=10_000.0)
        result = federate(scenario, config=config)
        assert result.outcome is FederationOutcome.SUCCEEDED
        assert not any(
            e.kind == "deadline_expired" for e in result.recovery_log
        )


class TestConfigValidation:
    def test_recovery_knob_bounds(self):
        with pytest.raises(ValueError):
            SFlowConfig(max_failovers=-1)
        with pytest.raises(ValueError):
            SFlowConfig(failover_backoff=0.0)
        with pytest.raises(ValueError):
            SFlowConfig(deadline=0.0)
        with pytest.raises(ValueError):
            SFlowConfig(max_refederations=-1)

    def test_chaos_schedule_checked_against_overlay(self, scenario):
        ghost = ServiceInstance("ghost", 99)
        with pytest.raises(SFlowError, match="ghost"):
            federate(scenario, crash_plan(CrashEvent(ghost, at=1.0)))


class TestFlightRecording:
    def test_recovery_events_are_traced_in_sim_time(self, scenario, tmp_path):
        """With a recording active, every RecoveryEvent re-emits as a trace
        event at the same virtual time, inside the session's span."""
        from repro import obs

        baseline = federate(scenario)
        victim = pick_victim(scenario, baseline)
        path = tmp_path / "crash.jsonl"
        obs.stop_recording()
        with obs.recording(path):
            result = federate(scenario, chaos=crash_plan(CrashEvent(victim, at=1.0)))
        assert result.outcome is FederationOutcome.SUCCEEDED
        assert result.recovery_log

        recording = obs.load_recording(path)
        [session] = recording.sessions()
        traced = [
            event
            for event in recording.events_of(session["trace"])
            if event["name"].startswith("recovery.")
        ]
        assert [
            (event["time"], event["name"]) for event in traced
        ] == [
            (entry.time, "recovery." + entry.kind)
            for entry in result.recovery_log
        ]
        assert all(event["clock"] == "sim" for event in traced)
        assert session["attrs"]["failovers"] == result.failovers
        assert session["attrs"]["recovery_latency"] == pytest.approx(
            result.convergence_time - result.recovery_log[0].time
        )

    def test_undisturbed_run_records_no_recovery_events(self, scenario, tmp_path):
        from repro import obs

        path = tmp_path / "clean.jsonl"
        obs.stop_recording()
        with obs.recording(path):
            federate(scenario)
        recording = obs.load_recording(path)
        assert not any(
            e["name"].startswith("recovery.") for e in recording.events
        )
        assert recording.counter_total("sflow.recovery.events") >= 0
