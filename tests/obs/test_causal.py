"""Causal profiler: critical paths, blame, slack.

Unit coverage drives hand-built recordings through
:func:`repro.obs.causal.profile_session` so every hop kind and edge case
is pinned exactly; the end-to-end test profiles a real recorded
federation and checks the reconstruction against the protocol's own
convergence time.
"""

from __future__ import annotations

import io
import json

import pytest

import repro.obs as obs
from repro.core.sflow import SFlowAlgorithm
from repro.obs.causal import (
    STEP_KINDS,
    aggregate_profiles,
    merge_campaigns,
    profile_recording,
    profile_session,
)
from repro.obs.recorder import parse_recording
from repro.services.workloads import ScenarioConfig, generate_scenario


@pytest.fixture(autouse=True)
def _no_active_recording():
    obs.stop_recording()
    yield
    obs.stop_recording()


def _span(trace, span, name, start, end, parent=None, **attrs):
    return {
        "type": "span", "name": name, "trace": trace, "span": span,
        "parent": parent, "start": start, "end": end, "clock": "sim",
        "attrs": attrs,
    }


def _event(trace, name, time, **attrs):
    return {
        "type": "event", "name": name, "trace": trace, "span": 1,
        "time": time, "clock": "sim", "attrs": attrs,
    }


def _recording(records):
    return parse_recording(json.dumps(r) for r in records)


def _send(trace, time, mid, src, dst, cls="Msg"):
    return _event(
        trace, "channel.send", time,
        msg_id=mid, src=src, dst=dst, size=1, cls=cls,
    )


def _deliver(trace, time, mid, src, dst):
    return _event(trace, "channel.deliver", time, msg_id=mid, src=src, dst=dst)


def _activate(trace, time, instance, cause=0):
    return _event(trace, "node.activate", time, instance=instance, cause=cause)


def _chain_recording(extra=()):
    """start -(initial)-> a -(transmit)-> b -(backoff)-> -(transmit)-> c.

    Expected path: initial a 0..1, transmit a->b 1..3, process b 3..4,
    backoff b 4..5, transmit b->c 5..7, process c 7..8.
    """
    records = [
        _span(1, 1, "sflow.session", 0.0, 10.0, outcome="succeeded"),
        _send(1, 1.0, 1, "a", "b"),
        _deliver(1, 3.0, 1, "a", "b"),
        _activate(1, 4.0, "b", cause=1),
        _send(1, 5.0, 2, "b", "c"),
        _deliver(1, 7.0, 2, "b", "c"),
        _activate(1, 8.0, "c", cause=2),
    ]
    records.extend(extra)
    return _recording(records)


class TestCriticalPath:
    def test_chain_decomposes_into_all_hop_kinds(self):
        profile = profile_session(_chain_recording(), 1)
        assert [s.kind for s in profile.steps] == [
            "initial", "transmit", "process", "backoff", "transmit", "process",
        ]
        assert profile.path_duration == 8.0
        assert profile.duration == 10.0
        assert profile.kind_blame == {
            "initial": (1, 1.0),
            "transmit": (2, 4.0),
            "process": (2, 2.0),
            "backoff": (1, 1.0),
        }
        assert set(profile.kind_blame) <= set(STEP_KINDS)
        assert profile.link_blame == {("a", "b"): 2.0, ("b", "c"): 2.0}
        # b: process 1.0 + backoff 1.0; c: process 1.0.
        assert profile.node_blame == {"b": 2.0, "c": 1.0}
        assert profile.undelivered == 0

    def test_path_is_contiguous_in_time(self):
        profile = profile_session(_chain_recording(), 1)
        for earlier, later in zip(profile.steps, profile.steps[1:]):
            assert earlier.end == later.start

    def test_instant_forward_is_emit_not_backoff(self):
        records = [
            _span(1, 1, "sflow.session", 0.0, 5.0),
            _send(1, 1.0, 1, "a", "b"),
            _deliver(1, 2.0, 1, "a", "b"),
            _activate(1, 2.0, "b", cause=1),
            _send(1, 2.0, 2, "b", "c"),  # same instant as the activation
            _deliver(1, 3.0, 2, "b", "c"),
            _activate(1, 3.0, "c", cause=2),
        ]
        profile = profile_session(_recording(records), 1)
        kinds = [s.kind for s in profile.steps]
        assert "emit" in kinds and "backoff" not in kinds

    def test_unstamped_terminal_anchors_to_session_start(self):
        records = [
            _span(1, 1, "sflow.session", 2.0, 9.0),
            _activate(1, 6.0, "sink"),  # cause=0: pre-causal recording
        ]
        profile = profile_session(_recording(records), 1)
        (step,) = profile.steps
        assert step.kind == "initial"
        assert (step.start, step.end) == (2.0, 6.0)

    def test_duplicate_delivers_use_the_copy_before_the_activation(self):
        records = [
            _span(1, 1, "sflow.session", 0.0, 10.0),
            _send(1, 1.0, 1, "a", "b"),
            _deliver(1, 2.0, 1, "a", "b"),
            _deliver(1, 6.0, 1, "a", "b"),  # gray-model duplicate, too late
            _activate(1, 3.0, "b", cause=1),
        ]
        profile = profile_session(_recording(records), 1)
        transmit = next(s for s in profile.steps if s.kind == "transmit")
        assert (transmit.start, transmit.end) == (1.0, 2.0)

    def test_undelivered_sends_are_counted(self):
        extra = [_send(1, 6.0, 9, "b", "d")]  # no matching deliver
        profile = profile_session(_chain_recording(extra), 1)
        assert profile.undelivered == 1

    def test_missing_trace_returns_none(self):
        assert profile_session(_chain_recording(), 42) is None

    def test_session_without_causal_events_has_empty_path(self):
        records = [
            _span(1, 1, "monitor.session", 0.0, 4.0),
            _span(1, 2, "monitor.sweep", 1.0, 3.0, parent=1),
        ]
        profile = profile_session(_recording(records), 1)
        assert profile.steps == ()
        assert profile.path_duration == 0.0
        assert set(profile.span_table) == {"monitor.session", "monitor.sweep"}

    def test_span_table_self_time_excludes_children(self):
        records = [
            _span(1, 1, "sflow.session", 0.0, 10.0),
            _span(1, 2, "sflow.phase", 1.0, 9.0, parent=1),
            _span(1, 3, "sflow.inner", 2.0, 5.0, parent=2),
        ]
        profile = profile_session(_recording(records), 1)
        count, total, self_time, _wall = profile.span_table["sflow.session"]
        assert (count, total, self_time) == (1, 10.0, 2.0)  # 10 - child 8
        count, total, self_time, _wall = profile.span_table["sflow.phase"]
        assert (count, total, self_time) == (1, 8.0, 5.0)  # 8 - child 3


class TestSlack:
    def test_off_path_link_slack_is_the_join_float(self):
        # An alternative feed a->c delivered at t=2 but consumed only by
        # the terminal activation at t=8: it could be 6.0 slower.
        extra = [
            _send(1, 1.0, 3, "a", "c"),
            _deliver(1, 2.0, 3, "a", "c"),
        ]
        profile = profile_session(_chain_recording(extra), 1)
        assert profile.link_slack == {("a", "c"): 6.0}

    def test_on_path_links_are_excluded_from_slack(self):
        profile = profile_session(_chain_recording(), 1)
        assert ("a", "b") not in profile.link_slack
        assert ("b", "c") not in profile.link_slack

    def test_ack_messages_carry_no_slack(self):
        extra = [
            _send(1, 4.0, 3, "b", "a", cls="Ack"),
            _deliver(1, 5.0, 3, "b", "a"),
        ]
        profile = profile_session(_chain_recording(extra), 1)
        assert ("b", "a") not in profile.link_slack


class TestDeterminism:
    def test_same_recording_yields_identical_blame_tables(self):
        lines = [
            json.dumps(r)
            for r in [
                _span(1, 1, "sflow.session", 0.0, 10.0),
                _send(1, 1.0, 1, "a", "b"),
                _deliver(1, 3.0, 1, "a", "b"),
                _activate(1, 4.0, "b", cause=1),
                _send(1, 1.0, 2, "a", "c"),
                _deliver(1, 2.0, 2, "a", "c"),
            ]
        ]
        first = profile_session(parse_recording(lines), 1)
        second = profile_session(parse_recording(lines), 1)
        assert first.as_dict() == second.as_dict()


class TestCampaignAggregation:
    def test_fold_accumulates_and_merge_matches_serial(self):
        profiles = [profile_session(_chain_recording(), 1) for _ in range(4)]
        serial = aggregate_profiles(profiles)
        assert serial.sessions == 4
        assert serial.mean_path_duration == 8.0
        assert serial.link_blame[("a", "b")] == 8.0
        # Split fold in submission order == serial fold, bit for bit.
        left = aggregate_profiles(profiles[:2])
        right = aggregate_profiles(profiles[2:])
        merged = merge_campaigns(left, right)
        assert merged.as_dict() == serial.as_dict()

    def test_empty_campaign_has_zero_mean(self):
        campaign = aggregate_profiles([])
        assert campaign.sessions == 0
        assert campaign.mean_path_duration == 0.0


class TestEndToEnd:
    def test_recorded_federation_path_matches_convergence_time(self):
        scenario = generate_scenario(
            ScenarioConfig(network_size=12, n_services=4, seed=11)
        )
        sink = io.StringIO()
        with obs.recording(sink):
            result = SFlowAlgorithm().federate(
                scenario.requirement,
                scenario.overlay,
                source_instance=scenario.source_instance,
            )
        recording = parse_recording(sink.getvalue().splitlines())
        (profile,) = profile_recording(recording)
        assert profile.name == "sflow.federate"
        assert profile.steps  # causal stamps made it into the recording
        # The backward walk must land exactly on the protocol's own
        # convergence measurement: the critical path *is* the latency.
        assert profile.path_duration == pytest.approx(result.convergence_time)
        # Deterministic reconstruction: profile it again, bit for bit.
        again = profile_recording(
            parse_recording(sink.getvalue().splitlines())
        )[0]
        assert again.as_dict() == profile.as_dict()
