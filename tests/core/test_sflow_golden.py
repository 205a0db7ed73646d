"""Golden sessions: exact protocol behaviour pinned across every recovery arm.

``golden/sflow_sessions.json`` holds what :class:`SFlowAlgorithm` produced,
per (scenario, arm), when the file was generated -- outcome, assignment,
every overlay path, the message/ack/retransmission accounting, the full
recovery log -- with floats stored as :meth:`float.hex` so "equal" means
bit-identical.  A change to the protocol or to its recovery layers that
moves anything fails here with the first differing field named.

Regenerate (only when a behaviour change is intended and explained)::

    PYTHONPATH=src python tests/core/test_sflow_golden.py --regenerate
"""

import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.sflow import FederationOutcome, SFlowAlgorithm, SFlowConfig
from repro.eval.robustness import GrayFailureConfig
from repro.network.failures import FailureInjector
from repro.services.requirement import RequirementClass
from repro.services.workloads import ScenarioConfig, generate_scenario

GOLDEN = Path(__file__).parent / "golden" / "sflow_sessions.json"

#: (name, requirement class, network size, services, seed)
SCENARIOS = (
    ("path-n16", RequirementClass.PATH, 16, 6, 7),
    ("path-n16b", RequirementClass.PATH, 16, 6, 26),
    ("disjoint-n16", RequirementClass.DISJOINT_PATHS, 16, 6, 2),
    ("disjoint-n18", RequirementClass.DISJOINT_PATHS, 18, 6, 3),
    ("splitmerge-n16", RequirementClass.SPLIT_MERGE, 16, 6, 26),
    ("splitmerge-n22", RequirementClass.SPLIT_MERGE, 22, 5, 21),
    ("general-n12", RequirementClass.GENERAL, 12, 6, 13),
    ("general-n16", RequirementClass.GENERAL, 16, 6, 11),
    ("general-n20", RequirementClass.GENERAL, 20, 6, 6),
)

#: Suspicion after three transmissions and a short backoff, as in the
#: crash-tolerance tests: recovery happens within tens of time units.
RECOVERY = dict(
    retransmit_timeout=10.0, max_retries=2, failover_backoff=5.0, deadline=600.0
)

ARMS = (
    "default",
    "loss",
    "crash-revive",
    "gray",
    "deadline",
    "link-state",
    "link-state-crash",
)


def _scenario(cls, size, services, seed):
    return generate_scenario(
        ScenarioConfig(
            network_size=size,
            n_services=services,
            requirement_class=cls,
            instances_per_service=(2, 4),
            seed=seed,
        )
    )


def _arm(arm, scenario):
    """``(config, chaos)`` of one arm on one scenario."""
    injector = FailureInjector(
        random.Random(scenario.seed ^ 0x6B8B4567),
        protect=[scenario.source_instance],
    )
    if arm == "default":
        return SFlowConfig(), None
    if arm == "loss":
        return SFlowConfig(loss_rate=0.2, loss_seed=scenario.seed, **RECOVERY), None
    if arm == "crash-revive":
        chaos = injector.chaos_plan(
            scenario.overlay,
            crash_rate=0.3,
            window=5.0,
            revive_after=40.0,
            delay_jitter=0.5,
            seed=scenario.seed,
        )
        return SFlowConfig(**RECOVERY), chaos
    if arm == "gray":
        gray = GrayFailureConfig()
        baseline = _federate(scenario, gray.protocol_config(), None)
        required = 0.8 * baseline.flow_graph.bottleneck_bandwidth()
        chaos = injector.gray_plan(
            scenario.overlay,
            intensity=0.6,
            window=gray.fault_window,
            heal_after=gray.heal_after,
            crash_fraction=gray.crash_fraction,
            seed=scenario.seed,
        )
        return gray.protocol_config(required_bandwidth=required), chaos
    if arm == "deadline":
        return replace(SFlowConfig(**RECOVERY), deadline=2.0), None
    if arm == "link-state":
        return SFlowConfig(use_link_state=True), None
    if arm == "link-state-crash":
        # Every ego view exists before the first crash, so the crash's
        # oracle invalidation touches all of them (not only the lazily
        # materialised ones of the "crash-revive" arm).
        chaos = injector.chaos_plan(
            scenario.overlay, crash_rate=0.2, window=5.0, seed=scenario.seed
        )
        return SFlowConfig(use_link_state=True, **RECOVERY), chaos
    raise AssertionError(arm)


def _federate(scenario, config, chaos):
    return SFlowAlgorithm(config).federate(
        scenario.requirement,
        scenario.overlay,
        source_instance=scenario.source_instance,
        chaos=chaos,
    )


def _hex(value):
    return None if value is None else float(value).hex()


def _pin(result):
    graph = result.flow_graph
    assignment = edges = None
    if graph is not None:
        assignment = {
            str(sid): str(inst) for sid, inst in sorted(graph.assignment.items())
        }
        edges = [
            {
                "edge": [str(edge.src), str(edge.dst)],
                "path": [str(hop) for hop in edge.overlay_path],
                "bandwidth": _hex(edge.quality.bandwidth),
                "latency": _hex(edge.quality.latency),
            }
            for edge in sorted(graph.edges(), key=lambda e: (str(e.src), str(e.dst)))
        ]
    degradation = result.degradation
    return {
        "outcome": result.outcome.value,
        "failure_reason": result.failure_reason,
        "assignment": assignment,
        "edges": edges,
        "messages": result.messages,
        "bytes": result.bytes,
        "convergence_time": _hex(result.convergence_time),
        "retransmissions": result.retransmissions,
        "lost_messages": result.lost_messages,
        "acks": result.acks,
        "crashes": result.crashes,
        "failovers": result.failovers,
        "refederations": result.refederations,
        "node_activations": result.node_activations,
        "link_state_messages": result.link_state_messages,
        "achieved_bandwidth": _hex(result.achieved_bandwidth),
        "degradation": None
        if degradation is None
        else {
            "time": _hex(degradation.time),
            "required_bandwidth": _hex(degradation.required_bandwidth),
            "achieved_bandwidth": _hex(degradation.achieved_bandwidth),
            "reason": degradation.reason,
        },
        "suspected": list(result.suspected),
        "recovery_log": [
            [_hex(event.time), event.kind, event.detail, event.instance]
            for event in result.recovery_log
        ],
    }


def _sessions():
    for name, cls, size, services, seed in SCENARIOS:
        scenario = _scenario(cls, size, services, seed)
        for arm in ARMS:
            config, chaos = _arm(arm, scenario)
            yield f"{name}/{arm}", _federate(scenario, config, chaos)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def sessions():
    return dict(_sessions())


def test_every_session_matches_the_golden_record(golden, sessions):
    assert sorted(sessions) == sorted(golden)
    for key, result in sessions.items():
        pinned, expected = _pin(result), golden[key]
        for field_name in expected:
            assert pinned[field_name] == expected[field_name], (key, field_name)
        assert pinned == expected, key


def test_the_arms_exercise_every_recovery_path(sessions):
    """The golden file is only a guard if the sessions actually climb the
    recovery machinery; keep that true when scenarios are edited."""
    results = list(sessions.values())
    kinds = {event.kind for result in results for event in result.recovery_log}
    assert {
        "crash", "revival", "retry_exhausted", "suspect", "unsuspect",
        "quarantine", "failover", "abandon", "refederate", "deadline_expired",
        "degrade_detected", "degrade_repair", "degraded", "recovered", "failed",
    } <= kinds
    assert {result.outcome for result in results} == set(FederationOutcome)
    assert any(result.retransmissions and result.lost_messages for result in results)
    undisturbed = sessions["path-n16/default"]
    assert undisturbed.acks == 0 and not undisturbed.recovery_log


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({key: _pin(r) for key, r in _sessions()}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
