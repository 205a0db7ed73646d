#!/usr/bin/env python3
"""Agile federation: surviving instance failures with incremental repair.

Establishes a federation, then kills service instances out from under it
and repairs the flow graph incrementally -- comparing locality and quality
against a from-scratch re-federation, and streaming data through the
repaired graph to prove it actually delivers.  Finally, crashes a chosen
instance *while the sfederate protocol itself is still running* and shows
the in-protocol failover recovering mid-federation.

Run:  python examples/failure_recovery.py

Set ``SFLOW_RECORD=/path/to/run.jsonl`` to flight-record the run --
``python -m repro.tools.trace run.jsonl`` then renders the sim-time
timeline (crash, retries, failover) and the protocol metric summary, and
``python -m repro.tools.trace profile run.jsonl`` says which hops the
failover's recovery time went to.
"""

import os
import random

from repro import obs
from repro import (
    ChaosPlan,
    CrashEvent,
    CrashSchedule,
    MonitorConfig,
    MonitoredFederation,
    ReductionSolver,
    SFlowAlgorithm,
    SFlowConfig,
    SessionState,
    degrade_links,
    revive_links,
    travel_agency_scenario,
)
from repro.core.repair import diagnose, repair_flow_graph
from repro.network.failures import FailureInjector
from repro.services.execution import StreamConfig, simulate_stream


def main() -> None:
    scenario = travel_agency_scenario()
    print(scenario.describe())

    solver = ReductionSolver()
    graph = solver.solve(
        scenario.requirement,
        scenario.overlay,
        source_instance=scenario.source_instance,
    )
    print("\n=== established federation ===")
    for sid in scenario.requirement.services():
        print(f"  {sid:<14} -> {graph.instance_for(sid)}")
    print(f"  quality: bw={graph.bottleneck_bandwidth():.2f}, "
          f"lat={graph.end_to_end_latency():.2f}")

    # Kill two instances (never the consumer-facing source).
    injector = FailureInjector(
        random.Random(4), protect=[scenario.source_instance]
    )
    victims = [graph.instance_for("hotel"), graph.instance_for("map")]
    plan = injector.targeted_failure(victims)
    after = plan.apply(scenario.overlay)
    print(f"\n=== failure: {', '.join(map(str, victims))} crash ===")
    broken = diagnose(graph, after)
    print(f"  diagnosed broken services: {sorted(broken)}")

    report = repair_flow_graph(graph, after)
    print("\n=== incremental repair ===")
    for sid in sorted(report.repaired_services):
        print(f"  {sid:<14} moved to {report.graph.instance_for(sid)}")
    if report.unpinned_services:
        print(f"  additionally re-decided: {sorted(report.unpinned_services)}")
    print(f"  surviving assignments preserved: "
          f"{report.preserved_fraction * 100:.0f}%")
    print(f"  quality after repair: bw={report.graph.bottleneck_bandwidth():.2f}, "
          f"lat={report.graph.end_to_end_latency():.2f}")

    fresh = solver.solve(
        scenario.requirement, after, source_instance=scenario.source_instance
    )
    moved = sum(
        1
        for sid in scenario.requirement.services()
        if fresh.instance_for(sid) != graph.instance_for(sid)
    )
    print("\n=== from-scratch re-federation (for comparison) ===")
    print(f"  quality: bw={fresh.bottleneck_bandwidth():.2f}, "
          f"lat={fresh.end_to_end_latency():.2f}")
    print(f"  services moved vs old federation: {moved}")
    ratio = report.graph.bottleneck_bandwidth() / fresh.bottleneck_bandwidth()
    print(f"  repair keeps {ratio * 100:.0f}% of the fresh bandwidth while "
          f"touching only {len(report.touched)} service(s)")

    print("\n=== streaming through the repaired federation ===")
    stream = simulate_stream(report.graph, StreamConfig(units=100))
    print(f"  measured throughput : {stream.throughput:.2f} units/time")
    print(f"  bottleneck predicts : {stream.predicted_throughput:.2f}")
    print(f"  first unit delivered: {stream.first_delivery:.2f}")

    # ------------------------------------------------------------------
    # Mid-protocol crash: the instance the protocol is about to choose
    # dies *while the federation is running* -- the upstream node detects
    # the silence, fails over to the next-best candidate, and the run
    # still completes (structured FAILED result if it could not).
    # ------------------------------------------------------------------
    print("\n=== mid-protocol crash: failover while federating ===")
    config = SFlowConfig(
        retransmit_timeout=10.0, max_retries=2, failover_backoff=5.0,
        deadline=600.0,
    )
    sflow = SFlowAlgorithm(config)
    undisturbed = sflow.federate(
        scenario.requirement,
        scenario.overlay,
        source_instance=scenario.source_instance,
    )
    victim = undisturbed.flow_graph.instance_for("hotel")
    print(f"  crash-free run picks {victim}; crashing it at t=0.5 ...")
    chaos = ChaosPlan(
        schedule=CrashSchedule(events=(CrashEvent(victim, at=0.5),)),
        seed=4,
    )
    result = sflow.federate(
        scenario.requirement,
        scenario.overlay,
        source_instance=scenario.source_instance,
        chaos=chaos,
    )
    print(f"  outcome: {result.outcome.value} "
          f"(failovers={result.failovers}, "
          f"re-federations={result.refederations})")
    for event in result.recovery_log:
        print(f"    t={event.time:7.2f}  {event.kind:<16} {event.detail}")
    if result.flow_graph is not None:
        print(f"  hotel now served by {result.flow_graph.instance_for('hotel')}")
        print(f"  recovery overhead: "
              f"+{result.messages - undisturbed.messages} messages, "
              f"+{result.convergence_time - undisturbed.convergence_time:.2f} "
              f"virtual time")

    # ------------------------------------------------------------------
    # Gray failure: a partition degrades the committed session's links
    # to a trickle, the session serves DEGRADED at its best achievable
    # bandwidth, and when the partition heals the monitor's recovery
    # probes walk it back to COMMITTED.
    # ------------------------------------------------------------------
    print("\n=== gray failure: partition degrades, heals, session recovers ===")
    probe = MonitoredFederation(
        scenario.requirement,
        scenario.overlay,
        source_instance=scenario.source_instance,
    )
    baseline = probe.graph.bottleneck_bandwidth()
    fed = MonitoredFederation(
        scenario.requirement,
        scenario.overlay,
        source_instance=scenario.source_instance,
        config=MonitorConfig(
            required_bandwidth=baseline * 0.8,
            recovery_probes=2,
            # Two repair charges: one for the partition (re-federates onto
            # alternative links), one to re-find the healed originals.
            max_repairs=2,
            max_refederations=1,
        ),
    )
    reference = fed.overlay
    victims = [
        (e.src, e.dst)
        for e in fed.graph.edges()
        if fed.overlay.link(e.src, e.dst) is not None
    ]

    def partition(overlay):
        targets = [
            (src, dst)
            for src, dst in victims
            if overlay.link(src, dst) is not None
        ]
        return degrade_links(overlay, targets, bandwidth_factor=0.01)

    def heal(overlay):
        targets = [
            (src, dst)
            for src, dst in victims
            if overlay.link(src, dst) is not None
        ]
        return revive_links(overlay, reference, targets)

    fed.schedule_mutation(12.0, partition, "partition squeezes session links")
    fed.schedule_mutation(32.0, heal, "partition heals")
    report = fed.run(until=60)
    print(f"  required bandwidth  : {baseline * 0.8:.2f} "
          f"(80% of baseline {baseline:.2f})")
    for event in report.events:
        print(f"    t={event.time:7.2f}  {event.kind:<16} {event.detail}")
    for record in report.degradations:
        print(f"  degradation record  : served "
              f"{record.delivered_fraction * 100:.0f}% of requirement "
              f"({record.reason})")
    print(f"  final session state : {report.final_state.value}")
    assert report.final_state is SessionState.COMMITTED, (
        "expected the healed partition to restore the session"
    )


if __name__ == "__main__":
    record_to = os.environ.get("SFLOW_RECORD")
    if record_to:
        with obs.recording(record_to, meta={"example": "failure_recovery"}):
            main()
        print(f"\nflight recording written to {record_to}")
    else:
        main()
