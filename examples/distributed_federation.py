#!/usr/bin/env python3
"""Inside the distributed run: knowledge, messages, and the horizon.

This example opens up the machinery behind ``SFlowAlgorithm.solve``:

1. runs the bounded link-state protocol that gives every service node its
   two-hop local view (and verifies it against the overlay's ego views --
   read-only objects the overlay memoises and shares between roots that see
   the same vicinity; a vicinity covering everything is the overlay itself);
2. executes the sfederate federation end-to-end on the discrete-event
   simulator with per-node accounting;
3. sweeps the knowledge horizon to show how local information quality
   trades against protocol cost -- ablation A1 of DESIGN.md, interactive.

Run:  python examples/distributed_federation.py
"""

from repro import (
    ScenarioConfig,
    SFlowAlgorithm,
    SFlowConfig,
    generate_scenario,
    optimal_flow_graph,
)
from repro.routing.link_state import collect_local_views


def main() -> None:
    scenario = generate_scenario(
        ScenarioConfig(
            network_size=24, n_services=6, instances_per_service=(3, 4), seed=17
        )
    )
    print(scenario.describe())

    print("\n=== 1. the link-state flood behind the 'two-hop vicinity' ===")
    report = collect_local_views(scenario.overlay, horizon=2)
    sizes = [len(view) for view in report.views.values()]
    print(f"  LSA messages            : {report.messages}")
    print(f"  flood convergence       : {report.converged_at:.2f} time units")
    print(
        f"  local view sizes        : min={min(sizes)}, max={max(sizes)}, "
        f"overlay={len(scenario.overlay)} instances"
    )
    sample = scenario.source_instance
    ego = scenario.overlay.ego_view(sample, 2)
    protocol_view = report.views[sample]
    print(
        f"  view check at {sample}: protocol sees {len(protocol_view)} "
        f"instances, ego view has {len(ego)} -> "
        f"{'match' if len(protocol_view) == len(ego) else 'MISMATCH'}"
    )
    views = {inst: scenario.overlay.ego_view(inst, 2) for inst in report.views}
    whole = sum(view is scenario.overlay for view in views.values())
    print(
        f"  ego views are shared    : {len(views)} roots -> "
        f"{len({id(view) for view in views.values()})} view object(s), "
        f"{whole} of them the overlay itself"
    )
    print(
        "  (views are read-only: a crash never edits one -- a planner "
        "learns of it\n   only by suspecting the silent peer and excluding "
        "it from its candidates)"
    )

    print("\n=== 2. one federation, fully accounted ===")
    algorithm = SFlowAlgorithm(SFlowConfig(horizon=2, use_link_state=True))
    result = algorithm.federate(
        scenario.requirement,
        scenario.overlay,
        source_instance=scenario.source_instance,
    )
    graph = result.flow_graph
    print(f"  flow graph quality : bw={graph.bottleneck_bandwidth():.2f}, "
          f"lat={graph.end_to_end_latency():.2f}")
    print(f"  sfederate messages : {result.messages} "
          f"({result.bytes} bytes)")
    print(f"  link-state messages: {result.link_state_messages}")
    print(f"  node activations   : {result.node_activations}")
    print(f"  virtual convergence: {result.convergence_time:.2f}")
    print("  per-node compute (the nodes that planned):")
    for inst, seconds in sorted(result.per_node_compute.items()):
        print(f"    {str(inst):<12} {seconds * 1e3:7.2f} ms")

    print("\n=== 3. the knowledge horizon trade-off ===")
    optimal = optimal_flow_graph(
        scenario.requirement,
        scenario.overlay,
        source_instance=scenario.source_instance,
    )
    print(f"  {'horizon':<9}{'correctness':>12}{'bandwidth':>11}{'LSA msgs':>10}")
    for horizon in (0, 1, 2, 3):
        algorithm = SFlowAlgorithm(
            SFlowConfig(horizon=horizon, use_link_state=True)
        )
        result = algorithm.federate(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        graph = result.flow_graph
        print(
            f"  {horizon:<9}"
            f"{graph.correctness_coefficient(optimal):>12.2f}"
            f"{graph.bottleneck_bandwidth():>11.2f}"
            f"{result.link_state_messages:>10}"
        )
    print(
        "\nwider horizons buy correctness with link-state traffic; the "
        "paper's choice of 2 hops sits at the knee."
    )


if __name__ == "__main__":
    main()
