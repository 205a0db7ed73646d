"""The baseline algorithm (paper Table 1): optimal single-path federation.

For a requirement that is a single service **path**, the optimal service
flow graph can be found in polynomial time:

1. compute all-pairs shortest-widest paths in the overlay (Wang-Crowcroft);
2. construct the service abstract graph for the requirement;
3. compute the shortest-widest *abstract path* from the source service's
   instances to the sink service's instances;
4. replace every abstract edge with the concrete shortest-widest overlay
   path between the two chosen instances.

Steps 1-2 are fused here: :class:`~repro.services.abstract_graph.AbstractGraph`
runs one Wang-Crowcroft tree per instance that actually sources an abstract
edge, which computes exactly the all-pairs entries Table 1 consumes (the
complexity bound ``O(N^4)`` is unchanged).  Step 3 is a shortest-widest
search over the layered abstract graph; because abstract edges only connect
instances of *adjacent* required services, any abstract source->sink path
selects exactly one instance per service, as the model demands.

Optimality for path requirements follows from the optimality of
shortest-widest path search on the abstract graph, and is cross-checked
against exhaustive search in ``tests/core/test_baseline.py``.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from repro.core.types import pinned_pool
from repro.errors import FederationError
from repro.network.metrics import PathQuality, UNREACHABLE
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.routing.oracle import RouteOracle
from repro.routing.wang_crowcroft import extract_path
from repro.services.abstract_graph import AbstractGraph
from repro.services.flowgraph import ServiceFlowGraph
from repro.services.requirement import RequirementClass, ServiceRequirement


def solve_path_requirement(
    requirement: ServiceRequirement,
    overlay: OverlayGraph,
    *,
    source_instance: Optional[ServiceInstance] = None,
    abstract: Optional[AbstractGraph] = None,
) -> Tuple[ServiceFlowGraph, PathQuality]:
    """Optimal flow graph for a single-path requirement (Table 1).

    Args:
        requirement: must classify as ``PATH`` or ``SINGLE``.
        overlay: the service overlay graph.
        source_instance: pin the source service to this instance (the node
            the consumer actually contacted); ``None`` lets the algorithm
            pick the best source instance.
        abstract: reuse a pre-built abstract graph (the experiment harness
            shares one across algorithms).

    Returns:
        ``(flow_graph, quality)`` where quality is the shortest-widest value
        of the selected abstract path.

    Raises:
        FederationError: when the requirement is not a path, a required
            service has no instance, or no usable abstract path exists.
    """
    clazz = requirement.classify()
    if clazz not in (RequirementClass.PATH, RequirementClass.SINGLE):
        raise FederationError(
            f"the baseline algorithm handles single service paths; this "
            f"requirement is {clazz.value}"
        )
    if abstract is None:
        abstract = AbstractGraph.build(requirement, overlay)

    chain = requirement.as_path()
    sources = pinned_pool(abstract.instances_of(chain[0]), chain[0], source_instance)

    if len(chain) == 1:
        # Degenerate single-service requirement: pick the pinned (or first)
        # instance; the flow graph has no edges and ideal quality.
        instance = sources[0]
        graph = ServiceFlowGraph(requirement, {chain[0]: instance})
        return graph, PathQuality(float("inf"), 0.0)

    best_quality = UNREACHABLE
    best_assignment: Optional[Dict[str, ServiceInstance]] = None
    sink_sid = chain[-1]
    oracle = RouteOracle.default()
    for src in sources:
        labels = oracle.tree(abstract, src)
        for sink_inst in abstract.instances_of(sink_sid):
            label = labels.get(sink_inst)
            if label is None or not label.quality.reachable:
                continue
            if best_assignment is not None and not label.quality.is_better_than(
                best_quality
            ):
                continue
            path = extract_path(labels, src, sink_inst)
            assignment = {inst.sid: inst for inst in path}
            if len(assignment) != len(chain):
                # Defensive: abstract edges only link adjacent services, so
                # this indicates a corrupted abstract graph.
                raise FederationError(
                    f"abstract path {path} does not visit one instance per service"
                )
            best_quality = label.quality
            best_assignment = assignment
    if best_assignment is None:
        raise FederationError(
            f"no usable abstract path from {chain[0]!r} to {sink_sid!r}"
        )
    graph = ServiceFlowGraph.realize(abstract, best_assignment)
    return graph, best_quality


class BaselineAlgorithm:
    """Table 1 as a :class:`~repro.core.types.FederationAlgorithm`."""

    name = "baseline"

    def solve(
        self,
        requirement: ServiceRequirement,
        overlay: OverlayGraph,
        *,
        source_instance: Optional[ServiceInstance] = None,
        rng: Optional[random.Random] = None,
    ) -> ServiceFlowGraph:
        graph, _ = solve_path_requirement(
            requirement, overlay, source_instance=source_instance
        )
        return graph
