"""Global optimal service flow graph by branch-and-bound search.

The paper proves the Maximum Service Flow Graph Problem NP-complete
(Theorem 1) and computes "the global optimal resource-efficient service flow
graph" as the evaluation benchmark.  This module is that benchmark: an exact
search over all instance assignments, pruned aggressively so the paper's
problem sizes (overlays of 10-50 nodes, requirements of a handful of
services) solve in milliseconds.

Optimality criterion (matching the flow-graph quality used everywhere in
this reproduction): lexicographically maximise

1. the **bottleneck bandwidth** -- the minimum bandwidth over every realised
   requirement edge (the paper equates overall throughput with the
   bottleneck link, Sec. 3.2), then
2. the negated **critical-path latency** from the source to the slowest
   sink.

Pruning: services are assigned in topological order, on one priced table
(every instance pair of every requirement edge asked of the abstract graph
once, before the search).  For a partial assignment we maintain the
bandwidth of the already-realised edges and an optimistic bound for the
rest: each unrealised edge contributes the best bandwidth over all its
instance pairs, and because an edge ``(a, b)`` is realised exactly when
``b`` is assigned, that bound is **one precomputed number per depth**.  A
branch dies when its optimistic bandwidth falls below the incumbent's --
and takes its remaining siblings with it, since candidates are tried widest
first -- or ties it while an optimistic latency bound (exact critical path
down to the current depth, per-edge minimum latencies below it) cannot beat
the incumbent's latency.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from repro.core.reductions import Hop, _PricedEdges
from repro.core.types import pinned_pool
from repro.errors import FederationError
from repro.network.metrics import PathQuality
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.services.abstract_graph import AbstractGraph
from repro.services.flowgraph import ServiceFlowGraph
from repro.services.requirement import ServiceRequirement, Sid


def optimal_flow_graph(
    requirement: ServiceRequirement,
    overlay: OverlayGraph,
    *,
    source_instance: Optional[ServiceInstance] = None,
    abstract: Optional[AbstractGraph] = None,
) -> ServiceFlowGraph:
    """The provably best flow graph under the bottleneck/latency order.

    Raises :class:`FederationError` when no complete feasible assignment
    exists (some requirement edge cannot be realised at all).
    """
    return GlobalOptimalAlgorithm()._federate(
        requirement, overlay, source_instance, abstract
    )


class _Searcher:
    """Depth-first branch-and-bound over instance assignments.

    The abstract graph is asked once, for one
    :class:`~repro.core.reductions._PricedEdges` table; from then on a
    service is its *depth* in the topological order, an instance its pool
    index, and the search reads plain floats.  ``chosen[d]`` is the index
    picked at depth ``d`` and ``finish[d]`` the exact critical-path latency
    up to it (every predecessor of an assigned service is assigned).
    """

    def __init__(
        self,
        requirement: ServiceRequirement,
        abstract: AbstractGraph,
        source_instance: Optional[ServiceInstance],
    ) -> None:
        self.order: Tuple[Sid, ...] = requirement.topological_order()
        priced = _PricedEdges(requirement, abstract)
        self.pools = [priced.pools[sid] for sid in self.order]
        hops = priced.hops
        if source_instance is not None:
            source = requirement.source
            pinned = pinned_pool(self.pools[0], source, source_instance)
            row = self.pools[0].index(source_instance)
            self.pools[0] = pinned
            for successor in requirement.successors(source):
                hops[(source, successor)] = [hops[(source, successor)][row]]
        slot = {sid: depth for depth, sid in enumerate(self.order)}
        self.sinks = [slot[sid] for sid in requirement.sinks]
        # Per depth, the requirement edges into that service in predecessor
        # order: ``(predecessor depth, hop table)`` prices a candidate and
        # ``(predecessor depth, least latency in the table)`` is the
        # admissible stand-in while the service is unassigned.
        self.into: List[List[Tuple[int, List[List[Hop]]]]] = []
        self.floor_into: List[List[Tuple[int, float]]] = []
        widest: List[float] = []  # per depth, the worst of its edges' best bandwidths
        for sid in self.order:
            into, floor, best_bw = [], [], math.inf
            for pred in requirement.predecessors(sid):
                table = hops[(pred, sid)]
                reachable = [hop for row in table for hop in row if hop is not None]
                best_bw = min(best_bw, max((bw for bw, _ in reachable), default=0.0))
                least = min((lat for _, lat in reachable), default=math.inf)
                into.append((slot[pred], table))
                floor.append((slot[pred], least))
            self.into.append(into)
            self.floor_into.append(floor)
            widest.append(best_bw)
        self.realisable = min(widest) > 0  # else some edge has no usable pair
        # Services are assigned in topological order, so an edge ``(a, b)``
        # is realised iff ``slot[b] <= depth``: the best the still-open
        # edges can do is one number per depth.
        self.open_bw = [
            min(widest[depth + 1 :], default=math.inf)
            for depth in range(len(self.order))
        ]
        self.chosen = [0] * len(self.order)
        self.finish = [0.0] * len(self.order)
        self.incumbent: Optional[List[int]] = None
        self.incumbent_quality: Optional[PathQuality] = None
        self.nodes_explored = 0

    # -- search ------------------------------------------------------------

    def search(self) -> Optional[Dict[Sid, ServiceInstance]]:
        if not self.realisable:
            return None
        self._descend(0, math.inf)
        if self.incumbent is None:
            return None
        return {
            sid: pool[index]
            for sid, pool, index in zip(self.order, self.pools, self.incumbent)
        }

    def _descend(self, depth: int, bottleneck: float) -> None:
        """``bottleneck``: the least bandwidth over the realised edges."""
        self.nodes_explored += 1
        chosen, finish = self.chosen, self.finish
        if depth == len(self.order):
            quality = PathQuality(bottleneck, max(finish[s] for s in self.sinks))
            if self.incumbent_quality is None or quality.is_better_than(
                self.incumbent_quality
            ):
                self.incumbent = list(chosen)
                self.incumbent_quality = quality
            return
        # The row of each hop table that the assigned predecessor selects.
        rows = [(finish[pred], table[chosen[pred]]) for pred, table in self.into[depth]]
        candidates: List[Tuple[float, float, int, float]] = []
        for index in range(len(self.pools[depth])):
            worst_bw = math.inf
            lat_sum = done = 0.0
            for ready, row in rows:
                hop = row[index]
                if hop is None:
                    break
                bw, lat = hop
                if bw < worst_bw:
                    worst_bw = bw
                lat_sum += lat
                end = ready + lat
                if end > done:
                    done = end
            else:
                candidates.append((-worst_bw, lat_sum, index, done))
        # Explore the widest-incoming instance first: good incumbents early
        # make the bandwidth bound bite sooner.  Pool order breaks ties.
        candidates.sort()
        open_bw = self.open_bw[depth]
        for neg_bw, _lat, index, done in candidates:
            reach = min(bottleneck, -neg_bw)  # the bottleneck with this candidate
            chosen[depth] = index
            finish[depth] = done
            # Can the branch still strictly beat the incumbent?  (Without
            # one it can: a priced hop has positive bandwidth.)
            target = self.incumbent_quality
            if target is not None:
                optimistic = min(reach, open_bw)
                if optimistic < target.bandwidth:
                    break  # widest first, and incumbents only improve
                if (
                    optimistic == target.bandwidth
                    and self._latency_lower_bound(depth) >= target.latency
                ):
                    continue
            self._descend(depth + 1, reach)

    def _latency_lower_bound(self, depth: int) -> float:
        """Critical path with exact latencies down to ``depth`` and per-edge
        minima below it (admissible: never overestimates)."""
        finish = self.finish[: depth + 1]
        for floor in self.floor_into[depth + 1 :]:
            done = 0.0
            for pred, lat in floor:
                done = max(done, finish[pred] + lat)
            finish.append(done)
        return max(finish[s] for s in self.sinks)


class GlobalOptimalAlgorithm:
    """The exhaustive benchmark as a
    :class:`~repro.core.types.FederationAlgorithm`."""

    name = "optimal"

    def __init__(self) -> None:
        self.last_nodes_explored = 0

    def solve(
        self,
        requirement: ServiceRequirement,
        overlay: OverlayGraph,
        *,
        source_instance: Optional[ServiceInstance] = None,
        rng: Optional[random.Random] = None,
    ) -> ServiceFlowGraph:
        return self._federate(requirement, overlay, source_instance, None)

    def _federate(
        self,
        requirement: ServiceRequirement,
        overlay: OverlayGraph,
        source_instance: Optional[ServiceInstance],
        abstract: Optional[AbstractGraph],
    ) -> ServiceFlowGraph:
        if abstract is None:
            abstract = AbstractGraph.build(requirement, overlay)
        searcher = _Searcher(requirement, abstract, source_instance)
        assignment = searcher.search()
        self.last_nodes_explored = searcher.nodes_explored
        if assignment is None:
            raise FederationError(
                f"requirement {requirement!r} has no feasible federation"
            )
        return ServiceFlowGraph.realize(abstract, assignment)
