"""References for the global-optimum search (``repro.core.optimal``).

Two of them, on purpose: :class:`ReferenceSearcher` is the search the
priced one replaced, kept verbatim, so the two can be held to the *same
walk* (assignment, floats, ``nodes_explored``); :func:`brute_force_best`
shares no code with either -- ``itertools.product`` and the definition of
flow-graph quality, straight off ``abstract.quality``.
"""

import itertools
import math
from typing import Dict, List, Optional, Tuple

from repro.errors import FederationError
from repro.network.metrics import PathQuality
from repro.network.overlay import ServiceInstance
from repro.services.abstract_graph import AbstractGraph
from repro.services.requirement import ServiceRequirement, Sid


class ReferenceSearcher:
    """The search as it was before PR 23, verbatim: depth-first
    branch-and-bound that asks ``abstract.quality`` per candidate."""

    def __init__(
        self,
        requirement: ServiceRequirement,
        abstract: AbstractGraph,
        source_instance: Optional[ServiceInstance],
    ) -> None:
        self.req = requirement
        self.abstract = abstract
        self.order: Tuple[Sid, ...] = requirement.topological_order()
        self.pools: Dict[Sid, Tuple[ServiceInstance, ...]] = {}
        for sid in self.order:
            pool = abstract.instances_of(sid)
            if sid == requirement.source and source_instance is not None:
                if source_instance.sid != sid or source_instance not in pool:
                    raise FederationError(
                        f"pinned source {source_instance} is not an instance "
                        f"of {sid!r}"
                    )
                pool = (source_instance,)
            self.pools[sid] = pool
        # Per requirement edge: the best achievable bandwidth and least
        # achievable latency over all instance pairs (admissible bounds).
        self.edge_best_bw: Dict[Tuple[Sid, Sid], float] = {}
        self.edge_min_lat: Dict[Tuple[Sid, Sid], float] = {}
        for a_sid, b_sid in requirement.edges():
            best_bw = 0.0
            min_lat = math.inf
            for a in self.pools[a_sid]:
                for b in self.pools[b_sid]:
                    quality = abstract.quality(a, b)
                    if not quality.reachable:
                        continue
                    best_bw = max(best_bw, quality.bandwidth)
                    min_lat = min(min_lat, quality.latency)
            self.edge_best_bw[(a_sid, b_sid)] = best_bw
            self.edge_min_lat[(a_sid, b_sid)] = min_lat
        self.incumbent: Optional[Dict[Sid, ServiceInstance]] = None
        self.incumbent_quality: Optional[PathQuality] = None
        self.nodes_explored = 0

    # -- search ------------------------------------------------------------

    def search(self) -> Optional[Dict[Sid, ServiceInstance]]:
        if any(bw <= 0 for bw in self.edge_best_bw.values()):
            return None  # some edge is unrealisable outright
        self._descend(0, {}, math.inf)
        return self.incumbent

    def _descend(
        self,
        depth: int,
        assignment: Dict[Sid, ServiceInstance],
        bottleneck: float,
    ) -> None:
        self.nodes_explored += 1
        if depth == len(self.order):
            quality = self._evaluate(assignment)
            if quality is not None and (
                self.incumbent_quality is None
                or quality.is_better_than(self.incumbent_quality)
            ):
                self.incumbent = dict(assignment)
                self.incumbent_quality = quality
            return
        sid = self.order[depth]
        candidates: List[Tuple[float, float, ServiceInstance]] = []
        for inst in self.pools[sid]:
            worst_bw = math.inf
            lat_sum = 0.0
            feasible = True
            for pred in self.req.predecessors(sid):
                quality = self.abstract.quality(assignment[pred], inst)
                if not quality.reachable:
                    feasible = False
                    break
                worst_bw = min(worst_bw, quality.bandwidth)
                lat_sum += quality.latency
            if feasible:
                candidates.append((worst_bw, lat_sum, inst))
        # Explore the widest-incoming instance first: good incumbents early
        # make the bandwidth bound bite sooner.
        candidates.sort(key=lambda c: (-c[0], c[1]))
        for worst_bw, _lat, inst in candidates:
            new_bottleneck = min(bottleneck, worst_bw)
            if not self._promising(depth, new_bottleneck, assignment, sid, inst):
                continue
            assignment[sid] = inst
            self._descend(depth + 1, assignment, new_bottleneck)
            del assignment[sid]

    def _promising(
        self,
        depth: int,
        bottleneck: float,
        assignment: Dict[Sid, ServiceInstance],
        sid: Sid,
        inst: ServiceInstance,
    ) -> bool:
        """Can this branch still strictly beat the incumbent?"""
        if self.incumbent_quality is None:
            return bottleneck > 0
        # Optimistic bandwidth: edges among later services can at best
        # achieve their precomputed maxima.
        optimistic = bottleneck
        assigned = set(assignment) | {sid}
        for edge, best_bw in self.edge_best_bw.items():
            if edge[0] in assigned and edge[1] in assigned:
                continue
            optimistic = min(optimistic, best_bw)
        target = self.incumbent_quality
        if optimistic < target.bandwidth:
            return False
        if optimistic > target.bandwidth:
            return True
        # Bandwidth tie: compare an optimistic latency lower bound.
        lower = self._latency_lower_bound(assignment, sid, inst)
        return lower < target.latency

    def _latency_lower_bound(
        self,
        assignment: Dict[Sid, ServiceInstance],
        sid: Sid,
        inst: ServiceInstance,
    ) -> float:
        """Critical path with exact latencies where both ends are assigned
        and per-edge minima elsewhere (admissible: never overestimates)."""
        chosen = dict(assignment)
        chosen[sid] = inst
        finish: Dict[Sid, float] = {}
        for service in self.order:
            best = 0.0
            for pred in self.req.predecessors(service):
                a = chosen.get(pred)
                b = chosen.get(service)
                if a is not None and b is not None:
                    lat = self.abstract.quality(a, b).latency
                else:
                    lat = self.edge_min_lat[(pred, service)]
                best = max(best, finish[pred] + lat)
            finish[service] = best
        return max(finish[s] for s in self.req.sinks)

    def _evaluate(
        self, assignment: Dict[Sid, ServiceInstance]
    ) -> Optional[PathQuality]:
        bandwidth = math.inf
        finish: Dict[Sid, float] = {self.req.source: 0.0}
        for sid in self.order[1:]:
            best = 0.0
            for pred in self.req.predecessors(sid):
                quality = self.abstract.quality(assignment[pred], assignment[sid])
                if not quality.reachable:
                    return None
                bandwidth = min(bandwidth, quality.bandwidth)
                best = max(best, finish[pred] + quality.latency)
            finish[sid] = best
        latency = max(finish[s] for s in self.req.sinks)
        return PathQuality(bandwidth, latency)


def brute_force_best(requirement, abstract, source_instance=None):
    """The best quality over every assignment, or None when none is
    feasible (:func:`flow_quality` of each).  For pools of <= 4 instances."""
    order = requirement.topological_order()
    pools = [
        (source_instance,)
        if source_instance is not None and sid == requirement.source
        else abstract.instances_of(sid)
        for sid in order
    ]
    assert all(len(pool) <= 4 for pool in pools), "brute force is for small pools"
    best = None
    for combo in itertools.product(*pools):
        quality = flow_quality(requirement, abstract, dict(zip(order, combo)))
        if quality is not None and (best is None or quality > best):
            best = quality
    return best


def flow_quality(requirement, abstract, chosen):
    """The quality of one assignment, or None when an edge is unreachable:
    bottleneck = ``min`` over the requirement edges, latency = the critical
    path to the slowest sink, summed hop by hop in topological order."""
    order = requirement.topological_order()
    hops = {
        (a, b): abstract.quality(chosen[a], chosen[b])
        for a, b in requirement.edges()
    }
    if not all(hop.reachable for hop in hops.values()):
        return None
    finish = {}
    for sid in order:
        finish[sid] = max(
            (finish[p] + hops[(p, sid)].latency for p in requirement.predecessors(sid)),
            default=0.0,
        )
    return PathQuality(
        min((hop.bandwidth for hop in hops.values()), default=math.inf),
        max(finish[sink] for sink in requirement.sinks),
    )
