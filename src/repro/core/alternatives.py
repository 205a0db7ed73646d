"""The three control algorithms of the evaluation (paper Sec. 5).

* :class:`RandomAlgorithm` -- "randomly chooses a direct downstream in the
  local overlay graph that leads to the corresponding downstream required in
  the service requirement".  We walk the requirement in topological order
  and draw each instance uniformly among the candidates that keep every
  incoming edge realisable (falling back to any instance when none do, so a
  flow graph is always produced and scored).
* :class:`FixedAlgorithm` -- "always chooses the direct downstream with the
  highest available bandwidth".  Greedy widest-first: per service, pick the
  instance whose *worst* incoming bandwidth from the already-assigned
  predecessors is highest (latency ignored, exactly the fixed heuristic's
  blind spot the paper exploits in Fig. 10).
* :class:`ServicePathAlgorithm` -- the end-to-end single-path federation of
  Gu et al. (HPDC 2002).  It understands only chain requirements: a PATH
  requirement is solved optimally via the baseline; for any other shape it
  federates the longest source->sink chain it can find and leaves the rest
  of the requirement unassigned -- which is why its correctness coefficient
  is the lowest in Fig. 10(a) ("it can only handle the simplest service
  requirements") and why its delivered latency is sequential rather than
  parallel (Fig. 10(c)).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.core.reductions import Trail, spell
from repro.core.types import pinned_pool
from repro.errors import FederationError
from repro.network.metrics import IDEAL, PathQuality, UNREACHABLE
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.routing.oracle import UNDIRECTED, RouteOracle
from repro.services.abstract_graph import AbstractGraph
from repro.services.flowgraph import ServiceFlowGraph
from repro.services.requirement import RequirementClass, ServiceRequirement, Sid


class RandomAlgorithm:
    """Uniform random instance selection (reachability-aware)."""

    name = "random"

    def solve(
        self,
        requirement: ServiceRequirement,
        overlay: OverlayGraph,
        *,
        source_instance: Optional[ServiceInstance] = None,
        rng: Optional[random.Random] = None,
    ) -> ServiceFlowGraph:
        rng = rng or random.Random(0)
        abstract = AbstractGraph.build(requirement, overlay)
        assignment: Dict[Sid, ServiceInstance] = {}
        for sid in requirement.topological_order():
            if sid == requirement.source:
                pool = pinned_pool(abstract.instances_of(sid), sid, source_instance)
                assignment[sid] = rng.choice(list(pool))
                continue
            pool = list(abstract.instances_of(sid))
            usable = [
                inst
                for inst in pool
                if all(
                    abstract.quality(assignment[pred], inst).reachable
                    for pred in requirement.predecessors(sid)
                )
            ]
            assignment[sid] = rng.choice(usable or pool)
        return ServiceFlowGraph.realize(abstract, assignment, strict=False)


class FixedAlgorithm:
    """Greedy widest-first instance selection (bandwidth only).

    The paper's fixed heuristic "always chooses the direct downstream with
    the highest available bandwidth": per service (topological order) it
    takes the instance whose worst **direct service link** from the already
    assigned predecessors is widest.  It is doubly myopic -- it ignores
    latency entirely and never considers relayed overlay routes -- which is
    exactly why sFlow beats it in Fig. 10(c)/(d): the chosen edges are
    still *realised* with proper shortest-widest routes, but the instance
    choices themselves were made on direct-link bandwidth alone.
    """

    name = "fixed"

    def solve(
        self,
        requirement: ServiceRequirement,
        overlay: OverlayGraph,
        *,
        source_instance: Optional[ServiceInstance] = None,
        rng: Optional[random.Random] = None,
    ) -> ServiceFlowGraph:
        abstract = AbstractGraph.build(requirement, overlay)
        assignment: Dict[Sid, ServiceInstance] = {}
        for sid in requirement.topological_order():
            if sid == requirement.source:
                pool = pinned_pool(abstract.instances_of(sid), sid, source_instance)
                # With no upstream edges to compare, take the instance whose
                # best direct outgoing bandwidth is highest.
                assignment[sid] = max(
                    pool, key=lambda inst: self._best_outgoing(overlay, inst)
                )
                continue
            best_inst: Optional[ServiceInstance] = None
            best_bw = -1.0
            for inst in abstract.instances_of(sid):
                worst_bw = float("inf")
                for pred in requirement.predecessors(sid):
                    quality = overlay.link_quality(assignment[pred], inst)
                    worst_bw = min(worst_bw, quality.bandwidth)
                if worst_bw > best_bw:
                    best_bw = worst_bw
                    best_inst = inst
            assert best_inst is not None  # instances_of is never empty here
            assignment[sid] = best_inst
        return ServiceFlowGraph.realize(abstract, assignment, strict=False)

    @staticmethod
    def _best_outgoing(overlay: OverlayGraph, inst: ServiceInstance) -> float:
        qualities = [quality.bandwidth for _, quality in overlay.successors(inst)]
        return max(qualities, default=0.0)


#: What an unreachable pair is priced at: :data:`UNREACHABLE`'s floats.
_NO_PRICE = (UNREACHABLE.bandwidth, UNREACHABLE.latency)


class ServicePathAlgorithm:
    """End-to-end single service path federation (Gu et al. style).

    A path-only system cannot express a DAG requirement.  The only way it
    can deliver one is to **serialize** it: visit the services in a
    topological order and thread one compound stream through them, hop by
    hop.  That is what this control does for non-path requirements:

    * the service chain is the (deterministic) topological order of the
      requirement;
    * consecutive chain hops are routed over the overlay *ignoring link
      direction* (the proxy network relays the compound stream; data-flow
      compatibility does not apply to a serialized document), and the
      instance per service is chosen by a layered shortest-widest DP over
      that chain -- the best a path system can do;
    * the chain's quality is exposed via :attr:`last_serialized`: its
      latency is the **sum** of the hop latencies, because services execute
      strictly one after another ("fails to consider the parallel
      processing cases", Fig. 10(c)).

    Because the chain optimises a completely different objective than the
    DAG flow graph, its instance choices rarely coincide with the global
    optimum -- the paper's Fig. 10(a) "lowest success rate".  PATH
    requirements are still solved optimally via the baseline algorithm.
    """

    name = "service_path"

    def __init__(self) -> None:
        #: Serialized-chain quality of the most recent non-path solve:
        #: ``PathQuality(min hop bandwidth, sum of hop latencies)``.
        self.last_serialized: Optional[PathQuality] = None
        #: Whether the last requirement was natively supported (a PATH).
        #: Serialized deliveries move the data but do *not* satisfy the
        #: requirement's flow relationships -- the evaluation scores them as
        #: federation failures, matching the paper's "lowest success rate,
        #: since it can only handle the simplest service requirements".
        self.last_native: bool = True

    def solve(
        self,
        requirement: ServiceRequirement,
        overlay: OverlayGraph,
        *,
        source_instance: Optional[ServiceInstance] = None,
        rng: Optional[random.Random] = None,
    ) -> ServiceFlowGraph:
        from repro.core.baseline import solve_path_requirement

        if requirement.classify() in (
            RequirementClass.PATH,
            RequirementClass.SINGLE,
        ):
            self.last_native = True
            graph, quality = solve_path_requirement(
                requirement, overlay, source_instance=source_instance
            )
            self.last_serialized = PathQuality(
                graph.bottleneck_bandwidth(), graph.sequential_latency()
            )
            return graph
        self.last_native = False
        assignment, serialized = self._serialize(
            requirement, overlay, source_instance
        )
        self.last_serialized = serialized
        abstract = AbstractGraph.build(requirement, overlay)
        return ServiceFlowGraph.realize(abstract, assignment, strict=False)

    def _serialize(
        self,
        requirement: ServiceRequirement,
        overlay: OverlayGraph,
        source_instance: Optional[ServiceInstance],
    ) -> Tuple[Dict[Sid, ServiceInstance], PathQuality]:
        """Layered shortest-widest DP along the serialized service chain.

        The layered graph of a chain needs the prices of instance pairs
        between consecutive layers and nothing else -- no route, no hop
        count -- so each hop is one :meth:`RouteOracle.prices` call: this
        layer's instances priced at the next pool only, over the
        *undirected* relaxation of the overlay (the oracle's
        :data:`~repro.routing.oracle.UNDIRECTED` view, derived from the
        overlay's own snapshot).  A layer entry is
        ``(instance, bandwidth, latency, trail)``, compared as
        :class:`PathQuality` orders them; the winner's trail is spelled
        into the assignment once.
        """
        chain = requirement.topological_order()
        oracle = RouteOracle.default()
        first_pool = pinned_pool(
            overlay.instances_of(chain[0]), chain[0], source_instance
        )
        layer: List[Tuple[ServiceInstance, float, float, Trail]] = [
            (inst, IDEAL.bandwidth, IDEAL.latency, (None, chain[0], inst))
            for inst in first_pool
        ]
        for sid in chain[1:]:
            pool = overlay.instances_of(sid)
            rows = oracle.prices(
                overlay, [entry[0] for entry in layer], targets=frozenset(pool),
                view=UNDIRECTED,
            )
            nxt: List[Tuple[ServiceInstance, float, float, Trail]] = []
            for inst in pool:
                best: Optional[Tuple[float, float, Trail]] = None
                for (_, bandwidth, latency, trail), row in zip(layer, rows):
                    price = row.get(inst, _NO_PRICE)
                    cbw = min(bandwidth, price[0])
                    clat = latency + price[1]
                    if best is None or cbw > best[0] or (
                        cbw == best[0] and clat < best[1]
                    ):
                        best = (cbw, clat, trail)
                if best is not None:
                    nxt.append((inst, best[0], best[1], (best[2], sid, inst)))
            if not nxt:
                raise FederationError(
                    f"serialized chain breaks at service {sid!r}"
                )
            layer = nxt
        _, bandwidth, latency, trail = max(
            layer, key=lambda entry: (entry[1], -entry[2])
        )
        return spell(trail), PathQuality(bandwidth, latency)
