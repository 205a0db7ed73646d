"""Service multicast trees: the related-work composition model.

Before service flow graphs, the state of the art beyond single paths was
the *service multicast tree* (Jin & Nahrstedt, ICC 2003; paper Sec. 1):
"a multicast tree may be constructed by merging multiple service paths
that share a subset of common services" -- the root is the source service,
the leaves are the sinks, and every intermediate service has exactly one
upstream.

:class:`ServiceTreeAlgorithm` reproduces that system as another comparison
point:

1. a **spanning tree** of the requirement is chosen (every service keeps
   its first upstream; tree-shaped requirements are unchanged);
2. the root->sink service paths of that tree are federated one at a time,
   longest first, with the classic *path merging* rule: services already
   assigned by an earlier path are pinned, and the remainder of the chain
   is solved by the layered shortest-widest DP around those pins;
3. the final assignment realises the **full requirement** -- for DAG
   requirements, the edges the tree dropped are priced at whatever quality
   the tree's choices happen to give them, which is precisely why
   tree-based systems underperform on split-and-merge workloads (the
   quantitative comparison lives in
   ``benchmarks/test_multicast_comparison.py``).

On TREE-class requirements the first federated path is optimal for itself,
but later paths inherit its pins -- the greedy merging artifact this module
exists to measure (see ``tests/core/test_multicast.py`` for a hand-built
case where it provably loses to the exact solver).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.types import pinned_pool
from repro.errors import FederationError
from repro.network.metrics import IDEAL, PathQuality, UNREACHABLE
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.services.abstract_graph import AbstractGraph
from repro.services.flowgraph import ServiceFlowGraph
from repro.services.requirement import ServiceRequirement, Sid


class ServiceTreeAlgorithm:
    """Path-merging service multicast trees as a
    :class:`~repro.core.types.FederationAlgorithm`."""

    name = "service_tree"

    def __init__(self) -> None:
        #: The spanning-tree parent map of the most recent solve.
        self.last_tree: Dict[Sid, Sid] = {}

    def solve(
        self,
        requirement: ServiceRequirement,
        overlay: OverlayGraph,
        *,
        source_instance: Optional[ServiceInstance] = None,
        rng: Optional[random.Random] = None,
    ) -> ServiceFlowGraph:
        abstract = AbstractGraph.build(requirement, overlay)
        parent = self._spanning_tree(requirement)
        self.last_tree = dict(parent)
        chains = self._root_to_sink_chains(requirement, parent)
        assignment: Dict[Sid, ServiceInstance] = {}
        if source_instance is not None:
            source = requirement.source
            assignment[source] = pinned_pool(
                abstract.instances_of(source), source, source_instance
            )[0]
        for chain in chains:
            self._federate_chain(chain, abstract, assignment)
        if requirement.source not in assignment:
            # Degenerate single-service requirement: no chains exist.
            assignment[requirement.source] = abstract.instances_of(
                requirement.source
            )[0]
        return ServiceFlowGraph.realize(abstract, assignment, strict=False)

    # -- tree construction ----------------------------------------------------

    @staticmethod
    def _spanning_tree(requirement: ServiceRequirement) -> Dict[Sid, Sid]:
        """Every non-source service keeps its first upstream service."""
        return {
            sid: requirement.predecessors(sid)[0]
            for sid in requirement.services()
            if sid != requirement.source
        }

    @staticmethod
    def _root_to_sink_chains(
        requirement: ServiceRequirement, parent: Dict[Sid, Sid]
    ) -> List[Tuple[Sid, ...]]:
        """Root->leaf service paths of the spanning tree, longest first.

        Leaves of the *tree* (services that are nobody's parent) -- not
        just the requirement's sinks -- so that every service lands on some
        chain even when the spanning tree demoted an interior DAG service
        to a leaf.  Longest-first is the classic merging order: the longest
        path fixes the most shared services, later (shorter) paths mostly
        reuse them.
        """
        parents_in_use = set(parent.values())
        leaves = [
            sid
            for sid in requirement.services()
            if sid not in parents_in_use and sid != requirement.source
        ]
        chains = []
        for leaf in leaves:
            chain = [leaf]
            while chain[-1] in parent:
                chain.append(parent[chain[-1]])
            chain.reverse()
            chains.append(tuple(chain))
        chains.sort(key=lambda c: (-len(c), c))
        return chains

    # -- per-chain federation ----------------------------------------------------

    @staticmethod
    def _federate_chain(
        chain: Sequence[Sid],
        abstract: AbstractGraph,
        assignment: Dict[Sid, ServiceInstance],
    ) -> None:
        """Layered shortest-widest DP along ``chain`` around existing pins.

        Mutates ``assignment`` with the chain's choices.  Raises
        :class:`FederationError` when the chain cannot be federated at all
        (no usable instances at some layer).
        """

        def pool(sid: Sid) -> Tuple[ServiceInstance, ...]:
            pinned = assignment.get(sid)
            return (pinned,) if pinned is not None else abstract.instances_of(sid)

        # layer: instance -> (quality so far, choices made on this chain)
        layer: Dict[ServiceInstance, Tuple[PathQuality, Dict[Sid, ServiceInstance]]]
        layer = {inst: (IDEAL, {chain[0]: inst}) for inst in pool(chain[0])}
        for sid in chain[1:]:
            nxt: Dict[
                ServiceInstance, Tuple[PathQuality, Dict[Sid, ServiceInstance]]
            ] = {}
            for inst in pool(sid):
                best: Optional[
                    Tuple[PathQuality, Dict[Sid, ServiceInstance]]
                ] = None
                for prev_inst, (quality, choices) in layer.items():
                    hop = abstract.quality(prev_inst, inst)
                    if not hop.reachable:
                        continue
                    extended = quality.extend(hop)
                    if best is None or extended.is_better_than(best[0]):
                        chosen = dict(choices)
                        chosen[sid] = inst
                        best = (extended, chosen)
                if best is not None:
                    nxt[inst] = best
            if not nxt:
                raise FederationError(
                    f"multicast chain breaks at service {sid!r} "
                    f"(pins so far: {sorted(assignment)})"
                )
            layer = nxt
        _quality, choices = max(layer.values(), key=lambda entry: entry[0])
        assignment.update(choices)
