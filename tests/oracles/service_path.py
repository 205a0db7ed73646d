"""The service-path control's serialized-chain DP written on routing trees:
the reference the priced DP of ``ServicePathAlgorithm._serialize`` is held
to.

It warms this layer's shortest-widest rows at the next pool, looks each
one up, reads every label's quality and copies the assignment dict at
every improvement -- the control as it was before it priced its hops.
A private oracle keeps its rows out of the process-wide one.
"""

from typing import Dict, Optional, Tuple

from repro.core.alternatives import ServicePathAlgorithm
from repro.core.types import pinned_pool
from repro.errors import FederationError
from repro.network.metrics import IDEAL, UNREACHABLE, PathQuality
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.routing.oracle import RouteOracle
from repro.services.requirement import ServiceRequirement, Sid
from tests.oracles.routing import undirected_relaxation


class TreeServicePath(ServicePathAlgorithm):
    """:class:`ServicePathAlgorithm` with the tree-based chain DP."""

    def _serialize(
        self,
        requirement: ServiceRequirement,
        overlay: OverlayGraph,
        source_instance: Optional[ServiceInstance],
    ) -> Tuple[Dict[Sid, ServiceInstance], PathQuality]:
        chain = requirement.topological_order()
        oracle = RouteOracle()
        undirected = undirected_relaxation(overlay)
        first_pool = pinned_pool(
            overlay.instances_of(chain[0]), chain[0], source_instance
        )
        layer: Dict[ServiceInstance, Tuple[PathQuality, Dict[Sid, ServiceInstance]]]
        layer = {inst: (IDEAL, {chain[0]: inst}) for inst in first_pool}
        for sid in chain[1:]:
            pool = overlay.instances_of(sid)
            targets = frozenset(pool)
            oracle.warm(
                overlay, layer, view="undirected", neighbors=undirected,
                targets=targets,
            )
            rows = {
                prev: oracle.tree(
                    overlay, prev, view="undirected", neighbors=undirected,
                    targets=targets,
                )
                for prev in layer
            }
            nxt: Dict[
                ServiceInstance, Tuple[PathQuality, Dict[Sid, ServiceInstance]]
            ] = {}
            for inst in pool:
                best: Optional[Tuple[PathQuality, Dict[Sid, ServiceInstance]]] = None
                for prev_inst, (quality, assignment) in layer.items():
                    label = rows[prev_inst].get(inst)
                    extended = quality.extend(
                        label.quality if label is not None else UNREACHABLE
                    )
                    if best is None or extended.is_better_than(best[0]):
                        chosen = dict(assignment)
                        chosen[sid] = inst
                        best = (extended, chosen)
                if best is not None:
                    nxt[inst] = best
            if not nxt:
                raise FederationError(
                    f"serialized chain breaks at service {sid!r}"
                )
            layer = nxt
        quality, assignment = max(layer.values(), key=lambda entry: entry[0])
        return assignment, quality
