"""Distributed widest-path computation by distance-vector exchange.

The routing kernel computes shortest-widest paths centrally from link
state.  Real overlays in 2004 often ran *distance-vector* protocols
instead -- nodes exchange summaries with neighbours only and never learn
the topology.  This module implements the widest-path (max-min bandwidth)
Bellman-Ford on the simulator:

* every node keeps a vector ``destination -> (bandwidth, next_hop)``;
* the vector entry for a destination improves to
  ``max over out-neighbours v of min(bw(self -> v), vector_v[dest])``;
* since data flows *downstream*, vectors propagate **upstream**: whenever
  a node's vector improves it advertises to its in-neighbours;
* bandwidth is a bounded, monotonically-improving metric, so the protocol
  converges without count-to-infinity (no entry is ever withdrawn in a
  static overlay).

Convergence is cross-checked against the centralised widest bandwidths
of the pure reference (``widest_bandwidths`` in
``tests/oracles/wang_crowcroft.py``) in
``tests/routing/test_distance_vector.py`` -- a second, independent
implementation of the same quantity, computed by message passing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.sim.channels import Envelope, MessageNetwork
from repro.sim.engine import Environment, ProcessGenerator

#: A node's advertised reachability: destination -> best bottleneck bandwidth.
Vector = Dict[ServiceInstance, float]


@dataclass
class DistanceVectorReport:
    """Converged protocol state plus its cost."""

    #: Per node: destination -> widest achievable bandwidth downstream.
    tables: Dict[ServiceInstance, Vector]
    #: Per node: destination -> chosen next hop.
    next_hops: Dict[ServiceInstance, Dict[ServiceInstance, ServiceInstance]]
    messages: int
    converged_at: float

    def bandwidth(self, src: ServiceInstance, dst: ServiceInstance) -> float:
        """Widest bandwidth from ``src`` to ``dst`` (0 when unreachable)."""
        if src == dst:
            return float("inf")
        return self.tables.get(src, {}).get(dst, 0.0)


class _DVNode:
    def __init__(
        self,
        me: ServiceInstance,
        overlay: OverlayGraph,
        network: MessageNetwork,
        advertisement_latency: float,
    ) -> None:
        self.me = me
        self.overlay = overlay
        self.network = network
        self.latency = advertisement_latency
        self.mailbox = network.register(me)
        self.vector: Vector = {me: float("inf")}
        self.next_hop: Dict[ServiceInstance, ServiceInstance] = {}
        # Last vector heard from each out-neighbour.
        self.heard: Dict[ServiceInstance, Vector] = {}
        self.out_links = {
            dst: metrics for dst, metrics in overlay.successors(me)
        }
        self.in_neighbors = tuple(
            src for src, _ in overlay.predecessors(me)
        )

    def advertise(self) -> None:
        for upstream in self.in_neighbors:
            self.network.send(
                self.me,
                upstream,
                dict(self.vector),
                latency=self.latency,
                size=len(self.vector),
            )

    def run(self) -> ProcessGenerator:
        while True:
            envelope: Envelope = yield self.mailbox.get()
            self.heard[envelope.src] = envelope.payload
            if self._recompute():
                self.advertise()

    def _recompute(self) -> bool:
        """Fold neighbour vectors into ours; True when anything improved."""
        changed = False
        for neighbor, advertised in self.heard.items():
            link = self.out_links.get(neighbor)
            if link is None or not link.reachable:
                continue
            for dest, downstream_bw in advertised.items():
                if dest == self.me:
                    continue
                candidate = min(link.bandwidth, downstream_bw)
                incumbent = self.vector.get(dest, 0.0)
                if candidate > incumbent or (
                    candidate == incumbent
                    and dest in self.next_hop
                    and neighbor < self.next_hop[dest]
                ):
                    if candidate > incumbent:
                        changed = True
                    self.vector[dest] = candidate
                    self.next_hop[dest] = neighbor
        return changed


def run_distance_vector(
    overlay: OverlayGraph,
    *,
    advertisement_latency: float = 1.0,
    env: Optional[Environment] = None,
) -> DistanceVectorReport:
    """Run widest-path distance-vector to convergence on ``overlay``.

    Every node seeds the protocol by advertising itself to its upstream
    neighbours; the event queue drains exactly when no vector can improve
    any further, which in a static overlay is guaranteed (the metric is
    bounded by the widest link and only ever grows).
    """
    env = env or Environment()
    network = MessageNetwork(env)
    nodes = [
        _DVNode(inst, overlay, network, advertisement_latency)
        for inst in overlay.instances()
    ]
    for node in nodes:
        env.process(node.run())
    for node in nodes:
        node.advertise()
    while env.peek() != float("inf"):
        env.step()
    tables = {}
    next_hops = {}
    for node in nodes:
        table = dict(node.vector)
        table.pop(node.me, None)
        tables[node.me] = table
        next_hops[node.me] = dict(node.next_hop)
    return DistanceVectorReport(
        tables=tables,
        next_hops=next_hops,
        messages=network.stats.messages,
        converged_at=env.now,
    )
