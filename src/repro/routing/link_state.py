"""Distributed link-state advertisement with bounded scope.

The sFlow paper assumes "all service nodes are aware of the portion of the
overall overlay graph within a two-hop vicinity" (Sec. 4, Fig. 9).  This
module substantiates that assumption with an actual protocol run on the
discrete-event simulator: every overlay instance floods a link-state
advertisement (LSA) describing its outgoing service links, with a hop-scope
(TTL) equal to the knowledge horizon.  LSAs propagate over overlay
adjacencies in both directions (knowing a neighbour implies hearing from
it), so after the flood each node has learned every instance within
``horizon`` undirected overlay hops -- exactly the
:meth:`~repro.network.overlay.OverlayGraph.ego_view` of the same radius,
which the tests assert.  The views built here belong to the run that flooded
them, where ego views read off an overlay are shared (possibly the overlay
itself); either way a view is **read-only**: no crash is ever written into
one -- a planner learns of a crash only by suspecting the silent peer.

:func:`collect_local_views` is the convenience entry point; it returns both
the per-node views and the protocol cost (messages/bytes), which the
evaluation reports as sFlow's knowledge-maintenance overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.network.overlay import OverlayGraph, ServiceInstance, ServiceLink
from repro.sim.channels import Envelope, MessageNetwork
from repro.sim.engine import Environment


@dataclass(frozen=True)
class LinkStateAdvertisement:
    """One node's view of itself: its identity and outgoing service links."""

    origin: ServiceInstance
    links: Tuple[ServiceLink, ...]
    ttl: int


@dataclass
class LinkStateReport:
    """Outcome of a bounded link-state flood."""

    views: Dict[ServiceInstance, OverlayGraph]
    messages: int
    bytes: int
    converged_at: float


class _LinkStateNode:
    """Protocol endpoint: floods its own LSA, re-floods fresh foreign LSAs."""

    def __init__(
        self,
        me: ServiceInstance,
        overlay: OverlayGraph,
        network: MessageNetwork,
    ) -> None:
        self.me = me
        self.overlay = overlay
        self.network = network
        self.known: Dict[ServiceInstance, LinkStateAdvertisement] = {}
        # Undirected neighbourhood: out-neighbours plus in-neighbours.
        out_neighbors = [dst for dst, _ in overlay.successors(me)]
        in_neighbors = [src for src, _ in overlay.predecessors(me)]
        self.neighbors: Tuple[ServiceInstance, ...] = tuple(
            sorted(set(out_neighbors) | set(in_neighbors))
        )
        network.register(me).serve(self.receive)

    def originate(self, horizon: int) -> None:
        lsa = LinkStateAdvertisement(self.me, self.overlay.out_links(self.me), horizon)
        self.known[self.me] = lsa
        if horizon >= 1:
            self._flood(lsa, exclude=None)

    def receive(self, envelope: Envelope) -> None:
        """Mailbox handler: absorb an LSA, re-flood it while its TTL lasts."""
        lsa: LinkStateAdvertisement = envelope.payload
        seen = self.known.get(lsa.origin)
        if seen is not None and seen.ttl >= lsa.ttl:
            return  # an equally-fresh copy was already processed
        # A higher-TTL copy must be re-flooded even if the origin is
        # known: a low-TTL copy that raced ahead over a fast long path
        # must not suppress coverage of the full hop horizon.
        self.known[lsa.origin] = lsa
        if lsa.ttl > 1:
            forwarded = LinkStateAdvertisement(lsa.origin, lsa.links, lsa.ttl - 1)
            self._flood(forwarded, exclude=envelope.src)

    def _flood(
        self,
        lsa: LinkStateAdvertisement,
        exclude: Optional[ServiceInstance],
    ) -> None:
        for neighbor in self.neighbors:
            if neighbor == exclude:
                continue
            self.network.send(
                self.me,
                neighbor,
                lsa,
                latency=self._latency_to(neighbor),
                size=1 + len(lsa.links),
            )

    def _latency_to(self, neighbor: ServiceInstance) -> float:
        """Propagation delay to a neighbour: the faster of the two directed
        service links that make them adjacent."""
        forward = self.overlay.link(self.me, neighbor)
        backward = self.overlay.link(neighbor, self.me)
        latencies = [
            link.metrics.latency for link in (forward, backward) if link is not None
        ]
        return min(latencies) if latencies else 0.0

    def build_view(self) -> OverlayGraph:
        """Assemble the local overlay view from the LSAs heard."""
        view = OverlayGraph()
        for origin in sorted(self.known):
            view.add_instance(origin)
        for origin in sorted(self.known):
            for link in self.known[origin].links:
                if link.dst in self.known:
                    view.add_link(link.src, link.dst, link.metrics, link.underlay_path)
        return view


def collect_local_views(
    overlay: OverlayGraph,
    horizon: int = 2,
    *,
    env: Optional[Environment] = None,
) -> LinkStateReport:
    """Run the bounded LSA flood and return every node's local view.

    Args:
        overlay: the full overlay graph (the ground truth being advertised).
        horizon: knowledge radius in overlay hops (the paper uses 2).
        env: optionally reuse an existing simulation environment.

    The returned views satisfy ``views[x] == overlay.ego_view(x, horizon)``
    structurally (same instances, same links); see
    ``tests/routing/test_link_state.py``.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    env = env or Environment()
    network = MessageNetwork(env)
    nodes = [_LinkStateNode(inst, overlay, network) for inst in overlay.instances()]
    for node in nodes:
        node.originate(horizon)
    env.run()  # until no delivery remains
    views = {node.me: node.build_view() for node in nodes}
    return LinkStateReport(
        views=views,
        messages=network.stats.messages,
        bytes=network.stats.bytes,
        converged_at=env.now,
    )
