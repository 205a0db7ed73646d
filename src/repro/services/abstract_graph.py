"""The service abstract graph (paper Sec. 3.1, Fig. 6).

The abstract graph connects a :class:`~repro.services.requirement.ServiceRequirement`
to an :class:`~repro.network.overlay.OverlayGraph`:

* each required service becomes a *service abstract node* populated with all
  of its instances in the overlay;
* instances of service ``A`` are fully connected to instances of service
  ``B`` whenever the requirement has the edge ``A -> B``;
* every abstract edge is labelled with the **shortest-widest** quality of the
  overlay path between the two instances, plus the path itself so flow
  graphs can later be expanded to concrete overlay routes (the relay
  instances that "bridge two required services").

An :class:`AbstractGraph` is a read-only *view*, not a copy: the abstract
edges leaving instance ``a`` are one row of routing labels (for ``build``, the
oracle's shortest-widest tree rooted at ``a``), fetched by the first query
that touches ``a`` and then held; ``quality`` / ``edge`` read one label.  The
graph is also a routing substrate -- ``successors`` is the adjacency view
the routing kernel snapshots when the baseline computes the
shortest-widest *abstract path* -- and only that use (with ``edges`` and
``num_edges``) pays for the sorted edge table, once.  Like the oracle's trees,
a graph is valid for the overlay state it was built on: change that overlay
in place and the view is undefined.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import FederationError
from repro.network.metrics import LinkMetrics, PathQuality, UNREACHABLE
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.routing.oracle import RouteOracle
from repro.routing.wang_crowcroft import RouteLabel
from repro.services.requirement import ServiceRequirement, Sid


@dataclass(frozen=True)
class AbstractEdge:
    """An edge between instances of two adjacent required services.

    ``overlay_path`` is the realising shortest-widest route through the
    overlay (``src`` .. ``dst`` inclusive, possibly via relay instances).
    """

    src: ServiceInstance
    dst: ServiceInstance
    quality: PathQuality
    overlay_path: Tuple[ServiceInstance, ...]


class AbstractGraph:
    """Service abstract graph bridging a requirement and an overlay: a view
    over ``rows(a)``, the ``node -> RouteLabel`` row of each source ``a``."""

    def __init__(
        self,
        requirement: ServiceRequirement,
        instances: Dict[Sid, Tuple[ServiceInstance, ...]],
        rows: Callable[[ServiceInstance], Mapping[ServiceInstance, RouteLabel]],
    ) -> None:
        self._requirement = requirement
        self._instances = instances
        self._row_of = rows
        self._rows: Dict[ServiceInstance, Mapping[ServiceInstance, RouteLabel]] = {}

    @classmethod
    def build(
        cls,
        requirement: ServiceRequirement,
        overlay: OverlayGraph,
        *,
        require_usable: bool = False,
    ) -> "AbstractGraph":
        """Construct the abstract graph for ``requirement`` over ``overlay``.

        Validates the pools and warms one Wang-Crowcroft tree per distinct
        source instance, in one batch, on the process-wide
        :class:`~repro.routing.oracle.RouteOracle` (so shared across repeated
        builds *and* other algorithms working on the same overlay); nothing
        is copied out of the trees.  Unreachable pairs get no abstract edge.

        Args:
            requirement: the service requirement.
            overlay: the overlay to draw instances and paths from.
            require_usable: when True, raise :class:`FederationError` if some
                requirement edge has *no* usable instance pair at all (the
                requirement cannot possibly be federated on this overlay).

        Raises:
            FederationError: when a required service has no instance, or
                (with ``require_usable``) when an edge is unrealisable.
        """
        instances: Dict[Sid, Tuple[ServiceInstance, ...]] = {}
        for sid in requirement.services():
            found = overlay.instances_of(sid)
            if not found:
                raise FederationError(
                    f"required service {sid!r} has no instance in the overlay"
                )
            instances[sid] = found

        oracle = RouteOracle.default()
        # Batched prefetch: one kernel pass over a single CSR snapshot of
        # the overlay builds every source's tree; the row fetches then hit.
        oracle.warm(overlay, (a for a_sid, _ in requirement.edges() for a in instances[a_sid]))
        graph = cls(requirement, instances, functools.partial(oracle.tree, overlay))
        if require_usable:
            for a_sid, b_sid in requirement.edges():
                pairs = itertools.product(instances[a_sid], instances[b_sid])
                if not any(graph.quality(a, b).reachable for a, b in pairs):
                    raise FederationError(
                        f"requirement edge {a_sid!r} -> {b_sid!r} has no usable "
                        f"instance pair in the overlay"
                    )
        return graph

    # -- queries -----------------------------------------------------------

    @property
    def requirement(self) -> ServiceRequirement:
        return self._requirement

    def instances_of(self, sid: Sid) -> Tuple[ServiceInstance, ...]:
        """All overlay instances of a required service."""
        try:
            return self._instances[sid]
        except KeyError:
            raise KeyError(f"service {sid!r} not part of this abstract graph") from None

    def nodes(self) -> Iterator[ServiceInstance]:
        for sid in self._requirement.services():
            yield from self._instances[sid]

    def routing_nodes(self) -> Tuple[ServiceInstance, ...]:
        """Snapshot-export hook: the node universe of ``successors``.

        The routing kernel (:mod:`repro.routing.kernel`) flattens the
        abstract-edge adjacency over exactly this universe when building
        a CSR snapshot for batched tree computation.
        """
        return tuple(sorted(set(self.nodes())))

    def _label(self, src: ServiceInstance, dst: ServiceInstance) -> Optional[RouteLabel]:
        """The row entry behind the abstract edge ``src -> dst``, if any."""
        if not self._requirement.has_edge(src.sid, dst.sid):
            return None
        row = self._rows.get(src)
        if row is None:
            if src not in self._instances[src.sid]:
                return None
            row = self._rows[src] = self._row_of(src)
        label = row.get(dst)
        return label if label is not None and label.quality.reachable else None

    def edge(
        self, src: ServiceInstance, dst: ServiceInstance
    ) -> Optional[AbstractEdge]:
        label = self._label(src, dst)
        return AbstractEdge(src, dst, label.quality, label.path) if label is not None else None

    def quality(self, src: ServiceInstance, dst: ServiceInstance) -> PathQuality:
        """Edge quality, or UNREACHABLE when the pair has no abstract edge."""
        label = self._label(src, dst)
        return label.quality if label is not None else UNREACHABLE

    @functools.cached_property
    def _table(self) -> Tuple[AbstractEdge, ...]:
        """Every abstract edge in ``(src, dst)`` order: built once, for the
        first caller that routes over the graph."""
        pairs = sorted(
            pair
            for a_sid, b_sid in self._requirement.edges()
            for pair in itertools.product(self._instances[a_sid], self._instances[b_sid])
        )
        found = (self.edge(a, b) for a, b in pairs)
        return tuple(edge for edge in found if edge is not None)

    @functools.cached_property
    def _succ(self) -> Dict[ServiceInstance, List[Tuple[ServiceInstance, LinkMetrics]]]:
        succ: Dict[ServiceInstance, List[Tuple[ServiceInstance, LinkMetrics]]] = {}
        for edge in self._table:
            succ.setdefault(edge.src, []).append((edge.dst, edge.quality))
        return succ

    def edges(self) -> Iterator[AbstractEdge]:
        return iter(self._table)

    def num_edges(self) -> int:
        return len(self._table)

    def successors(
        self, instance: ServiceInstance
    ) -> Iterator[Tuple[ServiceInstance, LinkMetrics]]:
        """Routing adjacency view over abstract edges."""
        return iter(self._succ.get(instance, ()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AbstractGraph(services={len(self._instances)}, rows={len(self._rows)})"
