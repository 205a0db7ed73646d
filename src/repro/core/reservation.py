"""Multi-tenant federation with bandwidth reservation.

"Resource-efficient" matters most when federations *share* the overlay: a
flow graph that hogs wide links leaves less for the next consumer.  This
module adds admission control on top of any federation algorithm:

* a :class:`ReservationManager` owns the **residual overlay** -- link
  capacities minus everything already reserved;
* :meth:`~ReservationManager.admit` federates a new requirement on the
  residual overlay and, if the result sustains the requested ``demand``
  (its bottleneck bandwidth covers it), reserves that demand on **every
  overlay link its realised paths traverse** (once per traversal -- two
  streams of one federation crossing the same link reserve it twice);
* :meth:`~ReservationManager.release` returns a tenant's capacity, so
  churn in tenants composes with churn in the overlay.

Links reserved down to (or below) zero capacity disappear from the
residual overlay, which is exactly how later tenants get pushed onto
alternative instances -- the load-spreading behaviour quantified in
``benchmarks/test_multitenancy.py``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.reductions import ReductionSolver
from repro.errors import FederationError
from repro.network.metrics import PathQuality
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.services.flowgraph import ServiceFlowGraph
from repro.services.requirement import ServiceRequirement

#: A directed overlay link, identified by its endpoints.
LinkKey = Tuple[ServiceInstance, ServiceInstance]


@dataclass
class Admission:
    """One tenant's admitted federation and its reservation."""

    ticket: int
    requirement: ServiceRequirement
    flow_graph: ServiceFlowGraph
    demand: float
    #: Reserved units per overlay link (with traversal multiplicity).
    reservations: Dict[LinkKey, float] = field(default_factory=dict)


class ReservationManager:
    """Admission control over a shared service overlay."""

    def __init__(
        self,
        overlay: OverlayGraph,
        *,
        solver=None,
    ) -> None:
        self._base = overlay
        self._overlay = overlay
        self._solver = solver or ReductionSolver()
        self._active: Dict[int, Admission] = {}
        self._tickets = itertools.count(1)

    @property
    def overlay(self) -> OverlayGraph:
        """The residual overlay currently offered to new tenants."""
        return self._overlay

    @property
    def active_admissions(self) -> Tuple[Admission, ...]:
        return tuple(self._active[t] for t in sorted(self._active))

    # -- admission ---------------------------------------------------------------

    def admit(
        self,
        requirement: ServiceRequirement,
        demand: float,
        *,
        source_instance: Optional[ServiceInstance] = None,
        rng: Optional[random.Random] = None,
    ) -> Admission:
        """Federate ``requirement`` and reserve ``demand`` along its paths.

        Raises:
            FederationError: when no federation on the residual overlay can
                sustain ``demand`` (the tenant is rejected; nothing is
                reserved).
        """
        if demand <= 0:
            raise ValueError(f"demand must be > 0, got {demand}")
        graph = self._solver.solve(
            requirement,
            self._overlay,
            source_instance=source_instance,
            rng=rng,
        )
        if graph.bottleneck_bandwidth() < demand:
            raise FederationError(
                f"residual overlay sustains only "
                f"{graph.bottleneck_bandwidth():.3f} of the demanded "
                f"{demand:.3f}"
            )
        reservations = self._reservations_of(graph, demand)
        admission = Admission(
            ticket=next(self._tickets),
            requirement=requirement,
            flow_graph=graph,
            demand=demand,
            reservations=reservations,
        )
        self._active[admission.ticket] = admission
        self._overlay = self._apply(self._overlay, reservations, sign=-1)
        return admission

    def release(self, admission: Admission) -> None:
        """Return an admitted tenant's reserved capacity."""
        if admission.ticket not in self._active:
            raise FederationError(
                f"admission #{admission.ticket} is not active"
            )
        del self._active[admission.ticket]
        self._overlay = self._apply(
            self._overlay, admission.reservations, sign=+1
        )

    # -- internals ----------------------------------------------------------------

    @staticmethod
    def _reservations_of(
        graph: ServiceFlowGraph, demand: float
    ) -> Dict[LinkKey, float]:
        reservations: Dict[LinkKey, float] = {}
        for edge in graph.edges():
            path = edge.overlay_path or (edge.src, edge.dst)
            for a, b in zip(path, path[1:]):
                key = (a, b)
                reservations[key] = reservations.get(key, 0.0) + demand
        return reservations

    def _apply(
        self,
        overlay: OverlayGraph,
        reservations: Dict[LinkKey, float],
        *,
        sign: int,
    ) -> OverlayGraph:
        """A new overlay with capacities adjusted by ``sign * reservation``.

        Releases (+) restore links that reservation had removed, taking
        the pristine metrics from the base overlay.
        """
        changes: Dict[LinkKey, Optional[PathQuality]] = {}
        absent: List[LinkKey] = []
        for key, amount in reservations.items():
            link = overlay.link(*key)
            if link is None:
                absent.append(key)
                continue
            capacity = link.metrics.bandwidth + amount * sign
            changes[key] = (
                PathQuality(capacity, link.metrics.latency) if capacity > 1e-12 else None
            )
        result = overlay.with_links(changes)
        if sign > 0:
            # Restore links that had been fully consumed (absent from the
            # residual overlay but present in the base).
            for key in absent:
                link = self._base.link(*key)
                capacity = link.metrics.bandwidth - self._consumed(key)
                if capacity > 1e-12:
                    restored = PathQuality(capacity, link.metrics.latency)
                    result.add_link(link.src, link.dst, restored)
        return result

    def _consumed(self, key: LinkKey) -> float:
        """Total capacity still reserved on ``key`` by active tenants."""
        return sum(
            admission.reservations.get(key, 0.0)
            for admission in self._active.values()
        )
