"""Incremental repair of service flow graphs after failures.

The "agile" half of the paper's title: when instances or links disappear
under an established federation, re-running the whole algorithm from
scratch both wastes work and churns services that were perfectly healthy.
This module repairs incrementally:

1. **diagnose** -- find the services whose assigned instance vanished and
   the requirement edges whose realisation broke (endpoint gone, or no
   usable overlay path left);
2. **scope** -- the repair set is the broken services plus nothing else;
   every surviving assignment is *pinned*;
3. **re-solve** -- run the :class:`~repro.core.reductions.ReductionSolver`
   over the post-failure overlay with the pins in place, so only the
   repair set is actually re-decided;
4. **fall back** -- if the pinned problem is infeasible (a survivor's only
   routes died with the failure), progressively unpin the survivors
   adjacent to the broken region and retry, degenerating to a full
   re-federation in the worst case.

:func:`repair_flow_graph` returns a :class:`RepairReport` with the new
graph and locality metrics (how much of the old assignment survived), which
the ablation benchmark ``benchmarks/test_ablation_repair.py`` compares
against from-scratch re-federation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.reductions import AbstractView, ReductionSolver
from repro.errors import FederationError
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.services.abstract_graph import AbstractGraph, Hop
from repro.services.flowgraph import ServiceFlowGraph
from repro.services.requirement import ServiceRequirement, Sid


@dataclass
class RepairReport:
    """Outcome of an incremental repair."""

    graph: ServiceFlowGraph
    repaired_services: FrozenSet[Sid]
    unpinned_services: FrozenSet[Sid]
    preserved_fraction: float
    full_refederation: bool

    @property
    def touched(self) -> FrozenSet[Sid]:
        """Everything the repair was allowed to re-decide."""
        return self.repaired_services | self.unpinned_services


class _PinnedView(AbstractView):
    """An abstract view whose pools are collapsed to pinned instances."""

    def __init__(
        self, base: AbstractGraph, pins: Dict[Sid, ServiceInstance]
    ) -> None:
        self._base = base
        self._pins = pins

    def instances_of(self, sid: Sid) -> Tuple[ServiceInstance, ...]:
        pinned = self._pins.get(sid)
        if pinned is not None:
            return (pinned,)
        return self._base.instances_of(sid)

    def price_row(
        self, src: ServiceInstance, dsts: Sequence[ServiceInstance]
    ) -> List[Hop]:
        return self._base.price_row(src, dsts)


def diagnose(
    flow_graph: ServiceFlowGraph,
    overlay: OverlayGraph,
    abstract: Optional[AbstractGraph] = None,
) -> FrozenSet[Sid]:
    """Services whose assignment or incident edges no longer work.

    A service is broken when its assigned instance left the overlay, or
    when some incident requirement edge has no usable route between the
    assigned endpoints any more (both endpoints of a broken edge are
    flagged -- either side may be the one worth moving).
    """
    requirement = flow_graph.requirement
    if abstract is None:
        abstract = AbstractGraph.build(requirement, overlay)
    broken: Set[Sid] = set()
    assignment = flow_graph.assignment
    for sid, inst in assignment.items():
        if inst not in overlay:
            broken.add(sid)
    for a_sid, b_sid in requirement.edges():
        a, b = assignment.get(a_sid), assignment.get(b_sid)
        if a is None or b is None:
            broken.update((a_sid, b_sid))
            continue
        if a_sid in broken or b_sid in broken:
            continue
        if not abstract.quality(a, b).reachable:
            broken.update((a_sid, b_sid))
    return frozenset(broken)


def repair_flow_graph(
    flow_graph: ServiceFlowGraph,
    overlay: OverlayGraph,
    *,
    source_instance: Optional[ServiceInstance] = None,
    solver: Optional[ReductionSolver] = None,
    force_repair: Iterable[Sid] = (),
) -> RepairReport:
    """Repair ``flow_graph`` against the (post-failure) ``overlay``.

    Args:
        flow_graph: the federation established before the failure.
        overlay: the overlay as it is *now*.
        source_instance: optionally re-pin the source (it is protected by
            default when it survived the failure).
        solver: reduction solver to use (defaults to the exact Pareto one).
        force_repair: services to re-decide even though their assignment
            still *works* -- the QoS monitor passes the endpoints of
            degraded (but not broken) edges here.

    Returns:
        A :class:`RepairReport`.  ``preserved_fraction`` counts surviving
        services that kept their original instance.

    Raises:
        FederationError: when even a full re-federation is infeasible on
            the post-failure overlay.
    """
    requirement = flow_graph.requirement
    solver = solver or ReductionSolver()
    abstract = AbstractGraph.build(requirement, overlay)
    forced = frozenset(force_repair)
    unknown = forced - set(requirement.services())
    if unknown:
        raise FederationError(f"cannot force repair of unknown services {sorted(unknown)}")
    broken = diagnose(flow_graph, overlay, abstract) | forced
    old_assignment = flow_graph.assignment

    if source_instance is None:
        survivor = old_assignment.get(requirement.source)
        if survivor is not None and survivor in overlay:
            source_instance = survivor

    if not broken:
        # Nothing to do: re-realise (link qualities may have changed).
        new_graph = ServiceFlowGraph.realize(abstract, old_assignment)
        return RepairReport(
            graph=new_graph,
            repaired_services=frozenset(),
            unpinned_services=frozenset(),
            preserved_fraction=1.0,
            full_refederation=False,
        )

    # Progressively widen the repair scope until the pinned problem is
    # feasible: first just the broken services, then their requirement
    # neighbours, and so on out to a full re-federation.
    scope: Set[Sid] = set(broken)
    while True:
        pins = {
            sid: inst
            for sid, inst in old_assignment.items()
            if sid not in scope and inst in overlay
        }
        if source_instance is not None:
            pins[requirement.source] = source_instance
        try:
            assignment, _quality = solver.solve_assignment(
                requirement,
                _PinnedView(abstract, pins),
                source_instance=pins.get(requirement.source),
            )
            break
        except FederationError:
            widened = _widen(requirement, scope)
            if widened == scope:
                raise  # already a full re-federation and still infeasible
            scope = widened

    new_graph = ServiceFlowGraph.realize(abstract, assignment)
    survivors = [
        sid
        for sid, inst in old_assignment.items()
        if inst in overlay
    ]
    preserved = sum(
        1 for sid in survivors if assignment.get(sid) == old_assignment[sid]
    )
    return RepairReport(
        graph=new_graph,
        repaired_services=broken,
        unpinned_services=frozenset(scope - broken),
        preserved_fraction=(preserved / len(survivors)) if survivors else 0.0,
        full_refederation=scope >= set(requirement.services()),
    )


def _widen(requirement: ServiceRequirement, scope: Set[Sid]) -> Set[Sid]:
    """One ring of requirement-neighbours around the current scope."""
    widened = set(scope)
    for sid in scope:
        widened.update(requirement.successors(sid))
        widened.update(requirement.predecessors(sid))
    return widened
