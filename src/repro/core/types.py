"""Common types shared by every federation algorithm.

Each algorithm in :mod:`repro.core` implements the
:class:`FederationAlgorithm` protocol: given a requirement and an overlay
(and optionally a pinned source instance and an RNG), produce a
:class:`~repro.services.flowgraph.ServiceFlowGraph`.  The experiment harness
in :mod:`repro.eval` treats all algorithms uniformly through this interface
and wraps outputs in :class:`FederationResult` with timing attached.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Protocol, Tuple, runtime_checkable

from repro.errors import FederationError
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.obs.clock import Stopwatch
from repro.services.flowgraph import ServiceFlowGraph
from repro.services.requirement import ServiceRequirement, Sid


def pinned_pool(
    pool: Tuple[ServiceInstance, ...],
    sid: Sid,
    pinned: Optional[ServiceInstance],
) -> Tuple[ServiceInstance, ...]:
    """The source candidates of ``sid``: all of ``pool``, or the pin alone.

    ``pool`` is ``instances_of(sid)``, so membership also rejects a pin
    of another service.
    """
    if pinned is None:
        return pool
    if pinned not in pool:
        raise FederationError(
            f"pinned source {pinned} is not an available instance of {sid!r}"
        )
    return (pinned,)


@runtime_checkable
class FederationAlgorithm(Protocol):
    """The uniform algorithm interface used by the evaluation harness."""

    #: Short identifier used in experiment tables ("sflow", "random", ...).
    name: str

    def solve(
        self,
        requirement: ServiceRequirement,
        overlay: OverlayGraph,
        *,
        source_instance: Optional[ServiceInstance] = None,
        rng: Optional[random.Random] = None,
    ) -> ServiceFlowGraph:
        """Compute a service flow graph for ``requirement`` over ``overlay``."""
        ...  # pragma: no cover - protocol


@dataclass
class FederationResult:
    """An algorithm run plus the measurements the evaluation reports."""

    algorithm: str
    flow_graph: ServiceFlowGraph
    elapsed_seconds: float
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def bandwidth(self) -> float:
        return self.flow_graph.bottleneck_bandwidth()

    @property
    def latency(self) -> float:
        return self.flow_graph.end_to_end_latency()


def timed_solve(
    algorithm: FederationAlgorithm,
    requirement: ServiceRequirement,
    overlay: OverlayGraph,
    *,
    source_instance: Optional[ServiceInstance] = None,
    rng: Optional[random.Random] = None,
    stopwatch: Optional[Stopwatch] = None,
) -> FederationResult:
    """Run an algorithm under injectable host-clock timing.

    Timing goes through a :class:`repro.obs.clock.Stopwatch` (a fresh
    default one unless the caller injects its own -- tests inject a fake
    clock to get deterministic elapsed values).  For the distributed
    sFlow algorithm the wall time measured here covers the whole
    simulated federation; the algorithm additionally reports its pure
    local-computation time through ``extras`` (see
    :class:`repro.core.sflow.SFlowResult`).
    """
    stopwatch = stopwatch if stopwatch is not None else Stopwatch()
    start = stopwatch.read()
    graph = algorithm.solve(
        requirement, overlay, source_instance=source_instance, rng=rng
    )
    elapsed = stopwatch.read() - start
    extras: Dict[str, Any] = {}
    last = getattr(algorithm, "last_result", None)
    if last is not None:
        extras["detail"] = last
    return FederationResult(algorithm.name, graph, elapsed, extras)
