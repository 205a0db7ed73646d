"""Data-plane execution of a federated service: streaming over a flow graph.

The paper's quality model rests on two claims (Sec. 3.2):

* "the overall throughput is equivalent to the bandwidth on the bottleneck
  link, since the bottleneck provides pressure for flow control towards
  both upstream and downstream directions", and
* services "perform tasks in either a sequential, parallel, or interleaved
  fashion as necessary" -- i.e. a DAG executes along its critical path.

This module *runs* a federated service instead of trusting those claims: a
stream of data units flows through the service flow graph; every edge is a
serialising channel (one unit in flight per ``unit_size / bandwidth``
transmission slot, plus propagation latency), every service starts a unit
once all of its inputs for that unit have arrived, and the sink's delivery
times are recorded.  The executor is an exact event-order computation (a
deterministic dataflow recurrence -- equivalent to running the pipeline on
the DES, but directly assertable), and the validation benchmark
``benchmarks/test_dataplane_validation.py`` shows that

* the measured steady-state throughput converges to
  ``bottleneck_bandwidth / unit_size``, and
* the first unit arrives after exactly the flow graph's critical-path
  latency (plus per-hop transmission and processing time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import FederationError
from repro.obs import metrics as obs_metrics
from repro.obs.trace import tracer as obs_tracer
from repro.services.flowgraph import ServiceFlowGraph
from repro.services.requirement import Sid

_REGISTRY = obs_metrics.registry()
_M_STREAMS = _REGISTRY.counter("dataflow.streams", "simulated stream executions")
_M_UNITS = _REGISTRY.counter("dataflow.units", "data units pushed through flow graphs")

#: Per-service processing delay: one constant, or a per-SID mapping.
ProcessingDelay = Union[float, Mapping[Sid, float]]


@dataclass
class StreamConfig:
    """Parameters of a streaming run.

    Attributes:
        units: number of data units pushed through the federation.
        unit_size: size of each unit in bandwidth units x time (an edge of
            bandwidth ``B`` transmits one unit in ``unit_size / B``).
        processing_delay: time a service spends on each unit (scalar, or a
            mapping per service; missing services default to 0).
        emit_interval: minimum spacing between source emissions -- 0 means
            the source pushes as fast as the pipeline accepts.
    """

    units: int = 50
    unit_size: float = 1.0
    processing_delay: ProcessingDelay = 0.0
    emit_interval: float = 0.0

    def __post_init__(self) -> None:
        if self.units < 1:
            raise ValueError("need at least one unit")
        if self.unit_size <= 0:
            raise ValueError("unit_size must be > 0")
        if self.emit_interval < 0:
            raise ValueError("emit_interval must be >= 0")

    def delay_for(self, sid: Sid) -> float:
        if isinstance(self.processing_delay, Mapping):
            value = float(self.processing_delay.get(sid, 0.0))
        else:
            value = float(self.processing_delay)
        if value < 0:
            raise ValueError(f"processing delay for {sid!r} must be >= 0")
        return value


@dataclass
class StreamReport:
    """Everything a streaming run measured."""

    units: int
    #: Per sink service: delivery time of each unit (completion at sink).
    deliveries: Dict[Sid, Tuple[float, ...]]
    #: First unit fully delivered at the *slowest* sink.
    first_delivery: float
    #: Last unit fully delivered at the slowest sink.
    last_delivery: float
    #: Steady-state delivery rate at the slowest sink (units per time).
    throughput: float
    #: The paper's prediction: bottleneck bandwidth / unit size.
    predicted_throughput: float

    @property
    def prediction_error(self) -> float:
        """Relative error of the bottleneck prediction (0 = exact)."""
        if self.predicted_throughput == 0:
            return math.inf
        return abs(self.throughput - self.predicted_throughput) / self.predicted_throughput


def simulate_stream(
    flow_graph: ServiceFlowGraph,
    config: Optional[StreamConfig] = None,
) -> StreamReport:
    """Push ``config.units`` data units through a complete flow graph.

    The execution model, per unit ``k`` (0-based):

    * the source finishes producing unit ``k`` no earlier than
      ``k * emit_interval`` and after its own processing delay, in order;
    * edge ``u -> v`` carries one unit at a time: transmission of unit
      ``k`` starts when ``u`` finished it *and* the edge is free, takes
      ``unit_size / bandwidth``, then propagates for the edge latency;
    * service ``v`` starts unit ``k`` when every incoming edge delivered
      it and ``v`` finished unit ``k - 1`` (services are sequential in
      unit order but the *graph* runs in parallel), then spends its
      processing delay.

    Raises:
        FederationError: if the flow graph is incomplete or has
            unreachable edges (nothing can stream over those).
    """
    config = config or StreamConfig()
    flow_graph.validate()
    requirement = flow_graph.requirement
    order = requirement.topological_order()
    n = config.units

    # finish[sid][k]: time service sid completes unit k.
    finish: Dict[Sid, List[float]] = {sid: [0.0] * n for sid in order}
    # edge_free[(a, b)]: when the edge can start its next transmission.
    edge_free: Dict[Tuple[Sid, Sid], float] = {
        (e.src.sid, e.dst.sid): 0.0 for e in flow_graph.edges()
    }

    source = requirement.source
    source_delay = config.delay_for(source)
    previous = -math.inf
    for k in range(n):
        start = max(k * config.emit_interval, previous)
        previous = start + source_delay
        finish[source][k] = previous

    # Unit-major sweep keeps edge serialisation exact: all unit-k
    # transmissions are decided before any unit-(k+1) ones, matching FIFO
    # channels.
    for k in range(n):
        for sid in order[1:]:
            ready = 0.0
            for pred in requirement.predecessors(sid):
                edge = flow_graph.edge(pred, sid)
                assert edge is not None  # validate() guarantees this
                tx_time = config.unit_size / edge.quality.bandwidth
                start_tx = max(finish[pred][k], edge_free[(pred, sid)])
                edge_free[(pred, sid)] = start_tx + tx_time
                ready = max(ready, start_tx + tx_time + edge.quality.latency)
            own_delay = config.delay_for(sid)
            prev_finish = finish[sid][k - 1] if k > 0 else 0.0
            finish[sid][k] = max(ready, prev_finish) + own_delay

    deliveries = {
        sink: tuple(finish[sink]) for sink in requirement.sinks
    }
    slowest_first = max(times[0] for times in deliveries.values())
    slowest_last = max(times[-1] for times in deliveries.values())
    if n > 1 and slowest_last > slowest_first:
        throughput = (n - 1) / (slowest_last - slowest_first)
    else:
        throughput = math.inf
    bottleneck = flow_graph.bottleneck_bandwidth()
    predicted = (
        bottleneck / config.unit_size if math.isfinite(bottleneck) else math.inf
    )
    _M_STREAMS.inc()
    _M_UNITS.inc(n)
    # The sweep above is analytic (no DES clock), so the data-flow phase is
    # a point event on the wall clock, not a sim-time span.
    obs_tracer().event(  # span-less by design (ORPHAN_EVENTS)
        "dataflow.stream",
        units=n,
        throughput=throughput,
        first_delivery=slowest_first,
        last_delivery=slowest_last,
    )
    return StreamReport(
        units=n,
        deliveries=deliveries,
        first_delivery=slowest_first,
        last_delivery=slowest_last,
        throughput=throughput,
        predicted_throughput=predicted,
    )


def first_unit_latency(flow_graph: ServiceFlowGraph, config: StreamConfig) -> float:
    """Analytic delivery time of the very first unit.

    With an empty pipeline there is no queueing, so unit 0 follows the
    critical path: per edge, transmission (``unit_size / bandwidth``) plus
    propagation latency; per service, its processing delay.  Exposed for
    cross-checking :func:`simulate_stream` in tests.
    """
    requirement = flow_graph.requirement
    finish: Dict[Sid, float] = {
        requirement.source: config.delay_for(requirement.source)
    }
    for sid in requirement.topological_order()[1:]:
        ready = 0.0
        for pred in requirement.predecessors(sid):
            edge = flow_graph.edge(pred, sid)
            if edge is None:
                return math.inf
            hop = (
                config.unit_size / edge.quality.bandwidth
                + edge.quality.latency
            )
            ready = max(ready, finish[pred] + hop)
        finish[sid] = ready + config.delay_for(sid)
    return max(finish[s] for s in requirement.sinks)
