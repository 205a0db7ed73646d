"""Data-plane execution on the discrete-event simulator.

:mod:`repro.services.execution` computes the streaming behaviour of a flow
graph as a closed-form dataflow recurrence.  This module runs the *same*
pipeline as actual simulated processes -- one per service, one per edge --
with :class:`Store` buffers carrying the units and edge processes
serialising transmissions.  Agreement between the two
executors (asserted in ``tests/sim/test_dataplane.py``) is a strong
end-to-end check on both: the analytic recurrence validates the simulation
kernel's scheduling, and the kernel validates the recurrence's modelling
assumptions.

The simulated pipeline, per data unit:

* the **source process** emits units in order, spaced by ``emit_interval``
  and its own processing delay;
* an **edge process** per flow edge takes units FIFO from its input
  buffer, holds the (serialising) channel for ``unit_size / bandwidth``,
  then delivers after the propagation latency -- new transmissions may
  start while earlier ones propagate, exactly like a pipelined link;
* a **service process** per non-source service collects one unit from
  every incoming edge buffer (all inputs must arrive), spends its
  processing delay, and forwards downstream; sinks record delivery times.

The shared-resource primitives it is built from are the simpy-style
counterparts needed to express contention in simulated systems:

* :class:`Resource` -- ``capacity`` concurrent holders, FIFO queueing
  (the executor needs none: each edge process serialises its own link).
* :class:`Store` -- an unbounded (or bounded) FIFO buffer of items with
  blocking ``get``; the building block for producer/consumer stages.

Both hand out plain :class:`~repro.sim.engine.Event` objects, so processes
compose them freely with timeouts and conditions::

    def worker(env, resource):
        request = resource.request()
        yield request
        try:
            yield env.timeout(5)         # hold the resource
        finally:
            resource.release(request)
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.services.execution import StreamConfig, StreamReport, simulate_stream
from repro.services.flowgraph import ServiceFlowGraph
from repro.services.requirement import Sid
from repro.sim.engine import Environment, Event


class Request(Event):
    """A pending or granted claim on a :class:`Resource`."""

    def __init__(self, env: Environment, resource: "Resource") -> None:
        super().__init__(env)
        self.resource = resource


class Resource:
    """A capacity-limited resource with FIFO granting.

    ``request()`` returns an event that fires once a slot is free;
    ``release(request)`` frees the slot and wakes the next waiter.
    Releasing an ungranted or foreign request is an error -- silent
    double-releases are the classic simulation bug this guards against.
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._holders: Set[Request] = set()
        self._queue: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return len(self._holders)

    @property
    def queued(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when granted."""
        req = Request(self.env, self)
        if len(self._holders) < self.capacity:
            self._holders.add(req)
            req.succeed()
        else:
            self._queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a granted slot (wakes the next queued request)."""
        if request.resource is not self:
            raise SimulationError("request belongs to a different resource")
        if request not in self._holders:
            raise SimulationError("releasing a request that was never granted")
        self._holders.discard(request)
        if self._queue:
            nxt = self._queue.popleft()
            self._holders.add(nxt)
            nxt.succeed()


class Store:
    """A FIFO item buffer with blocking ``get`` and optionally bounded ``put``.

    With ``capacity=None`` (default) puts never block and complete
    immediately; with a finite capacity, ``put`` returns an event that
    fires once space is available.
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Event] = deque()
        self._pending_items: Deque[Any] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Deposit ``item``; the returned event fires when accepted."""
        event = Event(self.env)
        if self._getters:
            # Hand straight to a waiting consumer.
            self._getters.popleft().succeed(item)
            event.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed()
        else:
            self._putters.append(event)
            self._pending_items.append(item)
        return event

    def get(self) -> Event:
        """Take the oldest item; the returned event fires with it."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
            self._admit_pending()
        else:
            self._getters.append(event)
        return event

    def _admit_pending(self) -> None:
        while self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            self._items.append(self._pending_items.popleft())
            self._putters.popleft().succeed()


def simulate_stream_des(
    flow_graph: ServiceFlowGraph,
    config: StreamConfig = None,
) -> StreamReport:
    """Run the stream on the DES; same contract as
    :func:`repro.services.execution.simulate_stream`."""
    config = config or StreamConfig()
    flow_graph.validate()
    requirement = flow_graph.requirement
    if len(requirement.services()) == 1:
        # Degenerate single-service federation: no channels to simulate;
        # the closed form is the simulation.
        return simulate_stream(flow_graph, config)
    env = Environment()
    n = config.units

    # Per edge: the buffer units wait in before transmission.
    inboxes: Dict[Tuple[Sid, Sid], Store] = {}
    # Per service: one arrival buffer per incoming edge.
    arrivals: Dict[Tuple[Sid, Sid], Store] = {}
    for edge in flow_graph.edges():
        key = edge.requirement_edge
        inboxes[key] = Store(env)
        arrivals[key] = Store(env)

    deliveries: Dict[Sid, List[float]] = {sink: [] for sink in requirement.sinks}
    done = Event(env)
    remaining_sinks = {sink: n for sink in requirement.sinks}

    def source_process():
        sid = requirement.source
        delay = config.delay_for(sid)
        for k in range(n):
            target = k * config.emit_interval
            if target > env.now:
                yield env.timeout(target - env.now)
            if delay:
                yield env.timeout(delay)
            for succ in requirement.successors(sid):
                inboxes[(sid, succ)].put(k)

    def edge_process(edge):
        key = edge.requirement_edge
        tx_time = config.unit_size / edge.quality.bandwidth
        latency = edge.quality.latency
        store = inboxes[key]
        sink_store = arrivals[key]
        while True:
            unit = yield store.get()
            yield env.timeout(tx_time)  # the channel is held for this long
            # Propagation happens off-channel: deliver after `latency`
            # without blocking the next transmission.
            deliver = Event(env)
            deliver.callbacks.append(
                lambda _e, u=unit: sink_store.put(u)
            )
            deliver.succeed(delay=latency)

    def service_process(sid):
        delay = config.delay_for(sid)
        preds = requirement.predecessors(sid)
        succs = requirement.successors(sid)
        for k in range(n):
            for pred in preds:
                unit = yield arrivals[(pred, sid)].get()
                if unit != k:
                    raise AssertionError(
                        f"{sid} expected unit {k} from {pred}, got {unit}"
                    )
            if delay:
                yield env.timeout(delay)
            if succs:
                for succ in succs:
                    inboxes[(sid, succ)].put(k)
            else:
                deliveries[sid].append(env.now)
                remaining_sinks[sid] -= 1
                if (
                    all(v == 0 for v in remaining_sinks.values())
                    and not done.triggered
                ):
                    done.succeed()

    env.process(source_process())
    for edge in flow_graph.edges():
        env.process(edge_process(edge))
    for sid in requirement.topological_order()[1:]:
        env.process(service_process(sid))

    env.run(until=done)

    delivery_tuples = {sid: tuple(times) for sid, times in deliveries.items()}
    slowest_first = max(times[0] for times in delivery_tuples.values())
    slowest_last = max(times[-1] for times in delivery_tuples.values())
    if n > 1 and slowest_last > slowest_first:
        throughput = (n - 1) / (slowest_last - slowest_first)
    else:
        throughput = math.inf
    bottleneck = flow_graph.bottleneck_bandwidth()
    predicted = (
        bottleneck / config.unit_size if math.isfinite(bottleneck) else math.inf
    )
    return StreamReport(
        units=n,
        deliveries=delivery_tuples,
        first_delivery=slowest_first,
        last_delivery=slowest_last,
        throughput=throughput,
        predicted_throughput=predicted,
    )
