"""Message-passing primitives on top of the simulation kernel.

Simulated protocol endpoints (sFlow service nodes, link-state routers)
communicate through a :class:`MessageNetwork`: a point-to-point transport
that delivers an :class:`Envelope` into the destination's :class:`Mailbox`
after a configurable latency.  The network keeps delivery statistics
(messages, bytes, per-destination counts) so experiments can report protocol
overhead without instrumenting every node.

Failure semantics (for chaos experiments):

* a **crashed** address (:meth:`MessageNetwork.crash`) models crash-stop
  nodes: deliveries to it are silently discarded -- including messages
  already in flight when the crash happens -- and its queued mail is
  drained, so the owning endpoint never hears anything again until a
  :meth:`~MessageNetwork.revive`;
* a **jitter function** adds per-message delivery delay on top of the
  nominal latency (seed the callable's RNG for reproducible runs);
* a **loss function** eats individual messages (the sender still pays for
  the transmission);
* a **gray model** (:meth:`MessageNetwork.install_gray`) generalises both
  to the full gray-failure menu: per-channel loss, duplication and
  reordering, straggler endpoints (inflated delivery latency), flapping
  links and healing partitions.  The model returns one
  :class:`ChannelEffect` per send; :class:`repro.network.failures.GrayFaultPlan`
  provides the seeded, schedulable implementation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Hashable, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.obs import metrics as obs_metrics
from repro.obs.trace import NULL_SPAN
from repro.sim.engine import Environment, Event, handler_failed

Address = Hashable

#: Transport metrics (process-wide, across every MessageNetwork): resolved
#: once at import so the send path pays one counter update, not a registry
#: lookup.  The per-network :class:`NetworkStats` stays the per-run view;
#: these registry series are what flight recordings and campaign snapshots
#: read.
_REGISTRY = obs_metrics.registry()
_M_MESSAGES = _REGISTRY.counter("channel.messages", "messages accepted for delivery")
_M_BYTES = _REGISTRY.counter("channel.bytes", "abstract wire bytes sent")
_M_DROPPED = _REGISTRY.counter("channel.dropped", "messages to unroutable addresses")
_M_LOST = _REGISTRY.counter("channel.lost", "messages eaten by the loss model")
_M_CRASH_DROPPED = _REGISTRY.counter(
    "channel.crash_dropped", "messages discarded at crashed endpoints"
)
_H_DELIVERY = _REGISTRY.histogram(
    "channel.delivery.latency",
    "realised delivery latency (virtual time, jitter included) of messages "
    "actually put in flight",
)
_M_DUPLICATED = _REGISTRY.counter(
    "channel.duplicated", "extra copies injected by the gray model"
)
_M_REORDERED = _REGISTRY.counter(
    "channel.reordered", "messages delayed out of FIFO order by the gray model"
)
_M_PARTITION_BLOCKED = _REGISTRY.counter(
    "channel.partition_blocked",
    "messages blocked by an active partition or a flapped-down link",
)


@dataclass(frozen=True)
class ChannelEffect:
    """What the gray model decided for one message in flight.

    ``blocked`` models a partitioned or flapped-down channel (the message
    vanishes, counted separately from random loss); ``drop`` is random
    gray loss; ``extra_delay`` inflates the delivery latency (straggler
    endpoints, reordering); ``reordered`` marks the delay as a reordering
    event for accounting; ``duplicate_delays`` injects one extra copy of
    the message per entry, each offset by that much additional delay.
    """

    blocked: bool = False
    drop: bool = False
    extra_delay: float = 0.0
    reordered: bool = False
    duplicate_delays: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.extra_delay < 0:
            raise SimulationError(
                f"extra_delay must be >= 0, got {self.extra_delay}"
            )
        for delay in self.duplicate_delays:
            if delay < 0:
                raise SimulationError(
                    f"duplicate delay must be >= 0, got {delay}"
                )


#: No-op effect shared by inactive models (avoids per-send allocation).
NO_EFFECT = ChannelEffect()


@dataclass(frozen=True)
class Envelope:
    """A message in flight: sender, receiver, payload and bookkeeping.

    ``mid`` is the network-level causal message id stamped on
    ``channel.send`` / ``channel.deliver`` trace events; it is 0 (and no
    events are emitted) unless a trace span is attached to the network,
    so untraced runs pay nothing and stay bit-identical.
    """

    src: Address
    dst: Address
    payload: Any
    sent_at: float
    size: int = 1
    mid: int = 0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise SimulationError(f"message size must be >= 0, got {self.size}")


#: ``effect(src, dst, envelope, now, latency) -> ChannelEffect`` gray model.
GrayModelFn = Callable[[Address, Address, Envelope, float, float], ChannelEffect]


class Mailbox:
    """An unbounded FIFO queue with event-based blocking receive.

    ``get()`` returns an :class:`~repro.sim.engine.Event` that fires with the
    next envelope -- immediately if one is queued, otherwise as soon as one
    arrives.  Multiple pending ``get()`` calls are served in FIFO order.
    A protocol endpoint does not wait in a process: it :meth:`serve`\\ s its
    mailbox with a callback.
    """

    def __init__(self, env: Environment, owner: Address = None) -> None:
        self.env = env
        self.owner = owner
        self._items: Deque[Envelope] = deque()
        self._getters: Deque[Event] = deque()
        self.received = 0

    def put(self, envelope: Envelope) -> None:
        """Deposit an envelope, waking one waiting receiver if any."""
        self.received += 1
        if self._getters:
            self._getters.popleft().succeed(envelope)
        else:
            self._items.append(envelope)

    def get(self) -> Event:
        """An event yielding the next envelope (FIFO)."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def serve(self, handler: Callable[[Envelope], None]) -> None:
        """Call ``handler(envelope)`` on every envelope, in FIFO order.

        What a process looping on ``yield box.get()`` does, minus the
        process: one getter is armed at a time, and when it fires the
        handler runs and the next getter is armed.  The handler runs in the
        getter event's own slot, never inside the delivery callback that
        filled it, so an event scheduled for the same instant between the
        delivery and the getter (a timer, say) still runs first.  A raising
        handler is accounted like a raising process step
        (:func:`~repro.sim.engine.handler_failed`): its exception surfaces
        from :meth:`~repro.sim.engine.Environment.step` at the same instant,
        and the mailbox is not served again.
        """
        name = getattr(handler, "__name__", "handler")

        def on_envelope(getter: Event) -> None:
            try:
                handler(getter.value)
            except Exception as exc:  # sflow: noqa[SFL006] -- handler_failed counts engine.handler_error and the failed event raises it from Environment.step
                handler_failed(Event(self.env), exc, name)
                return
            self.get().callbacks.append(on_envelope)

        self.get().callbacks.append(on_envelope)

    def __len__(self) -> int:
        """Number of envelopes queued (excluding ones already claimed)."""
        return len(self._items)

    def clear(self) -> int:
        """Discard all queued envelopes (crash-stop), returning the count.

        Pending ``get()`` events are left untouched: the waiting process
        simply never resumes until a new envelope arrives, which is exactly
        the behaviour of a stopped node.
        """
        dropped = len(self._items)
        self._items.clear()
        return dropped


#: ``latency_fn(src, dst, envelope) -> delay`` pluggable delivery model.
LatencyFn = Callable[[Address, Address, Envelope], float]

#: ``jitter_fn(src, dst, envelope) -> extra delay`` added to the latency.
JitterFn = Callable[[Address, Address, Envelope], float]


@dataclass
class NetworkStats:
    """Aggregate transport counters, reset with :meth:`MessageNetwork.reset_stats`."""

    messages: int = 0
    bytes: int = 0
    dropped: int = 0
    lost: int = 0
    crash_dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    partition_blocked: int = 0
    per_destination: Dict[Address, int] = field(default_factory=dict)


class MessageNetwork:
    """Point-to-point message delivery with per-message latency.

    Endpoints register a :class:`Mailbox` under an address.  ``send`` either
    takes an explicit ``latency`` or consults the network's latency function
    (default: zero delay).  Sending to an unregistered address raises unless
    the network was built with ``drop_unroutable=True``, in which case the
    message is counted as dropped -- useful for failure-injection tests.
    """

    def __init__(
        self,
        env: Environment,
        latency_fn: Optional[LatencyFn] = None,
        *,
        drop_unroutable: bool = False,
        loss_fn: Optional[Callable[[Address, Address, Envelope], bool]] = None,
        jitter_fn: Optional[JitterFn] = None,
    ) -> None:
        self.env = env
        self._latency_fn = latency_fn
        self._drop_unroutable = drop_unroutable
        self._loss_fn = loss_fn
        self._jitter_fn = jitter_fn
        self._mailboxes: Dict[Address, Mailbox] = {}
        self._crashed: Set[Address] = set()
        self._gray_model: Optional[GrayModelFn] = None
        self._trace_span = NULL_SPAN
        self._next_mid = 0
        self.stats = NetworkStats()

    def set_trace_span(self, span: Any) -> None:
        """Attach the span that owns causal ``channel.*`` events.

        While an enabled span is attached, every accepted send gets a
        monotonically increasing ``mid`` and emits a ``channel.send``
        event; each arrival emits a matching ``channel.deliver``.  Pass
        ``None`` (or ``NULL_SPAN``) to detach; the disabled path is one
        attribute load + bool test per send.
        """
        self._trace_span = NULL_SPAN if span is None else span

    def install_gray(self, model: Optional[GrayModelFn]) -> None:
        """Attach (or clear, with ``None``) the gray-failure model.

        The model is consulted once per :meth:`send`; a network without one
        behaves bit-for-bit as before the gray fault layer existed.
        """
        self._gray_model = model

    # -- membership -------------------------------------------------------------

    def register(self, address: Address) -> Mailbox:
        """Create (or fetch) the mailbox for ``address``."""
        if address not in self._mailboxes:
            self._mailboxes[address] = Mailbox(self.env, owner=address)
        return self._mailboxes[address]

    def mailbox(self, address: Address) -> Mailbox:
        try:
            return self._mailboxes[address]
        except KeyError:
            raise SimulationError(f"no endpoint registered at {address!r}") from None

    def addresses(self):
        return sorted(self._mailboxes, key=repr)

    # -- crash-stop failures -----------------------------------------------------

    def crash(self, address: Address) -> None:
        """Crash-stop ``address``: drop its queued mail and all future
        deliveries (including messages currently in flight) until revived.

        Crashing an unregistered address is allowed -- the crash schedule
        may cover endpoints that never joined the protocol.
        """
        self._crashed.add(address)
        box = self._mailboxes.get(address)
        if box is not None:
            drained = box.clear()
            self.stats.crash_dropped += drained
            if drained:
                _M_CRASH_DROPPED.inc(drained)

    def revive(self, address: Address) -> None:
        """Bring a crashed address back; future deliveries succeed again."""
        self._crashed.discard(address)

    def is_crashed(self, address: Address) -> bool:
        return address in self._crashed

    @property
    def crashed(self) -> frozenset:
        return frozenset(self._crashed)

    # -- delivery ----------------------------------------------------------------

    def send(
        self,
        src: Address,
        dst: Address,
        payload: Any,
        *,
        latency: Optional[float] = None,
        size: int = 1,
    ) -> Optional[Envelope]:
        """Send ``payload`` from ``src`` to ``dst``.

        Returns the envelope, or ``None`` when the destination is missing
        and the network drops unroutable traffic.
        """
        span = self._trace_span
        mid = 0
        if span.enabled:
            self._next_mid += 1
            mid = self._next_mid
        envelope = Envelope(src, dst, payload, sent_at=self.env.now, size=size, mid=mid)
        box = self._mailboxes.get(dst)
        if box is None:
            if self._drop_unroutable:
                self.stats.dropped += 1
                _M_DROPPED.inc()
                return None
            raise SimulationError(f"cannot deliver to unregistered address {dst!r}")
        if mid:
            # Causal stamp: a send without a matching deliver is a message
            # the network ate (loss / crash / partition) -- the profiler
            # reads that asymmetry directly.
            span.event(
                "channel.send",
                msg_id=mid,
                src=str(src),
                dst=str(dst),
                size=size,
                cls=type(payload).__name__,
            )
        if latency is None:
            latency = self._latency_fn(src, dst, envelope) if self._latency_fn else 0.0
        if latency < 0:
            raise SimulationError(f"negative delivery latency {latency}")
        if self._jitter_fn is not None:
            jitter = self._jitter_fn(src, dst, envelope)
            if jitter < 0:
                raise SimulationError(f"negative delivery jitter {jitter}")
            latency += jitter
        self.stats.messages += 1
        self.stats.bytes += size
        self.stats.per_destination[dst] = self.stats.per_destination.get(dst, 0) + 1
        _M_MESSAGES.inc()
        _M_BYTES.inc(size)
        if dst in self._crashed:
            # The sender transmitted into the void; nothing arrives.
            self.stats.crash_dropped += 1
            _M_CRASH_DROPPED.inc()
            return envelope
        if self._loss_fn is not None and self._loss_fn(src, dst, envelope):
            # The sender paid for the transmission; the network ate it.
            self.stats.lost += 1
            _M_LOST.inc()
            return envelope
        effect = NO_EFFECT
        if self._gray_model is not None:
            effect = self._gray_model(src, dst, envelope, self.env.now, latency)
            if effect.blocked:
                # A partitioned / flapped-down channel: nothing arrives,
                # and unlike random loss the outage is correlated in time.
                self.stats.partition_blocked += 1
                _M_PARTITION_BLOCKED.inc()
                return envelope
            if effect.drop:
                self.stats.lost += 1
                _M_LOST.inc()
                return envelope
            if effect.extra_delay > 0:
                latency += effect.extra_delay
                if effect.reordered:
                    self.stats.reordered += 1
                    _M_REORDERED.inc()
        _H_DELIVERY.observe(latency)
        delivery = Event(self.env)
        delivery.callbacks.append(lambda _e: self._deliver(box, envelope))
        delivery.succeed(delay=latency)
        for extra in effect.duplicate_delays:
            # A duplicated copy trails the original; reliable-mode
            # receivers dedup it by msg_id, raw consumers see it twice.
            self.stats.duplicated += 1
            _M_DUPLICATED.inc()
            duplicate = Event(self.env)
            duplicate.callbacks.append(lambda _e: self._deliver(box, envelope))
            duplicate.succeed(delay=latency + extra)
        return envelope

    def _deliver(self, box: Mailbox, envelope: Envelope) -> None:
        """Delivery-time crash check: a message in flight when its
        destination crashes is discarded, not queued."""
        if envelope.dst in self._crashed:
            self.stats.crash_dropped += 1
            _M_CRASH_DROPPED.inc()
            return
        span = self._trace_span
        if envelope.mid and span.enabled:
            span.event(
                "channel.deliver",
                msg_id=envelope.mid,
                src=str(envelope.src),
                dst=str(envelope.dst),
            )
        box.put(envelope)

    def reset_stats(self) -> None:
        self.stats = NetworkStats()
