"""Tests for mailboxes and the message network."""

import pytest

from repro.errors import SimulationError
from repro.sim.channels import (
    NO_EFFECT,
    ChannelEffect,
    Envelope,
    Mailbox,
    MessageNetwork,
)
from repro.sim.engine import Environment


class TestEnvelope:
    def test_negative_size_rejected(self):
        with pytest.raises(SimulationError):
            Envelope("a", "b", None, 0.0, size=-1)


class TestMailbox:
    def test_put_then_get(self):
        env = Environment()
        box = Mailbox(env)
        box.put(Envelope("a", "b", "hello", 0.0))

        def receiver():
            envelope = yield box.get()
            return envelope.payload

        assert env.run(until=env.process(receiver())) == "hello"

    def test_get_blocks_until_put(self):
        env = Environment()
        box = Mailbox(env)
        received_at = []

        def receiver():
            yield box.get()
            received_at.append(env.now)

        def sender():
            yield env.timeout(7)
            box.put(Envelope("a", "b", "late", env.now))

        env.process(receiver())
        env.process(sender())
        env.run()
        assert received_at == [7.0]

    def test_fifo_ordering(self):
        env = Environment()
        box = Mailbox(env)
        for i in range(3):
            box.put(Envelope("a", "b", i, 0.0))
        got = []

        def receiver():
            for _ in range(3):
                envelope = yield box.get()
                got.append(envelope.payload)

        env.run(until=env.process(receiver()))
        assert got == [0, 1, 2]

    def test_multiple_waiters_served_fifo(self):
        env = Environment()
        box = Mailbox(env)
        results = []

        def receiver(name):
            envelope = yield box.get()
            results.append((name, envelope.payload))

        env.process(receiver("first"))
        env.process(receiver("second"))

        def sender():
            yield env.timeout(1)
            box.put(Envelope("s", "d", "m1", env.now))
            box.put(Envelope("s", "d", "m2", env.now))

        env.process(sender())
        env.run()
        assert results == [("first", "m1"), ("second", "m2")]

    def test_len_counts_unclaimed(self):
        env = Environment()
        box = Mailbox(env)
        box.put(Envelope("a", "b", 1, 0.0))
        assert len(box) == 1
        assert box.received == 1


def _get_loop(env, box, handler):
    """The process form: a generator looping on ``yield box.get()``."""

    def loop():
        while True:
            handler((yield box.get()))

    env.process(loop())


def _served(env, box, handler):
    box.serve(handler)


def _direct(env, box, handler):
    """A handler called from inside the delivery callback itself."""
    box.put = handler


def _interleaving(attach):
    """One script of sends and timers; the log of what ran, in order.

    Everything happens at t=5: the delivery of "a", a timer scheduled
    after that delivery, the delivery of "c", and -- from the handler of
    "a" -- a zero-latency "b" and a zero-delay tick.
    """
    env = Environment()
    net = MessageNetwork(env)
    log = []

    def handler(envelope):
        log.append(("recv", envelope.payload))
        if envelope.payload == "a":
            net.send("node", "node", "b", latency=0.0)
            env.timeout(0.0).callbacks.append(lambda _e: log.append(("tick",)))

    attach(env, net.register("node"), handler)
    net.send("src", "node", "a", latency=5.0)
    env.timeout(5.0).callbacks.append(lambda _e: log.append(("timer",)))
    net.send("src", "node", "c", latency=5.0)
    env.run()
    assert env.now == 5.0
    return log


class TestServe:
    """``Mailbox.serve``: a process-free receive loop, same event order."""

    def test_served_handler_interleaves_like_a_get_loop(self):
        # The handler runs in its getter's slot, after the timer that was
        # scheduled between the delivery and the getter.
        expected = [
            ("timer",),
            ("recv", "a"),
            ("tick",),
            ("recv", "c"),
            ("recv", "b"),
        ]
        assert _interleaving(_get_loop) == expected
        assert _interleaving(_served) == expected

    def test_the_script_tells_a_call_from_the_delivery_apart(self):
        # Calling the handler inside the delivery callback skips the
        # getter hop and reorders the tie; the script above must see it.
        assert _interleaving(_direct) == [
            ("recv", "a"),
            ("timer",),
            ("recv", "c"),
            ("recv", "b"),
            ("tick",),
        ]

    def test_envelopes_landing_at_one_instant_are_served_fifo(self):
        env = Environment()
        net = MessageNetwork(env)
        got = []
        net.register("node").serve(lambda e: got.append((env.now, e.payload)))
        for payload in ("x", "y", "z"):
            net.send("src", "node", payload, latency=2.0)
        env.run()
        assert got == [(2.0, "x"), (2.0, "y"), (2.0, "z")]

    def test_queued_mail_is_served_in_order(self):
        env = Environment()
        box = Mailbox(env)
        for i in range(3):
            box.put(Envelope("a", "b", i, 0.0))
        got = []
        box.serve(lambda e: got.append(e.payload))
        env.run()
        assert got == [0, 1, 2]
        assert len(box) == 0

    def test_arming_schedules_nothing(self):
        # Why a node created at its first send hears what one waiting
        # since t=0 would have: serving an empty mailbox adds no event.
        env = Environment()
        MessageNetwork(env).register("node").serve(lambda e: None)
        assert env.peek() == float("inf")


class TestMessageNetwork:
    def test_send_with_latency(self):
        env = Environment()
        net = MessageNetwork(env)
        box = net.register("dst")
        times = []

        def receiver():
            envelope = yield box.get()
            times.append((env.now, envelope.sent_at, envelope.payload))

        env.process(receiver())
        net.send("src", "dst", "data", latency=4.5)
        env.run()
        assert times == [(4.5, 0.0, "data")]

    def test_latency_fn_used_when_not_explicit(self):
        env = Environment()
        net = MessageNetwork(env, latency_fn=lambda s, d, e: 2.0)
        box = net.register("dst")
        times = []

        def receiver():
            yield box.get()
            times.append(env.now)

        env.process(receiver())
        net.send("src", "dst", "x")
        env.run()
        assert times == [2.0]

    def test_negative_latency_rejected(self):
        env = Environment()
        net = MessageNetwork(env)
        net.register("dst")
        with pytest.raises(SimulationError):
            net.send("src", "dst", "x", latency=-1)

    def test_unregistered_destination_raises(self):
        env = Environment()
        net = MessageNetwork(env)
        with pytest.raises(SimulationError, match="unregistered"):
            net.send("src", "ghost", "x")

    def test_drop_unroutable_counts_drops(self):
        env = Environment()
        net = MessageNetwork(env, drop_unroutable=True)
        assert net.send("src", "ghost", "x") is None
        assert net.stats.dropped == 1
        assert net.stats.messages == 0

    def test_stats_accumulate(self):
        env = Environment()
        net = MessageNetwork(env)
        net.register("a")
        net.register("b")
        net.send("x", "a", "m", size=10)
        net.send("x", "b", "m", size=5)
        net.send("x", "a", "m", size=1)
        assert net.stats.messages == 3
        assert net.stats.bytes == 16
        assert net.stats.per_destination == {"a": 2, "b": 1}

    def test_reset_stats(self):
        env = Environment()
        net = MessageNetwork(env)
        net.register("a")
        net.send("x", "a", "m")
        net.reset_stats()
        assert net.stats.messages == 0

    def test_register_is_idempotent(self):
        env = Environment()
        net = MessageNetwork(env)
        assert net.register("a") is net.register("a")

    def test_mailbox_lookup_unknown_raises(self):
        env = Environment()
        net = MessageNetwork(env)
        with pytest.raises(SimulationError):
            net.mailbox("ghost")

    def test_in_flight_messages_order_by_latency(self):
        env = Environment()
        net = MessageNetwork(env)
        box = net.register("dst")
        got = []

        def receiver():
            while True:
                envelope = yield box.get()
                got.append(envelope.payload)

        env.process(receiver())
        net.send("src", "dst", "slow", latency=10)
        net.send("src", "dst", "fast", latency=1)
        env.run(until=20)
        assert got == ["fast", "slow"]


class TestCrashStop:
    def test_crash_drains_queued_mail(self):
        env = Environment()
        net = MessageNetwork(env)
        box = net.register("dst")
        net.send("src", "dst", "queued", latency=0)
        env.run(until=1)
        assert len(box) == 1
        net.crash("dst")
        assert len(box) == 0
        assert net.stats.crash_dropped == 1
        assert net.is_crashed("dst")
        assert "dst" in net.crashed

    def test_send_to_crashed_address_is_silently_dropped(self):
        env = Environment()
        net = MessageNetwork(env)
        box = net.register("dst")
        net.crash("dst")
        envelope = net.send("src", "dst", "void", latency=1)
        assert envelope is not None  # the sender still paid
        env.run(until=5)
        assert len(box) == 0
        assert box.received == 0
        assert net.stats.messages == 1  # transmission counted
        assert net.stats.crash_dropped == 1

    def test_in_flight_message_dies_with_the_destination(self):
        env = Environment()
        net = MessageNetwork(env)
        box = net.register("dst")

        def crasher():
            yield env.timeout(2)
            net.crash("dst")

        env.process(crasher())
        net.send("src", "dst", "in-flight", latency=5)  # lands at 5 > 2
        env.run(until=10)
        assert box.received == 0
        assert net.stats.crash_dropped == 1

    def test_revive_restores_delivery(self):
        env = Environment()
        net = MessageNetwork(env)
        box = net.register("dst")
        net.crash("dst")
        net.send("src", "dst", "lost", latency=0)
        net.revive("dst")
        net.send("src", "dst", "after", latency=0)
        env.run(until=1)
        assert not net.is_crashed("dst")
        assert box.received == 1
        assert len(box) == 1

    def test_crashing_unregistered_address_is_allowed(self):
        env = Environment()
        net = MessageNetwork(env)
        net.crash("ghost")  # the schedule may cover never-joined endpoints
        assert net.is_crashed("ghost")

    def test_pending_getter_never_resumes_after_crash(self):
        env = Environment()
        net = MessageNetwork(env)
        box = net.register("dst")
        woke = []

        def receiver():
            yield box.get()
            woke.append(env.now)

        env.process(receiver())
        net.crash("dst")
        net.send("src", "dst", "x", latency=0)
        env.run(until=10)
        assert woke == []


class TestJitter:
    def test_jitter_added_to_latency(self):
        env = Environment()
        net = MessageNetwork(env, jitter_fn=lambda s, d, e: 1.5)
        box = net.register("dst")
        times = []

        def receiver():
            yield box.get()
            times.append(env.now)

        env.process(receiver())
        net.send("src", "dst", "x", latency=2.0)
        env.run()
        assert times == [3.5]

    def test_negative_jitter_rejected(self):
        env = Environment()
        net = MessageNetwork(env, jitter_fn=lambda s, d, e: -0.1)
        net.register("dst")
        with pytest.raises(SimulationError, match="jitter"):
            net.send("src", "dst", "x", latency=1.0)


class TestGrayModel:
    """Transport-level gray faults via MessageNetwork.install_gray."""

    @staticmethod
    def _network_with(effect_fn):
        env = Environment()
        net = MessageNetwork(env)
        box = net.register("dst")
        net.install_gray(effect_fn)
        return env, net, box

    @staticmethod
    def _drain(env, box):
        got = []

        def receiver():
            while True:
                envelope = yield box.get()
                got.append((env.now, envelope.payload))

        env.process(receiver())
        env.run()
        return got

    def test_blocked_counts_partition_not_loss(self):
        env, net, box = self._network_with(
            lambda s, d, e, now, lat: ChannelEffect(blocked=True)
        )
        net.send("src", "dst", "x", latency=1.0)
        assert self._drain(env, box) == []
        assert net.stats.partition_blocked == 1
        assert net.stats.lost == 0

    def test_drop_counts_as_loss(self):
        env, net, box = self._network_with(
            lambda s, d, e, now, lat: ChannelEffect(drop=True)
        )
        net.send("src", "dst", "x", latency=1.0)
        assert self._drain(env, box) == []
        assert net.stats.lost == 1
        assert net.stats.partition_blocked == 0

    def test_extra_delay_postpones_delivery(self):
        env, net, box = self._network_with(
            lambda s, d, e, now, lat: ChannelEffect(extra_delay=3.0)
        )
        net.send("src", "dst", "x", latency=2.0)
        assert self._drain(env, box) == [(5.0, "x")]
        assert net.stats.reordered == 0

    def test_reordered_delay_is_counted(self):
        env, net, box = self._network_with(
            lambda s, d, e, now, lat: (
                ChannelEffect(extra_delay=9.0, reordered=True)
                if e.payload == "first"
                else NO_EFFECT
            )
        )
        net.send("src", "dst", "first", latency=1.0)
        net.send("src", "dst", "second", latency=1.0)
        got = self._drain(env, box)
        assert got == [(1.0, "second"), (10.0, "first")]
        assert net.stats.reordered == 1

    def test_duplicates_deliver_extra_copies(self):
        env, net, box = self._network_with(
            lambda s, d, e, now, lat: ChannelEffect(duplicate_delays=(2.0,))
        )
        net.send("src", "dst", "x", latency=1.0)
        assert self._drain(env, box) == [(1.0, "x"), (3.0, "x")]
        assert net.stats.duplicated == 1

    def test_install_none_uninstalls(self):
        env, net, box = self._network_with(
            lambda s, d, e, now, lat: ChannelEffect(drop=True)
        )
        net.install_gray(None)
        net.send("src", "dst", "x", latency=1.0)
        assert self._drain(env, box) == [(1.0, "x")]
        assert net.stats.lost == 0

    def test_effect_validation(self):
        with pytest.raises(SimulationError):
            ChannelEffect(extra_delay=-1.0)
        with pytest.raises(SimulationError):
            ChannelEffect(duplicate_delays=(-0.5,))


class _ListSink:
    """Minimal record sink: collects emitted dicts."""

    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(record)


class TestCausalStamping:
    """msg_id stamping and send/deliver events for the causal profiler."""

    def _traced_network(self):
        from repro.obs.trace import SimClock, Tracer

        env = Environment()
        net = MessageNetwork(env)
        net.register("a")
        box = net.register("b")
        sink = _ListSink()
        tracer = Tracer()
        tracer.set_sink(sink)
        span = tracer.session("test.session", clock=SimClock(env))
        net.set_trace_span(span)
        return env, net, box, sink, span

    def test_untraced_sends_carry_mid_zero(self):
        env = Environment()
        net = MessageNetwork(env)
        net.register("a")
        net.register("b")
        envelope = net.send("a", "b", "x")
        assert envelope.mid == 0

    def test_traced_sends_get_monotone_mids(self):
        env, net, box, sink, span = self._traced_network()
        mids = [net.send("a", "b", i).mid for i in range(3)]
        assert mids == [1, 2, 3]

    def test_send_and_deliver_events_share_the_msg_id(self):
        env, net, box, sink, span = self._traced_network()
        net.send("a", "b", "payload", latency=2.5, size=7)
        env.run()
        events = [r for r in sink.records if r["type"] == "event"]
        assert [e["name"] for e in events] == [
            "channel.send", "channel.deliver",
        ]
        send, deliver = events
        assert send["attrs"]["msg_id"] == deliver["attrs"]["msg_id"] == 1
        assert send["attrs"]["src"] == "a" and send["attrs"]["dst"] == "b"
        assert send["attrs"]["size"] == 7
        assert send["attrs"]["cls"] == "str"
        assert send["time"] == 0.0 and deliver["time"] == 2.5
        assert send["trace"] == deliver["trace"] == span.trace_id

    def test_lost_message_records_send_but_no_deliver(self):
        env, net, box, sink, span = self._traced_network()
        net.install_gray(
            lambda s, d, e, now, lat: ChannelEffect(drop=True)
        )
        net.send("a", "b", "doomed")
        env.run()
        names = [r["name"] for r in sink.records if r["type"] == "event"]
        assert names == ["channel.send"]

    def test_detaching_the_span_stops_stamping(self):
        env, net, box, sink, span = self._traced_network()
        net.set_trace_span(None)
        envelope = net.send("a", "b", "x")
        env.run()
        assert envelope.mid == 0
        assert [r for r in sink.records if r["type"] == "event"] == []

    def test_duplicated_delivery_emits_one_deliver_per_copy(self):
        env, net, box, sink, span = self._traced_network()
        net.install_gray(
            lambda s, d, e, now, lat: ChannelEffect(duplicate_delays=(2.0,))
        )
        net.send("a", "b", "x", latency=1.0)
        env.run()
        delivers = [
            r for r in sink.records
            if r["type"] == "event" and r["name"] == "channel.deliver"
        ]
        assert len(delivers) == 2
        assert {d["attrs"]["msg_id"] for d in delivers} == {1}
