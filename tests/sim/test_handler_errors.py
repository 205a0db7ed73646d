"""Handler failures (process steps and served mailbox callbacks) must keep
their traceback and leave telemetry.

A generator process that raises used to be converted into a failed event
with nothing else: waiters that handled the failure made the original
crash invisible.  The engine now increments ``engine.handler_error``
(labelled by exception class) and, when tracing is on, records the full
formatted traceback -- while the exception object still carries its
original ``__traceback__`` for whoever re-raises it.
"""

from __future__ import annotations

import traceback

import pytest

from repro.obs import metrics
from repro.obs.trace import tracer
from repro.sim.channels import MessageNetwork
from repro.sim.engine import Environment

_COUNTER = metrics.registry().counter("engine.handler_error")


class _ListSink:
    def __init__(self) -> None:
        self.records = []

    def emit(self, record: dict) -> None:
        self.records.append(record)


def explode(env):
    yield env.timeout(1.0)
    raise ValueError("deliberate failure at t=1")


def test_waiter_sees_original_exception_with_frames():
    env = Environment()
    proc = env.process(explode(env))

    seen = {}

    def waiter(env, target):
        try:
            yield target
        except ValueError as exc:
            seen["exc"] = exc

    env.process(waiter(env, proc))
    env.run()

    exc = seen["exc"]
    assert str(exc) == "deliberate failure at t=1"
    frames = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    assert "explode" in frames  # the raising frame survived the event hop


def test_handler_error_counter_labels_by_exception_kind():
    before = _COUNTER.value(kind="ValueError")
    env = Environment()
    proc = env.process(explode(env))
    env.process(_absorb(env, proc))
    env.run()
    assert _COUNTER.value(kind="ValueError") == before + 1


def test_counter_increments_even_when_nobody_waits():
    before = _COUNTER.value(kind="RuntimeError")

    def crash(env):
        yield env.timeout(0.5)
        raise RuntimeError("unobserved")

    env = Environment()
    env.process(crash(env))
    with pytest.raises(RuntimeError, match="unobserved"):
        env.run()
    assert _COUNTER.value(kind="RuntimeError") == before + 1


def test_trace_event_records_kind_time_and_traceback():
    sink = _ListSink()
    tracer().set_sink(sink)
    try:
        env = Environment()
        proc = env.process(explode(env))
        env.process(_absorb(env, proc))
        env.run()
    finally:
        tracer().set_sink(None)

    events = [r for r in sink.records if r["name"] == "engine.handler_error"]
    assert len(events) == 1
    record = events[0]
    assert record["clock"] == "sim"
    assert record["time"] == 1.0  # the DES instant of the crash
    attrs = record["attrs"]
    assert attrs["kind"] == "ValueError"
    assert attrs["process"] == "explode"
    assert "deliberate failure" in attrs["message"]
    assert "raise ValueError" in attrs["traceback"]


def test_raising_served_handler_is_counted_surfaces_and_stops():
    # A mailbox callback is accounted like a process step: counted by
    # kind, raised out of Environment.step at the instant it failed, and
    # never called again.
    before = _COUNTER.value(kind="KeyError")
    env = Environment()
    net = MessageNetwork(env)
    calls = []

    def receive(envelope):
        calls.append(envelope.payload)
        raise KeyError(envelope.payload)

    box = net.register("node")
    box.serve(receive)
    net.send("src", "node", "first", latency=1.0)
    net.send("src", "node", "second", latency=2.0)
    with pytest.raises(KeyError, match="first"):
        env.run()
    assert env.now == 1.0
    assert _COUNTER.value(kind="KeyError") == before + 1
    env.run()
    assert calls == ["first"]
    assert len(box) == 1  # "second" arrived; nobody took it


def test_no_tracing_cost_when_sink_detached():
    assert not tracer().enabled
    env = Environment()
    proc = env.process(explode(env))
    env.process(_absorb(env, proc))
    env.run()  # must not blow up formatting tracebacks for nobody


def _absorb(env, target):
    def _runner(env, target):
        try:
            yield target
        except Exception:
            pass  # sim-side absorber; the engine already counted it

    return _runner(env, target)
