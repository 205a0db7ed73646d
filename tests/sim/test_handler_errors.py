"""Handler failures (process steps and served mailbox callbacks) must keep
their traceback and leave telemetry.

A generator process that raises used to be converted into a failed event
with nothing else: waiters that handled the failure made the original
crash invisible.  The engine now increments ``engine.handler_error``
(labelled by exception class) and, when tracing is on, records the full
formatted traceback -- while the exception object still carries its
original ``__traceback__`` for whoever re-raises it.

The last two tests keep the protocol's side of that bargain: no handler
that ``repro`` spawns lets an exception escape over a chaos campaign, a
link-state crash arm and a monitored session, and every handler that
``repro`` spawns is among those the run was seen to enter.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import traceback
from pathlib import Path

import pytest

from repro.core.monitor import MonitoredFederation
from repro.eval import robustness
from repro.network.failures import degrade_links, fail_instances
from repro.obs import metrics
from repro.obs.trace import tracer
from repro.services.workloads import travel_agency_scenario
from repro.sim.channels import MessageNetwork
from repro.sim.engine import Environment
from tests.core.test_sflow_golden import SCENARIOS, _arm, _federate, _scenario

#: Every function ``repro`` hands to ``env.process(...)`` or ``.serve(...)``.
HANDLERS = {
    "repro.core.monitor.MonitoredFederation._monitor_process",
    "repro.core.recovery._Recovery._chaos_driver",
    "repro.core.recovery._Recovery._detector_sweep",
    "repro.core.recovery._Recovery._watchdog",
    "repro.core.recovery._Recovery.supervise",
    "repro.core.sflow._SFlowNode.receive",
    "repro.routing.link_state._LinkStateNode.receive",
}

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


def _spawned_handlers():
    """Qualified names of the functions spawned in ``src/repro``: ``self.f``
    is the enclosing class's ``f``, a bare ``f`` the module's, and any other
    ``x.f`` the one method named ``f`` in the package."""
    root = Path(__file__).resolve().parents[2] / "src"
    methods, spawns = {}, []

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, f"{module}.{child.name}")
                continue
            if isinstance(child, ast.FunctionDef) and owner:
                methods.setdefault(child.name, []).append(owner)
            if (
                isinstance(child, ast.Call)
                and getattr(child.func, "attr", None) in ("process", "serve")
                and len(child.args) == 1
            ):
                target = child.args[0]
                target = target.func if isinstance(target, ast.Call) else target
                if isinstance(target, ast.Name):
                    spawns.append((module, target.id))
                else:
                    mine = getattr(target.value, "id", None) == "self"
                    spawns.append((owner if mine else None, target.attr))
            visit(child, module, owner)

    for path in sorted((root / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        visit(ast.parse(path.read_text()), module, None)
    found = set()
    for owner, name in spawns:
        if owner is None:
            (owner,) = methods[name]  # a spawn no method name resolves fails here
        found.add(f"{owner}.{name}")
    return found


def test_every_spawned_handler_is_in_the_dynamic_budget():
    assert _spawned_handlers() == HANDLERS


def test_no_spawned_handler_leaks_an_exception(monkeypatch):
    ran = set()
    for qualname in HANDLERS:
        module, owner, name = qualname.rsplit(".", 2)
        cls = getattr(importlib.import_module(module), owner)
        monkeypatch.setattr(cls, name, _recording(qualname, getattr(cls, name), ran))
    before = _COUNTER.total
    # The CI chaos-smoke campaign: its CLI fails on a leaked exception too.
    assert robustness.main(
        "--sizes 10 16 --intensities 0.0 0.4 0.8 --trials 3 --seed 0".split()
    ) == 0
    for _, cls, size, services, seed in SCENARIOS:
        scenario = _scenario(cls, size, services, seed)
        _federate(scenario, *_arm("link-state-crash", scenario))
    scenario = travel_agency_scenario()
    fed = MonitoredFederation(
        scenario.requirement, scenario.overlay, source_instance=scenario.source_instance
    )
    links = [(edge.src, edge.dst) for edge in fed.graph.edges()]
    fed.schedule_mutation(7.0, lambda o: degrade_links(o, links, bandwidth_factor=0.05))
    fed.schedule_mutation(12.0, lambda o: fail_instances(o, [fed.graph.instance_for("hotel")]))
    assert fed.run(until=40).repairs == 2  # the degrade's and the crash's
    assert _COUNTER.total == before
    assert ran == HANDLERS, HANDLERS - ran


def _recording(qualname, fn, ran):
    """``fn`` adding ``qualname`` to ``ran`` when it runs (a generator:
    when it starts)."""
    if inspect.isgeneratorfunction(fn):
        def wrapper(*args, **kwargs):
            ran.add(qualname)
            return (yield from fn(*args, **kwargs))
    else:
        def wrapper(*args, **kwargs):
            ran.add(qualname)
            return fn(*args, **kwargs)
    return functools.wraps(fn)(wrapper)


def _absorb(env, target):
    def _runner(env, target):
        try:
            yield target
        except Exception:
            pass  # sim-side absorber; the engine already counted it

    return _runner(env, target)
