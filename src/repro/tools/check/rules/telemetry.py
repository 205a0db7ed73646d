"""Telemetry-hygiene rules: SFL005 (metric names), SFL012 (orphan
events)."""

from __future__ import annotations

import ast
from typing import Iterator, Set, Tuple

from repro.tools.check.base import FileContext, Rule, Violation

METRIC_FACTORIES: Set[str] = {"counter", "gauge", "histogram"}
#: Registered metric namespaces; ``docs/static_analysis.md`` is the
#: authority for extending this list.
METRIC_NAMESPACES: Tuple[str, ...] = (
    "sflow.", "channel.", "monitor.", "dataflow.", "oracle.", "engine.",
    "detector.", "degrade.", "slo.",
)

#: Dotted resolutions of the process-tracer factory.
TRACER_FACTORIES: Set[str] = {
    "repro.obs.trace.tracer",
    "repro.obs.tracer",
    "tracer",
}


class MetricsHygiene(Rule):
    """Metric names must be string literals in a registered namespace.

    The snapshot/merge algebra treats names as opaque stable keys; a
    computed name defeats grep-ability and review, and an off-namespace
    name escapes the dashboards and the trace CLI's summary tables.
    """

    code = "SFL005"
    summary = "metric name not a literal in a registered namespace"

    def applies_to(self, ctx: FileContext) -> bool:
        # The registry implementation itself re-creates metrics from
        # snapshot data (dynamic by design).
        return ctx.in_package("repro") and ctx.module != "repro.obs.metrics"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr not in METRIC_FACTORIES:
                continue
            if not node.args:
                continue
            name_arg = node.args[0]
            if not (
                isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)
            ):
                yield self.violation(
                    ctx,
                    name_arg,
                    f".{func.attr}(...) metric name must be a string literal "
                    "(computed names break grep-ability and the snapshot "
                    "algebra's stable keys)",
                )
                continue
            if not name_arg.value.startswith(METRIC_NAMESPACES):
                namespaces = "|".join(ns.rstrip(".") for ns in METRIC_NAMESPACES)
                yield self.violation(
                    ctx,
                    name_arg,
                    f"metric name {name_arg.value!r} is outside the "
                    f"registered namespaces ({namespaces}); register the "
                    "namespace in docs/static_analysis.md or rename",
                )


class OrphanEvent(Rule):
    """Point events must be emitted inside an active span.

    ``tracer().event(...)`` writes an event with ``trace=None`` and
    ``span=None`` -- invisible to per-session timelines and, worse, to the
    causal profiler (:mod:`repro.obs.causal`), which joins events to
    sessions by trace id.  Protocol and service code should emit through
    the enclosing span (``span.event(...)``); genuinely span-less
    diagnostics (the DES kernel's handler-error event, the analytic
    stream sweep) carry a justified suppression instead.
    """

    code = "SFL012"
    summary = "free-standing tracer().event(); orphan events break causal joins"

    def applies_to(self, ctx: FileContext) -> bool:
        # The obs layer itself legitimately emits span-less plumbing
        # events (SLO alert edges, replay); everything above it must not.
        return ctx.in_package("repro") and not ctx.in_package("repro.obs")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        tracer_locals = self._tracer_locals(ctx)
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "event"
            ):
                continue
            receiver = node.func.value
            if isinstance(receiver, ast.Call):
                if self._is_tracer_factory(ctx, receiver):
                    yield self.violation(
                        ctx,
                        node,
                        "tracer().event(...) emits an orphan event (trace=None, "
                        "span=None) that the causal profiler cannot join to any "
                        "session; emit through the active span "
                        "(span.event(...)) or justify with a noqa",
                    )
            elif (
                isinstance(receiver, ast.Name)
                and receiver.id in tracer_locals
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"{receiver.id}.event(...) on a bare tracer emits an orphan "
                    "event (trace=None, span=None) invisible to causal "
                    "reconstruction; emit through the active span or justify "
                    "with a noqa",
                )

    def _is_tracer_factory(self, ctx: FileContext, call: ast.Call) -> bool:
        name = ctx.qualified_call_name(call.func)
        return name in TRACER_FACTORIES

    def _tracer_locals(self, ctx: FileContext) -> Set[str]:
        """Names bound directly to ``tracer()`` anywhere in the file."""
        names: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and self._is_tracer_factory(ctx, node.value)
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names
