"""Span tracing from outside the program: wrappers at each layer boundary.

The benchmark measures end-to-end numbers with nothing installed.  A
separate traced pass patches the public function at every layer boundary
(class and module attributes, inside this process only) with a wrapper
that records one span per call -- name, start, end, the span that caused
it (top of a span stack) and the op it belongs to -- into a list in
memory.  A layer's *self time* is its span's duration minus the part its
child spans cover, so the self times of all spans of an op sum to the
op's root span.

Counts are read at the same boundaries: the wrappers see return values
(``SFlowResult`` of a federation, ``RepairReport`` of a repair), a
counting shim on ``Environment.step`` counts DES events, and the
``RouteOracle`` counters are read as deltas that survive
``RouteOracle.reset_default()``.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: One span: ``[name, start, end, parent index or -1, op id]``.
Span = List[Any]

#: ``(span name, module, dotted attribute)`` for every layer boundary.
SPAN_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("network.underlay.generate", "repro.network.underlay", "Underlay.generate"),
    ("network.overlay.build", "repro.network.overlay", "OverlayGraph.build"),
    ("network.overlay.ego_view", "repro.network.overlay", "OverlayGraph.ego_view"),
    ("network.failures.mutate", "repro.network.failures", "fail_instances"),
    ("network.failures.mutate", "repro.network.failures", "degrade_links"),
    ("network.failures.mutate", "repro.network.failures", "revive_links"),
    ("routing.oracle.tree", "repro.routing.oracle", "RouteOracle.tree"),
    ("routing.oracle.warm", "repro.routing.oracle", "RouteOracle.warm"),
    ("routing.oracle.derive", "repro.routing.oracle", "RouteOracle.derive"),
    ("routing.kernel.snapshot", "repro.routing.kernel", "snapshot"),
    ("routing.kernel.batched_trees", "repro.routing.kernel", "batched_trees"),
    ("services.abstract_graph.build", "repro.services.abstract_graph", "AbstractGraph.build"),
    ("services.flowgraph.realize", "repro.services.flowgraph", "ServiceFlowGraph.realize"),
    ("core.sflow.federate", "repro.core.sflow", "SFlowAlgorithm.federate"),
    ("core.reductions.solve_assignment", "repro.core.reductions", "ReductionSolver.solve_assignment"),
    ("core.optimal.solve", "repro.core.optimal", "GlobalOptimalAlgorithm.solve"),
    ("core.alternatives.service_path", "repro.core.alternatives", "ServicePathAlgorithm.solve"),
    ("core.alternatives.fixed", "repro.core.alternatives", "FixedAlgorithm.solve"),
    ("core.alternatives.random", "repro.core.alternatives", "RandomAlgorithm.solve"),
    ("core.repair.repair_flow_graph", "repro.core.repair", "repair_flow_graph"),
    ("sim.engine.run", "repro.sim.engine", "Environment.run"),
    ("eval.run_trial", "repro.eval.experiments", "run_trial"),
    ("services.workloads.generate_scenario", "repro.services.workloads", "generate_scenario"),
)

SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in SPAN_POINTS))

#: The root span the harness opens around every op.
ROOT = "harness.op"

_ORACLE_FIELDS = (
    "hits", "misses", "carried", "dropped", "invalidated", "evictions",
    "warmed", "repaired",
)
_SFLOW_FIELDS = (
    "messages", "lost_messages", "node_activations", "retransmissions",
    "failovers", "refederations",
)


class Tracer:
    """Installs the wrappers, holds the spans and counters of one pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._op = -1
        self._undo: List[Tuple[Any, str, Any]] = []
        self._oracle_mark: Dict[str, int] = dict.fromkeys(_ORACLE_FIELDS, 0)

    # -- spans --------------------------------------------------------------

    def begin_op(self, op_id: int) -> int:
        """Open the root span of one op; returns its index for end_op."""
        self._op = op_id
        index = len(self.spans)
        self.spans.append([ROOT, perf_counter(), 0.0, -1, op_id])
        self._stack.append(index)
        return index

    def end_op(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()
        self._op = -1

    def _span_wrapper(
        self,
        name: str,
        fn: Callable[..., Any],
        on_return: Optional[Callable[[Any], None]],
    ) -> Callable[..., Any]:
        spans, stack, clock = self.spans, self._stack, perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self._op]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- counters read from return values -------------------------------------

    def _on_federate(self, result: Any) -> None:
        counts = self.counts
        counts["federations"] += 1
        for field in _SFLOW_FIELDS:
            counts[field] += getattr(result, field)
        if result.outcome.value == "degraded":
            counts["degraded"] += 1

    def _on_repair(self, report: Any) -> None:
        self.counts["repairs"] += 1
        self.counts["preserved_fraction_sum"] += report.preserved_fraction

    # -- oracle counters --------------------------------------------------------

    def _oracle_flush(self) -> None:
        """Add the oracle counters' growth since the last mark."""
        from repro.routing.oracle import RouteOracle

        stats = RouteOracle.default().stats()
        mark = self._oracle_mark
        for field in _ORACLE_FIELDS:
            now = getattr(stats, field)
            self.counts["oracle." + field] += now - mark[field]
            mark[field] = now

    def _wrap_reset_default(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        # reset_default() zeroes the registry counters the oracle reports,
        # so bank what accrued first and restart the mark from zero.
        def reset_default(cls: Any) -> Any:
            self._oracle_flush()
            oracle = fn(cls)
            self._oracle_mark = dict.fromkeys(_ORACLE_FIELDS, 0)
            return oracle

        return reset_default

    # -- install / remove ----------------------------------------------------------

    def install(self) -> None:
        """Patch every span point; :meth:`remove` restores the originals."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        from repro.routing.oracle import RouteOracle
        from repro.sim.engine import Environment

        returns = {
            "core.sflow.federate": self._on_federate,
            "core.repair.repair_flow_graph": self._on_repair,
        }
        for name, module_name, dotted in SPAN_POINTS:
            module = importlib.import_module(module_name)
            self._patch(
                module, dotted,
                lambda fn, name=name: self._span_wrapper(name, fn, returns.get(name)),
            )

        counts = self.counts

        def counting_step(fn: Callable[..., Any]) -> Callable[..., Any]:
            def step(env: Any) -> None:
                counts["events"] += 1
                fn(env)

            return step

        self._patch(sys.modules[Environment.__module__], "Environment.step", counting_step)
        self._patch(
            sys.modules[RouteOracle.__module__], "RouteOracle.reset_default",
            self._wrap_reset_default,
        )
        stats = RouteOracle.default().stats()
        self._oracle_mark = {f: getattr(stats, f) for f in _ORACLE_FIELDS}

    def remove(self) -> None:
        """Restore every patched attribute and bank the last oracle delta."""
        if not self._undo:
            return
        self._oracle_flush()
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(
        self,
        module: Any,
        dotted: str,
        make: Callable[[Callable[..., Any]], Callable[..., Any]],
    ) -> None:
        if "." in dotted:
            class_name, attr = dotted.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            if isinstance(original, (classmethod, staticmethod)):
                replacement: Any = type(original)(make(original.__func__))
            else:
                replacement = make(original)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, replacement)
            return
        # A module-level function: callers that did ``from m import f``
        # hold their own binding, so rebind every module that has it.
        original = getattr(module, dotted)
        replacement = make(original)
        for other in list(sys.modules.values()):
            if other is not None and getattr(other, "__dict__", {}).get(dotted) is original:
                self._undo.append((other, dotted, original))
                setattr(other, dotted, replacement)


def self_times(spans: List[Span]) -> Dict[str, Tuple[float, int]]:
    """``{span name: (total self seconds, calls)}`` over ``spans``.

    Self time = duration minus the durations of direct children; children
    nest strictly inside their parent (one thread, one stack), so the self
    times of a tree sum to its root's duration.
    """
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: Dict[str, Tuple[float, int]] = {}
    for index, (name, start, end, _parent, _op) in enumerate(spans):
        seconds, calls = totals.get(name, (0.0, 0))
        totals[name] = (seconds + (end - start) - child_time[index], calls + 1)
    return totals


def inclusive_time(spans: List[Span], name: str) -> float:
    """Total duration of the spans called ``name`` (which must not nest)."""
    return sum(end - start for n, start, end, _p, _op in spans if n == name)
