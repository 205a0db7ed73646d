"""Source rules the repo keeps about itself, read with :mod:`ast`.

A metric name in ``repro`` is a string literal in a registered namespace;
a broad ``except`` in ``repro`` re-raises or records a metric or trace
event; a test compares no computed float with ``==``; and nothing above
``repro.obs`` emits ``tracer().event(...)``, an event with no trace and
no span that the causal profiler cannot join to a session.

Each scan names the ``(module, function)`` of every offending site.  A
deliberate site sits in its rule's allowlist with the reason, and an
entry that matches no site fails too.  ``docs/static_analysis.md`` is
the ledger of what each rule has caught.
"""

from __future__ import annotations

import ast
from decimal import Decimal, InvalidOperation
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

#: Registered metric namespaces; extend here and in docs/static_analysis.md.
METRIC_NAMESPACES = (
    "sflow.", "channel.", "monitor.", "dataflow.", "oracle.", "engine.",
    "detector.", "degrade.",
)

#: Broad handlers that neither re-raise nor record, each with its reason.
SILENT_EXCEPTS = {
    ("repro.sim.engine", "Process._step"): "handler_failed counts "
    "engine.handler_error and fails the process with the exception",
    ("repro.sim.channels", "Mailbox.serve.on_envelope"): "handler_failed "
    "counts engine.handler_error and the failed event raises it from "
    "Environment.step",
}

#: Span-less ``tracer().event(...)`` calls, each with its reason.
ORPHAN_EVENTS = {
    ("repro.sim.engine", "handler_failed"): "the DES kernel cannot know "
    "the protocol's span, and the diagnostic must fire with no session open",
    ("repro.services.execution", "simulate_stream"): "the stream sweep is "
    "analytic: no DES run and no session span exist",
}

_FACTORIES = {"counter", "gauge", "histogram"}
_BROAD = {"Exception", "BaseException"}
_RECORDS = {"inc", "observe", "event"}
_TRACER_ORIGINS = {"repro.obs.trace.tracer", "repro.obs.tracer"}


def _scoped(node, scope=()):
    """Every node under ``node`` with the dotted def/class chain around it."""
    for child in ast.iter_child_nodes(node):
        yield ".".join(scope) or "<module>", child
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        yield from _scoped(child, inner)


def _name(node):
    """The terminal name of a ``Name`` or an ``Attribute``, else None."""
    return getattr(node, "id", getattr(node, "attr", None))


def _method(call):
    """``m`` of a call ``x.m(...)``, else None."""
    return getattr(call.func, "attr", None)


def computed_metric_names(tree, source):
    for scope, node in _scoped(tree):
        if isinstance(node, ast.Call) and _method(node) in _FACTORIES and node.args:
            name = node.args[0]
            if not (
                isinstance(name, ast.Constant)
                and isinstance(name.value, str)
                and name.value.startswith(METRIC_NAMESPACES)
            ):
                yield scope, node


def silent_broad_excepts(tree, source):
    for scope, node in _scoped(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        kinds = getattr(node.type, "elts", [node.type])
        if node.type is None or any(_name(kind) in _BROAD for kind in kinds):
            if not any(
                isinstance(sub, ast.Raise)
                or (isinstance(sub, ast.Call) and _method(sub) in _RECORDS)
                for sub in ast.walk(node)
            ):
                yield scope, node


def _inexact_float(operand, source):
    """Float arithmetic, or a float literal binary cannot hold exactly."""
    if isinstance(operand, ast.BinOp):
        subs = list(ast.walk(operand))
        return any(isinstance(sub, ast.Div) for sub in subs) or any(
            isinstance(sub, ast.Constant) and isinstance(sub.value, float)
            for sub in subs
        )
    if isinstance(operand, ast.UnaryOp) and isinstance(operand.op, (ast.USub, ast.UAdd)):
        operand = operand.operand
    if not (isinstance(operand, ast.Constant) and isinstance(operand.value, float)):
        return False
    text = (ast.get_source_segment(source, operand) or "").lstrip("+- ")
    try:
        return Decimal(text) != Decimal(operand.value)
    except (InvalidOperation, ValueError):
        return False


def computed_float_equalities(tree, source):
    for scope, node in _scoped(tree):
        if (
            isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
            and any(
                _inexact_float(operand, source)
                for operand in [node.left] + node.comparators
            )
        ):
            yield scope, node


def orphan_events(tree, source):
    factories = {"tracer"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            factories.update(
                alias.asname or alias.name
                for alias in node.names
                if f"{node.module}.{alias.name}" in _TRACER_ORIGINS
            )

    def is_tracer_call(node):
        return isinstance(node, ast.Call) and _name(node.func) in factories

    bound = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and is_tracer_call(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    for scope, node in _scoped(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if node.func.attr == "event" and (
                is_tracer_call(receiver) or _name(receiver) in bound
            ):
                yield scope, node


def _modules(root, prefix):
    """Every module file under ``root`` as {dotted name: path}."""
    modules = {}
    for path in sorted(root.rglob("*.py")):
        parts = (prefix,) + path.relative_to(root).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return modules


SRC_MODULES = _modules(REPO / "src" / "repro", "repro")
TEST_MODULES = _modules(REPO / "tests", "tests")


def _sites(rule, modules):
    """``{(module, function): [line, ...]}`` of every site ``rule`` flags."""
    found = {}
    for module, path in modules.items():
        source = path.read_text()
        for scope, node in rule(ast.parse(source), source):
            found.setdefault((module, scope), []).append(node.lineno)
    return found


def _assert_only_allowed(found, allowed):
    unexpected = {site: lines for site, lines in found.items() if site not in allowed}
    assert not unexpected, f"offending sites (module, function): lines: {unexpected}"
    stale = sorted(set(allowed) - set(found))
    assert not stale, f"allowlist entries that match no site: {stale}"


def test_metric_names_are_literals_in_registered_namespaces():
    # The registry re-creates metrics from snapshot data: dynamic by design.
    modules = {m: p for m, p in SRC_MODULES.items() if m != "repro.obs.metrics"}
    _assert_only_allowed(_sites(computed_metric_names, modules), {})


def test_every_broad_except_reraises_or_records():
    _assert_only_allowed(_sites(silent_broad_excepts, SRC_MODULES), SILENT_EXCEPTS)


def test_tests_compare_no_computed_float_exactly():
    # Exact values a deterministic DES can hit (3.0, 0.5) stay legal;
    # compare anything computed with pytest.approx or math.isclose.
    _assert_only_allowed(_sites(computed_float_equalities, TEST_MODULES), {})


def test_no_span_less_event_above_the_obs_layer():
    # repro.obs owns the tracer and may emit span-less plumbing events.
    modules = {
        m: p for m, p in SRC_MODULES.items()
        if m != "repro.obs" and not m.startswith("repro.obs.")
    }
    _assert_only_allowed(_sites(orphan_events, modules), ORPHAN_EVENTS)


_TRY = "try:\n    f()\nexcept {}:\n    {}"
_TRACER = "from repro.obs.trace import tracer as t\n"


@pytest.mark.parametrize(
    "rule, flagged, clean",
    [
        (computed_metric_names, "r.counter(f'sflow.{k}')", "r.counter('sflow.ok')"),
        (computed_metric_names, "r.gauge('experiments.runs')", "r.gauge('engine.depth')"),
        (silent_broad_excepts, _TRY.format("(ValueError, Exception)", "pass"),
         _TRY.format("Exception as e", "M.inc(kind=str(e))")),
        (silent_broad_excepts, _TRY.format("", "g()"), _TRY.format("ValueError", "pass")),
        (computed_float_equalities, "assert x == 0.1 + 0.2", "assert x == approx(0.1 + 0.2)"),
        (computed_float_equalities, "assert sum(xs) / n != 2.0", "assert x == 3.0"),
        (computed_float_equalities, "assert x == -0.3", "assert x == 0.5"),
        (orphan_events, _TRACER + "t().event('x')",
         _TRACER + "with t().session('s') as sp:\n    sp.event('x')"),
        (orphan_events, "tr = tracer()\ntr.event('x')", "span.event('x')"),
    ],
    ids=["computed-name", "off-namespace", "broad-in-tuple", "bare-except",
         "float-sum", "division", "inexact-literal", "tracer-call", "tracer-local"],
)
def test_each_rule_flags_its_hazard_and_spares_the_alternative(rule, flagged, clean):
    assert [s for s, _ in rule(ast.parse(flagged), flagged)] == ["<module>"]
    assert list(rule(ast.parse(clean), clean)) == []
