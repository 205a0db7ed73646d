"""Project-wide symbol table: per-module function summaries.

The whole-program pass never keeps ASTs around.  Each file is distilled
once into a :class:`ModuleSummary` -- functions, the calls they make
(resolved through the import maps), their taint-relevant facts (direct
wall-clock/RNG/tree calls, graph-parameter mutations, unprotected
raises, spawned DES handlers) -- and everything downstream
(:mod:`.callgraph`, :mod:`.dataflow`, the SFL013-SFL015 rules) works on
these summaries.

Scope discipline: a function's summary covers its *own* statements only
-- nested ``def``/``class`` bodies get their own summaries (qualified
``module.outer.inner``), mirroring how the per-file span/retry rules
scope.  Module-level statements are collected under the pseudo-function
``<module>``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.tools.check.base import FileContext
from repro.tools.check.vocab import (
    AMBIENT_RANDOM,
    FRESH_GRAPH_CALLS,
    GRAPH_MUTATORS,
    INVALIDATORS,
    TREE_FUNCTIONS,
    WALL_CLOCK_CALLS,
)

MODULE_BODY = "<module>"


@dataclass(frozen=True)
class CallSite:
    """One call made by a function, resolved as far as imports allow.

    ``resolved`` is the dotted name through the file's import maps
    (``repro.obs.clock.Stopwatch``), or the bare local name for
    module-local calls, or ``None`` for calls on computed expressions.
    ``receiver`` keeps the dotted receiver for method calls
    (``self.env`` for ``self.env.process(...)``).  ``arg_names`` records
    plain-name / dotted-attribute arguments positionally (``None`` for
    anything more complex) so argument-flow rules can match parameters.
    """

    resolved: Optional[str]
    terminal: str
    line: int
    col: int
    receiver: Optional[str]
    arg_names: Tuple[Optional[str], ...]
    in_try: bool


@dataclass(frozen=True)
class RaiseSite:
    """An explicit ``raise <Name>(...)`` and whether a ``try`` shields it."""

    exception: str
    line: int
    protected: bool


@dataclass
class FunctionSummary:
    """Taint-relevant distillation of one function body."""

    qname: str
    name: str
    module: str
    path: str
    line: int
    col: int
    params: List[str] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    wall_clock_calls: List[Tuple[str, int, int]] = field(default_factory=list)
    ambient_rng_calls: List[Tuple[str, int, int]] = field(default_factory=list)
    raw_tree_calls: List[Tuple[str, int, int]] = field(default_factory=list)
    raises: List[RaiseSite] = field(default_factory=list)
    #: parameter name -> mutator call sites (``p.add_link`` with ``p`` a param)
    mutated_params: Dict[str, List[Tuple[str, int, int]]] = field(
        default_factory=dict
    )
    #: locals assigned from fresh-graph constructors (SFL004's exemption)
    fresh_names: List[str] = field(default_factory=list)
    has_invalidator: bool = False
    is_generator: bool = False
    #: resolved targets of ``<env>.process(target(...))`` spawns and
    #: ``<mailbox>.serve(target)`` registrations
    spawned_handlers: List[Tuple[str, int, int]] = field(default_factory=list)


@dataclass
class ModuleSummary:
    """Everything the cross-module pass needs to know about one file."""

    module: str
    path: str
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    #: line -> suppressed codes (``# sflow: noqa[...]``), for project rules
    suppressions: Dict[int, List[str]] = field(default_factory=dict)

    def in_package(self, *prefixes: str) -> bool:
        return any(
            self.module == p or self.module.startswith(p + ".") for p in prefixes
        )


def _dotted_expr(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for plain name/attribute chains, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _FunctionCollector:
    """Walks one function's own scope, accumulating its summary facts."""

    def __init__(self, ctx: FileContext, summary: FunctionSummary) -> None:
        self.ctx = ctx
        self.summary = summary

    def collect(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self._visit(stmt, in_try=False)

    def _visit(self, node: ast.AST, in_try: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are summarised separately
        if isinstance(node, ast.Try):
            shields = bool(node.handlers)
            for child in node.body:
                self._visit(child, in_try or shields)
            # exceptions in handlers / orelse / finally escape this try
            for handler in node.handlers:
                for child in handler.body:
                    self._visit(child, in_try)
            for child in node.orelse + node.finalbody:
                self._visit(child, in_try)
            return
        if isinstance(node, ast.Raise):
            self._record_raise(node, in_try)
        elif isinstance(node, ast.Call):
            self._record_call(node, in_try)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            self._record_fresh(node)
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            self.summary.is_generator = True
        for child in ast.iter_child_nodes(node):
            self._visit(child, in_try)

    def _record_fresh(self, node: ast.Assign) -> None:
        callee = node.value.func  # type: ignore[union-attr]
        callee_name = (
            callee.id if isinstance(callee, ast.Name)
            else callee.attr if isinstance(callee, ast.Attribute)
            else None
        )
        if callee_name in FRESH_GRAPH_CALLS:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if target.id not in self.summary.fresh_names:
                        self.summary.fresh_names.append(target.id)

    def _record_raise(self, node: ast.Raise, in_try: bool) -> None:
        exc = node.exc
        if exc is None:
            return  # bare re-raise: the exception originated elsewhere
        if isinstance(exc, ast.Call):
            exc = exc.func
        name = _dotted_expr(exc)
        if name is None:
            return
        self.summary.raises.append(
            RaiseSite(
                exception=name.rsplit(".", 1)[-1],
                line=node.lineno,
                protected=in_try,
            )
        )

    def _record_call(self, node: ast.Call, in_try: bool) -> None:
        s = self.summary
        resolved = self.ctx.qualified_call_name(node.func)
        terminal = (
            node.func.attr if isinstance(node.func, ast.Attribute)
            else node.func.id if isinstance(node.func, ast.Name)
            else None
        )
        if terminal is None:
            return
        receiver = (
            _dotted_expr(node.func.value)
            if isinstance(node.func, ast.Attribute)
            else None
        )
        loc = (node.lineno, node.col_offset)
        # taint sources, mirroring the per-file rules' matching
        if resolved in WALL_CLOCK_CALLS:
            s.wall_clock_calls.append((resolved, *loc))
        if resolved in AMBIENT_RANDOM or resolved == "random.SystemRandom":
            s.ambient_rng_calls.append((resolved, *loc))
        elif resolved == "random.Random" and not node.args and not node.keywords:
            s.ambient_rng_calls.append((resolved, *loc))
        if terminal in TREE_FUNCTIONS:
            s.raw_tree_calls.append((terminal, *loc))
        # graph-epoch facts
        if terminal in INVALIDATORS:
            s.has_invalidator = True
        if (
            terminal in GRAPH_MUTATORS
            and receiver is not None
            and receiver in s.params
        ):
            s.mutated_params.setdefault(receiver, []).append((terminal, *loc))
        # DES handler spawns: <env>.process(target(...)), <expr>.serve(target)
        handler: Optional[ast.expr] = None
        if (
            terminal == "process"
            and receiver is not None
            and (receiver == "env" or receiver.endswith(".env") or receiver == "self")
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Call)
        ):
            handler = node.args[0].func
        elif (
            terminal == "serve"
            and isinstance(node.func, ast.Attribute)
            and len(node.args) == 1
            and isinstance(node.args[0], (ast.Name, ast.Attribute))
        ):
            handler = node.args[0]
        if handler is not None:
            target = self.ctx.qualified_call_name(handler)
            if target is None:
                target = _dotted_expr(handler)
            if target is not None:
                s.spawned_handlers.append((target, *loc))
        arg_names = tuple(_dotted_expr(a) for a in node.args)
        s.calls.append(
            CallSite(
                resolved=resolved,
                terminal=terminal,
                line=node.lineno,
                col=node.col_offset,
                receiver=receiver,
                arg_names=arg_names,
                in_try=in_try,
            )
        )


def summarize_module(
    ctx: FileContext, suppressions: Mapping[int, Set[str]]
) -> ModuleSummary:
    """Distil one parsed file into its :class:`ModuleSummary`."""
    summary = ModuleSummary(
        module=ctx.module,
        path=ctx.path,
        suppressions={
            line: sorted(codes) for line, codes in suppressions.items()
        },
    )

    def visit_scope(body: List[ast.stmt], scope: Tuple[str, ...]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = ".".join((ctx.module,) + scope + (stmt.name,))
                fn = FunctionSummary(
                    qname=qname,
                    name=stmt.name,
                    module=ctx.module,
                    path=ctx.path,
                    line=stmt.lineno,
                    col=stmt.col_offset,
                    params=[a.arg for a in (
                        stmt.args.posonlyargs + stmt.args.args
                    )],
                )
                _FunctionCollector(ctx, fn).collect(stmt.body)
                summary.functions[qname] = fn
                visit_scope(stmt.body, scope + (stmt.name,))
            elif isinstance(stmt, ast.ClassDef):
                visit_scope(stmt.body, scope + (stmt.name,))
            else:
                # module-level (or class-level) loose statements
                if not scope:
                    module_fn = summary.functions.setdefault(
                        f"{ctx.module}.{MODULE_BODY}",
                        FunctionSummary(
                            qname=f"{ctx.module}.{MODULE_BODY}",
                            name=MODULE_BODY,
                            module=ctx.module,
                            path=ctx.path,
                            line=1,
                            col=0,
                        ),
                    )
                    _FunctionCollector(ctx, module_fn).collect([stmt])

    visit_scope(ctx.tree.body, ())
    return summary
