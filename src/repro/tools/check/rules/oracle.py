"""Oracle-discipline rules: SFL003 (bypass) and SFL004 (epoch hygiene).

The vocabularies here (:data:`TREE_FUNCTIONS`, :data:`GRAPH_MUTATORS`,
:data:`INVALIDATORS`, :data:`FRESH_GRAPH_CALLS`, the graph-defining
module exemptions) are shared with the interprocedural pass: SFL014
follows graphs across call edges using the same definitions of
"mutation", "invalidation" and "fresh".
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.tools.check.base import FileContext, Rule, Violation

from repro.tools.check.vocab import (
    FRESH_GRAPH_CALLS,
    GRAPH_DEFINING_MODULES,
    GRAPH_MUTATORS,
    INVALIDATORS,
    TREE_FUNCTIONS,
)

__all__ = [
    "TREE_FUNCTIONS",
    "GRAPH_MUTATORS",
    "INVALIDATORS",
    "FRESH_GRAPH_CALLS",
    "GRAPH_DEFINING_MODULES",
    "OracleBypass",
    "EpochDiscipline",
]


class OracleBypass(Rule):
    """Routing trees outside ``repro.routing`` must come from RouteOracle.

    A direct tree computation skips the epoch-keyed cache -- it is both a
    perf regression (the O(N^4) recomputation PR 2 removed) and a
    correctness hazard: the caller sees a tree the invalidation protocol
    does not know about.  Tests are exempt (the oracle-equivalence
    property tests *must* call the raw functions).
    """

    code = "SFL003"
    summary = "direct routing-tree computation bypasses RouteOracle"

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package("repro") and not ctx.in_package("repro.routing")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.qualified_call_name(node.func)
            terminal = name.rsplit(".", 1)[-1] if name else None
            if terminal is None and isinstance(node.func, ast.Attribute):
                terminal = node.func.attr
            if terminal in TREE_FUNCTIONS:
                yield self.violation(
                    ctx,
                    node,
                    f"direct {terminal}() call outside repro.routing; go "
                    "through RouteOracle.default().tree(...) so the result "
                    "is cached and epoch-invalidated",
                )


class EpochDiscipline(Rule):
    """Overlay/underlay mutation needs a paired oracle invalidation.

    Mutating a graph that existed before the function ran changes a
    topology the :class:`RouteOracle` may hold cached trees for.  The
    same function must therefore tell the oracle (``derive`` or
    ``invalidate``).  Graphs *constructed* in the function (``result =
    OverlayGraph()``; ``sub = overlay.subgraph(...)``) are exempt while
    being filled in -- they have no cached epoch yet.
    """

    code = "SFL004"
    summary = "graph mutation without RouteOracle derive/invalidate"

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package("repro") and ctx.module not in GRAPH_DEFINING_MODULES

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node)

    def _check_function(
        self, ctx: FileContext, fn: ast.AST
    ) -> Iterator[Violation]:
        fresh: Set[str] = set()
        mutations: List[Tuple[ast.Call, str]] = []
        invalidated = False
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                callee = node.value.func
                callee_name = (
                    callee.id if isinstance(callee, ast.Name)
                    else callee.attr if isinstance(callee, ast.Attribute)
                    else None
                )
                if callee_name in FRESH_GRAPH_CALLS:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            fresh.add(target.id)
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in INVALIDATORS:
                invalidated = True
            if func.attr in GRAPH_MUTATORS and isinstance(func.value, ast.Name):
                mutations.append((node, func.value.id))
        if invalidated:
            return
        for call, target in mutations:
            if target in fresh:
                continue
            yield self.violation(
                ctx,
                call,
                f"{target}.{call.func.attr}(...) mutates a pre-existing "
                "graph without RouteOracle.derive/invalidate in the "
                "same function; cached trees would silently go stale",
            )
