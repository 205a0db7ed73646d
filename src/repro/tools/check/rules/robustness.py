"""Robustness rule: SFL006 (swallowed exceptions)."""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional, Set

from repro.tools.check.base import FileContext, Rule, Violation

BROAD_EXCEPTIONS: Set[str] = {"Exception", "BaseException"}
#: Handler calls that count as structured handling: metric increments,
#: histogram observations, trace events.
EMISSION_CALLS: Set[str] = {"inc", "observe", "event"}


class SwallowedException(Rule):
    """Broad ``except`` must re-raise or emit structured telemetry.

    ``except Exception`` that neither re-raises nor records anything
    turns every future bug into silence.  Acceptable handlers either
    ``raise`` (possibly a wrapped error), or emit a metric/trace event so
    the failure is visible in recordings and counters.
    """

    code = "SFL006"
    summary = "broad except without re-raise or structured emission"

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package("repro")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._handles_structurally(node):
                continue
            caught = "bare except" if node.type is None else (
                f"except {ast.unparse(node.type)}"
                if hasattr(ast, "unparse")
                else "broad except"
            )
            yield self.violation(
                ctx,
                node,
                f"{caught} neither re-raises nor emits a metric/trace "
                "event; narrow the exception type, re-raise, or record a "
                "structured *.inc()/.observe()/.event() before continuing",
            )

    @staticmethod
    def _is_broad(type_node: Optional[ast.expr]) -> bool:
        if type_node is None:
            return True
        candidates: Iterable[ast.expr]
        if isinstance(type_node, ast.Tuple):
            candidates = type_node.elts
        else:
            candidates = (type_node,)
        for candidate in candidates:
            if isinstance(candidate, ast.Name) and candidate.id in BROAD_EXCEPTIONS:
                return True
            if (
                isinstance(candidate, ast.Attribute)
                and candidate.attr in BROAD_EXCEPTIONS
            ):
                return True
        return False

    @staticmethod
    def _handles_structurally(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in EMISSION_CALLS
            ):
                return True
        return False

