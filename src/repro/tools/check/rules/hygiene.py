"""General-hygiene rule: SFL007 (computed-float equality in tests)."""

from __future__ import annotations

import ast
from decimal import Decimal, InvalidOperation
from typing import Iterator, Optional

from repro.tools.check.base import FileContext, Rule, Violation


class FloatEquality(Rule):
    """No ``==``/``!=`` on *computed* floats in tests.

    Exact equality against a stored value is fine in a deterministic DES
    (and the suite leans on it); equality against an arithmetic
    expression (``x == 0.1 + 0.2``) or a decimal literal the binary
    format cannot represent exactly (``x == 0.3``) is a rounding-error
    time bomb.  Use ``pytest.approx`` or ``math.isclose``.
    """

    code = "SFL007"
    summary = "computed-float equality in a test; use pytest.approx"

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package("tests")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            for operand in [node.left] + node.comparators:
                problem = self._float_hazard(ctx, operand)
                if problem:
                    yield self.violation(
                        ctx,
                        node,
                        f"{problem}; compare with pytest.approx(...) or "
                        "math.isclose(...) instead of ==",
                    )
                    break

    def _float_hazard(self, ctx: FileContext, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.BinOp) and self._contains_float_arith(node):
            return "float arithmetic inside an equality comparison"
        literal = self._float_literal(node)
        if literal is not None and not self._exactly_representable(ctx, node, literal):
            return (
                f"float literal {literal!r} has no exact binary "
                "representation, so computed values will miss it"
            )
        return None

    @staticmethod
    def _float_literal(node: ast.expr) -> Optional[float]:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return node.value
        return None

    @classmethod
    def _contains_float_arith(cls, node: ast.BinOp) -> bool:
        has_float = False
        for sub in ast.walk(node):
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
                return True
            if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
                has_float = True
        return has_float

    def _exactly_representable(
        self, ctx: FileContext, node: ast.expr, value: float
    ) -> bool:
        segment = ast.get_source_segment(ctx.source, node)
        if segment is None:
            return True  # cannot see the literal text; give the benefit
        text = segment.lstrip("+- \t")
        try:
            return Decimal(text) == Decimal(value)
        except (InvalidOperation, ValueError):
            return True

