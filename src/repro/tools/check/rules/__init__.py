"""The ``sflow-check`` rule catalogue.

Per-file rules (:data:`RULES`) see one
:class:`~repro.tools.check.base.FileContext` at a time; project rules
(:data:`PROJECT_RULES`) run once over the whole-program
:class:`~repro.tools.check.dataflow.ProjectAnalysis`.  Codes are never
renumbered, so the catalogue has gaps where rules were retired
(``docs/static_analysis.md`` says where each property lives now).  Keep
both tuples sorted by code -- ``test_rule_codes_are_unique_and_stable``
pins the catalogue.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.tools.check.base import ProjectRule, Rule
from repro.tools.check.rules.hygiene import FloatEquality
from repro.tools.check.rules.interprocedural import HandlerEscape
from repro.tools.check.rules.robustness import SwallowedException
from repro.tools.check.rules.telemetry import MetricsHygiene, OrphanEvent

__all__ = [
    "RULES",
    "PROJECT_RULES",
    "rule_codes",
    "all_rule_codes",
]

RULES: Tuple[Rule, ...] = (
    MetricsHygiene(),
    SwallowedException(),
    FloatEquality(),
    OrphanEvent(),
)

PROJECT_RULES: Tuple[ProjectRule, ...] = (HandlerEscape(),)


def rule_codes() -> List[str]:
    """Every registered rule code, per-file and project, in order."""
    return [rule.code for rule in RULES] + [rule.code for rule in PROJECT_RULES]


def all_rule_codes() -> List[str]:
    """Rule codes plus the SFL000 suppression-hygiene meta code."""
    return ["SFL000"] + rule_codes()
