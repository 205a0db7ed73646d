"""``sflow-check``: whole-program static analysis for the sFlow repo.

One serial pass per run: every file is parsed once, checked by the
per-file rules and distilled into a module summary (:mod:`.engine`,
:mod:`.symbols`); the summaries are stitched into a call graph
(:mod:`.callgraph`) and a taint lattice (:mod:`.dataflow`) for the
cross-module rules.  The rule catalogue lives in :mod:`.rules`.  The
console script and ``python -m repro.tools.check`` both run
:func:`main`.
"""

from __future__ import annotations

from repro.tools.check.base import (
    DEFAULT_EXCLUDES,
    FileContext,
    ProjectRule,
    Rule,
    Violation,
    module_for,
    parse_suppressions,
)
from repro.tools.check.engine import (
    CheckResult,
    check_file,
    check_paths,
    check_source,
    main,
    run_project,
)
from repro.tools.check.rules import (
    PROJECT_RULES,
    RULES,
    all_rule_codes,
    rule_codes,
)

__all__ = [
    "DEFAULT_EXCLUDES",
    "FileContext",
    "ProjectRule",
    "Rule",
    "Violation",
    "RULES",
    "PROJECT_RULES",
    "CheckResult",
    "all_rule_codes",
    "check_file",
    "check_paths",
    "check_source",
    "main",
    "module_for",
    "parse_suppressions",
    "rule_codes",
    "run_project",
]
