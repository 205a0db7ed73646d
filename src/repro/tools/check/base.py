"""Shared framework for ``sflow-check``: findings, rules, file context.

Everything in here is stable API the rule modules build on: the
:class:`Violation` record, the :class:`Rule`/:class:`ProjectRule` base
classes, the :class:`FileContext` import-alias resolution, module-identity
mapping (``# sflow: module=...``) and per-line ``# sflow: noqa[CODE]``
suppression parsing.  The rule catalogue lives under
:mod:`repro.tools.check.rules`; orchestration in
:mod:`repro.tools.check.engine`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.tools.check.dataflow import ProjectAnalysis

#: Paths matching any of these globs are skipped unless explicitly listed
#: on the command line.  The seeded rule fixtures *demonstrate* violations
#: and must not fail the repo-wide gate.
DEFAULT_EXCLUDES: Tuple[str, ...] = ("*/fixtures/*", "*/.git/*", "*/__pycache__/*")

_NOQA_RE = re.compile(
    r"#\s*sflow:\s*noqa\[(?P<codes>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)\]"
    r"(?P<rest>[^#]*)"
)
_MODULE_RE = re.compile(r"#\s*sflow:\s*module=(?P<module>[A-Za-z_][\w.]*)")


@dataclass(frozen=True)
class Violation:
    """One finding: a rule firing at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col + 1,
            "code": self.code,
            "message": self.message,
        }


class FileContext:
    """Everything a rule needs about one parsed source file."""

    def __init__(self, path: str, module: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.module = module
        self.source = source
        self.tree = tree
        #: ``alias -> dotted module`` for ``import x [as y]``.
        self.module_aliases: Dict[str, str] = {}
        #: ``local name -> dotted origin`` for ``from m import n [as y]``.
        self.imported_names: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.imported_names[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def qualified_call_name(self, func: ast.expr) -> Optional[str]:
        """Resolve a call target to a dotted name through the import maps.

        ``time.perf_counter`` -> ``time.perf_counter`` (via ``import
        time``), ``pc`` -> ``time.perf_counter`` (via ``from time import
        perf_counter as pc``).  Returns ``None`` for calls on computed
        expressions -- rules fall back to terminal-name matching there.
        """
        parts: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            base = node.id
            if parts:
                root = self.module_aliases.get(base)
                if root is None:
                    root = self.imported_names.get(base, base)
                return ".".join([root] + list(reversed(parts)))
            return self.imported_names.get(base, base)
        return None

    def in_package(self, *prefixes: str) -> bool:
        return any(
            self.module == p or self.module.startswith(p + ".") for p in prefixes
        )


class Rule:
    """Base class: a stable code, a one-line summary, and a checker.

    Subclasses override :meth:`applies_to` (module scoping) and
    :meth:`check` (yield :class:`Violation`).  Register instances in
    :data:`repro.tools.check.rules.RULES`; ``docs/static_analysis.md``
    documents how to add one.
    """

    code: str = "SFL???"
    summary: str = ""

    def applies_to(self, ctx: FileContext) -> bool:  # pragma: no cover - default
        return True

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


class ProjectRule:
    """A whole-program rule: runs once over the cross-module analysis.

    Unlike :class:`Rule`, which sees one :class:`FileContext` at a time,
    a project rule receives the :class:`~repro.tools.check.dataflow.
    ProjectAnalysis` -- symbol table, call graph and may-raise facts over
    every file in the run -- and yields findings anchored in whichever
    file the hazard surfaces in.  Per-line ``noqa`` suppression still
    applies at the reported line.
    """

    code: str = "SFL???"
    summary: str = ""

    def check_project(self, analysis: "ProjectAnalysis") -> Iterator[Violation]:
        raise NotImplementedError


def module_for(path: Path, source: str) -> str:
    """Dotted module identity used for rule scoping.

    A ``# sflow: module=...`` directive in the first ten lines wins;
    otherwise the path is mapped (``src/repro/x/y.py`` -> ``repro.x.y``,
    ``tests/a/b.py`` -> ``tests.a.b``), falling back to the stem.
    """
    for line in source.splitlines()[:10]:
        match = _MODULE_RE.search(line)
        if match:
            return match.group("module")
    parts = list(path.parts)
    stem_parts: List[str] = []
    for anchor in ("repro", "tests", "benchmarks"):
        if anchor in parts:
            idx = len(parts) - 1 - parts[::-1].index(anchor)
            stem_parts = parts[idx:]
            break
    if not stem_parts:
        stem_parts = [path.name]
    stem_parts[-1] = Path(stem_parts[-1]).stem
    if stem_parts[-1] == "__init__":
        stem_parts.pop()
    return ".".join(stem_parts)


def parse_suppressions(
    path: str, source: str, known_codes: Set[str]
) -> Tuple[Dict[int, Set[str]], List[Violation]]:
    """Per-line suppressed codes plus SFL000 findings for bad suppressions."""
    suppressed: Dict[int, Set[str]] = {}
    findings: List[Violation] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        codes = {c.strip() for c in match.group("codes").split(",")}
        justification = match.group("rest").strip().lstrip("-—: ").strip()
        suppressed[lineno] = codes
        if not justification:
            findings.append(
                Violation(
                    path=path,
                    line=lineno,
                    col=match.start(),
                    code="SFL000",
                    message=(
                        "suppression without a justification; write "
                        "'# sflow: noqa[CODE] -- why this is safe'"
                    ),
                )
            )
        for code in codes - known_codes:
            findings.append(
                Violation(
                    path=path,
                    line=lineno,
                    col=match.start(),
                    code="SFL000",
                    message=f"suppression names unknown rule {code}",
                )
            )
    return suppressed, findings
