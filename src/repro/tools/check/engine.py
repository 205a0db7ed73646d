"""Orchestration for ``sflow-check``: one serial whole-program pass, CLI.

The pipeline for a project run (:func:`run_project`):

1. enumerate ``*.py`` files (directory walks honour the exclude globs;
   explicitly named files always lint);
2. read each file and hand it to :func:`_analyze`, which parses it, runs
   the per-file rules under its ``noqa`` suppressions and distils its
   :mod:`.symbols` summary;
3. the whole-program pass stitches every module summary into the call
   graph + may-raise facts of :mod:`.dataflow` and runs the project
   rule (SFL015), honouring per-line ``noqa`` suppressions in whichever
   file a finding lands;
4. findings are filtered (``--select``/``--ignore``), sorted and
   rendered -- human lines or ``--json``.

:func:`check_source` / :func:`check_file` run step 2 alone (no project
context), which is also what makes the SFL015 fixture pairs
demonstrable: the per-file API provably returns clean on files whose
combination the project run flags.

Exit codes: 0 clean, 1 violations found, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.tools.check.base import (
    DEFAULT_EXCLUDES,
    FileContext,
    Violation,
    module_for,
    parse_suppressions,
)
from repro.tools.check.dataflow import ProjectAnalysis, analyze_project
from repro.tools.check.rules import (
    PROJECT_RULES,
    RULES,
    all_rule_codes,
    rule_codes,
)
from repro.tools.check.symbols import ModuleSummary, summarize_module

_SORT_KEY = lambda v: (v.path, v.line, v.col, v.code)  # noqa: E731


# ---------------------------------------------------------------------------
# per-file analysis
# ---------------------------------------------------------------------------


def _analyze(
    path: str, source: str, module: str
) -> Tuple[List[Violation], ModuleSummary]:
    """Parse one file, run :data:`RULES` under its ``noqa`` suppressions
    and summarise the module.

    Findings are unfiltered: post-``noqa``, pre-``select``/``ignore``.
    """
    tree = ast.parse(source, filename=path)
    ctx = FileContext(path, module, source, tree)
    suppressed, findings = parse_suppressions(path, source, set(all_rule_codes()))
    for rule in RULES:
        if not rule.applies_to(ctx):
            continue
        for violation in rule.check(ctx):
            if violation.code not in suppressed.get(violation.line, ()):
                findings.append(violation)
    return findings, summarize_module(ctx, suppressed)


def check_source(
    source: str,
    *,
    module: str,
    path: str = "<string>",
    select: Optional[Set[str]] = None,
    ignore: Optional[Set[str]] = None,
) -> List[Violation]:
    """Run every applicable per-file rule over one source text."""
    findings, _ = _analyze(path, source, module)
    return _filter(findings, select, ignore)


def check_file(
    path: Path,
    *,
    select: Optional[Set[str]] = None,
    ignore: Optional[Set[str]] = None,
) -> List[Violation]:
    source = path.read_text(encoding="utf-8")
    module = module_for(path, source)
    return check_source(
        source, module=module, path=str(path), select=select, ignore=ignore
    )


def _filter(
    findings: List[Violation],
    select: Optional[Set[str]],
    ignore: Optional[Set[str]],
) -> List[Violation]:
    if select is not None:
        findings = [f for f in findings if f.code in select or f.code == "SFL000"]
    if ignore is not None:
        findings = [f for f in findings if f.code not in ignore]
    return sorted(findings, key=_SORT_KEY)


# ---------------------------------------------------------------------------
# project runs
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    """Everything a project run produced."""

    violations: List[Violation] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    analysis: Optional[ProjectAnalysis] = None


def _iter_python_files(
    paths: Sequence[Path], excludes: Sequence[str]
) -> Iterator[Path]:
    def excluded(p: Path) -> bool:
        posix = p.as_posix()
        return any(fnmatch(posix, pattern) for pattern in excludes)

    for path in paths:
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not excluded(sub):
                    yield sub
        elif path.suffix == ".py":
            # Explicitly named files are checked even inside excluded dirs.
            yield path


def run_project(
    paths: Sequence[Path],
    *,
    select: Optional[Set[str]] = None,
    ignore: Optional[Set[str]] = None,
    excludes: Sequence[str] = DEFAULT_EXCLUDES,
) -> CheckResult:
    """Analyse every ``*.py`` under ``paths`` as one program."""
    result = CheckResult()
    violations: List[Violation] = []
    summaries: List[ModuleSummary] = []
    seen: Set[str] = set()
    for path in _iter_python_files(paths, excludes):
        name = str(path)
        if name in seen:
            continue
        seen.add(name)
        try:
            data = path.read_bytes()
        except OSError as exc:
            result.errors.append(f"{name}:0: read error: {exc}")
            continue
        try:
            source = data.decode("utf-8")
            findings, summary = _analyze(name, source, module_for(path, source))
        except SyntaxError as exc:
            result.errors.append(f"{name}:{exc.lineno or 0}: syntax error: {exc.msg}")
            continue
        except UnicodeDecodeError as exc:
            result.errors.append(f"{name}:0: decode error: {exc}")
            continue
        violations.extend(findings)
        summaries.append(summary)

    analysis = analyze_project(summaries)
    result.analysis = analysis
    suppressions = {s.path: s.suppressions for s in summaries}
    for rule in PROJECT_RULES:
        for violation in rule.check_project(analysis):
            per_line = suppressions.get(violation.path, {})
            if violation.code not in per_line.get(violation.line, ()):
                violations.append(violation)
    result.violations = _filter(violations, select, ignore)
    return result


def check_paths(
    paths: Sequence[Path],
    *,
    select: Optional[Set[str]] = None,
    ignore: Optional[Set[str]] = None,
    excludes: Sequence[str] = DEFAULT_EXCLUDES,
) -> Tuple[List[Violation], List[str]]:
    """Check every ``*.py`` under ``paths`` (whole-program rules included).

    Returns ``(violations, parse_errors)``; parse errors are fatal for
    the CLI (exit 2) because an unparseable file is unlintable.
    """
    result = run_project(
        paths, select=select, ignore=ignore, excludes=excludes
    )
    return result.violations, result.errors


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _parse_codes(text: Optional[str]) -> Optional[Set[str]]:
    if not text:
        return None
    codes = {c.strip().upper() for c in text.split(",") if c.strip()}
    known = set(all_rule_codes())
    unknown = codes - known
    if unknown:
        raise SystemExit(
            f"sflow-check: unknown rule code(s): {', '.join(sorted(unknown))}"
        )
    return codes


def _rule_summaries() -> Dict[str, str]:
    index = {"SFL000": "suppression hygiene: noqa needs a justification"}
    for rule in RULES:
        index[rule.code] = rule.summary
    for rule in PROJECT_RULES:
        index[rule.code] = rule.summary
    return index


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sflow-check",
        description=(
            "Repo-specific static analysis for the sFlow reproduction: "
            "metrics and event hygiene, swallowed exceptions, float "
            "equality in tests and uncaught DES-handler escapes."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", type=Path, help="files or directories to check"
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    parser.add_argument(
        "--select", metavar="CODES", help="comma-separated codes to run exclusively"
    )
    parser.add_argument(
        "--ignore", metavar="CODES", help="comma-separated codes to skip"
    )
    parser.add_argument(
        "--exclude",
        action="append",
        default=None,
        metavar="GLOB",
        help=(
            "glob of paths to skip (repeatable); defaults to "
            + ", ".join(DEFAULT_EXCLUDES)
        ),
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, summary in sorted(_rule_summaries().items()):
            print(f"{code} {summary}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("sflow-check: no paths given", file=sys.stderr)
        return 2

    missing = [p for p in args.paths if not p.exists()]
    if missing:
        for p in missing:
            print(f"sflow-check: no such path: {p}", file=sys.stderr)
        return 2

    try:
        select = _parse_codes(args.select)
        ignore = _parse_codes(args.ignore)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2

    excludes = tuple(args.exclude) if args.exclude else DEFAULT_EXCLUDES
    violations, errors = check_paths(
        args.paths, select=select, ignore=ignore, excludes=excludes
    )

    if args.json:
        payload = {
            "violations": [v.as_dict() for v in violations],
            "errors": errors,
        }
        print(json.dumps(payload, indent=2))
    else:
        for violation in violations:
            print(violation.render())
        for error in errors:
            print(error, file=sys.stderr)
        if violations:
            counts: Dict[str, int] = {}
            for violation in violations:
                counts[violation.code] = counts.get(violation.code, 0) + 1
            summary = ", ".join(f"{c} x{n}" for c, n in sorted(counts.items()))
            print(f"found {len(violations)} violation(s): {summary}")

    if errors:
        return 2
    return 1 if violations else 0


__all__ = [
    "CheckResult",
    "check_file",
    "check_paths",
    "check_source",
    "main",
    "run_project",
    "rule_codes",
]
