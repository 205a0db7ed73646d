"""Call graph over the project's module summaries.

:class:`ProjectIndex` stitches the per-module symbol tables
(:mod:`.symbols`) into one namespace: it resolves each
:class:`~repro.tools.check.symbols.CallSite` to the
:class:`~repro.tools.check.symbols.FunctionSummary` it targets (through
import aliases, ``from``-imports, module-local names and ``self.``
method calls).

Resolution is deliberately conservative and deterministic: a call that
cannot be pinned to exactly one plausible project function resolves to
``None`` and simply does not propagate a fact -- the whole-program rule
prefers false negatives over nondeterministic blame.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.tools.check.symbols import CallSite, FunctionSummary, ModuleSummary


class ProjectIndex:
    """Symbol table + call graph over every analysed module."""

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        #: module name -> summary (last write wins; module names are unique
        #: in a well-formed run)
        self.modules: Dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.modules[summary.module] = summary
        #: qname -> function summary, across all modules
        self.functions: Dict[str, FunctionSummary] = {}
        #: module -> terminal function name -> sorted qnames defined there
        self._by_name: Dict[str, Dict[str, List[str]]] = {}
        for summary in self.modules.values():
            per_name = self._by_name.setdefault(summary.module, {})
            for qname, fn in summary.functions.items():
                self.functions[qname] = fn
                per_name.setdefault(fn.name, []).append(qname)
        for per_name in self._by_name.values():
            for qnames in per_name.values():
                qnames.sort()

    # -- call resolution -----------------------------------------------------

    def _project_module(self, dotted: str) -> Optional[str]:
        """Map a dotted import to a project module (or its parent package)."""
        name = dotted
        while name:
            if name in self.modules:
                return name
            if "." not in name:
                return None
            name = name.rsplit(".", 1)[0]
        return None

    def resolve_call(
        self, caller: FunctionSummary, site: CallSite
    ) -> Optional[FunctionSummary]:
        return self.resolve_name(caller, site.resolved, site.terminal)

    def resolve_name(
        self,
        caller: FunctionSummary,
        resolved: Optional[str],
        terminal: Optional[str] = None,
    ) -> Optional[FunctionSummary]:
        """Pin a (possibly dotted) call target to one project function."""
        if resolved is None:
            return None
        if terminal is None:
            terminal = resolved.rsplit(".", 1)[-1]
        # self.method() / cls.method(): a method of the caller's module
        if resolved.startswith(("self.", "cls.")) and resolved.count(".") == 1:
            return self._resolve_in_module(caller.module, terminal, caller)
        if "." in resolved:
            prefix = resolved.rsplit(".", 1)[0]
            module = self._project_module(prefix)
            if module is None:
                return None
            # exact top-level definition first, then a unique nested one
            exact = self.functions.get(f"{module}.{terminal}")
            if exact is not None:
                return exact
            candidates = self._by_name.get(module, {}).get(terminal, [])
            if len(candidates) == 1:
                return self.functions[candidates[0]]
            return None
        # bare local name: the caller's own module namespace
        return self._resolve_in_module(caller.module, resolved, caller)

    def _resolve_in_module(
        self, module: str, name: str, caller: Optional[FunctionSummary] = None
    ) -> Optional[FunctionSummary]:
        exact = self.functions.get(f"{module}.{name}")
        if exact is not None:
            return exact
        candidates = self._by_name.get(module, {}).get(name, [])
        if caller is not None and len(candidates) > 1:
            # prefer a method in the caller's own class scope
            caller_scope = caller.qname.rsplit(".", 1)[0]
            scoped = [q for q in candidates if q.rsplit(".", 1)[0] == caller_scope]
            if len(scoped) == 1:
                return self.functions[scoped[0]]
        if len(candidates) == 1:
            return self.functions[candidates[0]]
        return None

    # -- convenience ---------------------------------------------------------

    def iter_functions(self) -> List[FunctionSummary]:
        """All functions in deterministic (qname) order."""
        return [self.functions[q] for q in sorted(self.functions)]
