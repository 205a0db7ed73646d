"""Interprocedural may-raise dataflow over the project call graph.

A function *may raise* when it contains an explicit, ``try``-unshielded
``raise`` or (transitively, through unshielded call sites) reaches one.
Raises inside the DES kernel (``repro.sim.engine``) and the shared error
hierarchy (``repro.errors``) are exempt: those are the engine's
defensive programmer-error contract, converted into event failures by
``handler_failed``.  The fact feeds SFL015, together with the map of DES
handlers and the sites that spawn them.

The propagation is a breadth-first worklist over sorted seeds and sorted
caller lists, with first-assignment-wins witnesses, so the blame chains
-- and therefore the emitted findings -- are bit-identical run to run
regardless of dict order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.tools.check.callgraph import ProjectIndex
from repro.tools.check.symbols import CallSite, FunctionSummary, ModuleSummary

#: Modules whose explicit raises are the sanctioned defensive contract of
#: the DES kernel (converted to event failures, counted by
#: ``engine.handler_error``) rather than protocol escape hazards.
RAISE_EXEMPT_MODULES: Tuple[str, ...] = ("repro.sim.engine", "repro.errors")


@dataclass(frozen=True)
class Witness:
    """Why a function may raise: the origin plus the call chain."""

    origin: str
    chain: Tuple[str, ...]

    def render_chain(self, limit: int = 5) -> str:
        chain = self.chain
        if len(chain) > limit:
            chain = chain[: limit - 1] + ("...",) + chain[-1:]
        return " -> ".join(chain)


@dataclass
class ProjectAnalysis:
    """The whole-program view handed to :class:`~repro.tools.check.base.
    ProjectRule` instances."""

    index: ProjectIndex
    may_raise: Dict[str, Witness] = field(default_factory=dict)
    #: handler qname -> sorted spawn sites [(spawner qname, line, col)]
    handlers: Dict[str, List[Tuple[str, int, int]]] = field(default_factory=dict)


def _build_reverse_edges(
    index: ProjectIndex,
) -> Dict[str, List[Tuple[FunctionSummary, CallSite]]]:
    callers: Dict[str, List[Tuple[FunctionSummary, CallSite]]] = {}
    for fn in index.iter_functions():
        for site in fn.calls:
            target = index.resolve_call(fn, site)
            if target is None or target.qname == fn.qname:
                continue
            callers.setdefault(target.qname, []).append((fn, site))
    return callers


def _raise_seeds(index: ProjectIndex) -> Dict[str, Witness]:
    seeds: Dict[str, Witness] = {}
    for fn in index.iter_functions():
        if any(
            fn.module == m or fn.module.startswith(m + ".")
            for m in RAISE_EXEMPT_MODULES
        ):
            continue
        unprotected = [r for r in fn.raises if not r.protected]
        if not unprotected:
            continue
        first = sorted(unprotected, key=lambda r: (r.line, r.exception))[0]
        seeds[fn.qname] = Witness(
            origin=f"raise {first.exception} at {fn.path}:{first.line}",
            chain=(fn.qname,),
        )
    return seeds


def _propagate(
    callers: Dict[str, List[Tuple[FunctionSummary, CallSite]]],
    seeds: Dict[str, Witness],
) -> Dict[str, Witness]:
    """Breadth-first fixpoint from ``seeds`` along reversed call edges.

    A call site lexically inside a ``try`` with handlers does not
    propagate: the caller catches.
    """
    facts: Dict[str, Witness] = {}
    queue: deque = deque()
    for qname in sorted(seeds):
        facts[qname] = seeds[qname]
        queue.append(qname)
    while queue:
        callee = queue.popleft()
        witness = facts[callee]
        for caller, site in callers.get(callee, ()):
            if caller.qname in facts or site.in_try:
                continue
            facts[caller.qname] = Witness(
                origin=witness.origin,
                chain=(caller.qname,) + witness.chain,
            )
            queue.append(caller.qname)
    return facts


def _collect_handlers(
    index: ProjectIndex,
) -> Dict[str, List[Tuple[str, int, int]]]:
    handlers: Dict[str, List[Tuple[str, int, int]]] = {}
    for fn in index.iter_functions():
        for target, line, col in fn.spawned_handlers:
            resolved = index.resolve_name(fn, target)
            if resolved is None:
                continue
            handlers.setdefault(resolved.qname, []).append((fn.qname, line, col))
    for sites in handlers.values():
        sites.sort()
    return handlers


def analyze_project(summaries: Iterable[ModuleSummary]) -> ProjectAnalysis:
    """Build the symbol table, call graph and may-raise facts for one run."""
    index = ProjectIndex(summaries)
    return ProjectAnalysis(
        index=index,
        may_raise=_propagate(_build_reverse_edges(index), _raise_seeds(index)),
        handlers=_collect_handlers(index),
    )
