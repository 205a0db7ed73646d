"""Interprocedural taint dataflow over the project call graph.

Three fact families are propagated to a fixpoint along (reversed) call
edges, each seeded from the per-function facts the symbol pass recorded:

* **wall-clock taint** -- a function transitively performs a host-clock
  read (``time.time``/``perf_counter``/...).  Propagation stops at the
  ``repro.obs`` boundary: the injectable :class:`repro.obs.clock.
  Stopwatch` wrappers are the *sanctioned* place for host timing, so a
  call into ``repro.obs`` never carries taint out.  Feeds SFL013.
* **ambient-RNG taint** and **raw-tree taint** -- the analogous closures
  for unseeded randomness and direct ``*_tree`` routing computations
  (``repro.routing`` absorbs the latter: the oracle layer is the
  sanctioned owner of raw tree calls).  Exposed on the analysis object
  for rules and tooling.
* **may-raise** -- a function contains an explicit, ``try``-unshielded
  ``raise`` or (transitively, through unshielded call sites) reaches
  one.  Raises inside the DES kernel (``repro.sim.engine``) and the
  shared error hierarchy (``repro.errors``) are exempt: those are the
  engine's defensive programmer-error contract, converted into event
  failures by ``handler_failed``.  Feeds SFL015.

Every propagation is a breadth-first worklist over sorted seeds and
sorted caller lists, with first-assignment-wins witnesses, so the blame
chains -- and therefore the emitted findings -- are bit-identical run to
run regardless of dict order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.tools.check.callgraph import ProjectIndex
from repro.tools.check.symbols import CallSite, FunctionSummary, ModuleSummary

#: Modules whose functions never carry wall-clock taint outward: host
#: timing behind this boundary is injectable by design (PR 4's Stopwatch).
WALL_CLOCK_BOUNDARY: Tuple[str, ...] = ("repro.obs",)

#: Modules that legitimately own raw tree computations.
RAW_TREE_BOUNDARY: Tuple[str, ...] = ("repro.routing",)

#: Modules whose explicit raises are the sanctioned defensive contract of
#: the DES kernel (converted to event failures, counted by
#: ``engine.handler_error``) rather than protocol escape hazards.
RAISE_EXEMPT_MODULES: Tuple[str, ...] = ("repro.sim.engine", "repro.errors")


@dataclass(frozen=True)
class Witness:
    """Why a function carries a fact: the origin plus the call chain."""

    origin: str
    origin_module: str
    origin_path: str
    origin_line: int
    chain: Tuple[str, ...]

    def render_chain(self, limit: int = 5) -> str:
        chain = self.chain
        if len(chain) > limit:
            chain = chain[: limit - 1] + ("...",) + chain[-1:]
        return " -> ".join(chain)


def _in_packages(module: str, prefixes: Iterable[str]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


@dataclass
class ProjectAnalysis:
    """The whole-program view handed to :class:`~repro.tools.check.base.
    ProjectRule` instances."""

    index: ProjectIndex
    #: callee qname -> sorted list of (caller, call site) edges
    callers: Dict[str, List[Tuple[FunctionSummary, CallSite]]] = field(
        default_factory=dict
    )
    wall_clock: Dict[str, Witness] = field(default_factory=dict)
    ambient_rng: Dict[str, Witness] = field(default_factory=dict)
    raw_tree: Dict[str, Witness] = field(default_factory=dict)
    may_raise: Dict[str, Witness] = field(default_factory=dict)
    #: handler qname -> sorted spawn sites [(spawner qname, line, col)]
    handlers: Dict[str, List[Tuple[str, int, int]]] = field(default_factory=dict)

    def is_suppressed(self, path_module: str, line: int, code: str) -> bool:
        return code in self.index.suppressions_for(path_module).get(line, ())


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


def _propagate(
    index: ProjectIndex,
    callers: Dict[str, List[Tuple[FunctionSummary, CallSite]]],
    seeds: Dict[str, Witness],
    *,
    boundary: Tuple[str, ...] = (),
    shielded_calls_stop: bool = False,
) -> Dict[str, Witness]:
    """Breadth-first fixpoint from ``seeds`` along reversed call edges.

    ``boundary`` modules absorb the fact (they are never marked, so taint
    cannot flow through them).  With ``shielded_calls_stop`` a call site
    lexically inside a ``try`` with handlers does not propagate (used for
    may-raise: the caller catches).
    """
    facts: Dict[str, Witness] = {}
    queue: deque = deque()
    for qname in sorted(seeds):
        fn = index.functions[qname]
        if _in_packages(fn.module, boundary):
            continue
        facts[qname] = seeds[qname]
        queue.append(qname)
    while queue:
        callee = queue.popleft()
        witness = facts[callee]
        for caller, site in callers.get(callee, ()):
            if caller.qname in facts:
                continue
            if shielded_calls_stop and site.in_try:
                continue
            if _in_packages(caller.module, boundary):
                continue
            facts[caller.qname] = Witness(
                origin=witness.origin,
                origin_module=witness.origin_module,
                origin_path=witness.origin_path,
                origin_line=witness.origin_line,
                chain=(caller.qname,) + witness.chain,
            )
            queue.append(caller.qname)
    return facts


def _taint_seeds(
    index: ProjectIndex,
    extract: str,
    describe: str,
) -> Dict[str, Witness]:
    seeds: Dict[str, Witness] = {}
    for fn in index.iter_functions():
        sites = getattr(fn, extract)
        if not sites:
            continue
        name, line, _col = sorted(sites, key=lambda s: (s[1], s[2], s[0]))[0]
        seeds[fn.qname] = Witness(
            origin=f"{name}() {describe} {fn.path}:{line}",
            origin_module=fn.module,
            origin_path=fn.path,
            origin_line=line,
            chain=(fn.qname,),
        )
    return seeds


def _raise_seeds(index: ProjectIndex) -> Dict[str, Witness]:
    seeds: Dict[str, Witness] = {}
    for fn in index.iter_functions():
        if _in_packages(fn.module, RAISE_EXEMPT_MODULES):
            continue
        unprotected = [r for r in fn.raises if not r.protected]
        if not unprotected:
            continue
        first = sorted(unprotected, key=lambda r: (r.line, r.exception))[0]
        seeds[fn.qname] = Witness(
            origin=f"raise {first.exception} at {fn.path}:{first.line}",
            origin_module=fn.module,
            origin_path=fn.path,
            origin_line=first.line,
            chain=(fn.qname,),
        )
    return seeds


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
    """Build the symbol table, call graph and taint facts for one run."""
    index = ProjectIndex(summaries)
    callers = _build_reverse_edges(index)
    analysis = ProjectAnalysis(index=index, callers=callers)
    analysis.wall_clock = _propagate(
        index,
        callers,
        _taint_seeds(index, "wall_clock_calls", "wall-clock read at"),
        boundary=WALL_CLOCK_BOUNDARY,
    )
    analysis.ambient_rng = _propagate(
        index,
        callers,
        _taint_seeds(index, "ambient_rng_calls", "ambient-RNG draw at"),
    )
    analysis.raw_tree = _propagate(
        index,
        callers,
        _taint_seeds(index, "raw_tree_calls", "raw tree computation at"),
        boundary=RAW_TREE_BOUNDARY,
    )
    analysis.may_raise = _propagate(
        index,
        callers,
        _raise_seeds(index),
        shielded_calls_stop=True,
    )
    analysis.handlers = _collect_handlers(index)
    return analysis
