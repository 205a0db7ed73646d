"""Reduction heuristics for generic service requirements (paper Sec. 3.4).

The paper reduces complex requirements to primitives the baseline algorithm
can solve:

* **Path reduction** -- disjoint source->sink chains are split off and each
  solved optimally as a single service path (Fig. 8 a-c);
* **Split-and-merge reduction** -- a split...merge sub-topology is isolated,
  solved, and replaced by a single abstract edge between the splitting and
  the merging service (Fig. 8 b-d).

We implement both as one recursive *block decomposition* of the two-terminal
requirement DAG:

* a :class:`PathBlock` is a chain (solved by the baseline's layered DP);
* a :class:`SeriesBlock` concatenates blocks at *cut services* (services
  every source->sink stream passes through);
* a :class:`ParallelBlock` puts blocks side by side between the same two
  terminals -- exactly the paper's disjoint paths / split-and-merge shape;
* a :class:`GeneralBlock` is an irreducible residue, handled by bounded
  branch-and-bound (the paper concedes its reductions are best-effort
  heuristics; arbitrary DAGs cannot always be reduced).

The accompanying :class:`ReductionSolver` runs a dynamic program over the
block tree.  Per block and per pair of terminal instances it keeps either

* the single lexicographically-best quality (``pareto=False`` -- the
  paper's shortest-widest-everywhere heuristic), or
* the full **Pareto frontier** of ``(bandwidth, latency)`` values
  (``pareto=True``, default) -- necessary for exactness because the
  shortest-widest order does not compose: a narrower-but-faster sub-block
  may win once another block becomes the global bottleneck.

With Pareto frontiers the solver is *exact* for series-parallel
requirements (given the paper's edge-quality model where every abstract
edge is priced by its own shortest-widest overlay path); this is verified
against brute force in ``tests/core/test_reductions.py``.

One :meth:`ReductionSolver.solve_assignment` call is one *planning step*:
it asks the view for one priced row per requirement edge and source
instance (:meth:`AbstractView.price_row`, gathered in :class:`_PricedEdges`)
and the block solvers then read only that table -- the view is never
called per candidate assignment.  From the view to the answer the step is
plain floats: a row is a list of :data:`Hop` pairs, an entry is a
``(bandwidth, latency, trail)`` triple compared by ``(bandwidth,
-latency)``, a general block is searched once per ``u`` instance for all
of its ``v`` instances, and the one :class:`PathQuality` of a step is the
one ``solve_assignment`` returns.  No candidate carries an assignment of
its own: a path block extends its survivors by a path step and a
combination joins two trails, and only the winner's trail is spelled out
into an assignment, once.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Protocol, Sequence, Tuple, Union

from repro.core.types import pinned_pool
from repro.errors import FederationError, RequirementError
from repro.network.metrics import PathQuality
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.services.abstract_graph import AbstractGraph, Hop
from repro.services.flowgraph import ServiceFlowGraph
from repro.services.requirement import ServiceRequirement, Sid

#: Virtual service used to make multi-sink requirements two-terminal.
VIRTUAL_SINK = "__virtual_sink__"


class AbstractView(Protocol):
    """The minimal abstract-graph interface the solver consumes."""

    def instances_of(self, sid: Sid) -> Tuple[ServiceInstance, ...]:
        ...  # pragma: no cover - protocol

    def price_row(
        self, src: ServiceInstance, dsts: Sequence[ServiceInstance]
    ) -> List[Hop]:
        """The :data:`Hop` from ``src`` to each of ``dsts`` (the pool of
        one service), in order."""
        ...  # pragma: no cover - protocol


# ---------------------------------------------------------------------------
# Block decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """A two-terminal fragment of the requirement: terminals ``u`` -> ``v``."""

    u: Sid
    v: Sid

    def services(self) -> Tuple[Sid, ...]:
        raise NotImplementedError

    def describe(self, indent: int = 0) -> str:
        """Human-readable decomposition tree (used in docs and tests)."""
        raise NotImplementedError


@dataclass(frozen=True)
class PathBlock(Block):
    """A chain ``u -> ... -> v`` -- the baseline algorithm's home turf."""

    chain: Tuple[Sid, ...]

    def services(self) -> Tuple[Sid, ...]:
        return self.chain

    def describe(self, indent: int = 0) -> str:
        return " " * indent + "Path(" + " -> ".join(self.chain) + ")"


@dataclass(frozen=True)
class SeriesBlock(Block):
    """Blocks concatenated at cut services: ``children[i].v == children[i+1].u``."""

    children: Tuple[Block, ...]

    def services(self) -> Tuple[Sid, ...]:
        seen: List[Sid] = []
        for child in self.children:
            for sid in child.services():
                if sid not in seen:
                    seen.append(sid)
        return tuple(seen)

    def describe(self, indent: int = 0) -> str:
        lines = [" " * indent + f"Series({self.u} -> {self.v})"]
        lines += [child.describe(indent + 2) for child in self.children]
        return "\n".join(lines)


@dataclass(frozen=True)
class ParallelBlock(Block):
    """Blocks side by side between the same terminals (split-and-merge)."""

    children: Tuple[Block, ...]

    def services(self) -> Tuple[Sid, ...]:
        seen: List[Sid] = []
        for child in self.children:
            for sid in child.services():
                if sid not in seen:
                    seen.append(sid)
        return tuple(seen)

    def describe(self, indent: int = 0) -> str:
        lines = [" " * indent + f"Parallel({self.u} || {self.v})"]
        lines += [child.describe(indent + 2) for child in self.children]
        return "\n".join(lines)


@dataclass(frozen=True)
class GeneralBlock(Block):
    """An irreducible two-terminal DAG fragment."""

    requirement: ServiceRequirement

    def services(self) -> Tuple[Sid, ...]:
        return self.requirement.services()

    def describe(self, indent: int = 0) -> str:
        return (
            " " * indent
            + f"General({self.u} => {self.v}, services={list(self.services())})"
        )


def decompose(requirement: ServiceRequirement) -> Block:
    """Decompose a two-terminal requirement into a block tree.

    The requirement must have a single sink (augment multi-sink requirements
    first; :class:`ReductionSolver` does this automatically).
    """
    return _decompose(requirement, requirement.source, requirement.sink)


def _decompose(req: ServiceRequirement, u: Sid, v: Sid) -> Block:
    if req.is_path():
        return PathBlock(u, v, req.topological_order())

    cuts = _cut_services(req, u, v)
    if cuts:
        terminals = [u, *cuts, v]
        try:
            children: List[Block] = []
            for a, b in zip(terminals, terminals[1:]):
                segment = _segment(req, a, b)
                children.append(_decompose(segment, a, b))
            return SeriesBlock(u, v, tuple(children))
        except RequirementError:
            # Defensive: a malformed segment means the cut structure was not
            # cleanly separable; fall back to exhaustive handling.
            return GeneralBlock(u, v, req)

    branches = _parallel_branches(req, u, v)
    if len(branches) > 1:
        children = [
            _decompose(branch, u, v) for branch in branches
        ]
        return ParallelBlock(u, v, tuple(children))

    return GeneralBlock(u, v, req)


def _cut_services(req: ServiceRequirement, u: Sid, v: Sid) -> List[Sid]:
    """Services (other than the terminals) on *every* ``u -> v`` stream,
    in topological order.

    ``u`` is the block's source, so these are exactly ``v``'s strict
    dominators below ``u``: the chain walked up from ``v``, reversed.
    """
    idom = req.immediate_dominators()
    cuts = []
    w = idom[v]
    while w != u:
        cuts.append(w)
        w = idom[w]
    return cuts[::-1]


def _segment(req: ServiceRequirement, a: Sid, b: Sid) -> ServiceRequirement:
    """The sub-requirement strictly between two consecutive cuts."""
    keep = (req.descendants(a) & (req.ancestors(b) | {b})) | {a, b}
    # Drop the direct a -> b skip edges? No: they belong to this segment.
    edges = [(x, y) for x, y in req.edges() if x in keep and y in keep]
    return ServiceRequirement(edges=edges, nodes=keep)


def _parallel_branches(
    req: ServiceRequirement, u: Sid, v: Sid
) -> List[ServiceRequirement]:
    """Split into branches sharing only the terminals, if possible.

    Branches are the undirected connected components of the requirement with
    the terminals removed; a direct ``u -> v`` edge forms its own branch.
    """
    interior = [s for s in req.services() if s not in (u, v)]
    neighbor: Dict[Sid, List[Sid]] = {s: [] for s in interior}
    for a, b in req.edges():
        if a in neighbor and b in neighbor:
            neighbor[a].append(b)
            neighbor[b].append(a)
    components: List[List[Sid]] = []
    unvisited = set(interior)
    while unvisited:
        start = min(unvisited)
        comp = [start]
        unvisited.discard(start)
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in neighbor[node]:
                if nxt in unvisited:
                    unvisited.discard(nxt)
                    comp.append(nxt)
                    stack.append(nxt)
        components.append(sorted(comp))

    branches: List[ServiceRequirement] = []
    for comp in components:
        keep = set(comp) | {u, v}
        edges = [
            (a, b)
            for a, b in req.edges()
            if a in keep and b in keep and (a, b) != (u, v)
        ]
        try:
            branches.append(ServiceRequirement(edges=edges, nodes=keep))
        except RequirementError:
            return [req]  # not separable after all; treat as one block
    if req.has_edge(u, v):
        branches.append(ServiceRequirement(edges=[(u, v)]))
    return branches if len(branches) > 1 else [req]


# ---------------------------------------------------------------------------
# Pareto machinery
# ---------------------------------------------------------------------------

#: How an entry records its assignment until a step has a winner: a path
#: step ``(parent, sid, inst)`` (``parent`` is ``None`` at a chain's start),
#: a join ``(left, right)`` of two trails, or a dict leaf, which is never
#: mutated once in an entry.  :func:`spell` turns a trail into its dict.
Trail = Union[Dict[Sid, ServiceInstance], Tuple[Any, ...]]

#: One DP entry: the achievable bottleneck bandwidth and critical-path
#: latency, then the trail of the assignment realising them.  Entries are
#: compared by ``(bandwidth, -latency)``, :class:`PathQuality`'s order.
Entry = Tuple[float, float, Trail]


def spell(
    trail: Trail, into: Optional[Dict[Sid, ServiceInstance]] = None
) -> Dict[Sid, ServiceInstance]:
    """The assignment ``trail`` stands for, written into ``into``: left
    before right, a later write updating an earlier key in place -- the
    keys, order and values of the eager ``{**left, **right}`` and
    ``{**parent, sid: inst}`` copies."""
    into = {} if into is None else into
    if isinstance(trail, dict):
        into.update(trail)
    elif len(trail) == 2:
        spell(trail[1], spell(trail[0], into))
    else:
        steps = []
        while trail is not None:
            trail, sid, inst = trail
            steps.append((sid, inst))
        into.update(reversed(steps))
    return into


def pareto_prune(entries: Iterable[Entry], *, keep_all: bool) -> List[Entry]:
    """Remove dominated and unreachable entries.

    ``keep_all=True`` keeps the whole ``(bandwidth, latency)`` Pareto
    frontier; ``keep_all=False`` keeps only the lexicographically best entry
    (the paper's pure shortest-widest heuristic).  An entry is reachable
    when its bandwidth is positive and its latency finite.
    """
    candidates = [e for e in entries if e[0] > 0 and e[1] < math.inf]
    if len(candidates) < 2:
        return candidates
    # Sort best-first (stable, also under ``reverse``): bandwidth desc,
    # then latency asc.
    candidates.sort(key=itemgetter(1))
    candidates.sort(key=itemgetter(0), reverse=True)
    if not keep_all:
        return [candidates[0]]
    frontier: List[Entry] = []
    best_latency = math.inf
    for entry in candidates:
        if entry[1] < best_latency:
            frontier.append(entry)
            best_latency = entry[1]
    return frontier


def _combine_series(a: Entry, b: Entry) -> Entry:
    return (min(a[0], b[0]), a[1] + b[1], (a[2], b[2]))


def _combine_parallel(a: Entry, b: Entry) -> Entry:
    return (min(a[0], b[0]), max(a[1], b[1]), (a[2], b[2]))


# ---------------------------------------------------------------------------
# The solver
# ---------------------------------------------------------------------------

#: DP table: (u_instance, v_instance) -> Pareto list of entries.
BlockTable = Dict[Tuple[ServiceInstance, ServiceInstance], List[Entry]]

#: A terminal pair's frontier while its general block is searched, widest
#: first: ``(bandwidth, latency, pool index per interior service)``.
_Frontier = List[Tuple[float, float, Tuple[int, ...]]]

#: A ``v`` instance still alive on a branch of a general-block search:
#: ``(v pool index, bottleneck, latency bound, that pair's frontier)``.
_Alive = Tuple[int, float, float, _Frontier]


class _AugmentedView:
    """An :class:`AbstractView` with a virtual sink gluing multi-sink
    requirements into two-terminal form (ideal zero-cost edges)."""

    def __init__(self, base: AbstractView, real_sinks: Sequence[Sid]) -> None:
        self._base = base
        self._real_sinks = set(real_sinks)
        self._virtual = ServiceInstance(VIRTUAL_SINK, -1)

    @property
    def virtual_instance(self) -> ServiceInstance:
        return self._virtual

    def instances_of(self, sid: Sid) -> Tuple[ServiceInstance, ...]:
        if sid == VIRTUAL_SINK:
            return (self._virtual,)
        return self._base.instances_of(sid)

    def price_row(
        self, src: ServiceInstance, dsts: Sequence[ServiceInstance]
    ) -> List[Hop]:
        # Only a sink of the real requirement feeds the virtual sink, and
        # it does so ideally; the virtual sink is never a row's source.
        if dsts and dsts[0].sid == VIRTUAL_SINK:
            return [(math.inf, 0.0) if src.sid in self._real_sinks else None] * len(dsts)
        return self._base.price_row(src, dsts)


class _PricedEdges:
    """Everything one planning step asks of its view, asked once.

    ``pools[sid]`` is the candidate pool of a service and ``hops[(a, b)]``
    the dense price table of a requirement edge: ``hops[(a, b)][i][j]`` is
    the :data:`Hop` from ``pools[a][i]`` to ``pools[b][j]``, and row ``i``
    is the one :meth:`AbstractView.price_row` answer for ``pools[a][i]``.
    Every requirement edge lies in exactly one leaf block, so the block
    solvers address instances by pool index and read plain floats.
    """

    def __init__(self, requirement: ServiceRequirement, view: AbstractView) -> None:
        self.pools: Dict[Sid, Tuple[ServiceInstance, ...]] = {
            sid: view.instances_of(sid) for sid in requirement.services()
        }
        self.hops: Dict[Tuple[Sid, Sid], List[List[Hop]]] = {
            (a, b): [view.price_row(src, self.pools[b]) for src in self.pools[a]]
            for a, b in requirement.edges()
        }


class ReductionSolver:
    """Requirement-reduction federation (the centralised sFlow core).

    Args:
        pareto: keep full Pareto frontiers in the block DP (exact for
            series-parallel requirements) instead of single
            shortest-widest-best entries (the paper's heuristic).
        enumeration_limit: the largest interior of a :class:`GeneralBlock`
            that is searched exactly -- the product of the pool sizes of
            the block's services *other than its two terminals* (terminal
            pairs are the keys of the block's table, searched one by one,
            and are not counted).  A block above the limit falls back to
            the greedy widest-first completion.  Every caller, local sFlow
            planning included, uses this default.
    """

    name = "reduction"

    def __init__(self, *, pareto: bool = True, enumeration_limit: int = 200_000):
        self.pareto = pareto
        self.enumeration_limit = enumeration_limit

    # -- public API -----------------------------------------------------------

    def solve(
        self,
        requirement: ServiceRequirement,
        overlay: OverlayGraph,
        *,
        source_instance: Optional[ServiceInstance] = None,
        rng: Optional[random.Random] = None,
        abstract: Optional[AbstractGraph] = None,
        latency_bound: Optional[float] = None,
    ) -> ServiceFlowGraph:
        """Federate ``requirement`` over ``overlay``; returns the flow graph.

        ``latency_bound`` turns the problem into its QoS-constrained
        variant: maximise bottleneck bandwidth *subject to* a critical-path
        latency of at most the bound.  With Pareto frontiers this costs
        nothing extra -- the bound simply filters the frontier at the top
        (requires ``pareto=True``; the single-best heuristic discards the
        slower-but-wider entries a bound might need).
        """
        if abstract is None:
            abstract = AbstractGraph.build(requirement, overlay)
        assignment, _quality = self.solve_assignment(
            requirement,
            abstract,
            source_instance=source_instance,
            latency_bound=latency_bound,
        )
        return ServiceFlowGraph.realize(abstract, assignment)

    def solve_assignment(
        self,
        requirement: ServiceRequirement,
        view: AbstractView,
        *,
        source_instance: Optional[ServiceInstance] = None,
        latency_bound: Optional[float] = None,
    ) -> Tuple[Dict[Sid, ServiceInstance], PathQuality]:
        """Pick one instance per service; returns ``(assignment, quality)``.

        ``quality`` is the block-DP value of the chosen solution: bottleneck
        bandwidth and critical-path latency under the series/parallel
        composition rules.  See :meth:`solve` for ``latency_bound``.
        """
        if latency_bound is not None:
            if latency_bound < 0:
                raise ValueError(f"latency_bound must be >= 0, got {latency_bound}")
            if not self.pareto:
                raise FederationError(
                    "latency-bounded federation needs pareto=True: the "
                    "single-best heuristic drops the slower-but-wider "
                    "frontier entries a bound may require"
                )
        work_req, work_view = self._two_terminal(requirement, view)
        priced = _PricedEdges(work_req, work_view)
        table = self._solve_block(decompose(work_req), priced)
        source = work_req.source
        if not priced.pools[source]:
            raise FederationError(f"service {source!r} has no instances")
        sources = pinned_pool(priced.pools[source], source, source_instance)
        best: Optional[Entry] = None
        for src in sources:
            for dst in priced.pools[work_req.sink]:
                for entry in table.get((src, dst), ()):
                    if latency_bound is not None and entry[1] > latency_bound:
                        continue
                    if best is None or (entry[0], -entry[1]) > (best[0], -best[1]):
                        best = entry
        if best is None:
            constraint = (
                f" within latency bound {latency_bound}"
                if latency_bound is not None
                else ""
            )
            raise FederationError(
                f"no feasible federation of {requirement!r}{constraint} "
                f"(source candidates: {list(sources)})"
            )
        bandwidth, latency, trail = best
        assignment = spell(trail)
        assignment.pop(VIRTUAL_SINK, None)
        return assignment, PathQuality(bandwidth, latency)

    # -- setup -----------------------------------------------------------------

    def _two_terminal(
        self, requirement: ServiceRequirement, view: AbstractView
    ) -> Tuple[ServiceRequirement, AbstractView]:
        if len(requirement.sinks) == 1:
            return requirement, view
        edges = list(requirement.edges())
        edges.extend((sink, VIRTUAL_SINK) for sink in requirement.sinks)
        augmented = ServiceRequirement(edges=edges)
        return augmented, _AugmentedView(view, requirement.sinks)

    # -- block dynamic program ----------------------------------------------------

    def _solve_block(self, block: Block, priced: _PricedEdges) -> BlockTable:
        if isinstance(block, PathBlock):
            return self._solve_path(block, priced)
        if isinstance(block, SeriesBlock):
            return self._solve_series(block, priced)
        if isinstance(block, ParallelBlock):
            return self._solve_parallel(block, priced)
        if isinstance(block, GeneralBlock):
            return self._solve_general(block, priced)
        raise AssertionError(f"unknown block type {type(block).__name__}")

    def _solve_path(self, block: PathBlock, priced: _PricedEdges) -> BlockTable:
        """Layered DP along a chain -- the baseline algorithm, Pareto-ised.

        Every candidate into one instance extends by that same instance, so
        a candidate carries its parent's trail and only the survivors of
        :func:`pareto_prune` get a path step naming the instance.
        """
        table: BlockTable = {}
        chain = block.chain
        pools = [priced.pools[sid] for sid in chain]
        for start, src in enumerate(pools[0]):
            # Pool index of the layer's instance -> its frontier.
            layer: Dict[int, List[Entry]] = {start: [(math.inf, 0.0, (None, chain[0], src))]}
            for prev_sid, sid, pool in zip(chain, chain[1:], pools[1:]):
                hops = priced.hops[(prev_sid, sid)]
                nxt: Dict[int, List[Entry]] = {}
                for j, inst in enumerate(pool):
                    candidates: List[Entry] = []
                    for i, entries in layer.items():
                        hop = hops[i][j]
                        if hop is None:
                            continue
                        width, delay = hop
                        for bandwidth, latency, trail in entries:
                            candidates.append(
                                (
                                    width if width < bandwidth else bandwidth,
                                    delay + latency,
                                    trail,
                                )
                            )
                    pruned = pareto_prune(candidates, keep_all=self.pareto)
                    if pruned:
                        nxt[j] = [
                            (bandwidth, latency, (trail, sid, inst))
                            for bandwidth, latency, trail in pruned
                        ]
                layer = nxt
                if not layer:
                    break
            for j, entries in layer.items():
                table[(src, pools[-1][j])] = entries
        return table

    def _solve_series(self, block: SeriesBlock, priced: _PricedEdges) -> BlockTable:
        tables = [self._solve_block(child, priced) for child in block.children]
        result = tables[0]
        for nxt in tables[1:]:
            combined: BlockTable = {}
            # Join on the shared cut instance (result's dst == nxt's src).
            by_src: Dict[ServiceInstance, List[Tuple[ServiceInstance, List[Entry]]]] = {}
            for (cut, dst), entries in nxt.items():
                by_src.setdefault(cut, []).append((dst, entries))
            accum: Dict[Tuple[ServiceInstance, ServiceInstance], List[Entry]] = {}
            for (src, cut), left_entries in result.items():
                for dst, right_entries in by_src.get(cut, ()):
                    bucket = accum.setdefault((src, dst), [])
                    for left in left_entries:
                        for right in right_entries:
                            bucket.append(_combine_series(left, right))
            for key, entries in accum.items():
                pruned = pareto_prune(entries, keep_all=self.pareto)
                if pruned:
                    combined[key] = pruned
            result = combined
        return result

    def _solve_parallel(
        self, block: ParallelBlock, priced: _PricedEdges
    ) -> BlockTable:
        tables = [self._solve_block(child, priced) for child in block.children]
        result = tables[0]
        for nxt in tables[1:]:
            combined: BlockTable = {}
            for key, left_entries in result.items():
                right_entries = nxt.get(key)
                if not right_entries:
                    continue  # this (u_inst, v_inst) pair can't serve all branches
                merged = [
                    _combine_parallel(left, right)
                    for left in left_entries
                    for right in right_entries
                ]
                pruned = pareto_prune(merged, keep_all=self.pareto)
                if pruned:
                    combined[key] = pruned
            result = combined
        return result

    def _solve_general(self, block: GeneralBlock, priced: _PricedEdges) -> BlockTable:
        """Exact table of an irreducible block by branch-and-bound.

        Per ``u`` instance the interior services are assigned depth-first
        in topological order, each pool in order, once for every ``v``
        instance.  A branch carries the ``v`` instances still alive on it,
        each with the pair's bottleneck bandwidth so far and a lower bound
        on its critical-path latency (the latest finish time seen, the
        sink's included: hop latencies are non-negative, so no completion
        finishes earlier).  A node reads its interior hop rows once; per
        alive ``v`` it prices the hop into ``v``, and that ``v`` leaves the
        subtree at an unreachable hop or once an entry already on the
        pair's frontier is at least as wide as the bottleneck and at most
        as slow as the bound: that entry dominates-or-equals every
        completion of the branch.  The branch dies with its last ``v``.

        The result is the one :func:`pareto_prune` (a stable sort) gives on
        the full ``interior x u x v`` product walked interior-major -- same
        floats, same winner on ties, same key order: ``min`` and ``max`` do
        not depend on the order they see hops in; each pair meets its
        leaves in product order and only an *earlier* entry ever prunes,
        so the first assignment reaching a frontier point keeps it; pairs
        are returned in the order of their first feasible assignment in
        that product, which is what :meth:`_solve_series` buckets by.
        """
        req = block.requirement
        interior = [s for s in req.topological_order() if s not in (block.u, block.v)]
        pools = [priced.pools[s] for s in interior]
        combos = 1
        for pool in pools:
            if not pool:
                return {}
            combos *= len(pool)
        if combos > self.enumeration_limit:
            return self._solve_general_greedy(block, priced)

        # Slot 0 is ``u``, slot k + 1 the k-th interior service.  A hop
        # into ``v`` is priced with its tail, per alive ``v`` instance.
        slot = {sid: k for k, sid in enumerate([block.u, *interior])}
        incoming = [
            [(slot[pred], priced.hops[(pred, sid)]) for pred in req.predecessors(sid)]
            for sid in interior
        ]
        into_sink = [
            priced.hops[(sid, block.v)] if req.has_edge(sid, block.v) else None
            for sid in interior
        ]
        direct = (
            priced.hops[(block.u, block.v)] if req.has_edge(block.u, block.v) else None
        )
        u_pool, v_pool = priced.pools[block.u], priced.pools[block.v]
        chosen = [0] * (len(interior) + 1)  # pool index per slot
        finish = [0.0] * (len(interior) + 1)  # finish time per slot
        #: Per pair that has a feasible assignment: the interior choice of
        #: its first one, its ``u`` and ``v`` pool indices, its frontier.
        feasible: List[Tuple[Tuple[int, ...], int, int, _Frontier]] = []

        def descend(depth: int, alive: List[_Alive]) -> None:
            if depth == len(interior):
                # A full assignment nothing found earlier dominates-or-equals.
                choice = tuple(chosen[1:])
                for sink, bottleneck, bound, frontier in alive:
                    if not frontier:
                        feasible.append((choice, chosen[0], sink, frontier))
                    frontier[:] = (
                        [e for e in frontier if e[0] > bottleneck]
                        + [(bottleneck, bound, choice)]
                        + [e for e in frontier if e[0] < bottleneck and e[1] < bound]
                    )
                return
            rows = [(finish[pred], hops[chosen[pred]]) for pred, hops in incoming[depth]]
            last = into_sink[depth]
            for i in range(len(pools[depth])):
                narrowest, done = math.inf, 0.0
                for ready, row in rows:
                    hop = row[i]
                    if hop is None:
                        break
                    bandwidth, latency = hop
                    if bandwidth < narrowest:
                        narrowest = bandwidth
                    if ready + latency > done:
                        done = ready + latency
                else:
                    survivors: List[_Alive] = []
                    for sink, bottleneck, bound, frontier in alive:
                        width = narrowest if narrowest < bottleneck else bottleneck
                        latest = done if done > bound else bound
                        if last is not None:
                            hop = last[i][sink]
                            if hop is None:
                                continue
                            bandwidth, latency = hop
                            if bandwidth < width:
                                width = bandwidth
                            if done + latency > latest:
                                latest = done + latency
                        for found_width, found_latency, _ in frontier:
                            if found_width >= width and found_latency <= latest:
                                break
                        else:
                            survivors.append((sink, width, latest, frontier))
                    if survivors:
                        chosen[depth + 1] = i
                        finish[depth + 1] = done
                        descend(depth + 1, survivors)

        for start in range(len(u_pool)):
            chosen[0] = start
            alive: List[_Alive] = []
            for sink in range(len(v_pool)):
                hop = (math.inf, 0.0) if direct is None else direct[start][sink]
                if hop is not None:
                    alive.append((sink, hop[0], finish[0] + hop[1], []))
            if alive:
                descend(0, alive)

        table: BlockTable = {}
        for _first, start, sink, frontier in sorted(feasible, key=lambda f: f[:3]):
            entries: List[Entry] = []
            for width, latency, choice in frontier if self.pareto else frontier[:1]:
                assignment = {
                    sid: pool[i] for sid, pool, i in zip(interior, pools, choice)
                }
                assignment[block.u] = u_pool[start]
                assignment[block.v] = v_pool[sink]
                entries.append((width, latency, assignment))
            table[(u_pool[start], v_pool[sink])] = entries
        return table

    def _solve_general_greedy(
        self, block: GeneralBlock, priced: _PricedEdges
    ) -> BlockTable:
        """Fallback for oversized general blocks: widest-first per service.

        Walks the block in topological order and, for each service, picks
        the instance maximising the worst incoming quality from the already
        assigned predecessors -- the same policy as the fixed control
        algorithm, applied block-locally.  Qualities are compared as
        ``(bandwidth, -latency)`` keys, an unreachable hop as ``(0, -inf)``.
        """
        req = block.requirement
        table: BlockTable = {}
        for start, src in enumerate(priced.pools[block.u]):
            choice: Dict[Sid, int] = {block.u: start}
            for sid in req.topological_order():
                if sid == block.u:
                    continue
                best: Optional[int] = None
                best_key = (0.0, -math.inf)
                for i in range(len(priced.pools[sid])):
                    worst = (math.inf, -0.0)
                    for pred in req.predecessors(sid):
                        if pred not in choice:
                            continue
                        price = priced.hops[(pred, sid)][choice[pred]][i]
                        hop = (0.0, -math.inf) if price is None else (price[0], -price[1])
                        if hop < worst:
                            worst = hop
                    if best is None or worst > best_key:
                        best = i
                        best_key = worst
                if best is None:
                    break
                choice[sid] = best
            else:
                quality = _evaluate_assignment(req, choice, priced)
                if quality is None:
                    continue
                assignment = {sid: priced.pools[sid][i] for sid, i in choice.items()}
                table.setdefault((src, assignment[block.v]), []).append(
                    (*quality, assignment)
                )
        return {
            key: pareto_prune(entries, keep_all=self.pareto)
            for key, entries in table.items()
        }


def _evaluate_assignment(
    req: ServiceRequirement, choice: Dict[Sid, int], priced: _PricedEdges
) -> Optional[Tuple[float, float]]:
    """Bottleneck bandwidth + critical-path latency of a full block
    assignment (a pool index per service); ``None`` when any edge is
    unreachable."""
    bandwidth = math.inf
    finish: Dict[Sid, float] = {req.source: 0.0}
    for sid in req.topological_order()[1:]:
        worst_finish = 0.0
        for pred in req.predecessors(sid):
            hop = priced.hops[(pred, sid)][choice[pred]][choice[sid]]
            if hop is None:
                return None
            bandwidth = min(bandwidth, hop[0])
            worst_finish = max(worst_finish, finish[pred] + hop[1])
        finish[sid] = worst_finish
    return bandwidth, max(finish[s] for s in req.sinks)
