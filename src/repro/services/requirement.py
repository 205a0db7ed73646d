"""Service requirements: what the consumer asks to have federated.

A service requirement is a DAG ``R(V_R, E_R)`` over service identifiers with
exactly one **source** service, at least one **sink** service, and edges that
fix the order in which service streams flow (Sec. 2.2).  The paper's
examples span a hierarchy of shapes which :meth:`ServiceRequirement.classify`
recognises:

* ``SINGLE``          -- a lone service (degenerate),
* ``PATH``            -- a chain, Fig. 1 (solved optimally by the baseline),
* ``TREE``            -- a service multicast tree (Jin & Nahrstedt),
* ``DISJOINT_PATHS``  -- parallel chains sharing only source & sink, Fig. 3,
* ``SPLIT_MERGE``     -- two-terminal series-parallel with real splits and
  merges, Fig. 5 (solved by the reduction heuristics),
* ``GENERAL``         -- any other DAG (solved heuristically / optimally by
  exhaustive search).

The class is immutable after construction; all mutating-looking operations
(:meth:`downstream_closure`, :meth:`subrequirement`) return new objects, so
requirements can safely be shared between simulated nodes.
"""

from __future__ import annotations

import enum
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import RequirementError

Sid = str
Edge = Tuple[Sid, Sid]


class RequirementClass(enum.Enum):
    """Topology classes of service requirements, from simplest to generic."""

    SINGLE = "single"
    PATH = "path"
    TREE = "tree"
    DISJOINT_PATHS = "disjoint_paths"
    SPLIT_MERGE = "split_merge"
    GENERAL = "general"


class ServiceRequirement:
    """An immutable service requirement DAG.

    Args:
        edges: directed edges between service identifiers.
        nodes: extra nodes (only needed for the degenerate single-service
            requirement, which has no edges).

    Raises:
        RequirementError: if the graph has a cycle, more than one source,
            no sink, or services not connected to the source/sink structure.
    """

    def __init__(self, edges: Iterable[Edge] = (), nodes: Iterable[Sid] = ()) -> None:
        self._succ: Dict[Sid, Tuple[Sid, ...]] = {}
        self._pred: Dict[Sid, Tuple[Sid, ...]] = {}
        succ: Dict[Sid, List[Sid]] = {}
        pred: Dict[Sid, List[Sid]] = {}
        seen_edges: Set[Edge] = set()
        for node in nodes:
            succ.setdefault(node, [])
            pred.setdefault(node, [])
        for a, b in edges:
            if a == b:
                raise RequirementError(f"self-loop on service {a!r}")
            if (a, b) in seen_edges:
                continue  # duplicate edges carry no information
            seen_edges.add((a, b))
            succ.setdefault(a, []).append(b)
            succ.setdefault(b, [])
            pred.setdefault(b, []).append(a)
            pred.setdefault(a, [])
        if not succ:
            raise RequirementError("a requirement needs at least one service")
        self._succ = {k: tuple(sorted(v)) for k, v in succ.items()}
        self._pred = {k: tuple(sorted(v)) for k, v in pred.items()}
        self._edges: FrozenSet[Edge] = frozenset(seen_edges)
        self._order = self._validate_and_sort()
        self._source = self._order[0]
        self._sinks = tuple(s for s in self._order if not self._succ[s])

    # -- builders ------------------------------------------------------------

    @classmethod
    def from_path(cls, sids: Sequence[Sid]) -> "ServiceRequirement":
        """A chain requirement (Fig. 1): ``sids[0] -> sids[1] -> ...``."""
        if not sids:
            raise RequirementError("a path requirement needs at least one service")
        if len(sids) == 1:
            return cls(nodes=sids)
        return cls(edges=list(zip(sids, sids[1:])))

    @classmethod
    def parallel(
        cls, source: Sid, sink: Sid, branches: Sequence[Sequence[Sid]]
    ) -> "ServiceRequirement":
        """Disjoint-paths requirement (Fig. 3): ``source -> branch -> sink``.

        Each branch is the sequence of intermediate services on that path;
        an empty branch is a direct ``source -> sink`` edge.
        """
        if not branches:
            raise RequirementError("parallel requirement needs at least one branch")
        edges: List[Edge] = []
        for branch in branches:
            chain = [source, *branch, sink]
            edges.extend(zip(chain, chain[1:]))
        return cls(edges=edges)

    # -- composition -----------------------------------------------------------

    def then(self, downstream: "ServiceRequirement") -> "ServiceRequirement":
        """Series composition: every sink of this requirement feeds the
        source of ``downstream``.

        The service sets must be disjoint (a federated pipeline cannot ask
        for the same service twice under this model).
        """
        overlap = set(self._succ) & set(downstream._succ)
        if overlap:
            raise RequirementError(
                f"cannot compose requirements sharing services {sorted(overlap)}"
            )
        edges = list(self._edges) + list(downstream._edges)
        edges.extend((sink, downstream.source) for sink in self.sinks)
        return ServiceRequirement(
            edges=edges, nodes=set(self._succ) | set(downstream._succ)
        )

    def fan_out(self, branches: Sequence["ServiceRequirement"]) -> "ServiceRequirement":
        """Parallel composition: each branch hangs off this requirement's
        sinks (every sink feeds every branch's source).

        Branch service sets must be disjoint from this requirement's and
        from each other's.  The result is a multi-sink requirement whose
        sinks are the branches' sinks.
        """
        if not branches:
            raise RequirementError("fan_out needs at least one branch")
        seen = set(self._succ)
        edges = list(self._edges)
        nodes = set(self._succ)
        for branch in branches:
            overlap = seen & set(branch._succ)
            if overlap:
                raise RequirementError(
                    f"cannot compose requirements sharing services {sorted(overlap)}"
                )
            seen |= set(branch._succ)
            nodes |= set(branch._succ)
            edges.extend(branch._edges)
            edges.extend((sink, branch.source) for sink in self.sinks)
        return ServiceRequirement(edges=edges, nodes=nodes)

    # -- validation ----------------------------------------------------------

    def _validate_and_sort(self) -> Tuple[Sid, ...]:
        """Kahn topological sort + the paper's structural constraints."""
        sources = sorted(s for s in self._succ if not self._pred[s])
        if len(sources) != 1:
            raise RequirementError(
                f"a requirement must have exactly one source service, found {sources}"
            )
        indeg = {s: len(self._pred[s]) for s in self._succ}
        ready = [sources[0]]
        order: List[Sid] = []
        while ready:
            ready.sort()
            node = ready.pop(0)
            order.append(node)
            for nxt in self._succ[node]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(self._succ):
            stuck = sorted(s for s in self._succ if indeg[s] > 0)
            raise RequirementError(f"requirement contains a cycle through {stuck}")
        sinks = [s for s in order if not self._succ[s]]
        if not sinks:
            raise RequirementError("a requirement must have at least one sink service")
        return tuple(order)

    # -- basic queries ---------------------------------------------------------

    @property
    def source(self) -> Sid:
        """The unique service with no upstream requirements."""
        return self._source

    @property
    def sinks(self) -> Tuple[Sid, ...]:
        """Services that deliver to end users (no downstream requirements)."""
        return self._sinks

    @property
    def sink(self) -> Sid:
        """The unique sink; raises if the requirement has several."""
        if len(self._sinks) != 1:
            raise RequirementError(
                f"requirement has {len(self._sinks)} sinks, expected exactly one"
            )
        return self._sinks[0]

    def services(self) -> Tuple[Sid, ...]:
        """All services in topological order (source first)."""
        return self._order

    def edges(self) -> Tuple[Edge, ...]:
        return tuple(sorted(self._edges))

    def has_edge(self, a: Sid, b: Sid) -> bool:
        return (a, b) in self._edges

    def __contains__(self, sid: Sid) -> bool:
        return sid in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def successors(self, sid: Sid) -> Tuple[Sid, ...]:
        self._check(sid)
        return self._succ[sid]

    def predecessors(self, sid: Sid) -> Tuple[Sid, ...]:
        self._check(sid)
        return self._pred[sid]

    def out_degree(self, sid: Sid) -> int:
        return len(self.successors(sid))

    def in_degree(self, sid: Sid) -> int:
        return len(self.predecessors(sid))

    def topological_order(self) -> Tuple[Sid, ...]:
        return self._order

    # -- reachability ----------------------------------------------------------

    def downstream(self, sid: Sid) -> FrozenSet[Sid]:
        """``sid`` and every service downstream of it."""
        self._check(sid)
        return self._closure(sid, self._succ)

    def descendants(self, sid: Sid) -> FrozenSet[Sid]:
        """Services strictly downstream of ``sid``."""
        return self.downstream(sid) - {sid}

    def ancestors(self, sid: Sid) -> FrozenSet[Sid]:
        """Services strictly upstream of ``sid``."""
        self._check(sid)
        return self._closure(sid, self._pred) - {sid}

    def _closure(self, start: Sid, adj: Dict[Sid, Tuple[Sid, ...]]) -> FrozenSet[Sid]:
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    # -- derived requirements ----------------------------------------------------

    def downstream_closure(self, sid: Sid) -> "ServiceRequirement":
        """The residual requirement rooted at ``sid``.

        This is exactly what an sFlow node plans on: the sub-requirement
        induced on ``sid`` and everything reachable from it.
        ``sid`` becomes the (single) source of the result.
        """
        return self.subrequirement(self.downstream(sid))

    def subrequirement(self, keep: Iterable[Sid]) -> "ServiceRequirement":
        """Induced sub-requirement on ``keep`` (must stay a valid requirement)."""
        keep_set = set(keep)
        unknown = keep_set - set(self._succ)
        if unknown:
            raise RequirementError(f"unknown services {sorted(unknown)}")
        edges = [(a, b) for a, b in self._edges if a in keep_set and b in keep_set]
        return ServiceRequirement(edges=edges, nodes=keep_set)

    # -- dominators --------------------------------------------------------------

    def immediate_dominators(self) -> Dict[Sid, Sid]:
        """Immediate dominator of every service (source maps to itself).

        Service ``d`` dominates ``s`` when every stream from the source to
        ``s`` passes through ``d``.  The distributed sFlow algorithm uses
        dominators to place decision responsibility: the instance for a
        *merge* service is pinned by its immediate dominator -- "the tasks
        of computing optimal service flow graphs are generally assumed by
        the splitting node" (paper Sec. 4).

        Uses the Cooper-Harvey-Kennedy iteration, which converges in one
        pass over a DAG processed in topological order.
        """
        order = self._order
        index = {sid: i for i, sid in enumerate(order)}
        idom: Dict[Sid, Sid] = {self._source: self._source}

        def intersect(a: Sid, b: Sid) -> Sid:
            while a != b:
                while index[a] > index[b]:
                    a = idom[a]
                while index[b] > index[a]:
                    b = idom[b]
            return a

        for sid in order[1:]:
            preds = [p for p in self._pred[sid] if p in idom]
            new = preds[0]
            for pred in preds[1:]:
                new = intersect(new, pred)
            idom[sid] = new
        return idom

    # -- classification ---------------------------------------------------------

    def classify(self) -> RequirementClass:
        """Which of the paper's topology classes this requirement falls in."""
        if len(self) == 1:
            return RequirementClass.SINGLE
        if self.is_path():
            return RequirementClass.PATH
        if self._is_tree():
            return RequirementClass.TREE
        if self._is_disjoint_paths():
            return RequirementClass.DISJOINT_PATHS
        if self.is_series_parallel():
            return RequirementClass.SPLIT_MERGE
        return RequirementClass.GENERAL

    def is_path(self) -> bool:
        """Whether the requirement is one chain: no service forks or merges."""
        return all(
            len(self._succ[s]) <= 1 and len(self._pred[s]) <= 1 for s in self._succ
        )

    def _is_tree(self) -> bool:
        return all(len(self._pred[s]) <= 1 for s in self._succ)

    def _is_disjoint_paths(self) -> bool:
        """Source and one sink; every intermediate has in/out degree one."""
        if len(self._sinks) != 1:
            return False
        sink = self._sinks[0]
        if len(self._succ[self._source]) < 2:
            return False
        for s in self._succ:
            if s in (self._source, sink):
                continue
            if len(self._succ[s]) != 1 or len(self._pred[s]) != 1:
                return False
        return True

    def is_series_parallel(self) -> bool:
        """Two-terminal series-parallel recognition by reduction.

        Repeatedly contracts series nodes (in=out=1) and merges parallel
        multi-edges; the requirement is series-parallel iff a single
        ``source -> sink`` edge remains.  Requirements with several sinks are
        never classified series-parallel.
        """
        if len(self._sinks) != 1:
            return False
        # Multi-edge-aware mutable copy: count parallel edges.
        succ: Dict[Sid, Dict[Sid, int]] = {s: {} for s in self._succ}
        pred: Dict[Sid, Dict[Sid, int]] = {s: {} for s in self._succ}
        for a, b in self._edges:
            succ[a][b] = succ[a].get(b, 0) + 1
            pred[b][a] = pred[b].get(a, 0) + 1
        source, sink = self._source, self._sinks[0]
        changed = True
        while changed:
            changed = False
            # Parallel reduction: collapse multi-edges.
            for a in list(succ):
                for b in list(succ[a]):
                    if succ[a][b] > 1:
                        succ[a][b] = 1
                        pred[b][a] = 1
                        changed = True
            # Series reduction: contract x -> v -> y when v has in=out=1.
            for v in list(succ):
                if v in (source, sink) or v not in succ:
                    continue
                if sum(pred[v].values()) == 1 and sum(succ[v].values()) == 1:
                    (x,) = pred[v]
                    (y,) = succ[v]
                    if x == y:
                        continue
                    del succ[x][v]
                    del pred[v][x]
                    del succ[v][y]
                    del pred[y][v]
                    succ[x][y] = succ[x].get(y, 0) + 1
                    pred[y][x] = pred[y].get(x, 0) + 1
                    del succ[v]
                    del pred[v]
                    changed = True
        return (
            len(succ) == 2
            and sum(succ[source].values()) == 1
            and sink in succ[source]
        )

    def as_path(self) -> Tuple[Sid, ...]:
        """The chain of services, for ``PATH``/``SINGLE`` requirements only."""
        cls = self.classify()
        if cls not in (RequirementClass.PATH, RequirementClass.SINGLE):
            raise RequirementError(f"requirement is {cls.value}, not a path")
        return self._order

    # -- equality ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServiceRequirement):
            return NotImplemented
        return self._edges == other._edges and set(self._succ) == set(other._succ)

    def __hash__(self) -> int:
        return hash((self._edges, frozenset(self._succ)))

    def _check(self, sid: Sid) -> None:
        if sid not in self._succ:
            raise KeyError(f"service {sid!r} not in requirement")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServiceRequirement(services={len(self)}, edges={len(self._edges)}, "
            f"class={self.classify().value})"
        )
