"""Process-wide routing-tree oracle: one state per graph object.

The paper's baseline is dominated by Wang-Crowcroft shortest-widest tree
computations -- the ``O(N^4)`` all-pairs step of Table 1.  Every caller
(overlay and abstract-graph builds, the planner's local views, the QoS
monitor's probes, the baseline's path search) asks one process-wide memo,
:class:`RouteOracle`, and the serialized-chain control asks it for prices:

* **Keying.**  A graph object *is* its topology: nothing mutates a graph
  the oracle has seen (the failure models are pure and return a new
  graph, and ``tests/fuzz/test_mutation_chains.py`` checks every derived
  graph's trees against the pure rows).  So the oracle holds one state per
  graph object -- its trees keyed ``(view, source)``, the repairs pending
  under the same key, its price rows keyed ``(view, order, source)``, one
  CSR snapshot per view -- and no row is shared between two graphs but by
  :meth:`~RouteOracle.derive`.  Equal graphs share rows by being one
  object: a repeat :meth:`OverlayGraph.build
  <repro.network.overlay.OverlayGraph.build>` returns the graph it built
  before, which is immutable.  Snapshots derive as trees do: a graph
  :meth:`~RouteOracle.derive` made from one that holds its
  ``"successors"`` snapshot builds its own from that snapshot's arrays
  (removed instances dropped, touched links re-read from the new graph)
  instead of walking itself; the same test checks every such snapshot
  against a fresh one, array for array.  ``view`` distinguishes
  adjacency views of the same graph (e.g. the directed overlay vs. its
  undirected relaxation, which walks links backwards).  Every tree is
  shortest-widest.  A price (:meth:`~RouteOracle.prices`) is either order:
  the overlay build prices the underlay widest-shortest, the
  serialized-chain control the overlay's undirected view shortest-widest.

* **Scoped invalidation.**  The failure models
  (:func:`repro.network.failures.degrade_links` and friends) return a
  new graph and report the derivation via :meth:`~RouteOracle.derive`,
  naming exactly which links/instances were touched.  Because
  degradations and removals can only make *alternative* paths worse
  (never the chosen ones better), a cached tree that does not traverse
  any touched element is still exact -- including its deterministic
  tie-breaks -- and is shared with the new graph's state.  A single link
  failure therefore does not cold-start the new graph; only sources
  whose trees crossed the failed link recompute, and those repair just
  the affected destinations.  The recovery ladder's in-place repair is
  such a derivation: it drops a session's suspects through
  :func:`~repro.network.failures.fail_instances`, so the suspect-free
  overlay starts from the session overlay's trees.  ``derive`` has no
  other mode: a mutation that can create *better* paths is not described
  to it as one.  Either the result is also a restriction of some graph
  the oracle still holds
  -- :func:`~repro.network.failures.revive_links` restores the metrics of
  a reference overlay, so it derives its result from *that* graph, with
  the touch sets :meth:`OverlayGraph.restriction_of
  <repro.network.overlay.OverlayGraph.restriction_of>` reads off the two
  graphs themselves -- or it is a new graph object nobody derived, which
  starts with no row.  (A churn rejoin rebuilds the overlay from the
  underlay, and that repeat build is the pristine overlay itself.)

* **Coverage.**  A caller that reads a row only at some destinations
  passes ``targets``; the row holds those labels (or prices) alone and
  remembers what it covers.  A row never answers for a destination outside
  its coverage -- not through ``tree``, ``warm``, ``prices``,
  carry-forward or repair: such a lookup is a miss and computes what is
  asked *now*.

* **Lifetime.**  States sit in a ``WeakKeyDictionary``: a graph's trees,
  pending repairs, price rows and snapshots go when the graph does, so long-running
  campaigns cannot leak memory through dead overlays, and no finalizer
  runs oracle code.  The last overlay built over an underlay lives as
  long as that underlay: the build holds it for a repeat build to return.
  A snapshot still to derive holds its ancestor's immutable snapshot,
  never the ancestor graph, and lets go of it once built: a mutation
  chain does not keep its earlier graphs alive.

* **One compute path.**  Every label the oracle computes -- a miss, a
  :meth:`~RouteOracle.warm` batch, the targeted recompute of a repair --
  comes from one :func:`repro.routing.kernel.batched_trees` call on the
  CSR snapshot of that graph's view.  The one exception is a source
  outside the snapshot's universe, whose row is itself alone.  A price
  is not a label: :meth:`~RouteOracle.prices` computes its missing rows in
  one :func:`~repro.routing.kernel.batched_prices` pass, and no tree is
  ever built from one.  :meth:`~RouteOracle.derive` carries no price row;
  the derived graph prices afresh.

Correctness contract: the oracle never changes results, only cost.  A
cache hit returns exactly the labels a fresh kernel batch computes on the
same graph, which are bit-identical to the test oracle, the pure
per-source Wang-Crowcroft trees of ``tests/oracles/wang_crowcroft.py``
(property tested in ``tests/routing/test_oracle.py`` and
``tests/services/test_abstract_graph.py``).  Returned label dicts are
shared; callers must treat them as immutable.
"""

from __future__ import annotations

import functools
import threading
import weakref
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.network.metrics import IDEAL
from repro.obs import metrics as obs_metrics
from repro.routing import kernel as _kernel
from repro.routing.kernel import SHORTEST_WIDEST, WIDEST_SHORTEST
from repro.routing.wang_crowcroft import NeighborFn, Node, RouteLabel

#: ``(view, source)`` -- a tree's key inside one graph's state.
_TreeKey = Tuple[str, Hashable]
#: ``(view, order, source)`` -- a price row's key inside one graph's state.
_PriceKey = Tuple[str, str, Hashable]
#: One source's prices, ``{target: (bandwidth, latency)}``.
_Prices = Dict[Node, Tuple[float, float]]
#: What a row covers, or a lookup asks for: ``None`` is every destination.
_Targets = Optional[FrozenSet[Node]]


@dataclass
class OracleStats:
    """Counter snapshot; taken via :meth:`RouteOracle.stats`."""

    hits: int = 0
    misses: int = 0
    carried: int = 0  # trees surviving a mutation via scoped carry-forward
    dropped: int = 0  # trees dropped by scoped invalidation
    invalidated: int = 0  # trees dropped by invalidate()
    evictions: int = 0  # always 0: nothing is evicted (benchmark records read it)
    warmed: int = 0  # trees computed by a batched warm() prefetch
    repaired: int = 0  # trees rebuilt by targeted repair, not full recompute
    kernel_trees: int = 0  # shortest-widest trees the CSR kernel built
    kernel_thresholds: int = 0  # distinct widths those trees stepped through
    kernel_restarts: int = 0  # width steps the kernel redid from scratch

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when no lookups)."""
        return self.hits / self.lookups if self.lookups else 0.0


def _covers(covered: _Targets, asked: _Targets) -> bool:
    """Whether a row covering ``covered`` answers a lookup for ``asked``."""
    return covered is None or (asked is not None and asked <= covered)


def _either_way(links: Iterable[Tuple[Node, Node]]) -> FrozenSet[Tuple[Node, Node]]:
    """``links`` plus their reversals: a label path names an edge in the
    direction the *view* walked it, which may be backwards (the undirected
    relaxation).  What :meth:`_Entry.touches` and
    :meth:`RouteOracle._repair_labels` match label paths against."""
    return frozenset(pair for a, b in links for pair in ((a, b), (b, a)))


class _Entry:
    """One cached row, what it covers (``None``: every destination, else
    the targets it was asked for) and the elements its label paths
    traverse -- found by the first :meth:`touches` (only ``derive`` asks),
    so a tree no mutation ever meets never pays for the sets."""

    __slots__ = ("labels", "covers", "nodes", "edges")

    def __init__(self, labels: Dict[Node, RouteLabel], covers: _Targets) -> None:
        self.labels = labels
        self.covers = covers
        self.nodes: Optional[FrozenSet[Node]] = None
        self.edges: Optional[FrozenSet[Tuple[Node, Node]]] = None

    def touches(
        self,
        touched_nodes: FrozenSet[Node],
        touched_edges: FrozenSet[Tuple[Node, Node]],
    ) -> bool:
        if self.nodes is None or self.edges is None:
            nodes: Set[Node] = set()
            edges: Set[Tuple[Node, Node]] = set()
            for label in self.labels.values():
                path = label.path
                nodes.update(path)
                edges.update(zip(path, path[1:]))
            self.nodes = frozenset(nodes)
            self.edges = frozenset(edges)
        return bool(self.nodes & touched_nodes) or bool(self.edges & touched_edges)


class _PendingRepair:
    """A tree dropped by scoped invalidation, kept for targeted repair.

    ``labels`` is the tree as computed on an ancestor graph; the touched
    sets accumulate every restrictive mutation between that graph and the
    one the tree is repaired on (chained failures union their touch
    sets).  Labels whose paths avoid all touched elements are still exact
    -- a restrictive mutation cannot improve any path -- so a repair
    recomputes only the affected destinations, as one kernel row asked
    for those ``targets``.  ``covers`` rides along: a partial row is
    repaired as a partial row, never into one that claims to be complete.
    """

    __slots__ = ("labels", "nodes", "edges", "covers")

    def __init__(
        self,
        labels: Dict[Node, RouteLabel],
        nodes: FrozenSet[Node],
        edges: FrozenSet[Tuple[Node, Node]],
        covers: _Targets,
    ) -> None:
        self.labels = labels
        self.nodes = nodes
        self.edges = edges
        self.covers = covers

    def merged(
        self,
        nodes: FrozenSet[Node],
        edges: FrozenSet[Tuple[Node, Node]],
    ) -> "_PendingRepair":
        return _PendingRepair(
            self.labels, self.nodes | nodes, self.edges | edges, self.covers
        )


class _PendingSnapshot:
    """A ``"successors"`` snapshot not built yet, to be derived from an
    ancestor graph's at first use.

    ``parent`` is that ancestor's snapshot -- immutable, and never the
    ancestor graph itself, which would keep every graph of a mutation
    chain alive with all its trees.  ``nodes`` and ``links`` accumulate
    what each mutation since took away or made worse, as the touch sets of
    :class:`_PendingRepair` do: the snapshot drops the nodes, and re-reads
    through ``graph.link_metrics`` each of the links whose two ends both survive.
    """

    __slots__ = ("parent", "nodes", "links")

    def __init__(
        self,
        parent: _kernel.CSRGraph,
        nodes: FrozenSet[Node],
        links: FrozenSet[Tuple[Node, Node]],
    ) -> None:
        self.parent = parent
        self.nodes = nodes
        self.links = links

    def merged(
        self, nodes: FrozenSet[Node], links: FrozenSet[Tuple[Node, Node]]
    ) -> "_PendingSnapshot":
        return _PendingSnapshot(self.parent, self.nodes | nodes, self.links | links)

    def build(self, graph: Any) -> _kernel.CSRGraph:
        reread: Dict[Tuple[Node, Node], Optional[Tuple[float, float]]] = {}
        for a, b in self.links:
            if a not in self.nodes and b not in self.nodes:
                metrics = graph.link_metrics(a, b)
                reread[a, b] = None if metrics is None else (
                    metrics.bandwidth, metrics.latency
                )
        return self.parent.restricted(self.nodes, reread)


class _GraphState:
    """Everything the oracle holds for one graph object.

    The CSR snapshots live here, not in a dict of their own: a snapshot
    table that outlives the graph (however bounded) keeps dead graphs'
    whole tree sets reachable.
    """

    __slots__ = ("trees", "repairs", "prices", "snapshots", "derivation")

    def __init__(self) -> None:
        self.trees: Dict[_TreeKey, _Entry] = {}
        #: Trees dropped by scoped invalidation, kept for targeted repair
        #: at their first lookup on this graph.
        self.repairs: Dict[_TreeKey, _PendingRepair] = {}
        #: Price rows, each with the targets it covers.
        self.prices: Dict[_PriceKey, Tuple[_Prices, FrozenSet[Node]]] = {}
        self.snapshots: Dict[str, _kernel.CSRGraph] = {}
        #: How to derive the ``"successors"`` snapshot, until it is built.
        self.derivation: Optional[_PendingSnapshot] = None


class RouteOracle:
    """Per-graph cache of per-source routing trees.

    One process-wide instance (:meth:`default`) backs every routing-heavy
    subsystem; tests may construct private instances.  All public methods
    are thread-safe.
    """

    # The oracle has no knobs; slots make assigning an unknown attribute
    # (``oracle.enabled = False``) raise instead of silently creating it.
    __slots__ = ("_registry", "_counters", "_lock", "_graphs")

    _default: Optional["RouteOracle"] = None
    _default_lock = threading.Lock()

    def __init__(
        self, *, registry: Optional[obs_metrics.MetricsRegistry] = None
    ) -> None:
        #: The counters live in a metrics registry (``oracle.*``): the
        #: process-wide registry for :meth:`default`, so registry
        #: snapshots and :meth:`stats` read the same storage; a private
        #: registry for directly-constructed oracles, so test instances
        #: never cross-talk.
        self._registry = registry if registry is not None else (
            obs_metrics.MetricsRegistry()
        )
        # Registered one by one with literal names (tests/test_source_rules.py): the
        # registry is the single backing store, so a registry snapshot and
        # :meth:`stats` can never disagree, and every ``oracle.*`` series
        # stays grep-able.
        self._counters: Dict[str, obs_metrics.Counter] = {
            "hits": self._registry.counter(
                "oracle.hits", "tree lookups served from cache"
            ),
            "misses": self._registry.counter(
                "oracle.misses", "tree lookups that computed"
            ),
            "carried": self._registry.counter(
                "oracle.carried",
                "trees surviving a mutation via scoped carry-forward",
            ),
            "dropped": self._registry.counter(
                "oracle.dropped", "trees dropped by scoped invalidation"
            ),
            "invalidated": self._registry.counter(
                "oracle.invalidated",
                "trees dropped by invalidate()",
            ),
            "warmed": self._registry.counter(
                "oracle.warmed", "trees computed by a batched warm() prefetch"
            ),
            "repaired": self._registry.counter(
                "oracle.repaired",
                "trees rebuilt by targeted repair instead of full recompute",
            ),
            "kernel_trees": self._registry.counter(
                "oracle.kernel_trees", "shortest-widest trees the kernel built"
            ),
            "kernel_thresholds": self._registry.counter(
                "oracle.kernel_thresholds", "distinct widths those trees stepped through"
            ),
            "kernel_restarts": self._registry.counter(
                "oracle.kernel_restarts", "width steps the kernel redid from scratch"
            ),
        }
        self._lock = threading.RLock()
        #: A dead graph's state goes with its key; the lock discipline is
        #: compute outside, read and insert inside.
        self._graphs: "weakref.WeakKeyDictionary[Any, _GraphState]" = (
            weakref.WeakKeyDictionary()
        )

    # -- singleton ---------------------------------------------------------

    @classmethod
    def default(cls) -> "RouteOracle":
        """The process-wide oracle (created on first use).

        Its counters live in the process-wide metrics registry
        (:func:`repro.obs.metrics.registry`) under ``oracle.*``.
        """
        with cls._default_lock:
            if cls._default is None:
                cls._default = cls(registry=obs_metrics.registry())
            return cls._default

    @classmethod
    def reset_default(cls) -> "RouteOracle":
        """Replace the process-wide oracle with a fresh one (tests).

        The ``oracle.*`` counters in the process registry are zeroed so
        the fresh oracle starts from a clean slate.
        """
        with cls._default_lock:
            cls._default = cls(registry=obs_metrics.registry())
            cls._default.reset_stats()
            return cls._default

    # -- lookups -----------------------------------------------------------

    def tree(
        self,
        graph: Any,
        source: Node,
        *,
        view: str = "successors",
        neighbors: Optional[NeighborFn] = None,
        targets: _Targets = None,
    ) -> Dict[Node, RouteLabel]:
        """The single-source shortest-widest routing tree for ``source`` on
        ``graph``.

        Args:
            graph: any object whose topology the trees describe; used only
                as the cache identity (weakly referenced).
            source: tree root.
            view: distinguishes multiple adjacency views of one graph; the
                same ``view`` string must always denote the same adjacency.
            neighbors: adjacency function; defaults to ``graph.successors``
                (or ``graph.neighbors`` for underlay-style graphs).
            targets: the destinations the caller will read (``None``: all).
                The row holds the source and every reachable target -- more
                when a cached row covers more; labels equal the full tree's.

        Returns the kernel's label dict.  **Treat it as immutable** -- it is
        shared across callers.
        """
        key = (view, source)
        state = self._state_for(graph)
        with self._lock:
            entry = state.trees.get(key)
            if entry is not None and (  # a full row answers without the call
                entry.covers is None or _covers(entry.covers, targets)
            ):
                self._counters["hits"].inc()
                return entry.labels
            self._counters["misses"].inc()
            pending = state.repairs.pop(key, None)
        rows = functools.partial(self._rows, graph, state, view, neighbors)
        labels: Optional[Dict[Node, RouteLabel]] = None
        covers = targets
        # A parked row that does not cover the ask is dropped, not widened.
        if pending is not None and _covers(pending.covers, targets):
            labels = self._repair_labels(rows, source, pending)
            if labels is not None:
                covers = pending.covers
                self._counters["repaired"].inc()
        if labels is None:
            labels = rows((source,), targets)[0]
        with self._lock:
            state.trees[key] = _Entry(labels, covers)
        return labels

    def warm(
        self,
        graph: Any,
        sources: Iterable[Node],
        *,
        view: str = "successors",
        neighbors: Optional[NeighborFn] = None,
        targets: _Targets = None,
    ) -> int:
        """Batched prefetch: compute and cache trees for many sources.

        The cold-path entry point of the vectorized kernel: one CSR
        snapshot of ``graph`` is built (and kept per view in the graph's
        state), then every not-yet-cached source's tree is computed
        against it in one batch -- one set of work arrays, one snapshot
        lookup and one lock round-trip for all of them.
        Subsequent :meth:`tree` calls for these sources *and targets* are
        cache hits; a source whose cached row does not cover ``targets`` is
        computed again, for exactly what is asked.

        Returns the number of trees actually computed (0 when everything
        was already cached).  Results are bit-identical to :meth:`tree`.
        """
        state = self._state_for(graph)
        with self._lock:
            missing: list = []
            seen: Set[Node] = set()
            for source in sources:
                if source in seen:
                    continue
                seen.add(source)
                key = (view, source)
                # Sources with a pending repair are cheaper to repair at
                # their first tree() lookup than to recompute here.
                held = state.trees.get(key) or state.repairs.get(key)
                if held is not None and _covers(held.covers, targets):
                    continue
                missing.append(source)
        if not missing:
            return 0
        trees = self._rows(graph, state, view, neighbors, missing, targets)
        with self._lock:
            if self._graphs.get(graph) is not state:
                return 0  # state replaced mid-computation; trees are stale
            for source, labels in zip(missing, trees):
                key = (view, source)
                state.trees[key] = _Entry(labels, targets)
                state.repairs.pop(key, None)  # parked, but covered too little
            self._counters["warmed"].inc(len(missing))
        return len(missing)

    def prices(
        self,
        graph: Any,
        sources: Sequence[Node],
        *,
        targets: Collection[Node],
        order: str = SHORTEST_WIDEST,
        view: str = "successors",
        neighbors: Optional[NeighborFn] = None,
    ) -> List[_Prices]:
        """The prices of ``sources`` at ``targets``: per source, ``{target:
        (bandwidth, latency)}`` for every target it reaches, the floats of
        the quality of the reference tree's label in ``order``
        (:data:`SHORTEST_WIDEST`, the label :meth:`tree` returns, or
        :data:`WIDEST_SHORTEST`).

        Rows are cached in the graph's state under ``(view, order,
        source)`` and answer a later ask they cover, as trees do (read at
        the asked targets alone); the sources without one are priced in one
        :func:`repro.routing.kernel.batched_prices` pass on the view's
        snapshot, which is built at most once per graph state as for the
        trees.  No counter moves.  A price has no path, so :meth:`derive`
        carries no price row: the derived graph starts without one.  A
        source outside the snapshot's universe reaches only itself.
        """
        asked = frozenset(targets)
        state = self._state_for(graph)
        with self._lock:
            held = {source: state.prices.get((view, order, source)) for source in sources}
        missing = [
            source for source, row in held.items() if row is None or not asked <= row[1]
        ]
        if missing:
            csr = self._snapshot_for(graph, state, view, neighbors)
            index = csr.index
            computed = iter(
                _kernel.batched_prices(
                    csr, [source for source in missing if source in index], asked,
                    order=order,
                )
            )
            with self._lock:
                for source in missing:
                    row = next(computed) if source in index else (
                        {source: (IDEAL.bandwidth, IDEAL.latency)} if source in asked else {}
                    )
                    held[source] = state.prices[view, order, source] = (row, asked)
        return [
            row if covers == asked else {t: p for t, p in row.items() if t in asked}
            for row, covers in (held[source] for source in sources)
        ]

    # -- mutation protocol -------------------------------------------------

    def derive(
        self,
        old: Any,
        new: Any,
        *,
        removed_instances: Iterable[Node] = (),
        removed_links: Iterable[Tuple[Node, Node]] = (),
        degraded_links: Iterable[Tuple[Node, Node]] = (),
    ) -> None:
        """Record that ``new`` is ``old`` with the named elements taken
        away or made worse -- and nothing made better.

        ``new`` gets a fresh state.  Trees cached for ``old`` that do not
        traverse any touched element are *shared* with it (``old`` keeps
        its own entries -- the pure failure functions leave the input
        graph alive and queryable); touched ones, and repairs still
        pending on ``old``, wait on ``new`` for targeted repair.  A carried
        or parked row keeps its coverage.  Touched links match label-path
        edges **in either orientation**: the oracle cannot tell which views
        walk a link backwards (``"undirected"`` does), so in every view a
        tree crossing ``(y, x)`` is touched by a mutation of link ``(x, y)``.
        When ``old`` holds its ``"successors"`` snapshot, or a pending
        derivation of one, ``new`` derives its own from it at first use (it
        re-reads the touched links through ``new.link_metrics``).
        """
        if new is old:
            raise ValueError("derive() needs a distinct new graph")
        touched_nodes = frozenset(removed_instances)
        touched_links = frozenset([*removed_links, *degraded_links])
        touched_edges = _either_way(touched_links)
        with self._lock:
            old_state = self._graphs.get(old)
            new_state = self._graphs[new] = _GraphState()
            if old_state is None:
                return
            parent = old_state.snapshots.get("successors")
            if parent is not None:
                new_state.derivation = _PendingSnapshot(parent, touched_nodes, touched_links)
            elif old_state.derivation is not None:
                new_state.derivation = old_state.derivation.merged(touched_nodes, touched_links)
            for key, entry in old_state.trees.items():
                if entry.touches(touched_nodes, touched_edges):
                    # The tree is stale, but most of its labels usually are
                    # not: keep it aside for targeted repair at first lookup.
                    new_state.repairs[key] = _PendingRepair(
                        entry.labels, touched_nodes, touched_edges, entry.covers
                    )
                    self._counters["dropped"].inc()
                else:
                    new_state.trees[key] = entry
                    self._counters["carried"].inc()
            # Repairs still pending on the old graph chain forward: their
            # touch sets accumulate so a later repair accounts for every
            # mutation since the tree was computed.
            for key, pending in old_state.repairs.items():
                new_state.repairs[key] = pending.merged(touched_nodes, touched_edges)

    def invalidate(self, graph: Any) -> None:
        """Drop every cached tree and price row for ``graph``."""
        with self._lock:
            state = self._graphs.pop(graph, None)
            if state is not None and state.trees:
                # inc(0) would still create the series in the registry
                self._counters["invalidated"].inc(len(state.trees))

    def clear(self) -> None:
        """Drop everything (stats survive; see :meth:`reset_stats`)."""
        with self._lock:
            self._graphs.clear()

    # -- introspection -----------------------------------------------------

    def stats(self) -> OracleStats:
        """A snapshot of the counters, read straight from the registry."""
        with self._lock:
            return OracleStats(
                **{
                    name: int(counter.total)
                    for name, counter in self._counters.items()
                }
            )

    def reset_stats(self) -> None:
        with self._lock:
            for counter in self._counters.values():
                counter.reset()

    def cached_sources(self, graph: Any, *, view: str = "successors") -> Set[Node]:
        """Sources with a live cached tree for ``graph`` (test hook)."""
        with self._lock:
            state = self._graphs.get(graph)
            if state is None:
                return set()
            return {key[1] for key in state.trees if key[0] == view}

    def __len__(self) -> int:
        with self._lock:
            return sum(len(state.trees) for state in self._graphs.values())

    # -- internals ---------------------------------------------------------

    def _state_for(self, graph: Any) -> _GraphState:
        """The graph's state, made empty at the first lookup."""
        with self._lock:
            state = self._graphs.get(graph)
            if state is None:
                state = self._graphs[graph] = _GraphState()
            return state

    def _rows(
        self,
        graph: Any,
        state: _GraphState,
        view: str,
        neighbors: Optional[NeighborFn],
        sources: Sequence[Node],
        targets: Optional[Iterable[Node]],
    ) -> List[Dict[Node, RouteLabel]]:
        """The rows of ``sources``, one kernel batch on the view's snapshot,
        its phase-2 work added to ``oracle.kernel_*``.  A source outside the
        snapshot's universe reaches nothing: its row is itself alone."""
        csr = self._snapshot_for(graph, state, view, neighbors)
        inside = [source for source in sources if source in csr.index]
        batch = _kernel.batched_trees(csr, inside, targets=targets)
        with self._lock:
            self._counters["kernel_trees"].inc(len(batch))
            self._counters["kernel_thresholds"].inc(batch.thresholds)
            self._counters["kernel_restarts"].inc(batch.restarts)
        computed = iter(batch)
        return [
            next(computed) if source in csr.index
            else {source: RouteLabel(IDEAL, 0, (source,))}
            for source in sources
        ]

    def _snapshot_for(
        self,
        graph: Any,
        state: _GraphState,
        view: str,
        neighbors: Optional[NeighborFn],
    ) -> _kernel.CSRGraph:
        """The CSR snapshot of one view of ``graph``, built at most once:
        derived from an ancestor's when :meth:`derive` left one pending,
        else walked from the graph.

        The build itself runs outside the lock; a concurrent duplicate
        build is harmless (idempotent result).
        """
        with self._lock:
            csr = state.snapshots.get(view)
            pending = state.derivation if view == "successors" else None
        if csr is None:
            if pending is not None:
                csr = pending.build(graph)
            else:
                csr = _kernel.snapshot(graph, neighbors)
            with self._lock:
                state.snapshots[view] = csr
                if pending is not None:
                    state.derivation = None  # lets go of the parent snapshot
        return csr

    # -- incremental repair ------------------------------------------------

    @staticmethod
    def _repair_labels(
        rows: Callable[..., List[Dict[Node, RouteLabel]]],
        source: Node,
        pending: _PendingRepair,
    ) -> Optional[Dict[Node, RouteLabel]]:
        """Rebuild a tree from its pre-mutation labels, or None to punt.

        Labels whose paths avoid every touched element are exact verbatim
        (a restrictive mutation cannot improve any path, so the stored
        path is still the deterministic optimum).  Affected destinations
        recompute as one ``rows`` call asked for exactly them, which
        returns the labels a full run would.  Destinations that became
        unreachable simply drop out, matching the full run.
        """
        touched_nodes, touched_edges = pending.nodes, pending.edges
        if source in touched_nodes:
            return None  # the root itself is gone; recompute from scratch
        repaired: Dict[Node, RouteLabel] = {}
        affected: list = []
        for dest, label in pending.labels.items():
            path = label.path
            hit = bool(touched_nodes) and not touched_nodes.isdisjoint(path)
            if not hit and touched_edges:
                hit = any(
                    (a, b) in touched_edges for a, b in zip(path, path[1:])
                )
            if hit:
                if dest not in touched_nodes:
                    affected.append(dest)
            else:
                repaired[dest] = label
        if affected:
            recomputed = rows((source,), affected)[0]
            for dest in affected:
                label = recomputed.get(dest)
                if label is not None:
                    repaired[dest] = label
        return repaired
