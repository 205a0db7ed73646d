"""Process-wide routing-tree oracle with topology epochs (perf tentpole).

The paper's baseline is dominated by Wang-Crowcroft shortest-widest tree
computations -- the ``O(N^4)`` all-pairs step of Table 1.  Before this
module, five independent call sites (abstract-graph construction, the
distributed planner's local views, the QoS monitor's probes, the
serialized-chain control, and the baseline's abstract-path search) each
kept a throwaway per-call ``trees`` dict and recomputed identical trees
from scratch.  :class:`RouteOracle` replaces all of them with one bounded,
process-wide memo:

* **Keying.**  Cached trees are keyed ``(lineage, epoch, view, order,
  source)``.  A *lineage* identifies a family of graphs related by
  mutation; the *epoch* is a monotonic counter bumped by every mutation in
  that lineage, so a stale tree is unreachable by construction -- there is
  no code path that can serve an old epoch's tree for a new epoch's graph.
  ``view`` distinguishes adjacency views of the same graph (e.g. the
  directed overlay vs. the undirected relaxation the serialized-chain
  control plans over); ``order`` selects shortest-widest or
  widest-shortest trees.

* **Scoped invalidation.**  The failure models
  (:func:`repro.network.failures.degrade_links` and friends) are *pure*:
  they return a new graph.  They report the derivation to the oracle via
  :meth:`derive`, naming exactly which links/instances were touched.
  Because degradations and removals can only make *alternative* paths
  worse (never the chosen ones better), a cached tree that does not
  traverse any touched element is still exact -- including its
  deterministic tie-breaks -- and is carried forward into the new epoch.
  A single link failure therefore does not cold-start the whole cache;
  only sources whose trees crossed the failed link recompute.  Additive
  mutations (revival, churn join) can create *better* paths, so they
  invalidate the whole lineage (``additive=True``).

* **Bounded LRU + weakrefs.**  The cache holds at most ``max_entries``
  trees (least-recently-used eviction) and tracks graphs by weak
  reference, purging a graph's entries when it is garbage-collected, so
  long-running campaigns cannot leak memory through dead overlays.

Correctness contract: the oracle never changes results, only cost.  A
cache hit returns exactly the labels :func:`shortest_widest_tree` /
:func:`widest_shortest_tree` would compute on the same graph (property
tested in ``tests/routing/test_oracle.py`` and
``tests/services/test_abstract_graph.py``).  Returned label dicts are
shared; callers must treat them as immutable.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.obs import metrics as obs_metrics
from repro.routing import kernel as _kernel
from repro.routing.wang_crowcroft import (
    NeighborFn,
    Node,
    RouteLabel,
    shortest_widest_tree,
    widest_shortest_tree,
)

#: Tree orders the oracle can serve.
SHORTEST_WIDEST = "shortest_widest"
WIDEST_SHORTEST = "widest_shortest"

_TREE_FN: Dict[str, Callable[..., Dict[Node, RouteLabel]]] = {
    SHORTEST_WIDEST: shortest_widest_tree,
    WIDEST_SHORTEST: widest_shortest_tree,
}

_CacheKey = Tuple[int, int, str, str, Hashable]


@dataclass
class OracleStats:
    """Counter snapshot; taken via :meth:`RouteOracle.stats`."""

    hits: int = 0
    misses: int = 0
    carried: int = 0  # trees surviving a mutation via scoped carry-forward
    dropped: int = 0  # trees dropped by scoped invalidation
    invalidated: int = 0  # trees dropped by full (additive) invalidation
    evictions: int = 0  # LRU evictions
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


class _GraphMeta:
    """Lineage/epoch bookkeeping attached (weakly) to one graph object."""

    __slots__ = ("lineage", "epoch")

    def __init__(self, lineage: int, epoch: int) -> None:
        self.lineage = lineage
        self.epoch = epoch


class _Entry:
    """One cached tree plus the elements its label paths traverse --
    found by the first :meth:`touches` (only ``derive`` asks), so a tree
    no mutation ever meets never pays for the sets."""

    __slots__ = ("labels", "nodes", "edges")

    def __init__(self, labels: Dict[Node, RouteLabel]) -> None:
        self.labels = labels
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

    ``labels`` is the pre-mutation tree; the touched sets accumulate every
    restrictive mutation between the tree's epoch and the epoch it is
    repaired at (chained failures union their touch sets).  Labels whose
    paths avoid all touched elements are still exact -- a restrictive
    mutation cannot improve any path -- so a repair recomputes only the
    affected destinations via the tree functions' ``targets`` contract.
    """

    __slots__ = ("labels", "nodes", "edges")

    def __init__(
        self,
        labels: Dict[Node, RouteLabel],
        nodes: FrozenSet[Node],
        edges: FrozenSet[Tuple[Node, Node]],
    ) -> None:
        self.labels = labels
        self.nodes = nodes
        self.edges = edges

    def merged(
        self,
        nodes: FrozenSet[Node],
        edges: FrozenSet[Tuple[Node, Node]],
    ) -> "_PendingRepair":
        return _PendingRepair(self.labels, self.nodes | nodes, self.edges | edges)


class RouteOracle:
    """Topology-epoch-aware cache of per-source routing trees.

    One process-wide instance (:meth:`default`) backs every routing-heavy
    subsystem; tests may construct private instances.  All public methods
    are thread-safe.
    """

    _default: Optional["RouteOracle"] = None
    _default_lock = threading.Lock()

    def __init__(
        self,
        max_entries: int = 4096,
        *,
        enabled: bool = True,
        use_kernel: bool = True,
        kernel_min_nodes: int = 16,
        registry: Optional[obs_metrics.MetricsRegistry] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        #: When False every lookup computes directly (no caching, no
        #: counters) -- the A/B switch the perf harness flips.
        self.enabled = enabled
        #: Route cold misses through the vectorized CSR kernel when the
        #: graph exports a snapshot (``routing_nodes``); results are
        #: bit-identical either way, so this is purely a cost switch (the
        #: perf harness A/Bs it).
        self.use_kernel = use_kernel
        #: Below this node count the pure path wins (snapshot build cost
        #: dominates); tiny ego views skip the kernel entirely.
        self.kernel_min_nodes = kernel_min_nodes
        #: The counters live in a metrics registry (``oracle.*``): the
        #: process-wide registry for :meth:`default`, so registry
        #: snapshots and :meth:`stats` read the same storage; a private
        #: registry for directly-constructed oracles, so test instances
        #: never cross-talk.
        self._registry = registry if registry is not None else (
            obs_metrics.MetricsRegistry()
        )
        # Registered one by one with literal names (rule SFL005): the
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
                "trees dropped by full (additive) invalidation",
            ),
            "evictions": self._registry.counter(
                "oracle.evictions", "LRU evictions"
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
        self._meta: "weakref.WeakKeyDictionary[Any, _GraphMeta]" = (
            weakref.WeakKeyDictionary()
        )
        self._lineage_counter = itertools.count()
        #: Highest epoch ever issued per lineage (epochs never reuse).
        self._lineage_tip: Dict[int, int] = {}
        self._cache: "OrderedDict[_CacheKey, _Entry]" = OrderedDict()
        #: ``(lineage, epoch) -> keys`` index for O(entries-of-graph)
        #: invalidation instead of full-cache scans.
        self._index: Dict[Tuple[int, int], Set[_CacheKey]] = {}
        #: CSR snapshots keyed ``(lineage, epoch, view)`` -- a snapshot can
        #: never serve a different topology epoch by construction.  ``None``
        #: marks a graph that cannot be snapshotted (no export hook, too
        #: small, non-injective reprs) so misses stop retrying.
        self._snapshots: "OrderedDict[Tuple[int, int, str], Optional[_kernel.CSRGraph]]" = (
            OrderedDict()
        )
        self._snapshots_max = 8
        #: Trees dropped by scoped invalidation, kept (bounded, FIFO) for
        #: targeted repair at their first post-mutation lookup.
        self._repairs: "OrderedDict[_CacheKey, _PendingRepair]" = OrderedDict()
        self._repair_index: Dict[Tuple[int, int], Set[_CacheKey]] = {}

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
        order: str = SHORTEST_WIDEST,
        view: str = "successors",
        neighbors: Optional[NeighborFn] = None,
    ) -> Dict[Node, RouteLabel]:
        """The single-source routing tree for ``source`` on ``graph``.

        Args:
            graph: any object whose topology the trees describe; used only
                as the cache identity (weakly referenced).
            source: tree root.
            order: :data:`SHORTEST_WIDEST` or :data:`WIDEST_SHORTEST`.
            view: distinguishes multiple adjacency views of one graph; the
                same ``view`` string must always denote the same adjacency.
            neighbors: adjacency function; defaults to ``graph.successors``
                (or ``graph.neighbors`` for underlay-style graphs).

        Returns the label dict of the underlying tree function.  **Treat it
        as immutable** -- it is shared across callers.
        """
        tree_fn = _TREE_FN.get(order)
        if tree_fn is None:
            raise ValueError(f"unknown tree order {order!r}")
        if neighbors is None:
            neighbors = getattr(graph, "successors", None) or graph.neighbors
        if not self.enabled:
            return tree_fn(neighbors, source)
        with self._lock:
            meta = self._meta_for(graph)
            key = (meta.lineage, meta.epoch, view, order, source)
            entry = self._cache.get(key)
            if entry is not None:
                self._cache.move_to_end(key)
                self._counters["hits"].inc()
                return entry.labels
            self._counters["misses"].inc()
            pending = self._pop_repair(key)
        labels: Optional[Dict[Node, RouteLabel]] = None
        if pending is not None:
            labels = self._repair_labels(tree_fn, neighbors, source, pending)
            if labels is not None:
                self._counters["repaired"].inc()
        if labels is None and self.use_kernel:
            csr = self._snapshot_for(graph, key[0], key[1], view, neighbors)
            if csr is not None and source in csr.index:
                labels = self._kernel_trees(csr, (source,), order)[0]
        if labels is None:
            labels = tree_fn(neighbors, source)
        with self._lock:
            self._insert(key, _Entry(labels))
        return labels

    def warm(
        self,
        graph: Any,
        sources: Iterable[Node],
        *,
        order: str = SHORTEST_WIDEST,
        view: str = "successors",
        neighbors: Optional[NeighborFn] = None,
    ) -> int:
        """Batched prefetch: compute and cache trees for many sources.

        The cold-path entry point of the vectorized kernel: one CSR
        snapshot of ``graph`` is built (and cached per ``(lineage, epoch,
        view)``), then every not-yet-cached source's tree is computed
        against it in one batch -- one set of work arrays, one snapshot
        lookup and one lock round-trip for all of them.  Falls back to
        per-source pure computation when the graph cannot be snapshotted.
        Subsequent :meth:`tree` calls for these sources are cache hits.

        Returns the number of trees actually computed (0 when disabled or
        everything was already cached).  Results are bit-identical to
        :meth:`tree`, which is bit-identical to the pure functions.
        """
        tree_fn = _TREE_FN.get(order)
        if tree_fn is None:
            raise ValueError(f"unknown tree order {order!r}")
        if not self.enabled:
            return 0
        if neighbors is None:
            neighbors = getattr(graph, "successors", None) or graph.neighbors
        with self._lock:
            meta = self._meta_for(graph)
            lineage, epoch = meta.lineage, meta.epoch
            missing: list = []
            seen: Set[Node] = set()
            for source in sources:
                if source in seen:
                    continue
                seen.add(source)
                key = (lineage, epoch, view, order, source)
                # Sources with a pending repair are cheaper to repair at
                # their first tree() lookup than to recompute here.
                if key in self._cache or key in self._repairs:
                    continue
                missing.append(source)
        if not missing:
            return 0
        trees: Optional[list] = None
        if self.use_kernel:
            csr = self._snapshot_for(graph, lineage, epoch, view, neighbors)
            if csr is not None and all(s in csr.index for s in missing):
                trees = self._kernel_trees(csr, missing, order)
        if trees is None:
            trees = [tree_fn(neighbors, source) for source in missing]
        with self._lock:
            live = self._meta.get(graph)
            if live is None or (live.lineage, live.epoch) != (lineage, epoch):
                return 0  # graph mutated mid-computation; trees are stale
            for source, labels in zip(missing, trees):
                self._insert((lineage, epoch, view, order, source), _Entry(labels))
            self._counters["warmed"].inc(len(missing))
        return len(missing)

    # -- mutation protocol -------------------------------------------------

    def derive(
        self,
        old: Any,
        new: Any,
        *,
        removed_instances: Iterable[Node] = (),
        removed_links: Iterable[Tuple[Node, Node]] = (),
        degraded_links: Iterable[Tuple[Node, Node]] = (),
        additive: bool = False,
    ) -> None:
        """Record that ``new`` is ``old`` after a mutation.

        ``new`` joins ``old``'s lineage at the next epoch.  Trees cached
        for ``old`` that do not traverse any touched element are *copied*
        into the new epoch (``old`` keeps its own entries -- the pure
        failure functions leave the input graph alive and queryable).
        ``additive=True`` marks mutations that can improve paths (revival,
        join); nothing is carried then.
        """
        if new is old:
            raise ValueError("derive() needs a distinct new graph")
        touched_nodes, touched_edges = _touched(
            removed_instances, removed_links, degraded_links
        )
        with self._lock:
            old_meta = self._meta_for(old)
            epoch = self._next_epoch(old_meta.lineage)
            new_meta = _GraphMeta(old_meta.lineage, epoch)
            self._register(new, new_meta)
            self._propagate(
                old_meta, new_meta, touched_nodes, touched_edges, additive
            )

    def invalidate(self, graph: Any) -> None:
        """Drop every cached tree for ``graph`` (all views, all orders)."""
        with self._lock:
            meta = self._meta.get(graph)
            if meta is None:
                return
            epoch_key = (meta.lineage, meta.epoch)
            for key in self._index.pop(epoch_key, ()):
                if self._cache.pop(key, None) is not None:
                    self._counters["invalidated"].inc()
            self._drop_epoch_extras(epoch_key)

    def clear(self) -> None:
        """Drop everything (stats survive; see :meth:`reset_stats`)."""
        with self._lock:
            self._cache.clear()
            self._index.clear()
            self._snapshots.clear()
            self._repairs.clear()
            self._repair_index.clear()

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

    def epoch(self, graph: Any) -> int:
        """Current epoch of ``graph`` (registers it at epoch 0 if new)."""
        with self._lock:
            return self._meta_for(graph).epoch

    def lineage(self, graph: Any) -> int:
        """Lineage id of ``graph`` (registers it if new)."""
        with self._lock:
            return self._meta_for(graph).lineage

    def cached_sources(self, graph: Any, *, view: str = "successors") -> Set[Node]:
        """Sources with a live cached tree for ``graph`` (test hook)."""
        with self._lock:
            meta = self._meta.get(graph)
            if meta is None:
                return set()
            return {
                key[4]
                for key in self._index.get((meta.lineage, meta.epoch), ())
                if key[2] == view
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)

    # -- internals ---------------------------------------------------------

    def _meta_for(self, graph: Any) -> _GraphMeta:
        meta = self._meta.get(graph)
        if meta is None:
            lineage = next(self._lineage_counter)
            meta = _GraphMeta(lineage, 0)
            self._lineage_tip[lineage] = 0
            self._register(graph, meta)
        return meta

    def _register(self, graph: Any, meta: _GraphMeta) -> None:
        self._meta[graph] = meta
        weakref.finalize(graph, self._purge, weakref.ref(self), meta)

    @staticmethod
    def _purge(oracle_ref: "weakref.ref[RouteOracle]", meta: _GraphMeta) -> None:
        oracle = oracle_ref()
        if oracle is None:
            return
        with oracle._lock:
            epoch_key = (meta.lineage, meta.epoch)
            for key in oracle._index.pop(epoch_key, ()):
                oracle._cache.pop(key, None)
            oracle._drop_epoch_extras(epoch_key)

    def _next_epoch(self, lineage: int) -> int:
        tip = self._lineage_tip.get(lineage, 0) + 1
        self._lineage_tip[lineage] = tip
        return tip

    def _propagate(
        self,
        old_meta: _GraphMeta,
        new_meta: _GraphMeta,
        touched_nodes: FrozenSet[Node],
        touched_edges: FrozenSet[Tuple[Node, Node]],
        additive: bool,
    ) -> None:
        old_key = (old_meta.lineage, old_meta.epoch)
        keys = self._index.get(old_key, set())
        for key in sorted(keys, key=repr):
            entry = self._cache.get(key)
            if entry is None:
                continue
            if additive:
                # Additive mutations can create better paths anywhere: no
                # tree survives into the new epoch.  (The old graph keeps
                # its still-valid entries; the new epoch starts cold.)
                self._counters["invalidated"].inc()
                continue
            new_key = (new_meta.lineage, new_meta.epoch) + key[2:]
            if entry.touches(touched_nodes, touched_edges):
                # The tree is stale, but most of its labels usually are
                # not: keep it aside for targeted repair at first lookup.
                self._add_repair(
                    new_key,
                    _PendingRepair(entry.labels, touched_nodes, touched_edges),
                )
                self._counters["dropped"].inc()
                continue
            self._insert(new_key, entry)
            self._counters["carried"].inc()
        # Pending repairs of the old epoch chain forward: their touch sets
        # accumulate so a later repair accounts for every mutation since
        # the tree was computed.
        repair_keys = self._repair_index.get(old_key, set())
        for key in sorted(repair_keys, key=repr):
            pending = self._repairs.get(key)
            if pending is None:
                continue
            if additive:
                self._discard_repair(key)
                continue
            new_key = (new_meta.lineage, new_meta.epoch) + key[2:]
            self._add_repair(new_key, pending.merged(touched_nodes, touched_edges))

    def _insert(self, key: _CacheKey, entry: _Entry) -> None:
        stale = self._cache.pop(key, None)
        if stale is not None:
            self._index.get(key[:2], set()).discard(key)
        self._cache[key] = entry
        self._index.setdefault(key[:2], set()).add(key)
        while len(self._cache) > self.max_entries:
            evicted_key, _ = self._cache.popitem(last=False)
            bucket = self._index.get(evicted_key[:2])
            if bucket is not None:
                bucket.discard(evicted_key)
                if not bucket:
                    del self._index[evicted_key[:2]]
            self._counters["evictions"].inc()

    # -- kernel snapshots --------------------------------------------------

    def _kernel_trees(
        self, csr: _kernel.CSRGraph, sources: Sequence[Node], order: str
    ) -> _kernel.TreeBatch:
        """One kernel batch, its phase-2 work added to ``oracle.kernel_*``."""
        batch = _kernel.batched_trees(csr, sources, order=order)
        if order == SHORTEST_WIDEST:
            with self._lock:
                self._counters["kernel_trees"].inc(len(batch))
                self._counters["kernel_thresholds"].inc(batch.thresholds)
                self._counters["kernel_restarts"].inc(batch.restarts)
        return batch

    def _snapshot_for(
        self,
        graph: Any,
        lineage: int,
        epoch: int,
        view: str,
        neighbors: NeighborFn,
    ) -> Optional[_kernel.CSRGraph]:
        """The CSR snapshot for one ``(lineage, epoch, view)``, or None.

        Built at most once per key (None is remembered for graphs that
        cannot be snapshotted).  The build itself runs outside the lock;
        a concurrent duplicate build is harmless (idempotent result).
        """
        key = (lineage, epoch, view)
        with self._lock:
            if key in self._snapshots:
                self._snapshots.move_to_end(key)
                return self._snapshots[key]
        csr = _kernel.snapshot(graph, neighbors)
        if csr is not None and csr.n < self.kernel_min_nodes:
            csr = None
        with self._lock:
            self._snapshots[key] = csr
            self._snapshots.move_to_end(key)
            while len(self._snapshots) > self._snapshots_max:
                self._snapshots.popitem(last=False)
        return csr

    # -- incremental repair ------------------------------------------------

    @staticmethod
    def _repair_labels(
        tree_fn: Callable[..., Dict[Node, RouteLabel]],
        neighbors: NeighborFn,
        source: Node,
        pending: _PendingRepair,
    ) -> Optional[Dict[Node, RouteLabel]]:
        """Rebuild a tree from its pre-mutation labels, or None to punt.

        Labels whose paths avoid every touched element are exact verbatim
        (a restrictive mutation cannot improve any path, so the stored
        path is still the deterministic optimum).  Affected destinations
        recompute through the tree functions' ``targets`` contract, which
        returns exactly the labels a full run would.  Destinations that
        became unreachable simply drop out, matching the full run.
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
            recomputed = tree_fn(neighbors, source, targets=affected)
            for dest in affected:
                label = recomputed.get(dest)
                if label is not None:
                    repaired[dest] = label
        return repaired

    def _add_repair(self, key: _CacheKey, pending: _PendingRepair) -> None:
        if key in self._repairs:
            self._repairs.pop(key)
            self._repair_index.get(key[:2], set()).discard(key)
        self._repairs[key] = pending
        self._repair_index.setdefault(key[:2], set()).add(key)
        while len(self._repairs) > self.max_entries:
            evicted_key, _ = self._repairs.popitem(last=False)
            bucket = self._repair_index.get(evicted_key[:2])
            if bucket is not None:
                bucket.discard(evicted_key)
                if not bucket:
                    del self._repair_index[evicted_key[:2]]

    def _pop_repair(self, key: _CacheKey) -> Optional[_PendingRepair]:
        pending = self._repairs.pop(key, None)
        if pending is not None:
            bucket = self._repair_index.get(key[:2])
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._repair_index[key[:2]]
        return pending

    def _discard_repair(self, key: _CacheKey) -> None:
        self._pop_repair(key)

    def _drop_epoch_extras(self, epoch_key: Tuple[int, int]) -> None:
        """Drop snapshots and pending repairs of one dead epoch."""
        # Over a copy: a collected graph's ``_purge`` can re-enter here (same
        # thread, re-entrant lock) from an allocation inside this very loop.
        for snap_key in list(self._snapshots):
            if snap_key[:2] == epoch_key:
                self._snapshots.pop(snap_key, None)
        for key in list(self._repair_index.pop(epoch_key, ())):
            self._repairs.pop(key, None)


def _touched(
    removed_instances: Iterable[Node],
    removed_links: Iterable[Tuple[Node, Node]],
    degraded_links: Iterable[Tuple[Node, Node]],
) -> Tuple[FrozenSet[Node], FrozenSet[Tuple[Node, Node]]]:
    nodes = frozenset(removed_instances)
    edges = frozenset(removed_links) | frozenset(degraded_links)
    return nodes, edges
