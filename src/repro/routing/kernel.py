"""Vectorized CSR routing kernel: every Wang-Crowcroft tree in the package.

This is the one implementation of the routing trees: every tree the
:class:`~repro.routing.oracle.RouteOracle` serves -- a miss, a batched
prefetch, the targeted recompute of a repair -- is a :func:`batched_trees`
call.  A textbook per-source implementation pays for its generality on
every relaxation: a frozen ``PathQuality`` dataclass per candidate,
``repr``-based tie comparisons, generator-backed adjacency
(``OverlayGraph.successors`` even re-sorts the neighbour dict on every
visit) and hashing of rich node objects.

This module instead flattens one adjacency view into a **CSR snapshot**
(:class:`CSRGraph`): ``indptr``/``indices``/``bandwidth``/``latency``
numpy arrays plus a stable node-interning table, and runs the exact
two-phase shortest-widest scheme against primitive arrays:

* per-source Dijkstras still use a binary heap, but heap entries are
  plain ``(float, int, int)`` tuples over interned node indices;
* each row's usable edges are laid out **bandwidth-descending**, so the
  threshold-``w`` subgraph of phase 2 is a per-row prefix, walked by
  breaking out of a row as soon as an edge falls below the threshold --
  one shared layout serves every threshold of every source with zero
  per-threshold materialisation;
* phase 2 is **one incremental pass per tree**, not one Dijkstra per
  distinct width: a label found at a wider threshold stays a valid upper
  bound at every narrower one, so stepping down *activates* the newly
  qualifying edges and drains one persistent heap only as far as that
  threshold's members need (:func:`_shortest_widest_csr`;
  ``docs/performance.md`` has the fixpoint argument and the restart rule
  that keeps it exact under float addition);
* a caller that reads a row only at some ``targets`` says so, and the
  tree steps through the *targets'* widths alone (``batched_trees``);
* a caller that reads only the ``(bandwidth, latency)`` of
  shortest-widest pairs -- the serialized-chain control -- asks
  :func:`batched_prices`, the same targeted walk on latencies alone: no
  hop count, path or label, and no restart rule (:func:`_prices_csr` has
  the argument);
* phase 1 of a bandwidth-symmetric snapshot is one Kruskal pass for
  every source at once (:meth:`CSRGraph.pair_widths`);
* when phase 1 ran to the end, the activation walk visits only the edges
  whose tail the source reaches (:meth:`CSRGraph.reached_activation`): an
  unreached tail is never labelled, so the relaxations are the same;
* a caller that reads only the ``(bandwidth, latency)`` of widest-shortest
  pairs -- the overlay build, pricing its underlay -- asks
  :func:`batched_prices` for that order: one Dijkstra on ``(latency,
  -bandwidth)`` over ``(head, latency, bandwidth)`` row tuples, less the
  edges a two-hop detour beats by more than float error
  (:meth:`CSRGraph.edge_rows`), stopped once its targets are settled
  (:func:`_widest_shortest_prices` has the argument).

**Exactness contract.**  :func:`batched_trees` is bit-identical to the
pure per-source reference, the textbook two-phase Dijkstras kept with the
tests (``tests/oracles/wang_crowcroft.py``, which shares nothing with this
module but :class:`~repro.routing.wang_crowcroft.RouteLabel`): same label
values, same deterministic tie-breaks (bandwidth, latency, hops,
lexicographically smallest path under ``repr`` order).  Two facts make
that possible without replicating heap insertion order:

1. the reference's results are *intrinsic* -- every candidate that
   can improve a node's label is offered from a predecessor whose heap
   key is strictly smaller (latency extensions are non-negative and
   bandwidth ties are part of the key), so the final labels depend only
   on the strict tie-break order, never on same-key pop order or on
   neighbour iteration order (which is why the bandwidth-descending
   row layout is sound); and
2. nodes are interned in ``repr``-sorted rank order, so comparing
   interned-index path tuples is equivalent to comparing
   ``[repr(n) for n in path]`` (the snapshot refuses to build when
   ``repr`` is not injective over the node set: the tie-break is then
   undefined, and no graph of the package has such nodes).

Float arithmetic is identical because a path's latency accumulates
left-to-right along the same edges in both implementations.  Each
:func:`batched_prices` pair is the very floats of the reference label's
quality, in either order.

``numpy`` is a declared dependency of the package and is used for the
snapshot's array layout only; the kernel draws no random numbers (a
packaging test keeps ambient numpy RNG use out of the package).

Property-tested label-for-label and price-for-price against the reference in
``tests/routing/test_kernel.py`` and ``tests/fuzz/test_kernel_rows.py``
over seeded Waxman/ER/BA underlays, filled overlays (directed and
undirected), tie-heavy random digraphs and a hand-built case where float
addition is not strictly monotone.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from heapq import heappop, heappush
from itertools import compress
from operator import attrgetter
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as _np

from repro.network.metrics import IDEAL, PathQuality
from repro.network.underlay import Underlay, UnderlayLink
from repro.routing.wang_crowcroft import NeighborFn, Node, RouteLabel

#: Orders the kernel can compute (:mod:`repro.routing.oracle` re-exports them).
SHORTEST_WIDEST = "shortest_widest"
WIDEST_SHORTEST = "widest_shortest"

_INF = math.inf

#: The usable-edge adjacency: ``(indptr, indices, latency, bandwidth)``
#: python lists (lists, not ndarrays: the per-source heap loops index
#: them far faster than boxed numpy scalars).  Within each row, edges
#: are sorted bandwidth-descending so a threshold sweep can ``break``
#: out of the row at the first disqualified edge.
_UsableCSR = Tuple[List[int], List[int], List[float], List[float]]

#: Every usable edge, bandwidth-descending across rows: ``(tails, slots
#: into the _UsableCSR edge arrays, negated bandwidths for bisect)``.
_Activation = Tuple[List[int], List[int], List[float]]


class CSRGraph:
    """A frozen CSR snapshot of one adjacency view of one graph object.

    Nodes are interned in ``repr``-sorted *rank order* (see the module
    docstring); ``index`` maps node -> rank and ``nodes[rank]`` maps
    back.  Edge slot ``j`` of node ``i`` lives at positions
    ``indptr[i] <= j < indptr[i + 1]`` of ``indices``/``bandwidth``/
    ``latency``.  Instances are immutable once built; the oracle keeps
    them per view inside the graph's own state, so a snapshot serves its
    graph alone.  It outlives that graph only as the parent a derived
    graph's snapshot is built from (:meth:`restricted`), until that build.
    """

    __slots__ = (
        "nodes",
        "index",
        "indptr",
        "indices",
        "bandwidth",
        "latency",
        "_usable_view",
        "_edge_rows",
        "_price_rows",
        "_activation",
        "_activation_arrays",
        "_symmetric",
        "_pair_widths",
    )

    def __init__(
        self,
        nodes: Tuple[Node, ...],
        indptr: "Any",
        indices: "Any",
        bandwidth: "Any",
        latency: "Any",
    ) -> None:
        self.nodes = nodes
        self.index: Dict[Node, int] = {node: i for i, node in enumerate(nodes)}
        self.indptr = indptr
        self.indices = indices
        self.bandwidth = bandwidth
        self.latency = latency
        # An edge is usable iff it can carry a path: positive bandwidth
        # and finite latency (PathQuality.reachable).
        usable = (bandwidth > 0.0) & _np.isfinite(latency)
        keep = _np.flatnonzero(usable)
        rows = _np.searchsorted(indptr, keep, side="right") - 1
        # Within each row, lay usable edges out bandwidth-descending:
        # the threshold-``w`` subgraph of every phase-2 sweep is then a
        # per-row prefix, walked with an early ``break`` -- one layout
        # serves every threshold of every source (final labels do not
        # depend on neighbour order; see the module docstring).
        order = keep[_np.lexsort((-bandwidth[keep], rows))]
        counts = _np.bincount(rows, minlength=len(nodes))
        u_indptr = _np.zeros(len(nodes) + 1, dtype=_np.int64)
        _np.cumsum(counts, out=u_indptr[1:])
        self._usable_view: _UsableCSR = (
            u_indptr.tolist(),
            indices[order].tolist(),
            latency[order].tolist(),
            bandwidth[order].tolist(),
        )
        self._edge_rows: Optional[List[List[Tuple[int, float, float]]]] = None
        self._price_rows: Optional[List[List[Tuple[float, int, float]]]] = None
        self._activation: Optional[_Activation] = None
        self._activation_arrays: "Any" = None  # the same order, as ndarrays
        self._symmetric: Optional[bool] = None  # not looked at yet
        self._pair_widths: "Any" = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_adjacency(
        cls,
        nodes: Iterable[Node],
        neighbors: NeighborFn,
    ) -> "CSRGraph":
        """Snapshot ``neighbors`` over the ``nodes`` universe.

        Raises:
            ValueError: when ``repr`` is not injective over ``nodes`` (the
                tie-break equivalence would be unsound) or a neighbour
                falls outside the universe.
        """
        node_list = list(nodes)
        reprs = [repr(node) for node in node_list]
        if len(set(reprs)) != len(node_list):
            raise ValueError("node reprs are not unique; cannot intern")
        ranked = sorted(range(len(node_list)), key=lambda i: reprs[i])
        interned: Tuple[Node, ...] = tuple(node_list[i] for i in ranked)
        index = {node: i for i, node in enumerate(interned)}
        indptr = [0]
        out_indices: List[int] = []
        out_bw: List[float] = []
        out_lat: List[float] = []
        for node in interned:
            for other, link in neighbors(node):
                j = index.get(other)
                if j is None:
                    raise ValueError(
                        f"neighbor {other!r} outside the snapshot universe"
                    )
                out_indices.append(j)
                out_bw.append(link.bandwidth)
                out_lat.append(link.latency)
            indptr.append(len(out_indices))
        return cls(
            interned,
            _np.asarray(indptr, dtype=_np.int64),
            _np.asarray(out_indices, dtype=_np.int64),
            _np.asarray(out_bw, dtype=_np.float64),
            _np.asarray(out_lat, dtype=_np.float64),
        )

    @classmethod
    def from_links(cls, n: int, links: Sequence[UnderlayLink]) -> "CSRGraph":
        """Snapshot the undirected graph over ``0 .. n-1`` whose link table
        is ``links``, in insertion order: array for array what
        :meth:`from_adjacency` builds from an adjacency that lists each
        node's links in that order (an :class:`Underlay`'s ``neighbors``).
        Ranks follow ``repr`` order; a node's row holds the other end of
        each of its links, earliest link first."""
        nodes = tuple(sorted(range(n), key=repr))
        rank = _np.empty(n, dtype=_np.int64)
        rank[list(nodes)] = _np.arange(n)
        u, v, bandwidth, latency = (
            _np.array(list(map(attrgetter(name), links)), dtype=dtype)
            for name, dtype in (
                ("u", _np.int64), ("v", _np.int64),
                ("bandwidth", _np.float64), ("latency", _np.float64),
            )
        )
        # Each link is one entry at either end; a node meets a link once
        # (no self-loops), so (tail rank, link number) orders the entries.
        tails = rank[_np.concatenate((u, v))]
        heads = rank[_np.concatenate((v, u))]
        order = _np.lexsort((_np.tile(_np.arange(len(u)), 2), tails))
        indptr = _np.zeros(n + 1, dtype=_np.int64)
        _np.cumsum(_np.bincount(tails, minlength=n), out=indptr[1:])
        return cls(
            nodes,
            indptr,
            heads[order],
            _np.tile(bandwidth, 2)[order],
            _np.tile(latency, 2)[order],
        )

    def restricted(
        self,
        removed: Iterable[Node],
        links: Dict[Tuple[Node, Node], Optional[Tuple[float, float]]],
    ) -> "CSRGraph":
        """This snapshot less the ``removed`` nodes and every entry at them,
        each of ``links`` re-weighted to its ``(bandwidth, latency)`` or
        dropped (``None``): array for array what :meth:`from_adjacency`
        builds of the graph so restricted.  Surviving nodes keep their rank
        order and rows their entry order, so interning again is a monotone
        re-index."""
        index = self.index
        gone = _np.zeros(len(self.nodes), dtype=bool)
        gone[[index[node] for node in removed if node in index]] = True
        tails = _np.repeat(_np.arange(len(self.nodes)), _np.diff(self.indptr))
        keep = ~(gone[tails] | gone[self.indices])
        bandwidth, latency = self.bandwidth.copy(), self.latency.copy()
        for (a, b), metrics in links.items():
            i, j = index[a], index[b]
            lo, hi = self.indptr[i], self.indptr[i + 1]
            slots = lo + _np.flatnonzero(self.indices[lo:hi] == j)
            if metrics is None:
                keep[slots] = False
            else:
                bandwidth[slots], latency[slots] = metrics
        alive = ~gone
        rank = _np.cumsum(alive) - 1
        indptr = _np.zeros(int(alive.sum()) + 1, dtype=_np.int64)
        _np.cumsum(_np.bincount(tails[keep], minlength=len(self.nodes))[alive], out=indptr[1:])
        return CSRGraph(
            tuple(compress(self.nodes, alive.tolist())),
            indptr,
            rank[self.indices[keep]],
            bandwidth[keep],
            latency[keep],
        )

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return int(self.indptr[-1])

    # -- threshold views ---------------------------------------------------

    def usable_view(self) -> _UsableCSR:
        """The usable-edge adjacency, rows laid out bandwidth-descending.

        Phase 2 at threshold ``w`` walks each row until the first edge
        with ``bandwidth < w`` and breaks -- the qualifying edges of a row
        are always a prefix.
        """
        return self._usable_view

    def edge_rows(self) -> List[List[Tuple[int, float, float]]]:
        """The usable view row by row, less its latency-dominated edges:
        ``rows[u]`` lists ``u``'s edges as ``(head, latency, bandwidth)``
        tuples, one unpack an edge.

        An edge ``u -> v`` is left out when some two-hop walk ``u -> w ->
        v`` is shorter than it by more than ``8 * 2**-53 * (D + l)``, where
        ``l`` is the edge's latency and ``D`` the sum of all usable
        latencies, which bounds every label's.  That margin outweighs the
        rounding of both sums, so from every source the edge offers ``v`` a
        latency strictly above the detour's: it is never tight and never
        ties, and every widest-shortest price is the full graph's
        (``docs/performance.md``, "Reach and dominance").  Only
        widest-shortest prices read these rows.

        Built by the first widest-shortest price pass and paid for by those
        alone -- the mirror image of :meth:`activation_order` (a concurrent
        duplicate build is as harmless as there).
        """
        rows = self._edge_rows
        if rows is None:
            indptr, indices, elat, ebw = self._usable_view
            n = len(self.nodes)
            heads = _np.asarray(indices, dtype=_np.int64)
            lat = _np.asarray(elat, dtype=_np.float64)
            dense = _np.full((n, n), _INF)
            _np.minimum.at(dense, (_np.repeat(_np.arange(n), _np.diff(indptr)), heads), lat)
            detour = _np.full(len(lat), _INF)  # per edge: its best two-hop latency
            for i, j in zip(indptr, indptr[1:]):
                if j - i > 1:
                    hop = heads[i:j]
                    detour[i:j] = (lat[i:j, None] + dense[_np.ix_(hop, hop)]).min(axis=0)
            keep = lat - detour <= 8 * 2.0**-53 * (lat.sum() + lat)
            edges = list(compress(zip(indices, elat, ebw), keep.tolist()))
            ends = _np.concatenate(([0], _np.cumsum(keep)))[indptr].tolist()
            rows = [edges[i:j] for i, j in zip(ends, ends[1:])]
            self._edge_rows = rows
        return rows

    def price_rows(self) -> List[List[Tuple[float, int, float]]]:
        """The usable view row by row as ``(bandwidth, head, latency)``
        tuples, bandwidth-descending: one unpack an edge for the drains of
        :func:`_prices_csr`, which break out of a row at its first edge
        below the threshold.  Built by the first price pass and paid for
        by those alone, like :meth:`edge_rows`."""
        rows = self._price_rows
        if rows is None:
            indptr, indices, elat, ebw = self._usable_view
            rows = [
                list(zip(ebw[i:j], indices[i:j], elat[i:j]))
                for i, j in zip(indptr, indptr[1:])
            ]
            self._price_rows = rows
        return rows

    def activation_order(self) -> _Activation:
        """The usable edges, bandwidth-descending across all rows.

        Built by the first shortest-widest tree or price pass, so a snapshot
        that only serves widest-shortest prices (the underlay's) never pays
        for it; a concurrent duplicate build is harmless (same result, one
        store).
        """
        order = self._activation
        if order is None:
            indptr, _, _, ebw = self._usable_view
            neg_bw = -_np.asarray(ebw, dtype=_np.float64)
            slots = _np.argsort(neg_bw, kind="stable")
            tails = _np.searchsorted(indptr, slots, side="right") - 1
            neg_bw = neg_bw[slots]
            self._activation_arrays = (tails, slots, neg_bw)
            order = (tails.tolist(), slots.tolist(), neg_bw.tolist())
            self._activation = order
        return order

    def reached_activation(self, width: List[float]) -> _Activation:
        """:meth:`activation_order` cut to the edges whose tail has a
        positive phase-1 ``width``, in the same order."""
        self.activation_order()
        tails, slots, neg_bw = self._activation_arrays
        keep = _np.flatnonzero(_np.asarray(width)[tails] > 0.0)
        return tails[keep].tolist(), slots[keep].tolist(), neg_bw[keep].tolist()

    def pair_widths(self) -> "Any":
        """Phase 1 for every source at once -- an ``n x n`` array whose row
        ``s`` equals ``_widest_widths(csr, s)`` -- or None when the usable
        edges are not bandwidth-symmetric.

        On a symmetric snapshot a pair's bottleneck width is the minimum
        edge on its maximum-spanning-forest path: one Kruskal pass down
        :meth:`activation_order` writes ``W[A x B] = W[B x A] = b`` at the
        edge that merges components ``A`` and ``B`` -- a value *copied* from
        an edge, so bit-identical to the heap's.  Symmetry is observed,
        never declared; in-degree against out-degree rejects a directed
        overlay in O(E) before anything is sorted.  Built by the first
        shortest-widest tree, like the activation order.  (An incremental
        closure that needs no symmetry was tried as the *one* phase 1 and
        lost on the directed overlay, 60-79 ms against 4-22 ms of heap
        sweeps -- in a layered DAG every edge extends reachability -- hence
        a second phase 1, not a replacement.)
        """
        if self._symmetric is None:
            indptr, indices, _, ebw = self._usable_view
            n = len(self.nodes)
            heads = _np.asarray(indices, dtype=_np.int64)
            degrees = _np.diff(_np.asarray(indptr, dtype=_np.int64))
            symmetric = bool((_np.bincount(heads, minlength=n) == degrees).all())
            if symmetric:  # the edge multiset equals its own reversal
                tails = _np.repeat(_np.arange(n), degrees)
                bw = _np.asarray(ebw, dtype=_np.float64)
                out = _np.lexsort((bw, heads, tails))
                back = _np.lexsort((bw, tails, heads))
                symmetric = bool(
                    (tails[out] == heads[back]).all()
                    and (heads[out] == tails[back]).all()
                    and (bw[out] == bw[back]).all()
                )
            if symmetric:
                self._pair_widths = self._kruskal_widths()
            self._symmetric = symmetric  # last: set means the array is too
        return self._pair_widths

    def _kruskal_widths(self) -> "Any":
        _, indices, _, ebw = self._usable_view
        tails, slots, _ = self.activation_order()
        n = len(self.nodes)
        pairs = _np.zeros((n, n))
        _np.fill_diagonal(pairs, _INF)
        component = list(range(n))
        members: List[List[int]] = [[v] for v in range(n)]
        for u, j in zip(tails, slots):
            a, b = component[u], component[indices[j]]
            if a == b:
                continue
            if len(members[a]) < len(members[b]):
                a, b = b, a
            big, small = members[a], members[b]
            pairs[_np.ix_(big, small)] = pairs[_np.ix_(small, big)] = ebw[j]
            for v in small:
                component[v] = a
            big.extend(small)
        return pairs


def snapshot(graph: "Any", neighbors: Optional[NeighborFn] = None) -> CSRGraph:
    """The CSR snapshot of ``graph``'s adjacency (``neighbors``, else its
    ``successors`` or ``neighbors`` method).

    The node universe comes from the graph's ``routing_nodes()`` export
    hook (see :meth:`repro.network.overlay.OverlayGraph.routing_nodes`).
    An :class:`Underlay`'s ``neighbors`` view is read off its link table
    (:meth:`CSRGraph.from_links`), equal to the walk of the adjacency.

    Raises:
        TypeError: when the graph exports no universe.
        ValueError: from :meth:`CSRGraph.from_adjacency` -- node reprs that
            are not unique, or a neighbour outside the universe.
    """
    export = getattr(graph, "routing_nodes", None)
    if export is None:
        raise TypeError(f"{type(graph).__name__} has no routing_nodes() to snapshot")
    if neighbors is None:
        neighbors = getattr(graph, "successors", None) or graph.neighbors
    if isinstance(graph, Underlay) and neighbors == graph.neighbors:
        return CSRGraph.from_links(graph.n, graph.links())
    return CSRGraph.from_adjacency(export(), neighbors)


# -- batched tree computation -------------------------------------------------


class TreeBatch(List[Dict[Node, RouteLabel]]):
    """What :func:`batched_trees` returns: one label dict per source, and
    the phase-2 work of its shortest-widest trees as plain ints -- distinct
    widths stepped through, and how many of those steps had to restart."""

    thresholds = 0
    restarts = 0


class _Scratch:
    """Per-batch work arrays, reused across every tree of a batch.

    Validity is generation-stamped (``mark[v] == gen`` -> the slot holds
    this generation's label) so a new tree costs one integer bump instead
    of reallocating the n-sized lists.  ``sgen`` stamps the *queued*
    nodes.  A label carries its path as a tuple of interned indices in
    ``paths`` and the edge slot it came in by in ``via``.  One instance
    per :func:`batched_trees` call -- never shared across threads.
    """

    __slots__ = ("lat", "hops", "paths", "via", "mark", "sgen", "gen", "batch")

    def __init__(self, n: int, batch: TreeBatch) -> None:
        self.lat: List[float] = [_INF] * n
        self.hops: List[int] = [0] * n
        self.paths: List[Tuple[int, ...]] = [()] * n
        self.via: List[int] = [-1] * n
        self.mark: List[int] = [0] * n  # label-validity stamp
        self.sgen: List[int] = [0] * n  # queued stamp
        self.gen = 0
        self.batch = batch

    def seed(self, src: int) -> int:
        """A new generation in which only ``src`` is labelled and queued."""
        self.lat[src] = 0.0
        self.hops[src] = 0
        self.paths[src] = (src,)
        self.via[src] = -1
        self.gen += 1
        self.mark[src] = self.sgen[src] = self.gen
        return self.gen


def batched_trees(
    csr: CSRGraph,
    sources: Sequence[Node],
    *,
    order: str = SHORTEST_WIDEST,
    targets: Optional[Iterable[Node]] = None,
) -> TreeBatch:
    """Shortest-widest routing trees for many sources against one CSR
    snapshot.

    Returns one label dict per source (same order as ``sources``),
    bit-identical to the per-source reference.  Sources missing from the
    snapshot raise ``KeyError`` (the oracle gives such a source its lone
    row without asking).  ``order`` admits :data:`SHORTEST_WIDEST` alone
    (anything else raises ``ValueError``): a widest-shortest caller reads
    prices, not routes (:func:`batched_prices`).

    With ``targets`` a row holds its source plus the reachable targets,
    every label equal to the full tree's; a target the snapshot does not
    know is simply absent.  The tree then does only the work its targets
    need (:func:`_shortest_widest_csr`).  What was tried here, measured and
    dropped -- row tuples in the shortest-widest loops, ``RouteLabel`` as a
    ``NamedTuple`` -- is recorded in ``docs/performance.md``.
    """
    if order != SHORTEST_WIDEST:
        raise ValueError(f"unknown tree order {order!r}")
    index = csr.index
    wanted: Optional[List[int]] = None
    if targets is not None:
        wanted = sorted({index[t] for t in targets if t in index})
    out = TreeBatch()
    scratch = _Scratch(csr.n, out)
    for source in sources:
        out.append(_shortest_widest_csr(csr, index[source], scratch, wanted))
    return out


def _shortest_widest_csr(
    csr: CSRGraph, src: int, scratch: _Scratch, wanted: Optional[List[int]]
) -> Dict[Node, RouteLabel]:
    """The two-phase Wang-Crowcroft scheme on interned arrays.

    Phase 1 finds every node's width ``w``; phase 2 owes it the
    min-latency label over the edges ``>= w``.  One label-correcting pass
    walks the widths downward and *carries* the labels (a path found at a
    wider threshold still exists at every narrower one).  Stepping down
    *activates* the newly qualifying edges -- each relaxed once from its
    tail's current label -- then drains the heap while its top latency is
    ``<=`` the largest among this threshold's members; a popped node
    relaxes its row prefix ``>= w``, entries above the bound stay queued.

    That reaches Dijkstra's labels at or below the bound provided every
    label equals ``extend`` of its parent's *current* label, which float
    addition can break: ``a < b`` yet ``a + l == b + l``, so a parent
    improves while its child, re-derived, compares worse (same latency,
    more hops).  ``via`` records the edge slot each label came in by; when
    that slot yields a strictly worse candidate the threshold **restarts**
    from the source alone -- a plain per-width Dijkstra, in which a popped
    node never changes, so at most once.  Ties break on latency, hops,
    then smallest interned path.  (``docs/performance.md`` has the
    argument.)

    With ``wanted`` (interned targets, ascending) only a target is a
    *member*: the walk steps through the targets' distinct widths, stops
    after the narrowest and labels nobody else.  Nothing above needs the
    steps to be consecutive -- activation merges the skipped ones, the
    bound is over this step's target members -- so labels are unchanged.

    Labels here keep their **path tuples**, not parent slots.  This pass
    is label-correcting: a labelled node can improve in *path only* (same
    latency and hops, smaller path) after its children were derived from
    it, and such children are never re-queued -- a chain of parents would
    silently change under them, a tuple cannot.
    """
    pairs = csr.pair_widths()
    if pairs is not None:
        width: List[float] = pairs[src].tolist()
    else:
        width = _widest_widths(csr, src, wanted)
    tails, slots, neg_bw = csr.activation_order()
    if (pairs is not None or wanted is None) and 0.0 in width:
        # Phase 1 ran to the end, so a tail it never reached is never
        # labelled.  (One stopped at the targets can miss a tail the last
        # step's own activation labels: that walk stays whole.)
        tails, slots, neg_bw = csr.reached_activation(width)
    if wanted is not None:
        # A non-target's width is nobody's step (and may be tentative).
        asked = [0.0] * csr.n
        for v in wanted:
            asked[v] = width[v]
        width = asked
    nodes = csr.nodes
    labels: Dict[Node, RouteLabel] = {
        nodes[src]: RouteLabel(IDEAL, 0, (nodes[src],))
    }
    by_width: Dict[float, List[int]] = {}
    for v, w in enumerate(width):
        if v != src and w > 0.0:
            by_width.setdefault(w, []).append(v)
    indptr, indices, elat, ebw = csr.usable_view()
    lat, hops, paths, via = scratch.lat, scratch.hops, scratch.paths, scratch.via
    mark, queued = scratch.mark, scratch.sgen
    scratch.batch.thresholds += len(by_width)
    g = scratch.seed(src)
    heap: List[Tuple[float, int, int]] = [(0.0, 0, src)]
    pos = 0
    for w in sorted(by_width, reverse=True):
        members = by_width[w]
        end = bisect_right(neg_bw, -w, pos)
        for u, j in zip(tails[pos:end], slots[pos:end]):
            if mark[u] != g:
                continue
            v = indices[j]
            clat = lat[u] + elat[j]
            chops = hops[u] + 1
            if mark[v] != g:
                mark[v] = g
            elif clat > lat[v] or (
                clat == lat[v] and (chops, paths[u] + (v,)) >= (hops[v], paths[v])
            ):
                continue
            lat[v] = clat
            hops[v] = chops
            paths[v] = paths[u] + (v,)
            via[v] = j
            queued[v] = g
            heappush(heap, (clat, chops, v))
        pos = end
        # Members still unlabelled keep the bound open; once the last one
        # is reached it is the largest member latency (labels only fall).
        unlabelled = sum(1 for v in members if mark[v] != g)
        bound = _INF
        while heap and heap[0][0] <= bound:
            if bound == _INF and not unlabelled:
                bound = max(lat[v] for v in members)
                continue
            ulat, uhops, u = heappop(heap)
            if queued[u] != g or ulat != lat[u] or uhops != hops[u]:
                continue  # stale entry
            queued[u] = 0
            upath = paths[u]
            chops = uhops + 1
            for j in range(indptr[u], indptr[u + 1]):
                if ebw[j] < w:
                    break  # rows are bandwidth-descending
                v = indices[j]
                clat = ulat + elat[j]
                if mark[v] != g:
                    mark[v] = g
                    if width[v] == w:
                        unlabelled -= 1
                elif clat > lat[v] or (
                    clat == lat[v] and (chops, upath + (v,)) >= (hops[v], paths[v])
                ):
                    # No better -- but over the edge v's label came in by
                    # it has to be that very label, or the label is stale.
                    if via[v] != j or (clat, chops, upath + (v,)) == (
                        lat[v], hops[v], paths[v]
                    ):
                        continue
                    scratch.batch.restarts += 1
                    g = scratch.seed(src)
                    heap[:] = [(0.0, 0, src)]
                    unlabelled = len(members)
                    bound = _INF
                    break
                lat[v] = clat
                hops[v] = chops
                paths[v] = upath + (v,)
                via[v] = j
                queued[v] = g
                heappush(heap, (clat, chops, v))
        for v in members:
            if mark[v] != g:
                raise RuntimeError(
                    f"kernel invariant broken: phase 1 reached {nodes[v]!r} "
                    f"at width {w!r} but phase 2 left it unlabelled"
                )
            labels[nodes[v]] = RouteLabel(
                PathQuality(w, lat[v]),
                hops[v],
                tuple(nodes[i] for i in paths[v]),
            )
    return labels


def _widest_widths(
    csr: CSRGraph, src: int, wanted: Optional[List[int]] = None
) -> List[float]:
    """Phase 1: max-bottleneck bandwidth from ``src`` to every node.

    With ``wanted`` the sweep stops once those are settled; a node merely
    reached by then holds a tentative underestimate, not a width.
    """
    indptr, indices, _, ebw = csr.usable_view()
    width = [0.0] * csr.n
    width[src] = _INF
    remaining: Optional[Set[int]] = None
    if wanted is not None:
        remaining = set(wanted)
        remaining.discard(src)
        if not remaining:
            return width
    settled = bytearray(csr.n)
    heap: List[Tuple[float, int]] = [(-_INF, src)]
    while heap:
        neg_w, u = heappop(heap)
        if settled[u] or -neg_w < width[u]:
            continue
        settled[u] = 1
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        wu = width[u]
        for j in range(indptr[u], indptr[u + 1]):
            v = indices[j]
            if settled[v]:
                continue
            b = ebw[j]
            candidate = wu if wu < b else b
            if candidate > width[v]:
                width[v] = candidate
                heappush(heap, (-candidate, v))
    return width


# -- prices without routes -----------------------------------------------------


def batched_prices(
    csr: CSRGraph,
    sources: Sequence[Node],
    targets: Iterable[Node],
    *,
    order: str = SHORTEST_WIDEST,
) -> List[Dict[Node, Tuple[float, float]]]:
    """The *prices* of many sources at some targets, in ``order``.

    Returns, per source (same order as ``sources``), ``{target:
    (bandwidth, latency)}`` for every target the source reaches -- the
    source itself at ``(inf, 0.0)`` when it is a target -- each pair the
    very floats of the quality of the reference tree's label in that
    order.  No hop count, path or :class:`RouteLabel` is built.  Sources
    missing from the snapshot raise ``KeyError``; a target the snapshot
    does not know is simply absent.  A shortest-widest pass is
    :func:`_prices_csr`, a widest-shortest one
    :func:`_widest_shortest_prices`; any other order raises
    ``ValueError``.
    """
    if order == SHORTEST_WIDEST:
        walk = _prices_csr
    elif order == WIDEST_SHORTEST:
        walk = _widest_shortest_prices
    else:
        raise ValueError(f"unknown price order {order!r}")
    index = csr.index
    wanted = sorted({index[t] for t in targets if t in index})
    return [walk(csr, index[source], wanted) for source in sources]


def _prices_csr(
    csr: CSRGraph, src: int, wanted: List[int]
) -> Dict[Node, Tuple[float, float]]:
    """The targeted walk of :func:`_shortest_widest_csr` on latencies alone.

    Phase 1 is the same: the Kruskal matrix of a symmetric snapshot (and
    then only reached tails are activated), else the heap stopped at the
    targets.  Phase 2 steps down the targets' distinct widths, activates
    the newly qualifying edges from every labelled tail, and drains one
    persistent heap up to the largest latency among the step's targets; a
    popped node relaxes the prefix ``>= w`` of its
    :meth:`CSRGraph.price_rows` row.

    It needs no restart rule.  A target's price latency is the minimum,
    over the paths of the threshold subgraph, of the left-to-right float
    sum -- which is the latency of the tree's label, whatever path its
    tie-breaks then pick.  Float addition with rounding is monotone and
    never falls (``a <= b`` gives ``a + l <= b + l``, and ``a <= a + l``),
    so that minimum obeys the Bellman equations and a label-correcting
    walk reaches it.  A label that is a latency alone never compares worse
    when it is re-derived from an improved parent: the parent fell, so the
    candidate did not rise.  What breaks the tree pass -- ``a < b`` yet
    ``a + l == b + l``, the child tying at one hop more -- is a tie here,
    not a worsening, so no carried label is ever stale.  Each drain then
    ends with every node whose minimum is at most the bound labelled with
    it: the first wrong label on a shortest path would sit behind a right
    one that is either still queued below the bound or already relaxed
    into it.  ``inf`` marks an unlabelled node; each push is a strict
    improvement, so an entry whose key is the node's latency is its only
    live one.
    """
    pairs = csr.pair_widths()
    if pairs is not None:
        width: List[float] = pairs[src].tolist()
        if 0.0 in width:
            tails, slots, neg_bw = csr.reached_activation(width)
        else:
            tails, slots, neg_bw = csr.activation_order()
    else:
        width = _widest_widths(csr, src, wanted)
        tails, slots, neg_bw = csr.activation_order()
    nodes = csr.nodes
    prices: Dict[Node, Tuple[float, float]] = {}
    step = [0.0] * csr.n  # a target's width; nobody else's is a step
    by_width: Dict[float, List[int]] = {}
    for v in wanted:
        if v == src:
            prices[nodes[v]] = (_INF, 0.0)
        elif width[v] > 0.0:
            step[v] = width[v]
            by_width.setdefault(width[v], []).append(v)
    _, indices, elat, _ = csr.usable_view()
    rows = csr.price_rows()
    lat = [_INF] * csr.n
    lat[src] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, src)]
    pos = 0
    for w in sorted(by_width, reverse=True):
        members = by_width[w]
        end = bisect_right(neg_bw, -w, pos)
        for u, j in zip(tails[pos:end], slots[pos:end]):
            clat = lat[u] + elat[j]
            v = indices[j]
            if clat < lat[v]:
                lat[v] = clat
                heappush(heap, (clat, v))
        pos = end
        unlabelled = sum(1 for v in members if lat[v] == _INF)
        bound = _INF
        while heap and heap[0][0] <= bound:
            if bound == _INF and not unlabelled:
                bound = max(lat[v] for v in members)
                continue
            ulat, u = heappop(heap)
            if ulat != lat[u]:
                continue  # stale entry
            for b, v, l in rows[u]:
                if b < w:
                    break  # rows are bandwidth-descending
                clat = ulat + l
                if clat < lat[v]:
                    if lat[v] == _INF and step[v] == w:
                        unlabelled -= 1
                    lat[v] = clat
                    heappush(heap, (clat, v))
        for v in members:
            if lat[v] == _INF:
                raise RuntimeError(
                    f"kernel invariant broken: phase 1 reached {nodes[v]!r} "
                    f"at width {w!r} but phase 2 left it unpriced"
                )
            prices[nodes[v]] = (w, lat[v])
    return prices


def _widest_shortest_prices(
    csr: CSRGraph, src: int, wanted: List[int]
) -> Dict[Node, Tuple[float, float]]:
    """One Dijkstra on ``(latency, -bandwidth)`` over
    :meth:`CSRGraph.edge_rows`, stopped once every target is settled.

    The reference's widest-shortest tree sorts on ``(latency, -bandwidth,
    hops, path)``; this pass keeps the first two keys and drops the rest,
    and still settles every node at its label's quality.  An extension
    never ranks a label above its origin's (``a <= a + l`` in floats, and
    ``min`` never widens), so both passes settle in non-decreasing key
    order, and each ends with every node at the best ``(latency,
    -bandwidth)`` offer over its in-edges: a node settled earlier made its
    offer, one settled later ranks no better than the node.  Two such
    solutions are one.  Where they differ, take the best differing value,
    say ``x[v]`` better than ``y[v]``, where ``x``'s label of ``v`` extends
    a chain of settled parents back to the source.  Every node on that
    chain has ``x`` no worse than ``x[v]``, so ``y`` there equals ``x`` or
    ranks worse; at the first node where it ranks worse, the parent agrees
    and offers ``x``'s value, so ``y`` is not the best offer.  The order
    is *not* isotone in floats (``a < b`` yet ``a + l == b + l``, and the
    wider of two tied extensions comes from the worse origin), which is
    why the argument runs along settled parents, not along paths: the
    price is the tree label's quality, not the best path's.
    """
    rows = csr.edge_rows()
    lat = [_INF] * csr.n
    bw = [0.0] * csr.n
    settled = bytearray(csr.n)
    lat[src] = 0.0
    bw[src] = _INF
    remaining = set(wanted)
    heap: List[Tuple[float, float, int]] = [(0.0, -_INF, src)]
    while heap and remaining:
        ulat, _, u = heappop(heap)
        if settled[u]:
            continue  # the first entry popped is the node's final label
        settled[u] = 1
        remaining.discard(u)
        ubw = bw[u]
        for v, l, b in rows[u]:
            clat = ulat + l
            vlat = lat[v]
            if clat > vlat:
                continue
            cbw = ubw if ubw < b else b
            if clat == vlat and cbw <= bw[v]:
                continue
            lat[v] = clat
            bw[v] = cbw
            heappush(heap, (clat, -cbw, v))
    nodes = csr.nodes
    return {nodes[v]: (bw[v], lat[v]) for v in wanted if settled[v]}
