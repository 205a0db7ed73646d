"""Shortest-widest path routing (Wang & Crowcroft, IEEE JSAC 1996).

The paper adopts the Wang-Crowcroft algorithm as its path quality oracle:
among all paths between two nodes, pick the one with the highest bottleneck
**bandwidth**; among equally wide paths, pick the lowest **latency**.

A subtlety this module gets right (and property-tests against brute force,
see ``tests/routing/test_wang_crowcroft.py``): shortest-widest is *not*
computable with a single-label Dijkstra.  Because bandwidth saturates under
``min``, a narrower-but-faster label at an intermediate node -- dominated
under the lexicographic order -- can still yield the best extension once a
downstream link becomes the bottleneck anyway.  Wang & Crowcroft therefore
use the classic **two-phase** scheme, which we implement per source:

1. *widest phase* -- a max-bottleneck Dijkstra computes the best achievable
   bandwidth ``B[v]`` to every node;
2. *shortest phase* -- for each distinct bandwidth value ``w``, a
   minimum-latency Dijkstra runs on the subgraph of links with bandwidth
   ``>= w``; nodes with ``B[v] == w`` take their final label (latency and
   path) from that tree.

Both phases are ordinary Dijkstras, so the per-source cost is
``O(k * E log V)`` with ``k`` distinct bandwidth values -- within the
``O(N^3)`` bound the paper quotes.  The dual rule (*widest-shortest*:
latency first, bandwidth as tie-break) IS single-label safe, because
latency accumulates strictly; :func:`widest_shortest_tree` exploits that.

Determinism: exact ties on ``(bandwidth, latency)`` are broken by fewer
hops, then by the smallest predecessor (string order), so repeated runs and
the distributed re-computations inside sFlow always agree.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.network.metrics import IDEAL, UNREACHABLE, LinkMetrics, PathQuality

Node = Hashable
#: Adjacency view: ``neighbors(u)`` yields ``(v, link_metrics)`` pairs.
NeighborFn = Callable[[Node], Iterable[Tuple[Node, LinkMetrics]]]


@dataclass(frozen=True)
class RouteLabel:
    """Routing-table entry produced by the tree computations.

    Attributes:
        quality: best quality of a path from the source under the
            algorithm's order (shortest-widest or widest-shortest).
        hops: number of edges on the selected path (-1 when unreachable).
        path: the full node path source..node (empty when unreachable).
    """

    quality: PathQuality
    hops: int
    path: Tuple[Node, ...] = ()

    @property
    def predecessor(self) -> Optional[Node]:
        """Previous node on the path (None at the source / unreachable)."""
        return self.path[-2] if len(self.path) >= 2 else None

    @property
    def reachable(self) -> bool:
        return self.quality.reachable or self.hops == 0


_UNREACHED = RouteLabel(UNREACHABLE, -1, ())


def widest_bandwidths(
    neighbors: NeighborFn,
    source: Node,
    *,
    targets: Optional[Iterable[Node]] = None,
) -> Dict[Node, float]:
    """Phase 1: maximum bottleneck bandwidth from ``source`` to every node.

    A max-bottleneck Dijkstra; exact because ``min`` is isotone under the
    single bandwidth order.  The source maps to ``inf``.

    With ``targets`` the search stops as soon as every requested target has
    been settled, instead of exhausting the graph.  Only **settled**
    entries are returned then -- every value present is exactly what the
    exhaustive computation would produce.  (Earlier revisions leaked
    tentative values for nodes the truncated search had merely reached;
    callers reading a non-target key got a plausible-looking underestimate.)
    """
    remaining: Optional[set] = None
    if targets is not None:
        remaining = set(targets)
        remaining.discard(source)
    width: Dict[Node, float] = {source: math.inf}
    settled: set = set()
    counter = itertools.count()
    heap: List[Tuple[float, int, Node]] = [(-math.inf, next(counter), source)]
    while heap:
        neg_w, _, u = heapq.heappop(heap)
        if u in settled or -neg_w < width.get(u, 0.0):
            continue
        settled.add(u)
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for v, link in neighbors(u):
            if v in settled or not link.reachable:
                continue
            candidate = min(width[u], link.bandwidth)
            if candidate > width.get(v, 0.0):
                width[v] = candidate
                heapq.heappush(heap, (-candidate, next(counter), v))
    if remaining is not None:
        # Early-terminated: drop tentative (reached-but-unsettled) values.
        return {node: w for node, w in width.items() if node in settled}
    return width


def _min_latency_dijkstra(
    neighbors: NeighborFn,
    source: Node,
    min_bandwidth: float,
    *,
    targets: Optional[Iterable[Node]] = None,
) -> Dict[Node, Tuple[float, int, Tuple[Node, ...]]]:
    """Phase 2 helper: min-latency Dijkstra over links of bandwidth >= w.

    Returns ``node -> (latency, hops, path)``.  Ties on latency are broken
    by hop count, then by smallest path (lexicographic on node reprs), so
    the result is deterministic.  With ``targets`` the search stops once
    every requested target is settled and only settled entries are
    returned (each exactly what the exhaustive run would produce; see
    :func:`widest_bandwidths`).
    """
    remaining: Optional[set] = None
    if targets is not None:
        remaining = set(targets)
        remaining.discard(source)
    best: Dict[Node, Tuple[float, int, Tuple[Node, ...]]] = {
        source: (0.0, 0, (source,))
    }
    settled: set = set()
    counter = itertools.count()
    heap: List[Tuple[float, int, int, Node]] = [(0.0, 0, next(counter), source)]
    while heap:
        lat, hops, _, u = heapq.heappop(heap)
        if u in settled:
            continue
        current = best.get(u)
        if current is None or (lat, hops) != (current[0], current[1]):
            continue  # stale entry
        settled.add(u)
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        _, _, path = current
        for v, link in neighbors(u):
            if v in settled or not link.reachable:
                continue
            if link.bandwidth < min_bandwidth:
                continue
            cand = (lat + link.latency, hops + 1, path + (v,))
            incumbent = best.get(v)
            if incumbent is None or _lat_better(cand, incumbent):
                best[v] = cand
                heapq.heappush(heap, (cand[0], cand[1], next(counter), v))
    if remaining is not None:
        # Early-terminated: drop tentative (reached-but-unsettled) entries.
        return {node: entry for node, entry in best.items() if node in settled}
    return best


def _lat_better(
    cand: Tuple[float, int, Tuple[Node, ...]],
    inc: Tuple[float, int, Tuple[Node, ...]],
) -> bool:
    if cand[0] != inc[0]:
        return cand[0] < inc[0]
    if cand[1] != inc[1]:
        return cand[1] < inc[1]
    return [repr(n) for n in cand[2]] < [repr(n) for n in inc[2]]


def shortest_widest_tree(
    neighbors: NeighborFn,
    source: Node,
    *,
    nodes: Optional[Iterable[Node]] = None,
    targets: Optional[Iterable[Node]] = None,
) -> Dict[Node, RouteLabel]:
    """Single-source shortest-widest labels for every reachable node.

    Args:
        neighbors: adjacency view; must be consistent across calls.
        source: the root of the routing tree.
        nodes: optional universe of nodes.  When given, unreachable nodes
            appear in the result with an :data:`UNREACHABLE` label; otherwise
            the result contains only reachable nodes.
        targets: optional target set.  When given, both Dijkstra phases
            stop as soon as every requested target is finalised instead of
            exhausting the graph, and the result is restricted to the
            source plus the reachable targets.  Labels present are exactly
            those the full computation would produce.

    Returns:
        Mapping from node to its :class:`RouteLabel`.  ``result[source]`` has
        :data:`IDEAL` quality, zero hops, and the trivial one-node path.
    """
    target_set: Optional[set] = None
    if targets is not None:
        target_set = set(targets)
    width = widest_bandwidths(neighbors, source, targets=target_set)
    labels: Dict[Node, RouteLabel] = {source: RouteLabel(IDEAL, 0, (source,))}
    by_width: Dict[float, List[Node]] = {}
    for node, w in width.items():
        if target_set is not None and node not in target_set:
            continue
        if node != source and w > 0:
            by_width.setdefault(w, []).append(node)
    for w, members in sorted(by_width.items(), reverse=True):
        tree = _min_latency_dijkstra(
            neighbors, source, w, targets=members if target_set is not None else None
        )
        for node in members:
            entry = tree.get(node)
            if entry is None:
                continue  # defensive: phase 1 said reachable at this width
            lat, hops, path = entry
            labels[node] = RouteLabel(PathQuality(w, lat), hops, path)
    if nodes is not None:
        for node in nodes:
            labels.setdefault(node, _UNREACHED)
    return labels


def widest_shortest_tree(
    neighbors: NeighborFn,
    source: Node,
    *,
    nodes: Optional[Iterable[Node]] = None,
    targets: Optional[Iterable[Node]] = None,
) -> Dict[Node, RouteLabel]:
    """Single-source *widest-shortest* labels: minimise latency first, then
    maximise bandwidth among minimum-latency paths.

    This is the dual rule of [WC96] and models plain IP routing (OSPF-style
    lowest-delay forwarding): the underlay delivers packets along shortest
    paths regardless of capacity, which is how
    :meth:`repro.network.overlay.OverlayGraph.build` derives service-link
    weights by default.  A single-label Dijkstra is exact here: latency
    accumulates strictly, so a higher-latency label can never produce a
    better extension, and bandwidth only breaks exact latency ties (where
    the wider label dominates outright).

    With ``targets`` the search stops once every requested target is
    settled and the result is restricted to the source plus the reachable
    targets; labels present are exactly those the full computation would
    produce (the oracle's incremental repair recomputes only affected
    destinations through this contract).
    """
    remaining: Optional[set] = None
    target_set: Optional[set] = None
    if targets is not None:
        target_set = set(targets)
        remaining = set(target_set)
        remaining.discard(source)
    best: Dict[Node, RouteLabel] = {source: RouteLabel(IDEAL, 0, (source,))}
    settled: set = set()
    counter = itertools.count()
    heap: List[Tuple[Tuple[float, float], int, int, Node]] = [
        ((0.0, -math.inf), 0, next(counter), source)
    ]

    def sort_key(quality: PathQuality) -> Tuple[float, float]:
        return (quality.latency, -quality.bandwidth)

    def better(cand: RouteLabel, inc: RouteLabel) -> bool:
        if sort_key(cand.quality) != sort_key(inc.quality):
            return sort_key(cand.quality) < sort_key(inc.quality)
        if cand.hops != inc.hops:
            return cand.hops < inc.hops
        return [repr(n) for n in cand.path] < [repr(n) for n in inc.path]

    while heap:
        key, hops, _, u = heapq.heappop(heap)
        label = best.get(u)
        if label is None or u in settled:
            continue
        if key != sort_key(label.quality) or hops != label.hops:
            continue  # stale
        settled.add(u)
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for v, link in neighbors(u):
            if v in settled or not link.reachable:
                continue
            candidate = RouteLabel(
                label.quality.extend(link), hops + 1, label.path + (v,)
            )
            if not candidate.quality.reachable:
                continue
            incumbent = best.get(v)
            if incumbent is None or better(candidate, incumbent):
                best[v] = candidate
                heapq.heappush(
                    heap,
                    (sort_key(candidate.quality), candidate.hops, next(counter), v),
                )
    if target_set is not None:
        # Early-terminated: keep only settled source/target entries (every
        # label present is exact -- see widest_bandwidths).
        best = {
            node: label
            for node, label in best.items()
            if node in settled and (node == source or node in target_set)
        }
    if nodes is not None:
        for node in nodes:
            best.setdefault(node, _UNREACHED)
    return best


def shortest_widest_path(
    neighbors: NeighborFn,
    source: Node,
    target: Node,
) -> Tuple[PathQuality, List[Node]]:
    """Best path from ``source`` to ``target``.

    Returns ``(quality, path)`` where ``path`` lists nodes source..target
    inclusive.  An unreachable target yields ``(UNREACHABLE, [])``.  The
    zero-hop path from a node to itself has :data:`IDEAL` quality.
    """
    labels = shortest_widest_tree(neighbors, source)
    if target not in labels:
        return UNREACHABLE, []
    return labels[target].quality, extract_path(labels, source, target)


def extract_path(
    labels: Dict[Node, RouteLabel], source: Node, target: Node
) -> List[Node]:
    """The stored path to ``target``; empty list if unreachable."""
    label = labels.get(target)
    if label is None or not label.reachable:
        return []
    if label.path and label.path[0] != source:
        raise ValueError(
            f"labels were computed from {label.path[0]!r}, not {source!r}"
        )
    return list(label.path)


def all_pairs_shortest_widest(
    neighbors: NeighborFn,
    nodes: Iterable[Node],
) -> Dict[Node, Dict[Node, RouteLabel]]:
    """All-pairs shortest-widest labels (step 1 of the baseline algorithm).

    Runs one :func:`shortest_widest_tree` per node; with ``N`` nodes and the
    paper's ``O(N^3)`` bound for a single-source computation this is the
    ``O(N^4)`` step quoted in Sec. 3.3.
    """
    node_list = list(nodes)
    return {
        src: shortest_widest_tree(neighbors, src, nodes=node_list)
        for src in node_list
    }


def widest_path_bandwidth(neighbors: NeighborFn, source: Node, target: Node) -> float:
    """Maximum bottleneck bandwidth from ``source`` to ``target``.

    Convenience accessor used by the branch-and-bound optimal search to
    compute admissible bandwidth bounds.  The max-bottleneck Dijkstra
    early-exits as soon as ``target`` is popped from the frontier (its
    label is final then), instead of computing exact bandwidths to every
    node and discarding all but one.
    """
    return widest_bandwidths(neighbors, source, targets=(target,)).get(target, 0.0)
