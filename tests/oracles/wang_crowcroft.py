"""Pure Wang-Crowcroft trees: the reference the routing kernel is held to.

Shortest-widest is *not* computable with a single-label Dijkstra (bandwidth
saturates under ``min``), so these functions run the classic two-phase
scheme per source: a max-bottleneck Dijkstra finds every node's width
``B[v]``, then for each distinct width ``w`` a minimum-latency Dijkstra on
the links ``>= w`` labels the nodes with ``B[v] == w``.  The dual rule
(widest-shortest) is single-label safe.  Ties break on hops, then the
smallest path under ``repr`` order.

The package computes trees with :mod:`repro.routing.kernel` alone; this
module shares nothing with it but the label type, and
``tests/routing/test_wang_crowcroft.py`` checks it against brute-force path
enumeration and pins that independence.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, Iterable, List, Optional, Tuple

from repro.network.metrics import IDEAL, UNREACHABLE, PathQuality
from repro.routing.wang_crowcroft import NeighborFn, Node, RouteLabel

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
    """Single-source shortest-widest labels for every reachable node; the
    source's is :data:`IDEAL`, zero hops, the one-node path.

    With ``nodes`` every unreachable node of that universe gets an
    :data:`UNREACHABLE` label.  With ``targets`` both phases stop once every
    target is settled and the result is the source plus the reachable
    targets, each label exactly the full computation's.
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
    maximise bandwidth among minimum-latency paths -- plain IP routing, how
    :meth:`repro.network.overlay.OverlayGraph.build` weighs service links
    by default.  One label a node is exact: latency accumulates strictly,
    and bandwidth only breaks exact latency ties.  ``nodes`` and
    ``targets`` as in :func:`shortest_widest_tree`.
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
