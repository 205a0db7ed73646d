"""Fat-tree underlay builder and the routing-kernel layer probe.

A ``k``-ary fat-tree (``(k/2)^2`` core switches, ``k`` pods of ``k/2``
aggregation and ``k/2`` edge switches, ``density`` hosts per edge switch)
has three distinct link bandwidths and many equal-cost paths: the best
case for the kernel's per-distinct-bandwidth phase-2 sweep and the worst
for tie-breaking, which the random Waxman graphs (one bandwidth per link)
cannot show.  It is a benchmark topology only; the traced run reports the
kernel's tree rate on it next to a Waxman underlay of equal node count.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Tuple

from repro.network.underlay import Underlay, UnderlayConfig
from repro.routing import kernel

#: ``(bandwidth, latency)`` per layer: core-aggregation, aggregation-edge,
#: edge-host.
LAYER_LINKS: Tuple[Tuple[float, float], ...] = ((100.0, 1.0), (40.0, 1.0), (10.0, 1.0))


def fat_tree_underlay(k: int, density: int) -> Tuple[Underlay, List[int]]:
    """The ``k``-ary fat-tree as an :class:`Underlay`, plus its host NIDs.

    NIDs run core switches first, then per pod its aggregation and edge
    switches, then the hosts.
    """
    if k < 2 or k % 2:
        raise ValueError(f"k must be an even number >= 2, got {k}")
    if density < 1:
        raise ValueError(f"density must be >= 1, got {density}")
    half = k // 2
    n_core = half * half
    n_switches = n_core + 2 * k * half
    underlay = Underlay(n_switches + k * half * density)
    hosts: List[int] = []
    next_host = n_switches
    for pod in range(k):
        first_agg = n_core + pod * k
        first_edge = first_agg + half
        for a in range(half):
            for c in range(half):
                underlay.add_link(a * half + c, first_agg + a, *LAYER_LINKS[0])
            for e in range(half):
                underlay.add_link(first_agg + a, first_edge + e, *LAYER_LINKS[1])
        for e in range(half):
            for _ in range(density):
                underlay.add_link(first_edge + e, next_host, *LAYER_LINKS[2])
                hosts.append(next_host)
                next_host += 1
    return underlay, hosts


def _trees_per_second(underlay: Underlay, sources: List[int]) -> float:
    csr = kernel.snapshot(underlay, underlay.neighbors)
    if csr is None:
        raise RuntimeError("the routing kernel could not snapshot the underlay")
    best = float("inf")
    for _ in range(3):
        started = perf_counter()
        kernel.batched_trees(csr, sources, order=kernel.SHORTEST_WIDEST)
        best = min(best, perf_counter() - started)
    return len(sources) / best


def kernel_probe(k: int = 8, density: int = 2) -> Dict[str, float]:
    """Shortest-widest trees per second from every fat-tree host, and from
    as many sources on a Waxman underlay with the same number of nodes."""
    tree, hosts = fat_tree_underlay(k, density)
    waxman = Underlay.generate(UnderlayConfig(n=tree.n, seed=k))
    fat, wax = f"routing.kernel.fattree-k{k}", "routing.kernel.waxman"
    return {
        f"{fat}.trees_per_s": _trees_per_second(tree, hosts),
        f"{fat}.distinct_bandwidths": float(len({l.bandwidth for l in tree.links()})),
        f"{wax}.trees_per_s": _trees_per_second(waxman, list(range(len(hosts)))),
        f"{wax}.distinct_bandwidths": float(len({l.bandwidth for l in waxman.links()})),
    }
