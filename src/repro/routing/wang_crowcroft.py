"""Shortest-widest route labels (Wang & Crowcroft, IEEE JSAC 1996).

The paper adopts the Wang-Crowcroft algorithm as its path quality oracle:
among all paths between two nodes, pick the one with the highest bottleneck
**bandwidth**; among equally wide paths, pick the lowest **latency**.  The
dual rule (*widest-shortest*: latency first, bandwidth as tie-break) models
plain IP routing on the underlay.  Exact ties on both are broken by fewer
hops, then by the smallest path under ``repr`` order, so repeated runs and
the distributed re-computations inside sFlow always agree.

This module holds what every routing caller shares: the node and adjacency
types and :class:`RouteLabel`.  The trees themselves are built by one
implementation, :mod:`repro.routing.kernel`, reached through
:class:`~repro.routing.oracle.RouteOracle`; the pure per-source reference
it is held to lives with the tests (``tests/oracles/wang_crowcroft.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.network.metrics import LinkMetrics, PathQuality

Node = Hashable
#: Adjacency view: ``neighbors(u)`` yields ``(v, link_metrics)`` pairs.
NeighborFn = Callable[[Node], Iterable[Tuple[Node, LinkMetrics]]]


@dataclass(frozen=True, init=False)
class RouteLabel:
    """Routing-table entry produced by the tree computations.

    Attributes:
        quality: best quality of a path from the source under the
            tree's order (shortest-widest; the test reference also builds
            widest-shortest trees, whose qualities the kernel's
            widest-shortest prices equal).
        hops: number of edges on the selected path (-1 when unreachable).
        path: the full node path source..node (empty when unreachable).

    Slotted like :class:`PathQuality`; a slot cannot hold a class-level
    default, so ``path``'s is the hand-written ``__init__``'s.
    """

    __slots__ = ("quality", "hops", "path")

    quality: PathQuality
    hops: int
    path: Tuple[Node, ...]

    def __init__(self, quality: PathQuality, hops: int, path: Tuple[Node, ...] = ()) -> None:
        object.__setattr__(self, "quality", quality)
        object.__setattr__(self, "hops", hops)
        object.__setattr__(self, "path", path)

    def __getstate__(self) -> Tuple[PathQuality, int, Tuple[Node, ...]]:
        return (self.quality, self.hops, self.path)

    def __setstate__(self, state: Tuple[PathQuality, int, Tuple[Node, ...]]) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    @property
    def predecessor(self) -> Optional[Node]:
        """Previous node on the path (None at the source / unreachable)."""
        return self.path[-2] if len(self.path) >= 2 else None

    @property
    def reachable(self) -> bool:
        return self.quality.reachable or self.hops == 0


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
