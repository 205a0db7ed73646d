"""Path-quality algebra for shortest-widest routing.

The paper evaluates every link, path, and service flow graph with two resource
metrics: **bandwidth** (the bottleneck capacity, to be maximised) and
**latency** (the accumulated delay, to be minimised).  Quality comparison
follows the *shortest-widest* rule of Wang & Crowcroft [WC96]: bandwidth takes
precedence, latency breaks ties.

This module provides:

* :class:`PathQuality` -- an immutable ``(bandwidth, latency)`` value with a
  total order in which *greater is better* under the shortest-widest rule.
* :data:`UNREACHABLE` / :data:`IDEAL` -- the bottom and top elements of that
  order, used as initial labels in Dijkstra-style relaxations.
* :func:`combine_series` -- quality of a concatenation of path segments
  (``min`` of bandwidths, sum of latencies).

The algebra is deliberately tiny and heavily property-tested
(``tests/network/test_metrics.py``): the correctness of every routing and
federation algorithm in this repository reduces to these few operations.

[WC96] Z. Wang and J. Crowcroft, "Quality-of-Service Routing for Supporting
Multimedia Applications", IEEE JSAC 14(7), 1996.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import total_ordering
from typing import Iterable, Tuple


@total_ordering
@dataclass(frozen=True)
class PathQuality:
    """Quality of a network path: bottleneck bandwidth and end-to-end latency.

    Instances are immutable and hashable, so they can be used as Dijkstra
    labels, dictionary keys, and members of frozensets of routing table
    entries.

    Ordering (``>`` means *better*):

    * higher ``bandwidth`` wins;
    * equal ``bandwidth`` -> lower ``latency`` wins.

    Bandwidth is in abstract capacity units (the paper never fixes a unit);
    latency is in abstract time units.  Both must be non-negative;
    ``bandwidth`` may be ``math.inf`` (ideal label) and ``latency`` may be
    ``math.inf`` (unreachable label).

    Slotted, so an instance carries no ``__dict__`` (fewer objects for the
    cyclic collector to track); the state methods let a frozen instance
    pickle across processes.
    """

    __slots__ = ("bandwidth", "latency")

    bandwidth: float
    latency: float

    def __getstate__(self) -> Tuple[float, float]:
        return (self.bandwidth, self.latency)

    def __setstate__(self, state: Tuple[float, float]) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    def __post_init__(self) -> None:
        if self.bandwidth < 0:
            raise ValueError(f"bandwidth must be >= 0, got {self.bandwidth}")
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")
        if math.isnan(self.bandwidth) or math.isnan(self.latency):
            raise ValueError("bandwidth/latency must not be NaN")

    # -- ordering ---------------------------------------------------------

    def _key(self) -> Tuple[float, float]:
        """Sort key under which *larger* means *better*."""
        return (self.bandwidth, -self.latency)

    def __lt__(self, other: "PathQuality") -> bool:
        if not isinstance(other, PathQuality):
            return NotImplemented
        return self._key() < other._key()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathQuality):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def is_better_than(self, other: "PathQuality") -> bool:
        """``True`` iff ``self`` is strictly preferred by shortest-widest."""
        return self > other

    # -- algebra ----------------------------------------------------------

    def extend(self, link: "PathQuality") -> "PathQuality":
        """Quality of this path extended by one more ``link`` in series."""
        return PathQuality(
            bandwidth=min(self.bandwidth, link.bandwidth),
            latency=self.latency + link.latency,
        )

    @property
    def reachable(self) -> bool:
        """Whether the path actually carries traffic.

        A path is unusable when its bottleneck bandwidth is zero or its
        latency is infinite (no route).
        """
        return self.bandwidth > 0 and math.isfinite(self.latency)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PathQuality(bw={self.bandwidth:g}, lat={self.latency:g})"


#: Alias used where a value describes a single link rather than a whole path.
LinkMetrics = PathQuality

#: Bottom element: no path at all.  Worse than every real path.
UNREACHABLE = PathQuality(bandwidth=0.0, latency=math.inf)

#: Top element: the label of a path's own source.  Better than every real path.
IDEAL = PathQuality(bandwidth=math.inf, latency=0.0)


def combine_series(segments: Iterable[PathQuality]) -> PathQuality:
    """Quality of several path segments traversed one after another.

    Bandwidth is the bottleneck (minimum), latency accumulates.  An empty
    iterable yields :data:`IDEAL` (the identity of series composition), which
    mirrors the zero-hop path from a node to itself.
    """
    result = IDEAL
    for segment in segments:
        result = result.extend(segment)
    return result


def shortest_widest_key(quality: PathQuality) -> Tuple[float, float]:
    """Sort key: ``max(candidates, key=shortest_widest_key)`` picks the best.

    Exposed for call sites that sort plain tuples of ``(quality, payload)``
    pairs, e.g. the abstract-graph edge selection in
    :mod:`repro.services.abstract_graph`.
    """
    return quality._key()
