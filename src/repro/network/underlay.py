"""The underlying (physical) network substrate.

The paper's overlay graphs sit on top of a "typical underlying network"
(Fig. 4) whose links carry ``(bandwidth, latency)`` weights; overlay service
links inherit the quality of the underlying path that realises them.  The
paper does not specify how its underlays were generated, so we provide the
standard topology models of the 1996-2004 overlay literature -- Waxman
(default), Erdos-Renyi, Barabasi-Albert, ring and grid -- all seeded and
reproducible.  See DESIGN.md, "Substitutions".

An :class:`Underlay` is an undirected multigraph-free weighted graph over
integer node identifiers (NIDs).  It knows how to

* generate itself from an :class:`UnderlayConfig`,
* answer neighbourhood queries for routing,
* compute shortest-widest paths between hosts (through the route oracle
  of :mod:`repro.routing`), the quality an overlay edge can inherit.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.network.metrics import LinkMetrics, PathQuality, UNREACHABLE

NodeId = int

#: Waxman model shape parameters.
WAXMAN_ALPHA = 0.4
WAXMAN_BETA = 0.4
#: Barabasi-Albert attachment count.
BA_ATTACHMENTS = 2


@dataclass(frozen=True)
class UnderlayLink:
    """An undirected physical link between two hosts.

    ``bandwidth`` is the link capacity, ``latency`` the one-way propagation
    delay.  Links are symmetric: the same quality applies in both directions,
    matching the paper's undirected underlay illustration.
    """

    u: NodeId
    v: NodeId
    bandwidth: float
    latency: float

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError(f"self-loop link at node {self.u}")
        if self.bandwidth <= 0:
            raise ValueError(f"link bandwidth must be > 0, got {self.bandwidth}")
        if self.latency < 0:
            raise ValueError(f"link latency must be >= 0, got {self.latency}")

    @functools.cached_property
    def metrics(self) -> LinkMetrics:
        """The link's quality as a :class:`PathQuality` value, made once."""
        return PathQuality(self.bandwidth, self.latency)

    def endpoints(self) -> Tuple[NodeId, NodeId]:
        return (self.u, self.v)


@dataclass
class UnderlayConfig:
    """Parameters for random underlay generation.

    Attributes:
        n: number of hosts.
        model: one of ``"waxman"``, ``"erdos_renyi"``, ``"barabasi_albert"``,
            ``"ring"``, ``"grid"``.
        bandwidth_range: inclusive ``(low, high)`` for uniform link capacities.
        latency_range: inclusive ``(low, high)`` for uniform link delays.
        seed: RNG seed; every generation with the same config is identical.
        ensure_connected: if True (default) a random spanning tree is added
            first so the generated underlay is always connected.
    """

    n: int
    model: str = "waxman"
    bandwidth_range: Tuple[float, float] = (10.0, 100.0)
    latency_range: Tuple[float, float] = (1.0, 10.0)
    seed: int = 0
    ensure_connected: bool = True

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"an underlay needs at least 2 hosts, got n={self.n}")
        known = {"waxman", "erdos_renyi", "barabasi_albert", "ring", "grid"}
        if self.model not in known:
            raise ValueError(f"unknown underlay model {self.model!r}; choose from {sorted(known)}")
        lo, hi = self.bandwidth_range
        if not (0 < lo <= hi):
            raise ValueError(f"invalid bandwidth_range {self.bandwidth_range}")
        lo, hi = self.latency_range
        if not (0 <= lo <= hi):
            raise ValueError(f"invalid latency_range {self.latency_range}")


class Underlay:
    """An undirected weighted physical network over NIDs ``0..n-1``."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("underlay must have at least one node")
        self._n = n
        self._adj: Dict[NodeId, Dict[NodeId, UnderlayLink]] = {i: {} for i in range(n)}
        self._links: List[UnderlayLink] = []

    # -- construction ------------------------------------------------------

    def add_link(self, u: NodeId, v: NodeId, bandwidth: float, latency: float) -> UnderlayLink:
        """Add an undirected link.  Re-adding an existing pair is an error."""
        self._check_node(u)
        self._check_node(v)
        link = UnderlayLink(u, v, bandwidth, latency)
        if v in self._adj[u]:
            raise ValueError(f"link ({u}, {v}) already exists")
        self._adj[u][v] = link
        self._adj[v][u] = link
        self._links.append(link)
        return link

    @classmethod
    def generate(cls, config: UnderlayConfig) -> "Underlay":
        """Generate a random underlay per ``config`` (deterministic in seed)."""
        rng = random.Random(config.seed)
        net = cls(config.n)
        edges = _topology_edges(config, rng)
        if config.ensure_connected:
            edges = _with_spanning_tree(config.n, edges, rng)
        for u, v in sorted(edges):
            bw = rng.uniform(*config.bandwidth_range)
            lat = rng.uniform(*config.latency_range)
            net.add_link(u, v, bw, lat)
        return net

    # -- queries -----------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of hosts."""
        return self._n

    def nodes(self) -> Iterator[NodeId]:
        return iter(range(self._n))

    def routing_nodes(self) -> Tuple[NodeId, ...]:
        """Snapshot-export hook: the node universe of the routing views.

        The routing kernel (:mod:`repro.routing.kernel`) flattens the
        ``neighbors`` adjacency over exactly this universe when building
        a CSR snapshot for batched tree computation.
        """
        return tuple(range(self._n))

    def links(self) -> Sequence[UnderlayLink]:
        return tuple(self._links)

    def degree(self, node: NodeId) -> int:
        self._check_node(node)
        return len(self._adj[node])

    def neighbors(self, node: NodeId) -> Iterator[Tuple[NodeId, LinkMetrics]]:
        """Yield ``(neighbor, metrics)`` pairs, the routing adjacency view."""
        self._check_node(node)
        for other, link in self._adj[node].items():
            yield other, link.metrics

    def link(self, u: NodeId, v: NodeId) -> Optional[UnderlayLink]:
        """The link between ``u`` and ``v``, or None."""
        self._check_node(u)
        self._check_node(v)
        return self._adj[u].get(v)

    def has_link(self, u: NodeId, v: NodeId) -> bool:
        return self.link(u, v) is not None

    def is_connected(self) -> bool:
        """Whether every host can reach every other host."""
        if self._n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self._n

    # -- routing -----------------------------------------------------------

    def shortest_widest_path(self, src: NodeId, dst: NodeId) -> Tuple[PathQuality, List[NodeId]]:
        """Shortest-widest path from ``src`` to ``dst`` (Wang-Crowcroft).

        Returns ``(quality, node_path)``.  If ``dst`` is unreachable the
        quality is :data:`~repro.network.metrics.UNREACHABLE` and the path is
        empty.  The row comes from the process-wide route oracle.
        """
        # Imported lazily: repro.routing also imports this package.
        from repro.routing.oracle import RouteOracle
        from repro.routing.wang_crowcroft import extract_path

        self._check_node(src)
        self._check_node(dst)
        labels = RouteOracle.default().tree(
            self, src, view="neighbors", neighbors=self.neighbors,
            targets=frozenset((dst,)),
        )
        if dst not in labels:
            return UNREACHABLE, []
        return labels[dst].quality, extract_path(labels, src, dst)

    def path_quality(self, path: Sequence[NodeId]) -> PathQuality:
        """Quality of an explicit host path; UNREACHABLE on a broken path."""
        if len(path) < 1:
            return UNREACHABLE
        quality = PathQuality(math.inf, 0.0)
        for u, v in zip(path, path[1:]):
            link = self.link(u, v)
            if link is None:
                return UNREACHABLE
            quality = quality.extend(link.metrics)
        return quality

    # -- helpers -----------------------------------------------------------

    def _check_node(self, node: NodeId) -> None:
        if not (0 <= node < self._n):
            raise KeyError(f"node {node} not in underlay of size {self._n}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Underlay(n={self._n}, links={len(self._links)})"


# -- topology generators ----------------------------------------------------


def _topology_edges(config: UnderlayConfig, rng: random.Random) -> set:
    """Raw edge set for the requested model (may be disconnected)."""
    if config.model == "waxman":
        return _waxman_edges(config.n, rng)
    if config.model == "erdos_renyi":
        # Edge probability 2 ln n / n: comfortably above the connectivity
        # threshold.
        p = min(1.0, 2.0 * math.log(max(config.n, 2)) / config.n)
        return {
            (u, v)
            for u, v in itertools.combinations(range(config.n), 2)
            if rng.random() < p
        }
    if config.model == "barabasi_albert":
        return _barabasi_albert_edges(config.n, rng)
    if config.model == "ring":
        return {(i, (i + 1) % config.n) if i + 1 < config.n else (0, i) for i in range(config.n)}
    if config.model == "grid":
        return _grid_edges(config.n)
    raise AssertionError(f"unreachable: model {config.model}")


def _waxman_edges(n: int, rng: random.Random) -> set:
    """Waxman (1988) random graph: P(u,v) = beta * exp(-d(u,v) / (alpha * L))."""
    positions = [(rng.random(), rng.random()) for _ in range(n)]
    scale = WAXMAN_ALPHA * math.sqrt(2.0)  # sqrt(2) = max distance in the unit square
    edges = set()
    for u, v in itertools.combinations(range(n), 2):
        dx = positions[u][0] - positions[v][0]
        dy = positions[u][1] - positions[v][1]
        dist = math.hypot(dx, dy)
        if rng.random() < WAXMAN_BETA * math.exp(-dist / scale):
            edges.add((u, v))
    return edges


def _barabasi_albert_edges(n: int, rng: random.Random) -> set:
    """Preferential attachment: each new node attaches to ``m`` earlier nodes."""
    m = max(1, min(BA_ATTACHMENTS, n - 1))
    edges = set()
    # Seed clique over the first m+1 nodes.
    targets: List[NodeId] = []
    for u, v in itertools.combinations(range(m + 1), 2):
        edges.add((u, v))
        targets.extend((u, v))
    for new in range(m + 1, n):
        chosen: set = set()
        while len(chosen) < m:
            chosen.add(rng.choice(targets))
        for t in chosen:
            edges.add((min(new, t), max(new, t)))
            targets.extend((new, t))
    return edges


def _grid_edges(n: int) -> set:
    """Edges of the squarest grid containing ``n`` nodes (row-major NIDs)."""
    cols = max(1, int(math.ceil(math.sqrt(n))))
    edges = set()
    for i in range(n):
        r, c = divmod(i, cols)
        if c + 1 < cols and i + 1 < n:
            edges.add((i, i + 1))
        below = (r + 1) * cols + c
        if below < n:
            edges.add((i, below))
    return edges


def _with_spanning_tree(n: int, edges: set, rng: random.Random) -> set:
    """Union the edges with a uniformly random spanning tree (connectivity)."""
    order = list(range(n))
    rng.shuffle(order)
    tree = set()
    for i in range(1, n):
        parent = order[rng.randrange(i)]
        child = order[i]
        tree.add((min(parent, child), max(parent, child)))
    normalized = {(min(u, v), max(u, v)) for u, v in edges}
    return normalized | tree
