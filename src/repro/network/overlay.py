"""The service overlay graph.

Nodes of the overlay are *service instances*: a service identifier (SID,
"what it does") bound to a network node identifier (NID, "where it runs").
Fig. 4 of the paper labels them ``SID/NID``.  A directed *service link*
connects two instances when their services are **compatible** (the upstream
service's output feeds the downstream service's input) and the underlay
offers a path between their hosts; the link is weighted with the
widest-shortest quality of that underlay path -- the minimum latency, the
widest bandwidth among the paths that reach it -- as plain IP routing
forwards it.

:class:`OverlayGraph` supports

* incremental construction (``add_instance`` / ``add_link``),
* derivation from an :class:`~repro.network.underlay.Underlay` plus a
  placement and a compatibility predicate (:meth:`OverlayGraph.build`),
* routing adjacency views (``successors`` for the Wang-Crowcroft module),
* the **k-hop ego view** that models a service node's local knowledge --
  the paper assumes every node knows the overlay within a two-hop vicinity
  (Sec. 4, Fig. 9).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from repro.network.metrics import LinkMetrics, PathQuality, UNREACHABLE
from repro.network.underlay import Underlay

Sid = str
Nid = int
_T = TypeVar("_T")


class ServiceInstance(NamedTuple):
    """A concrete instance of a service: the ``SID/NID`` pair of the paper.

    Instances of the same service share a SID and are distinguished by the
    NID of the host they run on.  The tuple ordering (sid, then nid) gives
    algorithms a deterministic iteration order, and hashing, comparing and
    sorting run at C speed under every set, dict and sort of the routing
    and planning layers.  Being a tuple, an instance equals (and hashes
    like) the bare ``(sid, nid)`` pair and unpacks as one; it is immutable
    (assignment raises ``AttributeError``) and not a dataclass.
    """

    sid: Sid
    nid: Nid

    def __str__(self) -> str:
        return f"{self.sid}/{self.nid}"


@dataclass(frozen=True)
class ServiceLink:
    """A directed overlay edge between two compatible service instances.

    ``metrics`` is the widest-shortest quality of the underlay path
    realising the link (:meth:`OverlayGraph.build`), or whatever a caller
    gave :meth:`OverlayGraph.add_link`.
    """

    src: ServiceInstance
    dst: ServiceInstance
    metrics: LinkMetrics

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-loop service link at {self.src}")


class Restriction(NamedTuple):
    """What was taken away from one overlay to make another
    (:meth:`OverlayGraph.restriction_of`); the fields are the touch sets of
    :meth:`repro.routing.oracle.RouteOracle.derive`, by name."""

    removed_instances: FrozenSet[ServiceInstance]
    removed_links: FrozenSet[Tuple[ServiceInstance, ServiceInstance]]
    degraded_links: FrozenSet[Tuple[ServiceInstance, ServiceInstance]]


def _mean_quality(links: Iterable[LinkMetrics]) -> Optional[PathQuality]:
    """Mean bandwidth and latency of the usable links (``None`` if none):
    those with a positive, finite bandwidth and a finite latency."""
    bandwidths: List[float] = []
    latencies: List[float] = []
    for metrics in links:
        bandwidth, latency = metrics.bandwidth, metrics.latency
        if 0 < bandwidth < math.inf and latency < math.inf:
            bandwidths.append(bandwidth)
            latencies.append(latency)
    if not bandwidths:
        return None
    return PathQuality(
        sum(bandwidths) / len(bandwidths), sum(latencies) / len(latencies)
    )


def _memoised(query: Callable[["OverlayGraph"], _T]) -> Callable[["OverlayGraph"], _T]:
    """A no-argument topology query computed once per overlay state."""

    @functools.wraps(query)
    def cached(self: "OverlayGraph") -> _T:
        if query.__name__ not in self._memo:
            self._memo[query.__name__] = query(self)
        return self._memo[query.__name__]

    return cached


class OverlayGraph:
    """A directed weighted graph over :class:`ServiceInstance` nodes."""

    def __init__(self) -> None:
        self._out: Dict[ServiceInstance, Dict[ServiceInstance, ServiceLink]] = {}
        self._in: Dict[ServiceInstance, Dict[ServiceInstance, ServiceLink]] = {}
        self._by_sid: Dict[Sid, List[ServiceInstance]] = {}
        #: What planners derive from the topology alone (ego views by root
        #: and by reached node set, priced hop rows, the link summaries):
        #: computed once, shared read-only, dropped by ``add_instance`` /
        #: ``add_link`` and nothing else.
        self._memo: Dict[Hashable, Any] = {}

    # -- construction ------------------------------------------------------

    def add_instance(self, instance: ServiceInstance) -> ServiceInstance:
        """Register a service instance; idempotent."""
        if instance not in self._out:
            self._out[instance] = {}
            self._in[instance] = {}
            bisect.insort(self._by_sid.setdefault(instance.sid, []), instance)
            self._memo.clear()
        return instance

    def add_link(
        self,
        src: ServiceInstance,
        dst: ServiceInstance,
        metrics: LinkMetrics,
    ) -> ServiceLink:
        """Add a directed service link (endpoints are auto-registered)."""
        self.add_instance(src)
        self.add_instance(dst)
        if dst in self._out[src]:
            raise ValueError(f"service link {src} -> {dst} already exists")
        link = ServiceLink(src, dst, metrics)
        self._out[src][dst] = link
        self._in[dst][src] = link
        self._memo.clear()
        return link

    @classmethod
    def build(
        cls,
        underlay: Underlay,
        placement: Iterable[ServiceInstance],
        compatible: Callable[[Sid, Sid], bool],
    ) -> "OverlayGraph":
        """Derive the overlay from an underlay, a placement and compatibility.

        For every ordered pair of placed instances ``(a, b)`` with
        ``compatible(a.sid, b.sid)`` and a usable underlay path between their
        hosts, a service link is added with the widest-shortest quality of
        that path: minimum latency, widest as tie-break -- the plain-IP
        model, where the overlay has no say in the physical route.  A link
        carries that ``(bandwidth, latency)`` pair alone; all
        federation-level optimisation happens on top, at the overlay and
        abstract level.  Instances co-located on one host are connected
        with an ideal zero-latency local link when compatible.

        Args:
            underlay: the physical network.
            placement: the service instances to install (hosts must exist).
            compatible: directed predicate -- ``compatible(up, down)`` is True
                when service ``up``'s output feeds service ``down``'s input.
        """
        overlay = cls()
        instances = sorted(set(placement))
        for inst in instances:
            if not (0 <= inst.nid < underlay.n):
                raise KeyError(f"instance {inst} placed on unknown host {inst.nid}")
            overlay.add_instance(inst)
        # Per-host prices come from the process-wide oracle keyed on the
        # underlay, so rebuilding an overlay (churn join, experiment
        # re-runs) over an unchanged underlay reuses the rows.
        from repro.routing.oracle import WIDEST_SHORTEST, RouteOracle

        # The predicate speaks of services, so it is asked once per ordered
        # sid pair -- when the first instance pair of that kind comes up, so
        # never about a pair no two distinct instances make.
        pools = sorted(overlay._by_sid.items())
        feeds: Dict[Tuple[Sid, Sid], bool] = {}
        for a in instances:
            for sid, pool in pools:
                if pool != [a] and (a.sid, sid) not in feeds:
                    feeds[a.sid, sid] = compatible(a.sid, sid)
        # Only a link reads an underlay price, and only at its fed end: one
        # price pass on one CSR snapshot of the underlay prices each host
        # that feeds somebody at the fed hosts (a sink-only host prices
        # nothing).
        fed = {sid for (_, sid), yes in feeds.items() if yes}
        targets = frozenset(b.nid for sid in fed for b in overlay._by_sid[sid])
        feeding = [a for a in instances if any(feeds.get((a.sid, sid)) for sid in fed)]
        rows = RouteOracle.default().prices(
            underlay, [a.nid for a in feeding], targets=targets,
            order=WIDEST_SHORTEST, view="neighbors", neighbors=underlay.neighbors,
        )
        for a, row in zip(feeding, rows):
            for sid, pool in pools:
                if pool == [a] or not feeds[a.sid, sid]:
                    continue
                for b in pool:
                    if a == b:
                        continue
                    if a.nid == b.nid:
                        overlay.add_link(a, b, PathQuality(float("inf"), 0.0))
                        continue
                    price = row.get(b.nid)
                    if price is not None:  # every priced path is usable
                        overlay.add_link(a, b, PathQuality(*price))
        return overlay

    # -- queries -----------------------------------------------------------

    def instances(self) -> Iterator[ServiceInstance]:
        """All instances in deterministic (sid, nid) order."""
        return iter(sorted(self._out))

    def routing_nodes(self) -> Tuple[ServiceInstance, ...]:
        """Snapshot-export hook: the node universe of the routing views.

        The routing kernel (:mod:`repro.routing.kernel`) flattens the
        ``successors`` adjacency over exactly this universe when building
        a CSR snapshot for batched tree computation.
        """
        return tuple(sorted(self._out))

    def __contains__(self, instance: ServiceInstance) -> bool:
        return instance in self._out

    def __len__(self) -> int:
        return len(self._out)

    def num_links(self) -> int:
        return sum(len(nbrs) for nbrs in self._out.values())

    def sids(self) -> Iterator[Sid]:
        return iter(sorted(self._by_sid))

    def instances_of(self, sid: Sid) -> Tuple[ServiceInstance, ...]:
        """All instances of a service (possibly empty), sorted."""
        return tuple(self._by_sid.get(sid, ()))

    def link(self, src: ServiceInstance, dst: ServiceInstance) -> Optional[ServiceLink]:
        if src not in self._out:
            return None
        return self._out[src].get(dst)

    def link_quality(self, src: ServiceInstance, dst: ServiceInstance) -> PathQuality:
        """Quality of the direct link, or UNREACHABLE when absent."""
        found = self.link(src, dst)
        return found.metrics if found is not None else UNREACHABLE

    def successors(
        self, instance: ServiceInstance
    ) -> Iterator[Tuple[ServiceInstance, LinkMetrics]]:
        """Outgoing adjacency -- plugs directly into the routing module."""
        if instance not in self._out:
            return iter(())
        return iter(
            (dst, link.metrics) for dst, link in sorted(self._out[instance].items())
        )

    def predecessors(
        self, instance: ServiceInstance
    ) -> Iterator[Tuple[ServiceInstance, LinkMetrics]]:
        if instance not in self._in:
            return iter(())
        return iter(
            (src, link.metrics) for src, link in sorted(self._in[instance].items())
        )

    def out_links(self, instance: ServiceInstance) -> Tuple[ServiceLink, ...]:
        if instance not in self._out:
            return ()
        return tuple(link for _, link in sorted(self._out[instance].items()))

    # -- local knowledge ----------------------------------------------------

    def ego_view(
        self,
        root: ServiceInstance,
        hops: int,
        *,
        direction: str = "both",
    ) -> "OverlayGraph":
        """The sub-overlay a node knows: everything within ``hops`` overlay hops.

        Args:
            root: the observing instance.
            hops: radius of the vicinity (the paper uses 2).
            direction: ``"out"`` follows service links downstream only,
                ``"in"`` upstream only, ``"both"`` (default) ignores
                direction when measuring distance -- matching "the portion of
                the overall overlay graph within a two-hop vicinity".

        Returns the :class:`OverlayGraph` of the reached instances and *all*
        links of this overlay among them.  Views are **read-only and
        shared**: roots that reach the same node set get the same object
        (so its routing trees are computed once), and a vicinity covering
        the whole overlay is this overlay itself.  The reach is memoised
        per ``(root, hops, direction)``, so a repeat call walks nothing.
        """
        key = (root, hops, direction)
        if key in self._memo:
            # ``None`` marks the whole overlay: memoising ``self`` would make
            # every overlay a reference cycle, freed only by a full GC.
            nodes = self._memo[key]
            return self if nodes is None else self._memo[nodes]
        if root not in self._out:
            raise KeyError(f"unknown instance {root}")
        if hops < 0:
            raise ValueError("hops must be >= 0")
        sides = {"out": [self._out], "in": [self._in], "both": [self._out, self._in]}
        if direction not in sides:
            raise ValueError(f"bad direction {direction!r}")
        reached: Set[ServiceInstance] = {root}
        frontier = [root]
        for _ in range(hops):
            nxt: List[ServiceInstance] = []
            for node in frontier:
                if len(reached) == len(self._out):
                    break  # everything already: the rest of the sweep adds nothing
                for side in sides[direction]:
                    for other in side[node]:
                        if other not in reached:
                            reached.add(other)
                            nxt.append(other)
            frontier = nxt
        if len(reached) == len(self._out):
            self._memo[key] = None
            return self
        nodes = self._memo[key] = frozenset(reached)
        if nodes not in self._memo:
            self._memo[nodes] = self.subgraph(nodes)
        return self._memo[nodes]

    def hop_row(
        self, src: ServiceInstance
    ) -> Dict[ServiceInstance, Optional[Tuple[float, float]]]:
        """``src``'s shortest-widest routes within this overlay, as floats:
        every instance a usable route reaches maps to the route's
        ``(bandwidth, latency)``; an instance of this overlay missing from
        the row is unreachable.  One oracle lookup per source and overlay
        state; shared, treat as read-only."""
        key = ("hop_row", src)
        row = self._memo.get(key)
        if row is None:
            from repro.routing.oracle import RouteOracle

            tree = RouteOracle.default().tree(self, src)
            # Reached instances only: a row per source and view stays
            # alive as long as the view does.
            row = self._memo[key] = {}
            for dst, label in tree.items():
                bandwidth, latency = label.quality.bandwidth, label.quality.latency
                if bandwidth > 0 and latency < math.inf:
                    row[dst] = (bandwidth, latency)
        return row

    def subgraph(self, keep: Iterable[ServiceInstance]) -> "OverlayGraph":
        """Induced sub-overlay over ``keep`` (links with both ends kept;
        the frozen :class:`ServiceLink` objects are shared, not copied)."""
        keep_set = set(keep)
        ordered = sorted(keep_set)
        sub = OverlayGraph()
        for inst in ordered:
            if inst not in self._out:
                raise KeyError(f"unknown instance {inst}")
            sub.add_instance(inst)
        for inst in ordered:
            for dst, link in sorted(self._out[inst].items()):
                if dst in keep_set:
                    sub._out[inst][dst] = link
                    sub._in[dst][inst] = link
        return sub

    def with_links(
        self, changes: Mapping[Tuple[ServiceInstance, ServiceInstance], Optional[LinkMetrics]]
    ) -> "OverlayGraph":
        """A copy with the given links re-weighted, or removed (``None``).
        Every other frozen :class:`ServiceLink` is shared, as in
        :meth:`subgraph`; the rows are fresh, so ``add_link`` on the copy
        never reaches this overlay or what it has memoised."""
        copy = OverlayGraph()
        copy._out = {inst: dict(row) for inst, row in self._out.items()}
        copy._in = {inst: dict(row) for inst, row in self._in.items()}
        copy._by_sid = {sid: list(pool) for sid, pool in self._by_sid.items()}
        for (src, dst), metrics in changes.items():
            link = self.link(src, dst)
            if link is None:
                raise KeyError(f"unknown service link {src} -> {dst}")
            if metrics is None:
                del copy._out[src][dst], copy._in[dst][src]
            else:
                copy._out[src][dst] = copy._in[dst][src] = replace(link, metrics=metrics)
        return copy

    def restriction_of(self, reference: "OverlayGraph") -> Optional[Restriction]:
        """What turns ``reference`` into this overlay by taking away alone,
        or ``None`` when something here is *better* than there: an instance
        or a link ``reference`` lacks, a wider bandwidth or a shorter
        latency on any link.

        The removed links are those between surviving instances (the rest
        left with their endpoint).  Links the two overlays share as one
        :class:`ServiceLink` object -- everything :meth:`subgraph` and
        :meth:`with_links` did not change -- are passed by identity, so the
        comparison is one walk of the rows.
        """
        out, ref_out = self._out, reference._out
        if not out.keys() <= ref_out.keys():
            return None
        removed_links: List[Tuple[ServiceInstance, ServiceInstance]] = []
        degraded_links: List[Tuple[ServiceInstance, ServiceInstance]] = []
        for src, row in out.items():
            ref_row = ref_out[src]
            for dst, link in row.items():
                ref_link = ref_row.get(dst)
                if ref_link is link:
                    continue
                if ref_link is None:
                    return None
                mine, theirs = link.metrics, ref_link.metrics
                if mine.bandwidth > theirs.bandwidth or mine.latency < theirs.latency:
                    return None
                if mine != theirs:
                    degraded_links.append((src, dst))
            if len(row) != len(ref_row):  # row's links are all ref_row's
                removed_links.extend(
                    (src, dst) for dst in ref_row if dst not in row and dst in out
                )
        return Restriction(
            frozenset(ref_out.keys() - out.keys()),
            frozenset(removed_links),
            frozenset(degraded_links),
        )

    # -- link summaries (what a directory or gossip layer would carry) --------

    @_memoised
    def gossip_hints(self) -> Dict[ServiceInstance, PathQuality]:
        """Per-instance gossip hints: the mean ``(bandwidth, latency)`` over
        an instance's usable incident service links -- constant-size state a
        membership record can carry -- for every instance that has one.
        Shared; treat as read-only."""
        hints: Dict[ServiceInstance, PathQuality] = {}
        for inst in sorted(self._out):
            out_row, in_row = self._out[inst], self._in[inst]
            hint = _mean_quality(
                [out_row[dst].metrics for dst in sorted(out_row)]
                + [in_row[src].metrics for src in sorted(in_row)]
            )
            if hint is not None:
                hints[inst] = hint
        return hints

    def mean_link_quality(self) -> Optional[PathQuality]:
        """Mean quality of the usable links (``None`` without any)."""
        return self._link_summary()[0]

    def mean_link_latency(self) -> Optional[float]:
        """Mean latency of the reachable links (``None`` without any)."""
        return self._link_summary()[1]

    @_memoised
    def _link_summary(self) -> Tuple[Optional[PathQuality], Optional[float]]:
        """Both link means, from one walk of the links in ``(src, dst)``
        order."""
        every = [
            link.metrics
            for inst in sorted(self._out)
            for _, link in sorted(self._out[inst].items())
        ]
        latencies = [metrics.latency for metrics in every if metrics.reachable]
        latency = sum(latencies) / len(latencies) if latencies else None
        return _mean_quality(every), latency

    def merged_with(self, other: "OverlayGraph") -> "OverlayGraph":
        """Union of two overlay views (used when a node combines knowledge
        received from link-state advertisements with its own view)."""
        merged = self.with_links({})
        for inst in other.instances():
            merged.add_instance(inst)
        for inst in other.instances():
            for link in other.out_links(inst):
                if merged.link(link.src, link.dst) is None:
                    merged.add_link(link.src, link.dst, link.metrics)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OverlayGraph(instances={len(self)}, links={self.num_links()})"
