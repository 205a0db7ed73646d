"""Tests for the process-wide route oracle (per-graph state, scoped
invalidation).

The acceptance contract: a mutation must never let the oracle serve a
stale tree -- after ``degrade_links`` / crash events the new graph has its
own state and scoped invalidation drops exactly the sources whose trees
crossed the mutated elements, while every remaining source keeps its
(still exact) cached tree.
"""

import dataclasses
import gc
import inspect
import math
import weakref

import pytest

from repro.core.sflow import SFlowAlgorithm
from repro.network.failures import (
    degrade_links,
    fail_instances,
    fail_links,
    revive_links,
)
from repro.network.metrics import IDEAL, PathQuality
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.routing import kernel
from repro.routing import oracle as oracle_module
from repro.routing.oracle import (
    OracleStats,
    RouteOracle,
    SHORTEST_WIDEST,
    WIDEST_SHORTEST,
)
from repro.routing.wang_crowcroft import RouteLabel
from repro.services.workloads import ScenarioConfig, generate_scenario
from tests.oracles.routing import undirected_relaxation
from tests.oracles.wang_crowcroft import shortest_widest_tree, widest_shortest_tree


@pytest.fixture(autouse=True)
def fresh_default_oracle():
    """Isolate every test from cache state left by other tests."""
    yield RouteOracle.reset_default()
    RouteOracle.reset_default()


#: 21-25 instances: an overlay the oracle hands to the kernel, and still
#: does after a crash or two.
LARGE_ENOUGH_FOR_THE_KERNEL = ScenarioConfig(
    network_size=30, n_services=5, instances_per_service=(5, 6), seed=3
)


def diamond_overlay() -> OverlayGraph:
    """a -> {b1, b2} -> c with distinct links, so trees are link-disjoint."""
    a = ServiceInstance("A", 0)
    b1 = ServiceInstance("B", 1)
    b2 = ServiceInstance("B", 2)
    c = ServiceInstance("C", 3)
    overlay = OverlayGraph()
    overlay.add_link(a, b1, PathQuality(10.0, 1.0))
    overlay.add_link(a, b2, PathQuality(20.0, 2.0))
    overlay.add_link(b1, c, PathQuality(10.0, 1.0))
    overlay.add_link(b2, c, PathQuality(20.0, 1.0))
    return overlay


class TestLookups:
    def test_hit_returns_same_labels_object(self):
        overlay = diamond_overlay()
        oracle = RouteOracle()
        a = ServiceInstance("A", 0)
        first = oracle.tree(overlay, a)
        second = oracle.tree(overlay, a)
        assert first is second
        stats = oracle.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_matches_direct_computation(self):
        overlay = diamond_overlay()
        oracle = RouteOracle()
        instances = list(overlay.instances())
        for inst in instances:
            assert oracle.tree(overlay, inst) == shortest_widest_tree(
                overlay.successors, inst
            )
        rows = oracle.prices(
            overlay, instances, targets=instances, order=WIDEST_SHORTEST
        )
        for inst, row in zip(instances, rows):
            assert row == {
                node: (label.quality.bandwidth, label.quality.latency)
                for node, label in widest_shortest_tree(overlay.successors, inst).items()
            }

    def test_orders_and_views_are_keyed_separately(self, monkeypatch):
        """Trees are keyed by view and source, price rows by view, order
        and source: each ask below computes once, then hits."""
        overlay = diamond_overlay()
        undirected = undirected_relaxation(overlay)
        oracle = RouteOracle()
        a, _, _, c = overlay.instances()
        orders = []
        real = kernel.batched_prices
        monkeypatch.setattr(
            kernel,
            "batched_prices",
            lambda *args, order: orders.append(order) or real(*args, order=order),
        )
        for _ in range(2):
            directed = oracle.tree(overlay, a)
            backwards = oracle.tree(overlay, c, view="undirected", neighbors=undirected)
            sw = oracle.prices(overlay, (a,), targets=(c,))
            ws = oracle.prices(overlay, (a,), targets=(c,), order=WIDEST_SHORTEST)
            flipped = oracle.prices(
                overlay, (c,), targets=(a,), view="undirected", neighbors=undirected
            )
        assert (oracle.stats().misses, oracle.stats().hits) == (2, 2)
        assert directed is oracle.tree(overlay, a)
        b2 = ServiceInstance("B", 2)
        assert (directed[c].path, backwards[a].path) == ((a, b2, c), (c, b2, a))
        assert orders == [SHORTEST_WIDEST, WIDEST_SHORTEST, SHORTEST_WIDEST]
        assert (sw, ws, flipped) == (
            [{c: (20.0, 3.0)}], [{c: (10.0, 2.0)}], [{a: (20.0, 3.0)}]
        )
        assert set(oracle._graphs[overlay].prices) == {
            ("successors", SHORTEST_WIDEST, a),
            ("successors", WIDEST_SHORTEST, a),
            ("undirected", SHORTEST_WIDEST, c),
        }

    def test_unknown_order_rejected(self):
        """Trees have no order to ask for; prices refuse one they do not
        know."""
        oracle = RouteOracle()
        overlay = diamond_overlay()
        a = ServiceInstance("A", 0)
        with pytest.raises(TypeError):
            oracle.tree(overlay, a, order=WIDEST_SHORTEST)
        with pytest.raises(ValueError, match="order"):
            oracle.prices(overlay, (a,), targets=(a,), order="best")

    def test_unknown_attributes_cannot_be_assigned(self):
        """The oracle has no knobs: a left-over ``oracle.enabled = False``
        must fail loudly, not create an attribute and measure the other
        arm."""
        oracle = RouteOracle()
        for name in ("enabled", "anything_else"):
            with pytest.raises(AttributeError):
                setattr(oracle, name, False)
        assert list(inspect.signature(RouteOracle.__init__).parameters) == [
            "self", "registry"
        ]

    def test_dead_graph_entries_are_purged(self):
        oracle = RouteOracle()
        overlay = diamond_overlay()
        oracle.tree(overlay, ServiceInstance("A", 0))
        assert len(oracle) == 1
        del overlay
        gc.collect()
        assert len(oracle) == 0


def assert_crossed_backwards_drops_the_tree(oracle):
    """``a -> b -> c`` and a separate ``d -> e``, looked up through the
    undirected view from ``b`` and ``d``, then each of a degradation and a
    failure of link ``(a, b)``: ``b``'s tree is dropped and repaired to the
    mutated graph's pure row, ``d``'s is carried."""
    a, b, c, d, e = (ServiceInstance(sid, i) for i, sid in enumerate("ABCDE"))
    overlay = OverlayGraph()
    overlay.add_link(a, b, PathQuality(10.0, 1.0))
    overlay.add_link(b, c, PathQuality(10.0, 1.0))
    overlay.add_link(d, e, PathQuality(10.0, 1.0))

    def lookup(graph, source):
        return oracle.tree(
            graph, source, view="undirected", neighbors=undirected_relaxation(graph)
        )

    assert lookup(overlay, b)[a].quality.bandwidth == 10.0
    assert lookup(overlay, d)[e].quality.bandwidth == 10.0
    for mutate, bandwidth in (
        (lambda: degrade_links(overlay, [(a, b)], bandwidth_factor=0.1), 1.0),
        (lambda: fail_links(overlay, [(a, b)]), None),
    ):
        oracle.reset_stats()
        mutated = mutate()
        stats = oracle.stats()
        assert (stats.carried, stats.dropped) == (1, 1)
        labels = lookup(mutated, b)
        assert labels == shortest_widest_tree(undirected_relaxation(mutated), b)
        if bandwidth is None:
            assert a not in labels
        else:
            assert labels[a].quality.bandwidth == bandwidth
        stats = oracle.stats()
        assert (stats.hits, stats.misses, stats.repaired) == (0, 1, 1)


class TestMutations:
    """Stale trees are never served; invalidation is scoped."""

    def test_degrade_bumps_epoch_and_drops_only_affected_sources(self):
        overlay = diamond_overlay()
        oracle = RouteOracle.default()
        a = ServiceInstance("A", 0)
        b1 = ServiceInstance("B", 1)
        b2 = ServiceInstance("B", 2)
        c = ServiceInstance("C", 3)
        for inst in (a, b1, b2):
            oracle.tree(overlay, inst)

        # Degrading b1 -> c touches a's tree (a routes a->b2->c but the
        # label set also covers a->b1) and b1's tree, but never b2's.
        degraded = degrade_links(overlay, [(b1, c)], bandwidth_factor=0.5)
        assert oracle.cached_sources(overlay) == {a, b1, b2}  # old graph untouched

        carried = oracle.cached_sources(degraded)
        assert b2 in carried and b1 not in carried
        oracle.reset_stats()
        # Carried source: served from cache, and still exact.
        assert oracle.tree(degraded, b2) == shortest_widest_tree(
            degraded.successors, b2
        )
        assert oracle.stats().hits == 1
        # Affected sources: recomputed, never the stale labels.
        for inst in (a, b1):
            assert oracle.tree(degraded, inst) == shortest_widest_tree(
                degraded.successors, inst
            )
        assert oracle.tree(degraded, a)[c].quality.bandwidth == 20.0

    def test_old_graph_keeps_serving_its_own_trees(self):
        overlay = diamond_overlay()
        oracle = RouteOracle.default()
        a = ServiceInstance("A", 0)
        before = oracle.tree(overlay, a)
        degrade_links(overlay, [(a, ServiceInstance("B", 1))])
        assert oracle.tree(overlay, a) is before

    def test_crash_drops_trees_through_victim(self):
        overlay = diamond_overlay()
        oracle = RouteOracle.default()
        a = ServiceInstance("A", 0)
        b1 = ServiceInstance("B", 1)
        b2 = ServiceInstance("B", 2)
        c = ServiceInstance("C", 3)
        for inst in (a, b1, b2):
            oracle.tree(overlay, inst)
        survivor = fail_instances(overlay, [b1])
        # b1 is on a's tree and is b1's own tree root; b2's tree never
        # touches it.
        assert oracle.cached_sources(survivor) == {b2}
        assert oracle.tree(survivor, a) == shortest_widest_tree(
            survivor.successors, a
        )
        assert b1 not in oracle.tree(survivor, a)

    def test_link_failure_scoped_invalidation(self):
        overlay = diamond_overlay()
        oracle = RouteOracle.default()
        b1 = ServiceInstance("B", 1)
        b2 = ServiceInstance("B", 2)
        c = ServiceInstance("C", 3)
        oracle.tree(overlay, b1)
        oracle.tree(overlay, b2)
        cut = fail_links(overlay, [(b1, c)])
        assert oracle.cached_sources(cut) == {b2}
        stats = oracle.stats()
        assert stats.carried == 1 and stats.dropped == 1
        assert oracle.tree(cut, b1) == shortest_widest_tree(cut.successors, b1)

    def test_link_crossed_backwards_drops_the_tree(self):
        """The undirected view walks link ``a -> b`` from ``b`` to ``a``:
        the label path names edge ``(b, a)``, the mutation names link
        ``(a, b)``, and the tree is touched all the same -- carried, it
        kept reading bandwidth 10 over a degraded (or missing) link.  A
        tree of another component, ``d``'s, is carried: the mutation walks
        both arms."""
        assert_crossed_backwards_drops_the_tree(RouteOracle.default())

    def test_a_one_way_touch_match_is_caught(self, monkeypatch):
        """The test above fails a mutant that matches touched links in
        their own direction only."""
        monkeypatch.setattr(oracle_module, "_either_way", frozenset)
        with pytest.raises(AssertionError):
            assert_crossed_backwards_drops_the_tree(RouteOracle.default())

    def test_additive_mutation_cold_starts_the_graph(self):
        """A revive whose result is *not* a restriction of its reference --
        another link is wider here than there, or an instance is here and
        not there -- says nothing to the oracle: no tree of the reference
        (or of the degraded graph) is a safe start where paths got better.
        Each healed graph equals ``overlay`` all the same, but is a graph
        nobody derived, and computes its row cold."""
        overlay = diamond_overlay()
        oracle = RouteOracle.default()
        a = ServiceInstance("A", 0)
        b1 = ServiceInstance("B", 1)
        link = (ServiceInstance("B", 2), ServiceInstance("C", 3))
        oracle.tree(overlay, a)
        degraded = degrade_links(overlay, [link], bandwidth_factor=0.5)
        oracle.tree(degraded, a)
        for reference in (
            degrade_links(overlay, [(a, b1)], bandwidth_factor=0.5),
            degrade_links(overlay, [(a, b1)], latency_factor=2.0),
            fail_instances(overlay, [b1]),
        ):
            oracle.tree(reference, a)
            oracle.reset_stats()
            healed = revive_links(degraded, reference, [link])
            assert healed.restriction_of(reference) is None
            assert oracle.cached_sources(healed) == set()
            assert healed not in oracle._graphs
            stats = oracle.stats()
            assert (stats.carried, stats.dropped, stats.invalidated) == (0, 0, 0)
            assert oracle.cached_sources(degraded) == {a}  # the old graph serves on
            assert oracle.tree(healed, a) == shortest_widest_tree(healed.successors, a)
            stats = oracle.stats()
            assert (stats.hits, stats.misses, stats.repaired) == (0, 1, 0)

    def test_invalidate_drops_everything_for_graph(self):
        overlay = diamond_overlay()
        oracle = RouteOracle.default()
        for inst in overlay.instances():
            oracle.tree(overlay, inst)
        oracle.invalidate(overlay)
        assert oracle.cached_sources(overlay) == set()


def degrade_then_crash(scenario):
    """Degrade an eighth of the links, then crash up to two replaceable
    instances: the ``(degraded, crashed)`` overlays of the chain."""
    overlay = scenario.overlay
    links = [
        (link.src, link.dst)
        for inst in overlay.instances()
        for link in overlay.out_links(inst)
    ]
    degraded = degrade_links(
        overlay, links[: max(1, len(links) // 8)], bandwidth_factor=0.4
    )
    victims = []
    for inst in degraded.instances():
        if inst == scenario.source_instance or len(victims) == 2:
            continue
        if len(degraded.instances_of(inst.sid)) > 1 and not any(
            v.sid == inst.sid for v in victims
        ):
            victims.append(inst)
    return degraded, fail_instances(degraded, victims)


def fail_degrade_revive_rejoin(scenario):
    """The chain online admission will walk, one graph at a time: each
    mutation is made when the next graph is asked for, so whatever the
    caller looked up on the graphs so far is what the mutation meets."""
    overlay = scenario.overlay
    victim = next(
        inst
        for inst in overlay.instances()
        if inst != scenario.source_instance
        and len(overlay.instances_of(inst.sid)) > 1
    )
    failed = fail_instances(overlay, [victim])
    yield failed
    links = [
        (link.src, link.dst)
        for inst in failed.instances()
        for link in failed.out_links(inst)
    ]
    sagging = links[:: max(1, len(links) // 6)]
    degraded = degrade_links(failed, sagging, bandwidth_factor=0.3)
    yield degraded
    yield revive_links(degraded, failed, sagging)
    yield OverlayGraph.build(
        scenario.underlay,
        list(failed.instances()) + [victim],
        scenario.catalog.compatible,
    )


class TestMutationChains:
    """Carried trees stay exact through realistic mutation sequences."""

    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_degrade_then_crash_chain_matches_direct(self, seed):
        scenario = generate_scenario(
            ScenarioConfig(network_size=14, n_services=4, seed=seed)
        )
        overlay = scenario.overlay
        oracle = RouteOracle.default()
        for inst in overlay.instances():
            oracle.tree(overlay, inst)
        for graph in degrade_then_crash(scenario):
            for inst in graph.instances():
                assert oracle.tree(graph, inst) == shortest_widest_tree(
                    graph.successors, inst
                ), f"stale tree served for {inst} (seed {seed})"

    @pytest.mark.parametrize("seed", range(8))
    def test_fail_degrade_revive_rejoin_every_graph_keeps_serving(self, seed):
        """The chain online admission will walk: every graph made so far,
        the superseded ones included, answers for its own topology after
        every step, and a dropped graph takes its trees with it."""
        scenario = generate_scenario(
            dataclasses.replace(LARGE_ENOUGH_FOR_THE_KERNEL, seed=seed)
        )
        oracle = RouteOracle.reset_default()
        overlay = scenario.overlay
        graphs = [overlay]

        def every_graph_serves_pure_trees():
            for graph in graphs:
                for inst in graph.instances():
                    assert sorted(oracle.tree(graph, inst).items()) == sorted(
                        shortest_widest_tree(graph.successors, inst).items()
                    ), f"graph {graphs.index(graph)}, {inst} (seed {seed})"

        every_graph_serves_pure_trees()
        for graph in fail_degrade_revive_rejoin(scenario):
            graphs.append(graph)
            every_graph_serves_pure_trees()
        stats = oracle.stats()
        assert min(stats.carried, stats.dropped, stats.repaired) > 0
        assert stats.kernel_trees > 0  # these overlays are kernel-sized

        rejoined = graphs[-1]
        del graphs[1:], graph
        gc.collect()
        assert len(oracle) == (
            len(oracle.cached_sources(overlay))
            + len(oracle.cached_sources(rejoined))
            + len(oracle.cached_sources(scenario.underlay, view="neighbors"))
        )


class TestDerivedSnapshots:
    """A derived graph builds its CSR snapshot from its ancestor's, and the
    pending derivation holds that snapshot alone, never the graph."""

    @staticmethod
    def snapshot_of(oracle, graph):
        """The oracle's ``"successors"`` snapshot of ``graph``, built now if
        no lookup has needed it yet."""
        state = oracle._state_for(graph)
        return oracle._snapshot_for(graph, state, "successors", None)

    @pytest.mark.parametrize("read", [False, True], ids=["pending", "built"])
    def test_the_parents_of_a_fail_degrade_revive_chain_die(self, read):
        scenario = generate_scenario(LARGE_ENOUGH_FOR_THE_KERNEL)
        oracle = RouteOracle.default()
        root = scenario.overlay.with_links({})  # a parent only this test holds
        oracle.warm(root, root.instances())
        parent = self.snapshot_of(oracle, root)
        victim = next(
            inst for inst in root.instances()
            if len(root.instances_of(inst.sid)) > 1
        )
        failed = fail_instances(root, [victim])
        sagging = [
            (link.src, link.dst)
            for inst in failed.instances()
            for link in failed.out_links(inst)
        ][::7]
        if read:
            parent = self.snapshot_of(oracle, failed)
        degraded = degrade_links(failed, sagging, bandwidth_factor=0.3)
        if read:
            self.snapshot_of(oracle, degraded)
        revived = revive_links(degraded, failed, sagging)
        assert oracle._graphs[revived].derivation.parent is parent
        refs = [weakref.ref(graph) for graph in (root, failed, degraded)]
        del root, failed, degraded
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]
        for inst in revived.instances():
            assert oracle.tree(revived, inst) == shortest_widest_tree(
                revived.successors, inst
            )
        held = self.snapshot_of(oracle, revived)
        fresh = kernel.snapshot(revived)
        assert held.nodes == fresh.nodes
        for field in ("indptr", "indices", "bandwidth", "latency"):
            assert getattr(held, field).tolist() == getattr(fresh, field).tolist()
        assert oracle._graphs[revived].derivation is None  # the parent CSR let go

    def test_a_graph_nobody_derived_walks_its_own(self, monkeypatch):
        scenario = generate_scenario(LARGE_ENOUGH_FOR_THE_KERNEL)
        walked = []
        snapshot = kernel.snapshot
        monkeypatch.setattr(
            kernel, "snapshot", lambda *args: walked.append(args[0]) or snapshot(*args)
        )
        oracle = RouteOracle.default()
        overlay = scenario.overlay
        self.snapshot_of(oracle, overlay)
        failed = fail_instances(overlay, [next(iter(overlay.instances()))])
        self.snapshot_of(oracle, failed)  # derived: walks nothing
        undirected = undirected_relaxation(failed)
        oracle.warm(failed, failed.instances(), view="undirected", neighbors=undirected)
        assert walked == [overlay]  # nor does the undirected view: it is derived
        held = oracle._graphs[failed].snapshots["undirected"]
        fresh = kernel.CSRGraph.from_adjacency(failed.routing_nodes(), undirected)
        assert held.nodes == fresh.nodes
        for field in ("indptr", "indices", "bandwidth", "latency"):
            assert getattr(held, field).tolist() == getattr(fresh, field).tolist()


class TestEqualGraphs:
    """Equal graphs share rows by being one object: a repeat build returns
    the overlay it built, with everything the oracle holds for it."""

    def test_a_rebuilt_overlay_warms_no_tree(self):
        scenario = generate_scenario(LARGE_ENOUGH_FOR_THE_KERNEL)
        overlay = scenario.overlay
        instances = list(overlay.instances())
        oracle = RouteOracle.default()
        oracle.warm(overlay, instances)
        oracle.reset_stats()
        rebuilt = OverlayGraph.build(
            scenario.underlay, instances, scenario.catalog.compatible
        )
        assert rebuilt is overlay
        assert oracle.warm(rebuilt, rebuilt.instances()) == 0
        for inst in instances:
            assert oracle.tree(rebuilt, inst) == shortest_widest_tree(
                rebuilt.successors, inst
            )
        stats = oracle.stats()
        assert (stats.warmed, stats.kernel_trees, stats.misses) == (0, 0, 0)
        assert stats.hits == len(instances)

    def test_a_rejoin_federates_on_the_overlay_it_left(self, monkeypatch):
        """A churn cycle's end: an instance of the flow graph leaves, comes
        back, and the overlay is built again.  The rebuild is the overlay
        it left, so a session federated on it walks no snapshot and builds
        no kernel tree."""
        scenario = generate_scenario(LARGE_ENOUGH_FOR_THE_KERNEL)
        overlay, source = scenario.overlay, scenario.source_instance
        algorithm = SFlowAlgorithm()
        first = algorithm.federate(scenario.requirement, overlay, source_instance=source)
        victim = next(
            inst for _, inst in sorted(first.flow_graph.assignment.items())
            if inst != source and len(overlay.instances_of(inst.sid)) > 1
        )
        failed = fail_instances(overlay, [victim])
        rejoined = OverlayGraph.build(
            scenario.underlay, [*failed.instances(), victim], scenario.catalog.compatible
        )
        assert rejoined is overlay
        walked = []
        snapshot = kernel.snapshot
        monkeypatch.setattr(
            kernel, "snapshot", lambda *args: walked.append(args[0]) or snapshot(*args)
        )
        oracle = RouteOracle.default()
        built = oracle.stats().kernel_trees
        again = algorithm.federate(scenario.requirement, rejoined, source_instance=source)
        assert walked == [] and oracle.stats().kernel_trees == built
        assert again.flow_graph.assignment == first.flow_graph.assignment

    def test_graphs_an_ulp_apart_share_nothing(self):
        """Rows are keyed by the graph object, so a copy whose one link is
        an ulp longer computes its own rows, never the original's."""
        oracle = RouteOracle()
        overlay = diamond_overlay()
        a, b2 = ServiceInstance("A", 0), ServiceInstance("B", 2)
        wide = overlay.link(a, b2).metrics
        longer = math.nextafter(wide.latency, math.inf)
        apart = overlay.with_links({(a, b2): dataclasses.replace(wide, latency=longer)})
        oracle.tree(overlay, a)
        oracle.prices(overlay, (a,), targets=(b2,))
        assert oracle.tree(apart, a) == shortest_widest_tree(apart.successors, a)
        assert oracle.prices(apart, (a,), targets=(b2,)) == [{b2: (wide.bandwidth, longer)}]
        assert oracle.prices(overlay, (a,), targets=(b2,)) == [
            {b2: (wide.bandwidth, wide.latency)}
        ]
        assert oracle.stats().misses == 2

    def test_a_derived_graph_neither_adopts_nor_lends(self):
        """An underived copy of a derived graph, and a derived graph equal
        to a held underived one, each get their own pure rows."""
        oracle = RouteOracle.default()  # the one the failure models report to
        overlay = diamond_overlay()
        a, b1 = ServiceInstance("A", 0), ServiceInstance("B", 1)
        link = (ServiceInstance("B", 2), ServiceInstance("C", 3))
        oracle.tree(overlay, a)
        degraded = degrade_links(overlay, [link], bandwidth_factor=0.5)
        oracle.tree(degraded, a)
        copy = degraded.with_links({})
        assert oracle.tree(copy, a) == shortest_widest_tree(copy.successors, a)
        assert oracle.tree(copy, a) is not oracle.tree(degraded, a)
        healed = revive_links(degraded, overlay, [link])
        assert healed.restriction_of(overlay) is not None  # derived, equal to overlay
        assert oracle.tree(healed, b1) == shortest_widest_tree(healed.successors, b1)
        assert oracle.cached_sources(overlay) == {a}  # nothing was lent to it

    def test_reset_default_forgets_the_twins(self):
        """The oracle ``reset_default`` hands out holds nothing of the one
        before: an equal copy and the overlay itself both warm cold."""
        scenario = generate_scenario(LARGE_ENOUGH_FOR_THE_KERNEL)
        overlay = scenario.overlay
        instances = list(overlay.instances())
        first = RouteOracle.reset_default()
        first.warm(overlay, instances)
        oracle = RouteOracle.reset_default()
        assert oracle is not first
        assert oracle.warm(overlay.with_links({}), instances) == len(instances)
        assert oracle.warm(overlay, instances) == len(instances)

    def test_a_dead_twin_leaves_the_table(self):
        """An equal copy holds its own rows, which outlive the graph it was
        copied from; the dead graph leaves the oracle's table."""
        overlay = diamond_overlay()
        a = ServiceInstance("A", 0)
        oracle = RouteOracle()
        oracle.tree(overlay, a)
        copy = overlay.with_links({})
        assert oracle.tree(copy, a) == oracle.tree(overlay, a)
        assert len(oracle._graphs) == 2
        ref = weakref.ref(overlay)
        del overlay
        gc.collect()
        assert ref() is None
        assert len(oracle._graphs) == 1
        assert oracle.cached_sources(copy) == {a}  # the copy keeps its rows


class TestLazyTraversedSets:
    """An entry's traversed node/edge sets are built by its first
    ``derive``: that changes what a never-mutated tree costs, not what a
    mutation carries, drops or repairs."""

    def test_warmed_entry_holds_no_sets_until_derived(self):
        overlay = diamond_overlay()
        oracle = RouteOracle.default()
        b1 = ServiceInstance("B", 1)
        c = ServiceInstance("C", 3)
        oracle.warm(overlay, overlay.instances())
        entries = list(oracle._graphs[overlay].trees.values())
        assert len(entries) == 4
        assert all(e.nodes is None and e.edges is None for e in entries)
        for inst in overlay.instances():
            oracle.tree(overlay, inst)  # hits read labels only
        assert all(e.nodes is None and e.edges is None for e in entries)
        fail_links(overlay, [(b1, c)])
        assert all(
            isinstance(e.nodes, frozenset) and isinstance(e.edges, frozenset)
            for e in entries
        )

    #: (carried, dropped, repaired) of the chain below, as counted at the
    #: parent commit, where every entry built its sets on insertion.
    EAGER_COUNTS = {0: (12, 3, 2), 7: (9, 2, 2), 21: (7, 2, 2)}

    @pytest.mark.parametrize("seed", sorted(EAGER_COUNTS))
    def test_derive_after_warm_counts_and_labels(self, seed):
        scenario = generate_scenario(
            ScenarioConfig(network_size=14, n_services=4, seed=seed)
        )
        overlay = scenario.overlay
        oracle = RouteOracle.default()
        oracle.reset_stats()
        instances = list(overlay.instances())
        oracle.warm(overlay, instances)
        before = {inst: oracle.tree(overlay, inst) for inst in instances}
        degraded, crashed = degrade_then_crash(scenario)
        for graph in (degraded, crashed):
            for pending in oracle._graphs[graph].repairs.values():
                assert isinstance(pending.nodes, frozenset)
                assert isinstance(pending.edges, frozenset)
        for graph in (degraded, crashed):
            for inst in graph.instances():
                labels = oracle.tree(graph, inst)
                assert labels == shortest_widest_tree(graph.successors, inst)
                # What a repair or a carry keeps, it keeps verbatim.
                for dest, label in labels.items():
                    if label == before[inst].get(dest):
                        assert label is before[inst][dest]
        stats = oracle.stats()
        assert (stats.carried, stats.dropped, stats.repaired) == (
            self.EAGER_COUNTS[seed]
        )


class TestKernelCounters:
    """``oracle.kernel_*``: the kernel's phase-2 work, added per batch."""

    def test_shortest_widest_batches_are_counted(self):
        from repro.obs import metrics as obs_metrics

        overlay = generate_scenario(
            ScenarioConfig(
                network_size=60, n_services=6, instances_per_service=(9, 11), seed=0
            )
        ).overlay
        oracle = RouteOracle.default()
        oracle.reset_stats()
        instances = list(overlay.instances())
        neighbors = undirected_relaxation(overlay)
        oracle.warm(overlay, instances, view="undirected", neighbors=neighbors)
        batch = kernel.batched_trees(
            kernel.CSRGraph.from_adjacency(overlay.routing_nodes(), neighbors),
            instances,
        )
        assert batch.restarts >= 1  # the fixture exercises every counter
        stats = oracle.stats()
        assert (stats.kernel_trees, stats.kernel_thresholds, stats.kernel_restarts) == (
            len(instances), batch.thresholds, batch.restarts
        )
        reg = obs_metrics.registry()
        assert reg.counter("oracle.kernel_trees").total == stats.kernel_trees
        assert reg.counter("oracle.kernel_thresholds").total == stats.kernel_thresholds
        assert reg.counter("oracle.kernel_restarts").total == stats.kernel_restarts
        # One more miss through the kernel: one more tree, its widths.
        oracle.tree(overlay, instances[0])
        assert oracle.stats().kernel_trees == len(instances) + 1

    def test_other_paths_leave_them_alone(self):
        """A small graph is a kernel batch like any other; price passes, of
        either order, build no tree and leave every counter alone."""
        small = generate_scenario(
            ScenarioConfig(network_size=20, n_services=4, seed=3)
        ).overlay
        instances = list(small.instances())
        assert len(instances) < 16  # no size is too small for the kernel
        oracle = RouteOracle()
        oracle.warm(small, instances)
        assert oracle.stats().warmed == oracle.stats().kernel_trees == len(instances)
        large = generate_scenario(LARGE_ENOUGH_FOR_THE_KERNEL).overlay
        instances = list(large.instances())
        dual = RouteOracle()
        for order in (SHORTEST_WIDEST, WIDEST_SHORTEST):
            dual.prices(large, instances, targets=instances, order=order)
        assert isinstance(dual._graphs[large].snapshots["successors"], kernel.CSRGraph)
        assert dual.stats() == OracleStats()


class TestRegistryExport:
    """Oracle counters live in the metrics registry (single backing store)."""

    def test_stats_and_registry_read_the_same_store(self):
        from repro.obs import metrics as obs_metrics

        scenario = generate_scenario(
            ScenarioConfig(network_size=12, n_services=4, seed=5)
        )
        overlay = scenario.overlay
        oracle = RouteOracle.default()
        source = next(iter(overlay.instances()))
        oracle.tree(overlay, source)
        oracle.tree(overlay, source)
        stats = oracle.stats()
        reg = obs_metrics.registry()
        assert stats.hits == reg.counter("oracle.hits").total
        assert stats.misses == reg.counter("oracle.misses").total
        snapshot = reg.snapshot()
        assert snapshot["oracle.hits"]["values"].get("", 0.0) == stats.hits
        assert stats.hits >= 1 and stats.misses >= 1

    def test_private_instances_do_not_touch_the_global_registry(self):
        from repro.obs import metrics as obs_metrics

        before = obs_metrics.registry().counter("oracle.misses").total
        oracle = RouteOracle()  # private registry by default
        oracle.tree(diamond_overlay(), ServiceInstance("A", 0))
        assert oracle.stats().misses == 1
        assert obs_metrics.registry().counter("oracle.misses").total == before

    def test_reset_default_zeroes_registry_counters(self):
        from repro.obs import metrics as obs_metrics

        oracle = RouteOracle.default()
        oracle.tree(diamond_overlay(), ServiceInstance("A", 0))
        RouteOracle.reset_default()
        assert obs_metrics.registry().counter("oracle.misses").total == 0


class TestWarm:
    """Batched prefetch: warm() fills the cache through the kernel."""

    def test_warm_then_lookups_all_hit(self):
        scenario = generate_scenario(
            ScenarioConfig(network_size=20, n_services=4, seed=3)
        )
        overlay = scenario.overlay
        oracle = RouteOracle.default()
        oracle.reset_stats()  # scenario generation already used the oracle
        instances = list(overlay.instances())
        computed = oracle.warm(overlay, instances)
        assert computed == len(instances)
        stats = oracle.stats()
        assert stats.warmed == len(instances)
        assert stats.misses == 0  # warm is a prefetch, not a lookup
        for inst in instances:
            assert oracle.tree(overlay, inst) == shortest_widest_tree(
                overlay.successors, inst
            )
        assert oracle.stats().hits == len(instances)

    def test_warm_skips_already_cached_sources(self):
        overlay = diamond_overlay()
        oracle = RouteOracle.default()
        a = ServiceInstance("A", 0)
        oracle.tree(overlay, a)
        assert oracle.warm(overlay, overlay.instances()) == 3
        assert oracle.warm(overlay, overlay.instances()) == 0

    def test_warm_matches_pure_without_kernel(self):
        """A graph below the size that once went to a second implementation
        is one kernel batch like any other, equal to the reference."""
        scenario = generate_scenario(
            ScenarioConfig(network_size=20, n_services=4, seed=5)
        )
        overlay = scenario.overlay
        instances = list(overlay.instances())
        assert len(instances) < 16
        oracle = RouteOracle()
        assert oracle.warm(overlay, instances) == len(instances)
        assert oracle.stats().kernel_trees == len(instances)
        for inst in instances:
            assert oracle.tree(overlay, inst) == shortest_widest_tree(
                overlay.successors, inst
            )

    def test_warm_gives_an_outsider_source_its_lone_row(self, monkeypatch):
        """One source of the batch is not in the graph: it gets the row the
        reference gives it, itself alone, and the others come from one
        kernel batch without it."""
        overlay = generate_scenario(LARGE_ENOUGH_FOR_THE_KERNEL).overlay
        instances = list(overlay.instances())
        outsider = ServiceInstance(instances[0].sid, 10**6)
        batches = []
        real = kernel.batched_trees
        monkeypatch.setattr(
            kernel, "batched_trees",
            lambda csr, sources, **kw: batches.append(sources) or real(csr, sources, **kw),
        )
        oracle = RouteOracle()
        sources = [*instances[:3], outsider, *instances[3:]]
        assert oracle.warm(overlay, sources) == len(sources)
        assert batches == [instances]
        assert oracle.tree(overlay, outsider) == {outsider: RouteLabel(IDEAL, 0, (outsider,))}
        for source in sources:
            assert oracle.tree(overlay, source) == shortest_widest_tree(
                overlay.successors, source
            )
        stats = oracle.stats()
        assert (stats.hits, stats.misses) == (len(sources) + 1, 0)
        assert stats.kernel_trees == len(instances)


class TestPrices:
    """``RouteOracle.prices``: the kernel's pathless pass on the view's
    snapshot, its rows cached apart from the trees."""

    def test_prices_are_the_trees_qualities(self):
        overlay = generate_scenario(LARGE_ENOUGH_FOR_THE_KERNEL).overlay
        undirected = undirected_relaxation(overlay)
        instances = list(overlay.instances())
        targets = frozenset(instances[::3])
        oracle = RouteOracle()
        rows = oracle.prices(
            overlay, instances, targets=targets, view="undirected", neighbors=undirected
        )
        for source, row in zip(instances, rows):
            pure = shortest_widest_tree(undirected, source, targets=targets)
            assert row == {
                node: (label.quality.bandwidth, label.quality.latency)
                for node, label in pure.items()
                if node in targets
            }, source

    def test_prices_move_no_counter_and_build_one_snapshot(self, monkeypatch):
        """No tree is cached, no counter moves, and the view's snapshot is
        built once -- and read by the trees of the same view after it."""
        overlay = diamond_overlay()
        built = []
        real = kernel.snapshot
        monkeypatch.setattr(
            kernel, "snapshot", lambda *args: built.append(args) or real(*args)
        )
        oracle = RouteOracle()
        a, b1, b2, c = overlay.instances()
        for _ in range(2):
            assert oracle.prices(overlay, (a, b1), targets=(b2, c)) == [
                {b2: (20.0, 2.0), c: (20.0, 3.0)},
                {c: (10.0, 1.0)},
            ]
        assert len(oracle) == 0
        assert oracle.stats() == OracleStats()
        oracle.tree(overlay, a)
        assert len(built) == 1

    def test_a_price_row_answers_what_it_covers(self, monkeypatch):
        """A cached row answers an ask inside its coverage, read at the
        asked targets alone, with no pass; a wider ask prices again; a
        derived graph and an invalidated one price afresh."""
        overlay = diamond_overlay()
        a, b1, b2, c = overlay.instances()
        oracle = RouteOracle()
        passes = []
        real = kernel.batched_prices
        monkeypatch.setattr(
            kernel,
            "batched_prices",
            lambda csr, sources, *args, **kwargs: (
                passes.append(list(sources)) or real(csr, sources, *args, **kwargs)
            ),
        )
        assert oracle.prices(overlay, (a, b1), targets=(b2, c)) == [
            {b2: (20.0, 2.0), c: (20.0, 3.0)},
            {c: (10.0, 1.0)},
        ]
        to_c = {c: (20.0, 3.0)}
        assert oracle.prices(overlay, (a, a), targets=(c,)) == [to_c, to_c]
        assert passes == [[a, b1]]
        assert oracle.prices(overlay, (a, b1), targets=(b1, c)) == [
            {b1: (10.0, 1.0), c: (20.0, 3.0)},
            {b1: (IDEAL.bandwidth, IDEAL.latency), c: (10.0, 1.0)},
        ]
        assert passes == [[a, b1]] * 2  # neither row covered b1
        cut = fail_links(overlay, [(b2, c)])
        assert oracle.prices(cut, (a,), targets=(c,)) == [{c: (10.0, 2.0)}]
        oracle.invalidate(overlay)
        assert oracle.prices(overlay, (a,), targets=(c,)) == [{c: (20.0, 3.0)}]
        assert passes == [[a, b1]] * 2 + [[a]] * 2

    def test_a_source_outside_the_snapshot_reaches_itself(self):
        overlay = diamond_overlay()
        a, _, _, c = overlay.instances()
        outsider = ServiceInstance("Q", 0)
        oracle = RouteOracle()
        assert oracle.prices(overlay, (outsider, a), targets=(outsider, c)) == [
            {outsider: (IDEAL.bandwidth, IDEAL.latency)},
            {c: (20.0, 3.0)},
        ]
        assert oracle.prices(overlay, (outsider,), targets=(c,)) == [{}]


class TestIncrementalRepair:
    """Touched trees are repaired at first lookup, not fully recomputed."""

    def test_repair_matches_direct_computation(self):
        overlay = diamond_overlay()
        oracle = RouteOracle.default()
        a = ServiceInstance("A", 0)
        b1 = ServiceInstance("B", 1)
        b2 = ServiceInstance("B", 2)
        c = ServiceInstance("C", 3)
        oracle.tree(overlay, a)
        # a's shortest-widest path to c runs a -> b2 -> c; cutting that
        # link touches the cached tree and schedules a repair.
        cut = fail_links(overlay, [(b2, c)])
        assert oracle.tree(cut, a) == shortest_widest_tree(cut.successors, a)
        assert oracle.tree(cut, a)[c].path == (a, b1, c)
        assert oracle.stats().repaired == 1

    def test_repair_keeps_untouched_labels_verbatim(self):
        overlay = diamond_overlay()
        oracle = RouteOracle.default()
        a = ServiceInstance("A", 0)
        b1 = ServiceInstance("B", 1)
        b2 = ServiceInstance("B", 2)
        c = ServiceInstance("C", 3)
        before = oracle.tree(overlay, a)
        cut = fail_links(overlay, [(b2, c)])
        after = oracle.tree(cut, a)
        # b1 and b2 labels avoid the cut link: carried forward verbatim.
        assert after[b1] is before[b1]
        assert after[b2] is before[b2]
        # c re-routes through the surviving branch.
        assert after[c].path == (a, b1, c)

    def test_removed_root_punts_to_full_recompute(self):
        overlay = diamond_overlay()
        oracle = RouteOracle.default()
        b1 = ServiceInstance("B", 1)
        oracle.tree(overlay, b1)
        survivor = fail_instances(overlay, [b1])
        oracle.reset_stats()
        labels = oracle.tree(survivor, b1)
        assert labels == shortest_widest_tree(survivor.successors, b1)
        assert oracle.stats().repaired == 0

    def test_chained_mutations_merge_touch_sets(self):
        """Two successive failures before the next lookup: the repair must
        account for both, not just the latest."""
        overlay = diamond_overlay()
        oracle = RouteOracle.default()
        a = ServiceInstance("A", 0)
        b1 = ServiceInstance("B", 1)
        b2 = ServiceInstance("B", 2)
        c = ServiceInstance("C", 3)
        oracle.tree(overlay, a)
        cut1 = fail_links(overlay, [(b2, c)])
        cut2 = fail_links(cut1, [(a, b1)])
        assert oracle.tree(cut2, a) == shortest_widest_tree(
            cut2.successors, a
        )

    def test_additive_mutation_discards_pending_repairs(self):
        overlay = diamond_overlay()
        oracle = RouteOracle.default()
        a = ServiceInstance("A", 0)
        link = (ServiceInstance("B", 2), ServiceInstance("C", 3))
        oracle.tree(overlay, a)
        # a's tree becomes a pending repair of the degraded graph...
        degraded = degrade_links(overlay, [link], bandwidth_factor=0.5)
        # ... which must not chain into the healed one: better paths may
        # exist there, so its labels are no longer a safe starting point.
        healed = revive_links(degraded, overlay, [link])
        oracle.reset_stats()
        assert oracle.tree(healed, a) == shortest_widest_tree(healed.successors, a)
        assert oracle.stats().repaired == 0

    def test_full_revive_returns_the_references_row(self, monkeypatch):
        """Degrade -> revive is an identity on overlay state, so the healed
        graph *is* its reference to the oracle: the same row object, and
        nothing computed."""
        overlay = diamond_overlay()
        oracle = RouteOracle.default()
        a = ServiceInstance("A", 0)
        link = (ServiceInstance("B", 2), ServiceInstance("C", 3))
        row = oracle.tree(overlay, a)
        degraded = degrade_links(overlay, [link], bandwidth_factor=0.5)
        assert oracle.tree(degraded, a) is not row

        def computed(*args, **kwargs):
            raise AssertionError("a full revive computes no tree")

        monkeypatch.setattr(kernel, "batched_trees", computed)
        oracle.reset_stats()
        healed = revive_links(degraded, overlay, [link])
        assert oracle.warm(healed, [a]) == 0
        assert oracle.tree(healed, a) is row
        stats = oracle.stats()
        assert (stats.carried, stats.dropped, stats.invalidated) == (1, 0, 0)
        assert (stats.hits, stats.misses, stats.repaired, stats.warmed) == (1, 0, 0, 0)

    @pytest.mark.parametrize("view", ["successors", "undirected"])
    def test_partial_revive_parks_only_rows_crossing_a_still_degraded_link(
        self, view
    ):
        scenario = generate_scenario(LARGE_ENOUGH_FOR_THE_KERNEL)
        overlay = scenario.overlay
        oracle = RouteOracle.default()

        def adjacency(graph):
            return undirected_relaxation(graph) if view == "undirected" else graph.successors

        instances = list(overlay.instances())
        oracle.warm(overlay, instances, view=view, neighbors=adjacency(overlay))
        rows = {
            inst: oracle.tree(overlay, inst, view=view, neighbors=adjacency(overlay))
            for inst in instances
        }

        #: link -> the sources whose rows cross it, in either orientation
        riders = {
            (link.src, link.dst): set()
            for inst in instances
            for link in overlay.out_links(inst)
        }
        for inst, row in rows.items():
            for label in row.values():
                for hop in zip(label.path, label.path[1:]):
                    riders[hop if hop in riders else hop[::-1]].add(inst)
        # Two links trees ride, one of them under a tree the other is not.
        healing, sagging = next(
            (one, other)
            for one in riders
            for other in riders
            if riders[other] and riders[one] - riders[other]
        )
        degraded = degrade_links(overlay, [healing, sagging], bandwidth_factor=0.3)
        oracle.reset_stats()
        healed = revive_links(degraded, overlay, [healing])
        parked = {key[1] for key in oracle._graphs[healed].repairs}
        assert parked == riders[sagging]
        assert oracle.cached_sources(healed, view=view) == set(instances) - parked
        stats = oracle.stats()
        assert (stats.carried, stats.dropped) == (
            len(instances) - len(parked), len(parked),
        )
        for inst in instances:
            labels = oracle.tree(healed, inst, view=view, neighbors=adjacency(healed))
            assert sorted(labels.items()) == sorted(
                shortest_widest_tree(adjacency(healed), inst).items()
            )
            assert (labels is rows[inst]) == (inst not in parked)
        stats = oracle.stats()
        assert (stats.repaired, stats.misses) == (len(parked), len(parked))
        # Each repair recomputes its crossing destinations as one kernel row.
        assert (stats.warmed, stats.kernel_trees) == (0, len(parked))

    def test_revive_chains_the_references_pending_repairs(self):
        """A row parked on the reference and never looked up there waits on
        the healed graph with the touch set it had -- not the degraded
        graph's, which named the link that came back."""
        overlay = diamond_overlay()
        oracle = RouteOracle.default()
        a = ServiceInstance("A", 0)
        b1 = ServiceInstance("B", 1)
        link = (ServiceInstance("B", 2), ServiceInstance("C", 3))
        oracle.tree(overlay, a)
        reference = fail_links(overlay, [(a, b1)])
        degraded = degrade_links(reference, [link], bandwidth_factor=0.5)
        healed = revive_links(degraded, reference, [link])
        (pending,) = oracle._graphs[healed].repairs.values()
        assert pending.edges == {(a, b1), (b1, a)} and not pending.nodes
        oracle.reset_stats()
        labels = oracle.tree(healed, a)
        assert labels == shortest_widest_tree(healed.successors, a)
        assert b1 not in labels
        assert labels[link[1]].quality.bandwidth == 20.0
        stats = oracle.stats()
        assert (stats.repaired, stats.misses) == (1, 1)

    @pytest.mark.parametrize("forget", ["never queried", "invalidated", "reset"])
    def test_reference_without_state_is_a_cold_start(self, forget):
        overlay = diamond_overlay()
        oracle = RouteOracle.default()
        a = ServiceInstance("A", 0)
        link = (ServiceInstance("B", 2), ServiceInstance("C", 3))
        if forget != "never queried":
            oracle.tree(overlay, a)
        degraded = degrade_links(overlay, [link], bandwidth_factor=0.5)
        oracle.tree(degraded, a)
        if forget == "invalidated":
            oracle.invalidate(overlay)
        elif forget == "reset":
            oracle = RouteOracle.reset_default()
        oracle.reset_stats()
        healed = revive_links(degraded, overlay, [link])
        assert oracle.cached_sources(healed) == set()
        assert not oracle._graphs[healed].repairs
        assert oracle.tree(healed, a) == shortest_widest_tree(healed.successors, a)
        stats = oracle.stats()
        assert (stats.carried, stats.dropped, stats.repaired) == (0, 0, 0)

    def test_revive_of_a_link_the_reference_lacks_derives_nothing(self):
        overlay = diamond_overlay()
        oracle = RouteOracle.default()
        a = ServiceInstance("A", 0)
        link = (ServiceInstance("B", 2), ServiceInstance("C", 3))
        oracle.tree(overlay, a)
        reference = fail_links(overlay, [link])
        graphs = set(oracle._graphs)
        oracle.reset_stats()
        with pytest.raises(KeyError, match="reference"):
            revive_links(overlay, reference, [link])
        assert set(oracle._graphs) == graphs
        assert oracle.stats() == OracleStats()

    @pytest.mark.parametrize("seed", [2, 11])
    def test_repaired_trees_exact_on_generated_overlays(self, seed):
        scenario = generate_scenario(
            ScenarioConfig(network_size=16, n_services=4, seed=seed)
        )
        overlay = scenario.overlay
        oracle = RouteOracle.default()
        for inst in overlay.instances():
            oracle.tree(overlay, inst)
        links = [
            (link.src, link.dst)
            for inst in overlay.instances()
            for link in overlay.out_links(inst)
        ]
        cut = fail_links(overlay, links[:: max(1, len(links) // 5)])
        for inst in cut.instances():
            assert oracle.tree(cut, inst) == shortest_widest_tree(
                cut.successors, inst
            ), f"repair produced a wrong tree for {inst} (seed {seed})"


def walk_coverage_chain(seed, view):
    """Partial rows through fail -> degrade -> revive -> rejoin.

    After every step, on every graph made so far: a targeted lookup equals
    the pure ``targets=`` row; a narrower ask after it is a hit on the same
    row; every fourth source (a different quarter on each graph) is then
    asked for in full -- a miss while its row is partial -- and equals the
    pure full tree, on odd graphs *before* anything targeted touches the
    row parked by the mutation; and no cached or parked row holds a label
    outside its coverage.  Returns how many *partial* rows the mutations
    carried and dropped and the lookups repaired.
    """
    scenario = generate_scenario(
        dataclasses.replace(LARGE_ENOUGH_FOR_THE_KERNEL, seed=seed)
    )
    oracle = RouteOracle.reset_default()
    overlay = scenario.overlay
    graphs = [overlay]
    pure = {}  # (graph index, source, targets) -> the reference row
    counts = {"carried": 0, "dropped": 0, "repaired": 0}

    def adjacency(graph):
        return undirected_relaxation(graph) if view == "undirected" else graph.successors

    def lookup(graph, source, targets, expect_hit=None):
        neighbors = adjacency(graph)
        key = (graphs.index(graph), source, targets)
        if key not in pure:
            pure[key] = shortest_widest_tree(neighbors, source, targets=targets)
        state = oracle._graphs.get(graph)
        parked = state.repairs.get((view, source)) if state else None
        before = oracle.stats()
        row = oracle.tree(
            graph, source, view=view, neighbors=neighbors, targets=targets
        )
        after = oracle.stats()
        if targets is None:
            assert sorted(row.items()) == sorted(pure[key].items()), key
        else:  # the row may cover more than was asked: read it at the targets
            assert {n: row[n] for n in row if n == source or n in targets} == (
                pure[key]
            ), key
        if expect_hit is not None:
            assert (after.hits - before.hits, after.misses - before.misses) == (
                (1, 0) if expect_hit else (0, 1)
            ), key
        if parked is not None and parked.covers is not None:
            counts["repaired"] += after.repaired - before.repaired
        return row

    def covers_of(graph, source):
        entry = oracle._graphs[graph].trees.get((view, source))
        return "absent" if entry is None else entry.covers

    def check_every_graph():
        for g, graph in enumerate(graphs):
            instances = list(graph.instances())
            sids = sorted(graph.sids())
            by_wide = {}
            for i, source in enumerate(instances):
                near = graph.instances_of(sids[i % len(sids)])
                far = graph.instances_of(sids[(i + 1) % len(sids)])
                by_wide.setdefault(frozenset(near + far), []).append(
                    (i, source, frozenset(near))
                )
            for wide, group in by_wide.items():
                widened = [(i + g) % 4 == 3 for i, _, _ in group]
                for (i, source, narrow), widen in zip(group, widened):
                    if widen and g % 2:
                        lookup(graph, source, None)
                oracle.warm(
                    graph, [source for _, source, _ in group], view=view,
                    neighbors=adjacency(graph), targets=wide,
                )
                for (i, source, narrow), widen in zip(group, widened):
                    row = lookup(graph, source, wide)
                    assert lookup(graph, source, narrow, expect_hit=True) is row
                    if widen:
                        partial = covers_of(graph, source) is not None
                        lookup(graph, source, None, expect_hit=not partial)
                        assert covers_of(graph, source) is None
                        lookup(graph, source, wide, expect_hit=True)
            state = oracle._graphs[graph]
            for held in (state.trees, state.repairs):
                for (_, source), row in held.items():
                    if row.covers is not None:
                        assert set(row.labels) <= row.covers | {source}, source

    def mutated(graph):
        """Register ``graph`` and count the partial rows it was handed."""
        state = oracle._graphs.get(graph)  # a rejoin is a fresh build: none
        if state is not None:
            counts["carried"] += sum(
                e.covers is not None for e in state.trees.values()
            )
            counts["dropped"] += sum(
                p.covers is not None for p in state.repairs.values()
            )
        graphs.append(graph)
        check_every_graph()

    check_every_graph()
    for graph in fail_degrade_revive_rejoin(scenario):
        mutated(graph)
    assert oracle.stats().kernel_trees > 0  # these overlays are kernel-sized
    return counts


class TestCoverage:
    """A row answers only for the destinations it covers -- through
    ``tree``, ``warm``, carry-forward and repair."""

    def test_a_partial_row_never_answers_a_wider_ask(self):
        overlay = diamond_overlay()
        oracle = RouteOracle()
        a, b1, b2, c = overlay.routing_nodes()
        pools = frozenset([b1, b2])
        row = oracle.tree(overlay, a, targets=pools)
        assert row == shortest_widest_tree(overlay.successors, a, targets=pools)
        assert c not in row
        assert oracle.tree(overlay, a, targets=frozenset([b2])) is row  # narrower
        wider = oracle.tree(overlay, a, targets=frozenset([b2, c]))  # not covered
        assert set(wider) == {a, b2, c}  # what is asked now, no union
        assert oracle.warm(overlay, [a], targets=pools) == 1  # b1 is gone again
        full = oracle.tree(overlay, a)
        assert full == shortest_widest_tree(overlay.successors, a)
        assert oracle.tree(overlay, a, targets=pools) is full
        assert oracle.warm(overlay, [a], targets=pools) == 0
        stats = oracle.stats()
        assert (stats.hits, stats.misses, stats.warmed) == (2, 3, 1)

    @pytest.mark.parametrize("view", ["successors", "undirected"])
    @pytest.mark.parametrize("seed", range(3))
    def test_partial_rows_through_fail_degrade_revive_rejoin(self, seed, view):
        counts = walk_coverage_chain(seed, view)
        assert min(counts.values()) > 0, counts

    def test_the_chain_kills_a_repair_that_forgets_its_coverage(self, monkeypatch):
        """The mutant the prototype shipped: a touched partial row parked
        without its coverage is 'repaired' into a row that claims to be
        complete, and the next full lookup on the derived graph reads it."""
        real = oracle_module._PendingRepair

        def forgetful(labels, nodes, edges, covers):
            return real(labels, nodes, edges, None)

        monkeypatch.setattr(oracle_module, "_PendingRepair", forgetful)
        with pytest.raises(AssertionError):
            walk_coverage_chain(0, "undirected")
