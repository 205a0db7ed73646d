"""Tests for the service overlay graph."""

import math

import pytest

from repro.network.metrics import UNREACHABLE, PathQuality
from repro.network.overlay import OverlayGraph, ServiceInstance, ServiceLink
from repro.network.underlay import Underlay
from repro.services.catalog import ServiceCatalog
from repro.services.workloads import ScenarioConfig, generate_scenario


class TestServiceInstance:
    def test_str_is_sid_slash_nid(self):
        assert str(ServiceInstance("map", 7)) == "map/7"

    def test_ordering_by_sid_then_nid(self):
        assert ServiceInstance("a", 9) < ServiceInstance("b", 0)
        assert ServiceInstance("a", 1) < ServiceInstance("a", 2)

    def test_hashable(self):
        assert ServiceInstance("a", 1) in {ServiceInstance("a", 1)}


class TestServiceLink:
    def test_self_loop_rejected(self):
        inst = ServiceInstance("a", 1)
        with pytest.raises(ValueError):
            ServiceLink(inst, inst, PathQuality(1, 1))


class TestOverlayConstruction:
    def test_add_instance_idempotent(self):
        overlay = OverlayGraph()
        inst = ServiceInstance("a", 1)
        overlay.add_instance(inst)
        overlay.add_instance(inst)
        assert len(overlay) == 1

    def test_add_link_registers_endpoints(self):
        overlay = OverlayGraph()
        a, b = ServiceInstance("a", 1), ServiceInstance("b", 2)
        overlay.add_link(a, b, PathQuality(5, 1))
        assert a in overlay and b in overlay
        assert overlay.num_links() == 1

    def test_duplicate_link_rejected(self):
        overlay = OverlayGraph()
        a, b = ServiceInstance("a", 1), ServiceInstance("b", 2)
        overlay.add_link(a, b, PathQuality(5, 1))
        with pytest.raises(ValueError):
            overlay.add_link(a, b, PathQuality(6, 1))

    def test_links_are_directed(self):
        overlay = OverlayGraph()
        a, b = ServiceInstance("a", 1), ServiceInstance("b", 2)
        overlay.add_link(a, b, PathQuality(5, 1))
        assert overlay.link(a, b) is not None
        assert overlay.link(b, a) is None
        assert overlay.link_quality(b, a) == UNREACHABLE

    def test_instances_of_sorted(self):
        overlay = OverlayGraph()
        overlay.add_instance(ServiceInstance("m", 5))
        overlay.add_instance(ServiceInstance("m", 2))
        assert [i.nid for i in overlay.instances_of("m")] == [2, 5]

    def test_successors_and_predecessors(self, small_overlay):
        src = ServiceInstance("src", 0)
        succ = [inst for inst, _ in small_overlay.successors(src)]
        assert succ == [ServiceInstance("mid", 1), ServiceInstance("mid", 2)]
        dst = ServiceInstance("dst", 3)
        preds = [inst for inst, _ in small_overlay.predecessors(dst)]
        assert preds == [ServiceInstance("mid", 1), ServiceInstance("mid", 2)]


class TestBuildFromUnderlay:
    @pytest.fixture
    def built(self, diamond_underlay):
        catalog = ServiceCatalog.from_edges([("A", "B")])
        placement = [
            ServiceInstance("A", 0),
            ServiceInstance("B", 1),
            ServiceInstance("B", 3),
        ]
        return OverlayGraph.build(diamond_underlay, placement, catalog.compatible)

    def test_compatible_pairs_linked(self, built):
        a = ServiceInstance("A", 0)
        assert built.link(a, ServiceInstance("B", 1)) is not None
        assert built.link(a, ServiceInstance("B", 3)) is not None

    def test_incompatible_pairs_not_linked(self, built):
        # B does not feed A, and B does not feed B.
        assert built.link(ServiceInstance("B", 1), ServiceInstance("A", 0)) is None
        assert built.link(ServiceInstance("B", 1), ServiceInstance("B", 3)) is None

    def test_link_weight_is_shortest_underlay_path(self, diamond_underlay):
        # Default routing = plain shortest (latency) paths: 0 -> 3 via host 1.
        catalog = ServiceCatalog.from_edges([("A", "B")])
        placement = [ServiceInstance("A", 0), ServiceInstance("B", 3)]
        overlay = OverlayGraph.build(
            diamond_underlay, placement, catalog.compatible
        )
        link = overlay.link(ServiceInstance("A", 0), ServiceInstance("B", 3))
        assert link.metrics == PathQuality(10.0, 2.0)
        assert link.underlay_path == (0, 1, 3)

    def test_widest_routing_option(self, diamond_underlay):
        catalog = ServiceCatalog.from_edges([("A", "B")])
        placement = [ServiceInstance("A", 0), ServiceInstance("B", 3)]
        overlay = OverlayGraph.build(
            diamond_underlay, placement, catalog.compatible,
            underlay_routing="widest",
        )
        link = overlay.link(ServiceInstance("A", 0), ServiceInstance("B", 3))
        assert link.metrics == PathQuality(50.0, 10.0)
        assert link.underlay_path == (0, 2, 3)

    def test_bad_routing_mode_rejected(self, diamond_underlay):
        catalog = ServiceCatalog.from_edges([("A", "B")])
        with pytest.raises(ValueError):
            OverlayGraph.build(
                diamond_underlay,
                [ServiceInstance("A", 0), ServiceInstance("B", 1)],
                catalog.compatible,
                underlay_routing="fastest",
            )

    def test_colocated_instances_get_ideal_link(self, diamond_underlay):
        catalog = ServiceCatalog.from_edges([("A", "B")])
        placement = [ServiceInstance("A", 2), ServiceInstance("B", 2)]
        overlay = OverlayGraph.build(diamond_underlay, placement, catalog.compatible)
        link = overlay.link(ServiceInstance("A", 2), ServiceInstance("B", 2))
        assert link.metrics.latency == 0.0
        assert link.metrics.bandwidth == math.inf

    def test_unknown_host_rejected(self, diamond_underlay):
        catalog = ServiceCatalog.from_edges([("A", "B")])
        with pytest.raises(KeyError):
            OverlayGraph.build(
                diamond_underlay, [ServiceInstance("A", 99)], catalog.compatible
            )


class TestEgoView:
    @pytest.fixture
    def line_overlay(self):
        """a/0 -> b/1 -> c/2 -> d/3 (directed line)."""
        overlay = OverlayGraph()
        insts = [
            ServiceInstance(s, i) for i, s in enumerate(["a", "b", "c", "d"])
        ]
        for u, v in zip(insts, insts[1:]):
            overlay.add_link(u, v, PathQuality(5, 1))
        return overlay, insts

    def test_zero_hops_is_self(self, line_overlay):
        overlay, insts = line_overlay
        view = overlay.ego_view(insts[0], 0)
        assert list(view.instances()) == [insts[0]]
        assert view.num_links() == 0

    def test_radius_counts_undirected_hops(self, line_overlay):
        overlay, insts = line_overlay
        view = overlay.ego_view(insts[2], 1)
        assert set(view.instances()) == {insts[1], insts[2], insts[3]}

    def test_out_direction_only_follows_downstream(self, line_overlay):
        overlay, insts = line_overlay
        view = overlay.ego_view(insts[1], 2, direction="out")
        assert set(view.instances()) == {insts[1], insts[2], insts[3]}

    def test_in_direction_only_follows_upstream(self, line_overlay):
        overlay, insts = line_overlay
        view = overlay.ego_view(insts[2], 2, direction="in")
        assert set(view.instances()) == {insts[0], insts[1], insts[2]}

    def test_view_keeps_internal_links(self, line_overlay):
        overlay, insts = line_overlay
        view = overlay.ego_view(insts[1], 1)
        assert view.link(insts[0], insts[1]) is not None
        assert view.link(insts[1], insts[2]) is not None
        assert view.link(insts[2], insts[3]) is None  # c->d endpoint d outside

    def test_large_radius_is_whole_overlay(self, line_overlay):
        overlay, insts = line_overlay
        view = overlay.ego_view(insts[0], 10)
        assert len(view) == len(overlay)
        assert view.num_links() == overlay.num_links()

    def test_unknown_root_rejected(self, line_overlay):
        overlay, _ = line_overlay
        with pytest.raises(KeyError):
            overlay.ego_view(ServiceInstance("zz", 99), 2)

    def test_negative_hops_rejected(self, line_overlay):
        overlay, insts = line_overlay
        with pytest.raises(ValueError):
            overlay.ego_view(insts[0], -1)

    def test_bad_direction_rejected(self, line_overlay):
        overlay, insts = line_overlay
        with pytest.raises(ValueError):
            overlay.ego_view(insts[0], 1, direction="sideways")


class TestSharedViewsAndSummaries:
    """Everything a planner derives from topology alone is a memoised,
    read-only query on the overlay, dropped by ``add_instance`` /
    ``add_link`` and by nothing else."""

    @pytest.fixture
    def line_overlay(self):
        """a/0 -> b/1 -> c/2 -> d/3 -> e/4 (directed line)."""
        overlay = OverlayGraph()
        insts = [ServiceInstance(s, i) for i, s in enumerate("abcde")]
        for k, (u, v) in enumerate(zip(insts, insts[1:])):
            overlay.add_link(u, v, PathQuality(5 + k, 1 + k))
        return overlay, insts

    def test_same_reach_is_the_same_object(self, line_overlay):
        overlay, insts = line_overlay
        view = overlay.ego_view(insts[1], 1)  # {a, b, c}
        assert overlay.ego_view(insts[1], 1) is view
        assert overlay.ego_view(insts[0], 2, direction="out") is view
        assert overlay.ego_view(insts[2], 1) is not view  # {b, c, d}

    def test_whole_overlay_reach_is_the_overlay(self, line_overlay):
        overlay, insts = line_overlay
        assert overlay.ego_view(insts[2], 2) is overlay
        assert overlay.ego_view(insts[0], 10, direction="out") is overlay

    def test_sub_view_holds_exactly_the_induced_links(self, line_overlay):
        overlay, insts = line_overlay
        view = overlay.ego_view(insts[1], 1)
        assert list(view.instances()) == insts[:3]
        links = [link for inst in view.instances() for link in view.out_links(inst)]
        assert [(link.src, link.dst) for link in links] == [
            (insts[0], insts[1]), (insts[1], insts[2]),
        ]
        # The frozen links are shared with the overlay, not re-created.
        assert all(link is overlay.link(link.src, link.dst) for link in links)
        assert list(view.predecessors(insts[1])) == [(insts[0], PathQuality(5, 1))]
        assert view.instances_of("d") == ()

    def test_add_link_and_add_instance_drop_the_memo(self, line_overlay):
        overlay, insts = line_overlay
        view = overlay.ego_view(insts[1], 1)
        hints, latency = overlay.gossip_hints(), overlay.mean_link_latency()
        assert overlay.gossip_hints() is hints
        overlay.add_link(insts[0], insts[2], PathQuality(50, 10))
        fresh = overlay.ego_view(insts[1], 1)
        assert fresh is not view
        assert view.link(insts[0], insts[2]) is None
        assert fresh.link(insts[0], insts[2]) is overlay.link(insts[0], insts[2])
        assert overlay.gossip_hints()[insts[0]] != hints[insts[0]]
        assert (latency, overlay.mean_link_latency()) == (2.5, 4.0)
        # A re-registration changes nothing and keeps the memo; a new
        # instance grows every whole-overlay vicinity.
        overlay.add_instance(insts[0])
        assert overlay.ego_view(insts[1], 1) is fresh
        overlay.add_instance(ServiceInstance("a", 9))
        assert overlay.ego_view(insts[1], 1) is not fresh
        assert overlay.ego_view(insts[2], 2) is not overlay

    def test_instances_of_stays_sorted_whatever_the_insertion_order(self):
        overlay = OverlayGraph()
        for nid in (5, 1, 9, 3, 1):
            overlay.add_instance(ServiceInstance("a", nid))
        assert [inst.nid for inst in overlay.instances_of("a")] == [1, 3, 5, 9]

    def test_summaries_equal_the_plain_loops(self):
        """As ``float.hex``, on a generated overlay and on a proper
        sub-view of it: same filters, same summation order as the
        per-session loops the queries replaced."""
        overlay = generate_scenario(
            ScenarioConfig(network_size=30, n_services=6, seed=5)
        ).overlay
        a, b = list(overlay.instances())[:2]
        if overlay.link(a, b) is None:  # unusable for the quality means
            overlay.add_link(a, b, PathQuality(math.inf, 0.0))
        view = overlay.subgraph(list(overlay.instances())[::2])
        assert 0 < view.num_links() < overlay.num_links()

        def mean(links):
            usable = [
                m for m in links if m.reachable and m.bandwidth != math.inf
            ]
            if not usable:
                return None
            return (
                (sum(m.bandwidth for m in usable) / len(usable)).hex(),
                (sum(m.latency for m in usable) / len(usable)).hex(),
            )

        def pin(quality):
            return quality and (quality.bandwidth.hex(), quality.latency.hex())

        for graph in (overlay, view):
            every = [
                m for inst in graph.instances() for _, m in graph.successors(inst)
            ]
            assert any(m.bandwidth == math.inf for m in every) or graph is view
            assert pin(graph.mean_link_quality()) == mean(every)
            latencies = [m.latency for m in every if m.reachable]
            assert graph.mean_link_latency().hex() == (
                sum(latencies) / len(latencies)
            ).hex()
            expected = {
                inst: mean(
                    [m for _, m in graph.successors(inst)]
                    + [m for _, m in graph.predecessors(inst)]
                )
                for inst in graph.instances()
            }
            assert {
                inst: pin(hint) for inst, hint in graph.gossip_hints().items()
            } == {
                inst: hint for inst, hint in expected.items() if hint is not None
            }

    def test_summaries_of_a_linkless_overlay_are_empty(self):
        overlay = OverlayGraph()
        overlay.add_instance(ServiceInstance("a", 1))
        assert overlay.gossip_hints() == {}
        assert overlay.mean_link_quality() is None
        assert overlay.mean_link_latency() is None


class TestSubgraphAndMerge:
    def test_subgraph_induced_links(self, small_overlay):
        src = ServiceInstance("src", 0)
        mid1 = ServiceInstance("mid", 1)
        sub = small_overlay.subgraph([src, mid1])
        assert len(sub) == 2
        assert sub.num_links() == 1

    def test_subgraph_unknown_instance_rejected(self, small_overlay):
        with pytest.raises(KeyError):
            small_overlay.subgraph([ServiceInstance("nope", 0)])

    def test_merged_with_unions_views(self, small_overlay):
        src = ServiceInstance("src", 0)
        mid1 = ServiceInstance("mid", 1)
        mid2 = ServiceInstance("mid", 2)
        dst = ServiceInstance("dst", 3)
        left = small_overlay.subgraph([src, mid1, dst])
        right = small_overlay.subgraph([src, mid2, dst])
        merged = left.merged_with(right)
        assert len(merged) == 4
        assert merged.num_links() == small_overlay.num_links()
