"""Tests for the service overlay graph."""

import dataclasses
import gc
import math
import pickle
import random
import weakref

import pytest

from repro.network.metrics import UNREACHABLE, PathQuality
from repro.network.overlay import (
    OverlayGraph,
    Restriction,
    ServiceInstance,
    ServiceLink,
)
from repro.network.underlay import Underlay, UnderlayConfig
from repro.routing import kernel
from repro.routing.oracle import OracleStats, RouteOracle
from repro.services.catalog import ServiceCatalog
from repro.services.workloads import ScenarioConfig, generate_scenario
from tests.oracles.wang_crowcroft import widest_shortest_tree


class TestServiceInstance:
    def test_str_is_sid_slash_nid(self):
        assert str(ServiceInstance("map", 7)) == "map/7"

    def test_ordering_by_sid_then_nid(self):
        assert ServiceInstance("a", 9) < ServiceInstance("b", 0)
        assert ServiceInstance("a", 1) < ServiceInstance("a", 2)

    def test_hashable(self):
        assert ServiceInstance("a", 1) in {ServiceInstance("a", 1)}

    def test_repr_is_what_the_kernel_interns_on(self):
        """Pinned literally: the kernel ranks nodes by ``repr`` and the pure
        reference breaks path ties on it, so a different text would move
        label order and tie-breaks."""
        assert repr(ServiceInstance("u3", 17)) == "ServiceInstance(sid='u3', nid=17)"

    def test_hashes_like_the_pair(self):
        """Same value as the generated dataclass hash it replaced, so sets
        and dicts of instances iterate in the order they always did."""
        for sid, nid in (("u3", 17), ("", 0), ("map", -1)):
            assert hash(ServiceInstance(sid, nid)) == hash((sid, nid))

    def test_sorted_on_a_mixed_list(self):
        mixed = [
            ServiceInstance("b", 0), ServiceInstance("a", 9), ServiceInstance("a", 10),
            ServiceInstance("B", 3), ServiceInstance("a", 9),
        ]
        assert [str(inst) for inst in sorted(mixed)] == [
            "B/3", "a/9", "a/9", "a/10", "b/0",
        ]
        assert max(mixed) == ServiceInstance("b", 0)

    def test_immutable(self):
        inst = ServiceInstance("a", 1)
        for name, value in (("sid", "b"), ("nid", 2), ("other", 3)):
            with pytest.raises(AttributeError):
                setattr(inst, name, value)

    def test_is_a_plain_pair(self):
        """What the tuple type adds to the dataclass it replaced."""
        inst = ServiceInstance("a", 1)
        sid, nid = inst
        assert (sid, nid) == ("a", 1) == inst
        assert inst != ("a", 2) and inst != ServiceInstance("b", 1)
        assert not dataclasses.is_dataclass(inst)

    def test_pickle_round_trip(self):
        inst = ServiceInstance("u3", 17)
        clone = pickle.loads(pickle.dumps(inst))
        assert type(clone) is ServiceInstance and clone == inst
        assert (clone.sid, clone.nid, str(clone)) == ("u3", 17, "u3/17")


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
        # Plain shortest (latency) paths: 0 -> 3 via host 1, not the wide
        # and slow detour via host 2.
        catalog = ServiceCatalog.from_edges([("A", "B")])
        placement = [ServiceInstance("A", 0), ServiceInstance("B", 3)]
        overlay = OverlayGraph.build(
            diamond_underlay, placement, catalog.compatible
        )
        link = overlay.link(ServiceInstance("A", 0), ServiceInstance("B", 3))
        assert link == ServiceLink(
            ServiceInstance("A", 0), ServiceInstance("B", 3), PathQuality(10.0, 2.0)
        )

    def test_colocated_instances_get_ideal_link(self, diamond_underlay):
        catalog = ServiceCatalog.from_edges([("A", "B")])
        placement = [ServiceInstance("A", 2), ServiceInstance("B", 2)]
        overlay = OverlayGraph.build(diamond_underlay, placement, catalog.compatible)
        link = overlay.link(ServiceInstance("A", 2), ServiceInstance("B", 2))
        assert link.metrics.latency == 0.0
        assert link.metrics.bandwidth == math.inf

    def test_predicate_asked_once_per_sid_pair_that_occurs(self, diamond_underlay):
        """Services, not instances, are compatible or not: one call per
        ordered sid pair, and none for a pair no two distinct instances make
        -- ``("A", "A")`` with a single instance of ``A``."""
        catalog = ServiceCatalog.from_edges([("A", "B"), ("B", "C")])
        asked = []

        def compatible(up, down):
            asked.append((up, down))
            return catalog.compatible(up, down)

        placement = [
            ServiceInstance("A", 0),
            *(ServiceInstance("B", nid) for nid in (1, 2, 3)),
            *(ServiceInstance("C", nid) for nid in (0, 3)),
        ]
        built = OverlayGraph.build(diamond_underlay, placement, compatible)
        sids = "ABC"
        assert sorted(asked) == sorted(
            (up, down) for up in sids for down in sids if (up, down) != ("A", "A")
        )
        per_pair = OverlayGraph()
        for a in sorted(placement):
            per_pair.add_instance(a)
        for a in sorted(placement):
            labels = widest_shortest_tree(diamond_underlay.neighbors, a.nid)
            for b in sorted(placement):
                if a == b or not catalog.compatible(a.sid, b.sid):
                    continue
                if a.nid == b.nid:
                    per_pair.add_link(a, b, PathQuality(math.inf, 0.0))
                else:
                    per_pair.add_link(a, b, labels[b.nid].quality)
        # Same links in the same row order: the order a CSR snapshot reads.
        assert list(built._out) == list(per_pair._out)
        for inst in placement:
            assert list(built._out[inst].items()) == list(per_pair._out[inst].items())
            assert list(built._in[inst].items()) == list(per_pair._in[inst].items())

    @staticmethod
    def built_from_full_trees(underlay, placement, compatible):
        """The overlay as a build made it from one full pure widest-shortest
        row per instance, every instance pair asked in ``(src, dst)``
        order."""
        overlay = OverlayGraph()
        for a in sorted(placement):
            overlay.add_instance(a)
        for a in sorted(placement):
            labels = widest_shortest_tree(underlay.neighbors, a.nid)
            for b in sorted(placement):
                if a == b or not compatible(a.sid, b.sid):
                    continue
                if a.nid == b.nid:
                    overlay.add_link(a, b, PathQuality(math.inf, 0.0))
                elif b.nid in labels and labels[b.nid].quality.reachable:
                    overlay.add_link(a, b, labels[b.nid].quality)
        return overlay

    @pytest.mark.parametrize(
        "model",
        ["waxman", "erdos_renyi", "barabasi_albert", "ring", "grid"],
        # The suffix names the underlay order the links are priced in.
        ids=lambda model: f"{model}-shortest-widest_shortest_tree",
    )
    def test_links_equal_a_build_from_full_pure_rows(self, model):
        """Prices asked at the fed hosts alone, none for a sink-only host,
        over rows without their dominated edges: the same links and
        metrics in the same row order."""
        underlay = Underlay.generate(UnderlayConfig(n=24, model=model, seed=5))
        catalog = ServiceCatalog.from_edges(
            [("A", "B"), ("A", "C"), ("B", "C"), ("C", "D"), ("B", "E")]
        )
        rng = random.Random(model)
        placement = {
            ServiceInstance(sid, rng.randrange(24)) for sid in "ABCDE" for _ in range(4)
        }
        RouteOracle.reset_default()
        built = OverlayGraph.build(underlay, placement, catalog.compatible)
        expected = self.built_from_full_trees(underlay, placement, catalog.compatible)
        assert built.num_links() == expected.num_links() > 0
        assert list(built._out) == list(expected._out)
        for inst in placement:
            assert list(built._out[inst].items()) == list(expected._out[inst].items())
            assert list(built._in[inst].items()) == list(expected._in[inst].items())

    def test_no_row_for_a_host_that_feeds_nothing(self, monkeypatch):
        """Hosts 4 and 5 run only the sink ``C``: no row is priced for
        them, and every row is priced at the hosts of the fed instances --
        the hosts of ``B`` and ``C`` -- in one pass, and no tree is built."""
        underlay = Underlay.generate(UnderlayConfig(n=12, seed=3))
        catalog = ServiceCatalog.from_edges([("A", "B"), ("B", "C")])
        placement = [
            ServiceInstance("A", 0), ServiceInstance("A", 1),
            ServiceInstance("B", 2), ServiceInstance("B", 3),
            ServiceInstance("C", 1), ServiceInstance("C", 4), ServiceInstance("C", 5),
        ]
        passes = []
        real = kernel.batched_prices

        def spy(csr, sources, targets, **kwargs):
            passes.append((list(sources), set(targets)))
            return real(csr, sources, targets, **kwargs)

        monkeypatch.setattr(kernel, "batched_prices", spy)
        oracle = RouteOracle.reset_default()
        OverlayGraph.build(underlay, placement, catalog.compatible)
        fed = frozenset({1, 2, 3, 4, 5})
        assert passes == [([0, 1, 2, 3], fed)]
        state = oracle._graphs[underlay]
        assert {key[2] for key in state.prices} == {0, 1, 2, 3}
        assert {covers for _, covers in state.prices.values()} == {fed}
        assert not state.trees and oracle.stats() == OracleStats()

    def test_a_rebuild_over_the_same_underlay_prices_nothing(self, monkeypatch):
        """A churn rejoin rebuilds the overlay over the unchanged underlay
        with the same placement: every price row is cached, so no price
        pass runs and the links are the first build's."""
        scenario = generate_scenario(ScenarioConfig(network_size=40, n_services=5, seed=2))
        placement = list(scenario.overlay.instances())
        compatible = scenario.catalog.compatible
        RouteOracle.reset_default()
        first = OverlayGraph.build(scenario.underlay, placement, compatible)
        passes = []
        real = kernel.batched_prices
        monkeypatch.setattr(
            kernel, "batched_prices", lambda *a, **k: passes.append(a) or real(*a, **k)
        )
        again = OverlayGraph.build(scenario.underlay, placement, compatible)
        assert passes == []
        assert again.num_links() == first.num_links() > 0
        for inst in placement:
            assert again.out_links(inst) == first.out_links(inst)

    def test_unknown_host_rejected(self, diamond_underlay):
        catalog = ServiceCatalog.from_edges([("A", "B")])
        with pytest.raises(KeyError):
            OverlayGraph.build(
                diamond_underlay, [ServiceInstance("A", 99)], catalog.compatible
            )


class TestRepeatBuild:
    """``build`` holds the last graph it built per underlay, with the price
    rows and predicate answers it was made from; a repeat build over the
    same rows returns that graph, which is immutable."""

    @pytest.fixture
    def scenario(self):
        return generate_scenario(ScenarioConfig(network_size=40, n_services=5, seed=2))

    @staticmethod
    def spy_on_path_qualities(monkeypatch):
        made = []
        real = PathQuality.__init__

        def counted(self, *args, **kwargs):
            made.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(PathQuality, "__init__", counted)
        return made

    @staticmethod
    def table(overlay):
        """Everything a link table holds, in row order."""
        return (
            [(inst, list(row.items())) for inst, row in overlay._out.items()],
            [(inst, list(row.items())) for inst, row in overlay._in.items()],
            overlay._by_sid,
        )

    def test_a_repeat_build_in_any_order_makes_no_metrics(self, scenario, monkeypatch):
        placement = list(scenario.overlay.instances())
        compatible = scenario.catalog.compatible
        RouteOracle.reset_default()
        first = OverlayGraph.build(scenario.underlay, placement, compatible)
        made = self.spy_on_path_qualities(monkeypatch)
        shuffled = placement + placement[:3]
        random.Random(0).shuffle(shuffled)
        again = OverlayGraph.build(scenario.underlay, shuffled, compatible)
        assert made == []
        assert again is first and again.num_links() > 0
        RouteOracle.reset_default()
        fresh = OverlayGraph.build(scenario.underlay, placement, compatible)
        assert made and self.table(again) == self.table(fresh)

    def test_growing_a_built_graph_reaches_no_later_build(self, scenario):
        """A first or a repeat result refuses to grow and stays what the
        slot holds; a :meth:`with_links` copy grows without reaching it."""
        placement = list(scenario.overlay.instances())
        compatible = scenario.catalog.compatible
        RouteOracle.reset_default()
        first = OverlayGraph.build(scenario.underlay, placement, compatible)
        expected = self.table(first.with_links({}))
        src, dst = next(
            (a, b) for a in placement for b in placement
            if a != b and first.link_metrics(a, b) is None
        )
        ghost = ServiceInstance("ghost", 0)
        for built in (first, OverlayGraph.build(scenario.underlay, placement, compatible)):
            with pytest.raises(TypeError, match=r"with_links\(\{\}\)"):
                built.add_link(src, dst, PathQuality(1.0, 1.0))
            with pytest.raises(TypeError, match=r"with_links\(\{\}\)"):
                built.add_instance(ghost)
            assert OverlayGraph.build(scenario.underlay, placement, compatible) is first
            assert self.table(first) == expected
        grown = first.with_links({})
        grown.add_link(src, dst, PathQuality(1.0, 1.0))
        grown.add_instance(ghost)
        later = OverlayGraph.build(scenario.underlay, placement, compatible)
        assert later is first and self.table(later) == expected
        assert later.link_metrics(src, dst) is None and ghost not in later

    @pytest.mark.parametrize("change", ["placement", "predicate", "reset_default", "clear", "invalidate"])
    def test_each_input_forces_a_rebuild(self, scenario, monkeypatch, change):
        underlay, placement = scenario.underlay, list(scenario.overlay.instances())
        compatible = scenario.catalog.compatible
        RouteOracle.reset_default()
        first = OverlayGraph.build(underlay, placement, compatible)
        if change == "placement":
            placement = placement[1:]
        elif change == "predicate":
            flipped = next(
                (a.sid, b.sid) for a in placement for b in placement if a.sid != b.sid
            )
            real = compatible

            def compatible(up, down):
                return real(up, down) != ((up, down) == flipped)
        elif change == "invalidate":
            RouteOracle.default().invalidate(underlay)
        else:
            getattr(RouteOracle.default() if change == "clear" else RouteOracle, change)()
        made = self.spy_on_path_qualities(monkeypatch)
        rebuilt = OverlayGraph.build(underlay, placement, compatible)
        assert made
        expected = TestBuildFromUnderlay.built_from_full_trees(underlay, placement, compatible)
        assert self.table(rebuilt) == self.table(expected)
        assert (self.table(rebuilt) == self.table(first)) == (
            change not in ("placement", "predicate")
        )

    def test_a_host_out_of_range_is_refused_after_a_build(self, scenario):
        placement = list(scenario.overlay.instances())
        compatible = scenario.catalog.compatible
        OverlayGraph.build(scenario.underlay, placement, compatible)
        stray = ServiceInstance(placement[0].sid, scenario.underlay.n)
        with pytest.raises(KeyError, match="unknown host"):
            OverlayGraph.build(scenario.underlay, placement + [stray], compatible)


class TestABuiltGraphIsImmutable:
    """What ``build`` returns is shared by every repeat build, so it refuses
    to grow; a copy made from it is the caller's own and grows."""

    @pytest.fixture
    def built(self):
        return generate_scenario(ScenarioConfig(network_size=30, n_services=4, seed=1)).overlay

    @staticmethod
    def unlinked_pair(graph):
        instances = list(graph.instances())
        return next(
            (a, b) for a in instances for b in instances
            if a != b and graph.link_metrics(a, b) is None
        )

    def test_add_link_and_add_instance_raise(self, built):
        src, dst = self.unlinked_pair(built)
        before = TestRepeatBuild.table(built)
        with pytest.raises(TypeError, match=r"with_links\(\{\}\)"):
            built.add_link(src, dst, PathQuality(1.0, 1.0))
        with pytest.raises(TypeError, match=r"with_links\(\{\}\)"):
            built.add_instance(ServiceInstance("ghost", 0))
        assert TestRepeatBuild.table(built) == before

    @pytest.mark.parametrize("copy", ["with_links", "without", "subgraph"])
    def test_its_copies_grow(self, built, copy):
        instances = list(built.instances())
        grown = {
            "with_links": lambda: built.with_links({}),
            "without": lambda: built.without(instances[:1]),
            "subgraph": lambda: built.subgraph(instances[1:]),
        }[copy]()
        src, dst = self.unlinked_pair(grown)
        ghost = ServiceInstance("ghost", 0)
        grown.add_link(src, dst, PathQuality(1.0, 1.0))
        grown.add_instance(ghost)
        assert grown.link_metrics(src, dst) == PathQuality(1.0, 1.0) and ghost in grown
        assert built.link_metrics(src, dst) is None and ghost not in built


class TestLinkStorage:
    """A link is stored as its metrics; a :class:`ServiceLink` is made only
    when a caller asks for one."""

    @pytest.fixture
    def scenario(self):
        return generate_scenario(ScenarioConfig(network_size=40, n_services=5, seed=2))

    @staticmethod
    def spy_on_service_links(monkeypatch):
        made = []
        real = ServiceLink.__init__

        def counted(self, *args, **kwargs):
            made.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(ServiceLink, "__init__", counted)
        return made

    def test_a_build_over_cached_prices_makes_no_service_link(self, scenario, monkeypatch):
        placement = list(scenario.overlay.instances())
        compatible = scenario.catalog.compatible
        OverlayGraph.build(scenario.underlay, placement, compatible)  # prices cached
        made = self.spy_on_service_links(monkeypatch)
        built = OverlayGraph.build(scenario.underlay, placement, compatible)
        assert built.num_links() > 0 and made == []
        # The spy sees what the public readers make.
        src = placement[0]
        dst, _ = next(built.successors(src))
        built.link(src, dst)
        assert made == [(src, dst, built.link_metrics(src, dst))]

    def test_link_and_out_links_are_the_stored_metrics(self, scenario):
        overlay = scenario.overlay
        for src in overlay.instances():
            row = list(overlay.successors(src))
            assert overlay.out_links(src) == tuple(
                ServiceLink(src, dst, metrics) for dst, metrics in row
            )
            for dst, metrics in row:
                link = overlay.link(src, dst)
                assert link == ServiceLink(src, dst, metrics)
                assert link.metrics is metrics is overlay.link_metrics(src, dst)
                assert dict(overlay.predecessors(dst))[src] is metrics
        ghost, first = ServiceInstance("ghost", 0), next(overlay.instances())
        assert overlay.link_metrics(ghost, first) is overlay.link(ghost, first) is None

    def test_colocated_links_share_one_ideal_metrics_object(self, diamond_underlay):
        catalog = ServiceCatalog.from_edges([("A", "B"), ("B", "C")])
        placement = [ServiceInstance(sid, 2) for sid in "ABC"]
        overlay = OverlayGraph.build(diamond_underlay, placement, catalog.compatible)
        ab = overlay.link_metrics(placement[0], placement[1])
        bc = overlay.link_metrics(placement[1], placement[2])
        assert ab is bc and ab == PathQuality(math.inf, 0.0)

    def test_add_link_rejects_a_self_loop_and_a_duplicate(self):
        overlay = OverlayGraph()
        a, b = ServiceInstance("a", 1), ServiceInstance("b", 2)
        first = PathQuality(5, 1)
        assert overlay.add_link(a, b, first) == ServiceLink(a, b, first)
        with pytest.raises(ValueError, match="self-loop"):
            overlay.add_link(a, a, PathQuality(1, 1))
        with pytest.raises(ValueError, match="already exists"):
            overlay.add_link(a, b, PathQuality(6, 1))
        assert overlay.num_links() == 1
        assert overlay.link_metrics(a, a) is None
        assert overlay.link_metrics(a, b) is first
        assert list(overlay.predecessors(b)) == [(a, first)]


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
        # The links' metrics are shared with the overlay, not re-created.
        assert all(
            link.metrics is overlay.link_metrics(link.src, link.dst) for link in links
        )
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
        assert fresh.link_metrics(insts[0], insts[2]) is overlay.link_metrics(
            insts[0], insts[2]
        )
        assert overlay.gossip_hints()[insts[0]] != hints[insts[0]]
        assert (latency, overlay.mean_link_latency()) == (2.5, 4.0)
        # A re-registration changes nothing and keeps the memo; a new
        # instance grows every whole-overlay vicinity.
        overlay.add_instance(insts[0])
        assert overlay.ego_view(insts[1], 1) is fresh
        overlay.add_instance(ServiceInstance("a", 9))
        assert overlay.ego_view(insts[1], 1) is not fresh
        assert overlay.ego_view(insts[2], 2) is not overlay

    def test_add_link_drops_the_memoised_views_and_rows(self, line_overlay):
        overlay, insts = line_overlay
        whole, part = overlay.ego_view(insts[2], 2), overlay.ego_view(insts[1], 1)
        row = overlay.hop_row(insts[0])
        assert whole is overlay and overlay.hop_row(insts[0]) is row
        assert row[insts[2]] == (5.0, 3.0) and row[insts[4]] == (5.0, 10.0)
        assert part.hop_row(insts[1]) == {
            insts[1]: (math.inf, 0.0), insts[2]: (6.0, 2.0),
        }
        overlay.add_link(insts[0], insts[2], PathQuality(50, 10))
        RouteOracle.default().invalidate(overlay)  # the oracle's trees are ours to drop
        assert overlay.ego_view(insts[1], 1) is not part
        fresh = overlay.hop_row(insts[0])
        assert fresh is not row and fresh[insts[2]] == (50.0, 10.0)
        overlay.add_instance(ServiceInstance("f", 5))
        assert overlay.ego_view(insts[2], 2) is not overlay
        assert ServiceInstance("f", 5) not in overlay.hop_row(insts[0])

    def test_an_overlay_with_memoised_views_is_freed_without_a_full_gc(self):
        """The memo marks a whole-overlay view instead of holding the overlay
        itself, which would make every queried overlay a reference cycle."""
        insts = [ServiceInstance(s, i) for i, s in enumerate("abcde")]
        gc.collect()
        gc.disable()
        try:
            overlay = OverlayGraph()
            for u, v in zip(insts, insts[1:]):
                overlay.add_link(u, v, PathQuality(5.0, 1.0))
            assert overlay.ego_view(insts[2], 2) is overlay
            assert overlay.ego_view(insts[1], 1) is not overlay
            overlay.hop_row(insts[0])
            alive = weakref.ref(overlay)
            del overlay
            assert alive() is None
        finally:
            gc.enable()

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


class TestWithLinks:
    """The one copy primitive behind ``fail_links`` / ``degrade_links`` /
    ``revive_links``: what did not change is shared, nothing is aliased."""

    @pytest.fixture
    def base(self):
        scenario = generate_scenario(ScenarioConfig(network_size=40, n_services=5, seed=2))
        overlay = scenario.overlay
        links = [
            link for inst in overlay.instances() for link in overlay.out_links(inst)
        ]
        return overlay, links

    def test_untouched_links_are_shared_and_touched_ones_replaced(self, base):
        overlay, links = base
        sagging, gone = links[0], links[-1]
        copy = overlay.with_links(
            {
                (sagging.src, sagging.dst): PathQuality(0.5, 99.0),
                (gone.src, gone.dst): None,
            }
        )
        assert list(copy.instances()) == list(overlay.instances())
        assert copy.num_links() == overlay.num_links() - 1
        for link in links[1:-1]:
            assert copy.link_metrics(link.src, link.dst) is link.metrics
        changed = copy.link(sagging.src, sagging.dst)
        assert changed == ServiceLink(sagging.src, sagging.dst, PathQuality(0.5, 99.0))
        assert overlay.link_metrics(sagging.src, sagging.dst) is sagging.metrics
        # Both directions' tables agree, for the replaced and the dropped.
        assert dict(copy.predecessors(sagging.dst))[sagging.src] == PathQuality(0.5, 99.0)
        assert copy.link(gone.src, gone.dst) is None
        assert gone.src not in dict(copy.predecessors(gone.dst))
        assert overlay.link_metrics(gone.src, gone.dst) is gone.metrics

    def test_no_change_is_an_equal_copy(self, base):
        overlay, links = base
        copy = overlay.with_links({})
        assert copy is not overlay
        assert [
            link for inst in copy.instances() for link in copy.out_links(inst)
        ] == links
        assert list(copy.sids()) == list(overlay.sids())
        for sid in overlay.sids():
            assert copy.instances_of(sid) == overlay.instances_of(sid)

    def test_growing_the_copy_leaves_the_original_and_its_memo_alone(self, base):
        overlay, links = base
        root = links[0].src
        view, hints = overlay.ego_view(root, 1), overlay.gossip_hints()
        assert view is not overlay
        copy = overlay.with_links({(links[0].src, links[0].dst): None})
        size, count = len(overlay), overlay.num_links()
        newcomer = ServiceInstance(root.sid, 10_000)
        copy.add_instance(newcomer)
        copy.add_link(links[0].src, links[0].dst, PathQuality(1.0, 1.0))
        copy.add_link(newcomer, links[0].dst, PathQuality(2.0, 2.0))
        assert (len(overlay), overlay.num_links()) == (size, count)
        assert newcomer not in overlay
        assert newcomer not in overlay.instances_of(root.sid)
        assert newcomer not in dict(overlay.predecessors(links[0].dst))
        assert overlay.link_metrics(links[0].src, links[0].dst) is links[0].metrics
        assert overlay.ego_view(root, 1) is view
        assert overlay.gossip_hints() is hints
        # ... and the copy started without the original's memo.
        assert copy.gossip_hints() is not hints
        pool = copy.instances_of(root.sid)
        assert newcomer in pool and list(pool) == sorted(pool)

    def test_unknown_link_rejected(self, base):
        overlay, links = base
        ghost = ServiceInstance("ghost", 0)
        for change in (PathQuality(1.0, 1.0), None):
            with pytest.raises(KeyError):
                overlay.with_links({(links[0].src, ghost): change})
            with pytest.raises(KeyError):
                overlay.with_links({(ghost, links[0].dst): change})


class TestRestrictionOf:
    """The diff ``revive_links`` hands the route oracle: what was taken
    away from ``reference``, or ``None`` when anything got better."""

    @pytest.fixture
    def base(self):
        scenario = generate_scenario(ScenarioConfig(network_size=40, n_services=5, seed=2))
        overlay = scenario.overlay
        links = [
            (link.src, link.dst)
            for inst in overlay.instances()
            for link in overlay.out_links(inst)
        ]
        return overlay, links

    def test_a_copy_takes_nothing_away(self, base):
        overlay, links = base
        nothing = Restriction(frozenset(), frozenset(), frozenset())
        assert overlay.restriction_of(overlay) == nothing
        assert overlay.with_links({}).restriction_of(overlay) == nothing
        # Equal metrics in a fresh object are no degradation.
        quality = overlay.link_quality(*links[0])
        same = overlay.with_links({links[0]: PathQuality(quality.bandwidth, quality.latency)})
        assert same.link_metrics(*links[0]) is not overlay.link_metrics(*links[0])
        assert same.restriction_of(overlay) == nothing

    def test_names_what_each_failure_model_took(self, base):
        overlay, links = base
        victim = links[0][0]
        cut = [pair for pair in links if victim not in pair][:2]
        sagging = [pair for pair in links if victim not in pair][5:8]
        slowed = [pair for pair in links if victim not in pair][9]
        changes = {pair: None for pair in cut}
        for pair in sagging:
            quality = overlay.link_quality(*pair)
            changes[pair] = PathQuality(quality.bandwidth * 0.5, quality.latency)
        quality = overlay.link_quality(*slowed)
        changes[slowed] = PathQuality(quality.bandwidth, quality.latency * 2 + 1)
        keep = [inst for inst in overlay.instances() if inst != victim]
        result = overlay.with_links(changes).subgraph(keep)
        # The victim's own links left with it: not named one by one.
        assert result.restriction_of(overlay) == Restriction(
            frozenset([victim]), frozenset(cut), frozenset([*sagging, slowed])
        )

    def test_refuses_anything_better_than_the_reference(self, base):
        overlay, links = base
        pair = next(  # not a co-located pair's ideal link: room both ways
            pair for pair in links if overlay.link_quality(*pair).latency > 0
        )
        quality = overlay.link_quality(*pair)
        wider = PathQuality(quality.bandwidth * 2, quality.latency + 1)
        faster = PathQuality(quality.bandwidth / 2, quality.latency / 2)
        assert overlay.with_links({pair: wider}).restriction_of(overlay) is None
        assert overlay.with_links({pair: faster}).restriction_of(overlay) is None
        # A link or an instance only the result has: seen from the other side.
        assert overlay.restriction_of(overlay.with_links({pair: None})) is None
        keep = [inst for inst in overlay.instances() if inst != pair[0]]
        assert overlay.restriction_of(overlay.subgraph(keep)) is None


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
